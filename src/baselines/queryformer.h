#ifndef DACE_BASELINES_QUERYFORMER_H_
#define DACE_BASELINES_QUERYFORMER_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/common.h"
#include "core/dace_model.h"
#include "core/estimator.h"
#include "nn/layers.h"
#include "plan/plan.h"
#include "util/rng.h"

namespace dace::baselines {

// QueryFormer (Zhao et al.): a multi-layer tree transformer over the plan
// with (a) a height encoding in the node features, (b) structure-restricted
// attention (nodes attend along ancestor/descendant lines), and (c) a
// "super node" attending to everything, whose representation feeds the
// regression head. Only the root latency is supervised. Heavier and slower
// than DACE by construction (several encoder layers, wide FFNs).
//
// Simplification vs. the original: the learnable per-distance attention
// bias b_d is folded into the height one-hot features + the structural mask
// (DACE's own Sec. IV-C argues b_d away; the comparison stays fair).
//
// Constructing with a pre-trained DaceEstimator appends DACE's plan encoding
// to the head input, yielding DACE-QueryFormer.
class QueryFormer : public core::CostEstimator {
 public:
  struct Config {
    int d_model = 96;
    int num_layers = 5;
    int ffn_hidden = 384;
    TrainOptions train;
  };

  QueryFormer();
  explicit QueryFormer(const Config& config,
                       const core::DaceEstimator* encoder = nullptr);

  std::string Name() const override {
    return encoder_ ? "DACE-QueryFormer" : "QueryFormer";
  }

  void Train(const std::vector<plan::QueryPlan>& plans) override;
  double PredictMs(const plan::QueryPlan& plan) const override;
  size_t ParameterCount() const override;

 private:
  // super flag + type + (card, cost) + height one-hot + table one-hot.
  static constexpr int kInDim = 1 + plan::kNumOperatorTypes + 2 +
                                (kMaxHeightBucket + 1) + kMaxTables;

  struct EncoderLayer {
    nn::TreeAttention attention;
    nn::Linear ffn1, ffn2;
  };

  // Everything one plan's forward pass leaves for its backward pass.
  struct PlanCache {
    struct Layer {
      nn::TreeAttention::Cache attention;
      nn::Linear::ExternalCache ffn1, ffn2;
      nn::Matrix z1;  // ffn1 pre-activation (ReLU mask)
    };
    nn::Linear::ExternalCache embed;
    std::vector<Layer> layers;
    nn::Linear::ExternalCache head1, head2;
    nn::Matrix head_z, head_h, out;
  };

  // Rows: super node then DFS nodes.
  nn::Matrix BuildInput(const plan::QueryPlan& plan) const;
  nn::Matrix BuildMask(const plan::QueryPlan& plan) const;

  // Forward to the super-node representation (1 × d_model).
  nn::Matrix ForwardBody(const nn::Matrix& input, const nn::Matrix& mask,
                         PlanCache* cache) const;
  // Super node (+ DACE encoding) → scaled-log-time prediction.
  double ForwardHead(const nn::Matrix& super,
                     const std::vector<double>& encoding,
                     PlanCache* cache) const;

  std::vector<nn::Parameter*> Parameters();

  Config config_;
  const core::DaceEstimator* encoder_;  // not owned; may be null
  PlanScalers scalers_;
  Rng rng_;
  nn::Linear embed_;
  std::vector<std::unique_ptr<EncoderLayer>> layers_;
  nn::Linear head1_, head2_;
};

}  // namespace dace::baselines

#endif  // DACE_BASELINES_QUERYFORMER_H_
