#ifndef DACE_BASELINES_TPOOL_H_
#define DACE_BASELINES_TPOOL_H_

#include <string>
#include <vector>

#include "baselines/common.h"
#include "core/estimator.h"
#include "nn/layers.h"
#include "plan/plan.h"
#include "util/rng.h"

namespace dace::baselines {

// TPool (Sun & Li, "An End-to-End Learning-based Cost Estimator"): a shared
// node encoder plus a recursive tree-pooling combiner, trained multi-task on
// both execution time and cardinality of the root. A within-database model:
// node features include table/column identities and predicate details.
class TPool : public core::CostEstimator {
 public:
  struct Config {
    int rep_dim = 192;  // node/sub-plan representation size
    double card_loss_weight = 0.5;
    TrainOptions train;
  };

  TPool();
  explicit TPool(const Config& config);

  std::string Name() const override { return "TPool"; }
  void Train(const std::vector<plan::QueryPlan>& plans) override;
  double PredictMs(const plan::QueryPlan& plan) const override;

  // The multi-task twin of PredictMs: root cardinality estimate.
  double PredictCardinality(const plan::QueryPlan& plan) const;

  size_t ParameterCount() const override;

 private:
  // type one-hot + table one-hot + [card, cost, #filters, min est sel].
  static constexpr int kNodeDim = plan::kNumOperatorTypes + kMaxTables + 4;

  struct NodeState {
    nn::Linear::ExternalCache enc_cache, comb_cache;
    nn::Matrix enc_z, enc_h, comb_z;
    nn::Matrix rep;  // (1 × rep_dim) sub-plan representation
  };
  struct HeadState {
    nn::Linear::ExternalCache c1, c2;
    nn::Matrix z1, h1, out;
  };

  nn::Matrix NodeFeature(const plan::PlanNode& node) const;

  // Post-order over node `id`; fills states (indexed by node id, sized to
  // the plan) and returns the sub-plan representation.
  const nn::Matrix& ForwardNode(const plan::QueryPlan& plan, int32_t id,
                                std::vector<NodeState>* states) const;

  // Head forward (time or card) from the root representation.
  double HeadForward(const nn::Linear& h1, const nn::Linear& h2,
                     const nn::Matrix& rep, HeadState* hs) const;

  std::vector<nn::Parameter*> Parameters();

  Config config_;
  PlanScalers scalers_;
  Rng rng_;
  nn::Linear encoder_;   // kNodeDim -> rep
  nn::Linear combiner_;  // 3*rep -> rep
  nn::Linear time_h1_, time_h2_;
  nn::Linear card_h1_, card_h2_;
};

}  // namespace dace::baselines

#endif  // DACE_BASELINES_TPOOL_H_
