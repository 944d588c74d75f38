#ifndef DACE_BASELINES_MSCN_H_
#define DACE_BASELINES_MSCN_H_

#include <string>
#include <vector>

#include "baselines/common.h"
#include "core/dace_model.h"
#include "core/estimator.h"
#include "nn/layers.h"
#include "plan/plan.h"
#include "util/rng.h"

namespace dace::baselines {

// MSCN (Kipf et al.): a multi-set convolutional network over the query's
// table / join / predicate sets. Each set element passes through a shared
// per-set MLP; elements are average-pooled; the pooled vectors are
// concatenated and fed to an output MLP (Eq. 9 of the DACE paper). A
// within-database model: features are table/column identities, so it cannot
// transfer across schemas.
//
// Knowledge integration: constructing with a pre-trained DaceEstimator
// appends DACE's 64-dim plan encoding w_E to the concatenation, yielding
// DACE-MSCN.
class Mscn : public core::CostEstimator {
 public:
  struct Config {
    int hidden = 256;
    TrainOptions train;
  };

  Mscn();
  explicit Mscn(const Config& config,
                const core::DaceEstimator* encoder = nullptr);

  std::string Name() const override {
    return encoder_ ? "DACE-MSCN" : "MSCN";
  }

  void Train(const std::vector<plan::QueryPlan>& plans) override;
  double PredictMs(const plan::QueryPlan& plan) const override;
  size_t ParameterCount() const override;

 private:
  // Per-set element dimensions.
  static constexpr int kTableDim = kMaxTables + 1;
  static constexpr int kJoinDim = 2 * kMaxTables;
  static constexpr int kPredDim =
      kMaxTables + kMaxColumns + kNumCompareOps + 2;

  struct SetFeatures {
    nn::Matrix tables;      // (num_tables × kTableDim)
    nn::Matrix joins;       // possibly 0 rows
    nn::Matrix predicates;  // possibly 0 rows
  };

  SetFeatures Extract(const plan::QueryPlan& plan) const;

  // Forward to the scaled-log-time prediction through `state`, which keeps
  // what Backward needs. Returns the prediction.
  struct ForwardState;
  double Forward(const SetFeatures& f, const std::vector<double>& encoding,
                 ForwardState* state) const;
  void Backward(const ForwardState& state, double dloss);

  std::vector<nn::Parameter*> Parameters();

  Config config_;
  const core::DaceEstimator* encoder_;  // not owned; may be null
  PlanScalers scalers_;
  Rng rng_;

  // Set encoders: two layers each.
  nn::Linear table_fc1_, table_fc2_;
  nn::Linear join_fc1_, join_fc2_;
  nn::Linear pred_fc1_, pred_fc2_;
  // Output head.
  nn::Linear out_fc1_, out_fc2_;
};

}  // namespace dace::baselines

#endif  // DACE_BASELINES_MSCN_H_
