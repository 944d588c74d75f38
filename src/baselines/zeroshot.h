#ifndef DACE_BASELINES_ZEROSHOT_H_
#define DACE_BASELINES_ZEROSHOT_H_

#include <array>
#include <string>
#include <vector>

#include "baselines/common.h"
#include "core/estimator.h"
#include "nn/layers.h"
#include "plan/plan.h"
#include "util/rng.h"

namespace dace::baselines {

// Zero-Shot (Hilprecht & Binnig): the across-database baseline. The plan is
// treated as a directed graph; each operator type owns an MLP that encodes
// [transferable node features, mean of child messages] into a hidden
// message; bottom-up message passing ends at the root, whose message feeds a
// regression head. Features are database-agnostic (estimated cardinality /
// cost, table size, tuple width) so the model transfers — but it is ~an
// order of magnitude larger and slower than DACE, and only the root is
// supervised.
class ZeroShot : public core::CostEstimator {
 public:
  struct Config {
    int message_dim = 96;
    int hidden = 192;
    TrainOptions train;
  };

  ZeroShot();
  explicit ZeroShot(const Config& config);

  std::string Name() const override { return "Zero-Shot"; }
  void Train(const std::vector<plan::QueryPlan>& plans) override;
  double PredictMs(const plan::QueryPlan& plan) const override;
  size_t ParameterCount() const override;

 private:
  static constexpr int kNodeFeatures = 4;  // card, cost, table rows, is_scan

  struct NodeState {
    nn::Linear::ExternalCache c1, c2;
    nn::Matrix z1, h1, z2;
    nn::Matrix msg;  // (1 × message_dim)
    int type = 0;
  };
  struct HeadState {
    nn::Linear::ExternalCache c1, c2;
    nn::Matrix z1, h1, out;
  };

  nn::Matrix NodeInput(const plan::PlanNode& node,
                       const nn::Matrix& child_mean) const;

  // Post-order forward over node `id`; fills states (indexed by node id,
  // sized to the plan) and returns the node's hidden message.
  const nn::Matrix& ForwardNode(const plan::QueryPlan& plan, int32_t id,
                                std::vector<NodeState>* states) const;

  // Root message → scaled-log-time prediction.
  double HeadForward(const nn::Matrix& root_msg, HeadState* hs) const;

  std::vector<nn::Parameter*> Parameters();

  Config config_;
  PlanScalers scalers_;
  featurize::RobustScaler table_rows_scaler_;
  Rng rng_;
  std::array<nn::Linear, plan::kNumOperatorTypes> fc1_;
  std::array<nn::Linear, plan::kNumOperatorTypes> fc2_;
  nn::Linear head1_, head2_;
};

}  // namespace dace::baselines

#endif  // DACE_BASELINES_ZEROSHOT_H_
