#ifndef DACE_BASELINES_QPPNET_H_
#define DACE_BASELINES_QPPNET_H_

#include <array>
#include <string>
#include <vector>

#include "baselines/common.h"
#include "core/estimator.h"
#include "nn/layers.h"
#include "plan/plan.h"
#include "util/rng.h"

namespace dace::baselines {

// QPPNet (Marcus & Papaemmanouil): one small MLP per operator type. A
// node's network consumes the node's features plus its children's "data
// vectors" and emits [predicted latency, data vector]; parents therefore
// wait on children, making inference inherently sequential (the latency
// weakness Table II exposes). Every node's latency contributes equally to
// the loss — the information redundancy DACE's loss adjuster fixes.
class QppNet : public core::CostEstimator {
 public:
  struct Config {
    int data_dim = 32;   // size of the child->parent data vector
    int hidden = 256;
    TrainOptions train;
  };

  QppNet();
  explicit QppNet(const Config& config);

  std::string Name() const override { return "QPPNet"; }
  void Train(const std::vector<plan::QueryPlan>& plans) override;
  double PredictMs(const plan::QueryPlan& plan) const override;
  size_t ParameterCount() const override;

 private:
  static constexpr int kNodeFeatures = 2;  // scaled est card, est cost

  struct NodeState {
    nn::Linear::ExternalCache c1, c2;
    nn::Matrix z1, h1;
    nn::Matrix output;  // (1 × (1 + data_dim))
    int type = 0;
  };

  // Post-order forward over node `id`; fills states (indexed by node id,
  // sized to the plan) and returns the node's output row.
  const nn::Matrix& ForwardNode(const plan::QueryPlan& plan, int32_t id,
                                std::vector<NodeState>* states) const;

  std::vector<nn::Parameter*> Parameters();

  Config config_;
  PlanScalers scalers_;
  Rng rng_;
  std::array<nn::Linear, plan::kNumOperatorTypes> fc1_;
  std::array<nn::Linear, plan::kNumOperatorTypes> fc2_;
};

}  // namespace dace::baselines

#endif  // DACE_BASELINES_QPPNET_H_
