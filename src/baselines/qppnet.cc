#include "baselines/qppnet.h"

#include <cmath>

#include "util/logging.h"

namespace dace::baselines {

namespace {
using nn::Matrix;
}  // namespace

QppNet::QppNet() : QppNet(Config()) {}

QppNet::QppNet(const Config& config) : config_(config), rng_(config.train.seed) {
  const size_t in_dim =
      kNodeFeatures + 2 * static_cast<size_t>(config_.data_dim);
  for (int t = 0; t < plan::kNumOperatorTypes; ++t) {
    fc1_[static_cast<size_t>(t)].Init(in_dim,
                                      static_cast<size_t>(config_.hidden), &rng_);
    fc2_[static_cast<size_t>(t)].Init(static_cast<size_t>(config_.hidden),
                                      1 + static_cast<size_t>(config_.data_dim),
                                      &rng_);
  }
}

const Matrix& QppNet::ForwardNode(const plan::QueryPlan& plan, int32_t id,
                                  std::vector<NodeState>* states) const {
  const plan::PlanNode& node = plan.node(id);
  const int type = static_cast<int>(node.type);
  const size_t dd = static_cast<size_t>(config_.data_dim);

  Matrix input(1, kNodeFeatures + 2 * dd);
  input(0, 0) = scalers_.card.Transform(node.est_cardinality);
  input(0, 1) = scalers_.cost.Transform(node.est_cost);
  for (size_t k = 0; k < node.children.size() && k < 2; ++k) {
    const Matrix& child = ForwardNode(plan, node.children[k], states);
    for (size_t j = 0; j < dd; ++j) {
      input(0, kNodeFeatures + k * dd + j) = child(0, 1 + j);
    }
  }

  NodeState& s = (*states)[static_cast<size_t>(id)];
  s.type = type;
  fc1_[static_cast<size_t>(type)].ForwardReluCached(input, &s.c1, &s.z1,
                                                    &s.h1);
  fc2_[static_cast<size_t>(type)].ForwardCached(s.h1, &s.c2, &s.output);
  return s.output;
}

std::vector<nn::Parameter*> QppNet::Parameters() {
  std::vector<nn::Parameter*> params;
  for (int t = 0; t < plan::kNumOperatorTypes; ++t) {
    fc1_[static_cast<size_t>(t)].CollectParameters(&params);
    fc2_[static_cast<size_t>(t)].CollectParameters(&params);
  }
  return params;
}

void QppNet::Train(const std::vector<plan::QueryPlan>& plans) {
  DACE_CHECK(!plans.empty());
  scalers_.Fit(plans);
  const size_t dd = static_cast<size_t>(config_.data_dim);

  RunAdamTraining(config_.train, plans.size(), Parameters(), [&](size_t idx) {
    const plan::QueryPlan& plan = plans[idx];
    std::vector<NodeState> states(plan.size());
    ForwardNode(plan, plan.root(), &states);

    // Per-node losses, equal weights (QPPNet's sub-plan supervision).
    const size_t n = plan.size();
    double loss = 0.0;
    // d(output) per node: gradient on the latency slot from this node's own
    // loss plus gradients on the data slots flowing down from the parent.
    std::vector<Matrix> doutput(n);
    for (size_t i = 0; i < n; ++i) {
      doutput[i] = Matrix(1, 1 + dd);
      const double label =
          scalers_.time.Transform(plan.node(static_cast<int32_t>(i)).actual_time_ms);
      const double residual =
          states[i].output(0, 0) - label;
      loss += HuberLoss(residual) / static_cast<double>(n);
      doutput[i](0, 0) = HuberGrad(residual) / static_cast<double>(n);
    }

    // Backward in preorder: parents are visited before children, so a
    // child's doutput is complete when its turn comes.
    for (int32_t id : plan.DfsOrder()) {
      const NodeState& s = states[static_cast<size_t>(id)];
      Matrix dh1, dinput;
      BackwardAndAccumulate(&fc2_[static_cast<size_t>(s.type)], s.c2,
                            doutput[static_cast<size_t>(id)], &dh1);
      nn::ReluBackwardInto(s.z1, dh1, &dh1);
      BackwardAndAccumulate(&fc1_[static_cast<size_t>(s.type)], s.c1, dh1,
                            &dinput);
      const auto& children = plan.node(id).children;
      for (size_t k = 0; k < children.size() && k < 2; ++k) {
        Matrix& dchild = doutput[static_cast<size_t>(children[k])];
        for (size_t j = 0; j < dd; ++j) {
          dchild(0, 1 + j) += dinput(0, kNodeFeatures + k * dd + j);
        }
      }
    }
    return loss;
  });
}

double QppNet::PredictMs(const plan::QueryPlan& plan) const {
  std::vector<NodeState> states(plan.size());
  const Matrix& out = ForwardNode(plan, plan.root(), &states);
  return ClampPredictionMs(scalers_.time.InverseTransform(out(0, 0)));
}

size_t QppNet::ParameterCount() const {
  size_t total = 0;
  for (int t = 0; t < plan::kNumOperatorTypes; ++t) {
    total += fc1_[static_cast<size_t>(t)].ParameterCount();
    total += fc2_[static_cast<size_t>(t)].ParameterCount();
  }
  return total;
}

}  // namespace dace::baselines
