#include "baselines/zeroshot.h"

#include <cmath>

#include "util/logging.h"

namespace dace::baselines {

namespace {
using nn::Matrix;
}  // namespace

ZeroShot::ZeroShot() : ZeroShot(Config()) {}

ZeroShot::ZeroShot(const Config& config)
    : config_(config), rng_(config.train.seed) {
  const size_t in_dim =
      kNodeFeatures + static_cast<size_t>(config_.message_dim);
  for (int t = 0; t < plan::kNumOperatorTypes; ++t) {
    fc1_[static_cast<size_t>(t)].Init(in_dim,
                                      static_cast<size_t>(config_.hidden),
                                      &rng_);
    fc2_[static_cast<size_t>(t)].Init(static_cast<size_t>(config_.hidden),
                                      static_cast<size_t>(config_.message_dim),
                                      &rng_);
  }
  head1_.Init(static_cast<size_t>(config_.message_dim),
              static_cast<size_t>(config_.message_dim), &rng_);
  head2_.Init(static_cast<size_t>(config_.message_dim), 1, &rng_);
}

Matrix ZeroShot::NodeInput(const plan::PlanNode& node,
                           const Matrix& child_mean) const {
  Matrix input(1, kNodeFeatures + static_cast<size_t>(config_.message_dim));
  input(0, 0) = scalers_.card.Transform(node.est_cardinality);
  input(0, 1) = scalers_.cost.Transform(node.est_cost);
  input(0, 2) = node.annotation.table_id >= 0
                    ? table_rows_scaler_.Transform(node.annotation.table_rows)
                    : 0.0;
  input(0, 3) = plan::IsScan(node.type) ? 1.0 : 0.0;
  if (!child_mean.empty()) {
    for (size_t j = 0; j < child_mean.cols(); ++j) {
      input(0, kNodeFeatures + j) = child_mean(0, j);
    }
  }
  return input;
}

const Matrix& ZeroShot::ForwardNode(const plan::QueryPlan& plan, int32_t id,
                                    std::vector<NodeState>* states) const {
  const plan::PlanNode& node = plan.node(id);
  const size_t md = static_cast<size_t>(config_.message_dim);

  Matrix child_mean;
  if (!node.children.empty()) {
    child_mean = Matrix(1, md);
    for (int32_t child : node.children) {
      const Matrix& msg = ForwardNode(plan, child, states);
      child_mean.AddScaled(msg, 1.0 / static_cast<double>(node.children.size()));
    }
  }

  const int type = static_cast<int>(node.type);
  NodeState& s = (*states)[static_cast<size_t>(id)];
  s.type = type;
  fc1_[static_cast<size_t>(type)].ForwardReluCached(
      NodeInput(node, child_mean), &s.c1, &s.z1, &s.h1);
  fc2_[static_cast<size_t>(type)].ForwardReluCached(s.h1, &s.c2, &s.z2,
                                                    &s.msg);
  return s.msg;
}

double ZeroShot::HeadForward(const Matrix& root_msg, HeadState* hs) const {
  head1_.ForwardReluCached(root_msg, &hs->c1, &hs->z1, &hs->h1);
  head2_.ForwardCached(hs->h1, &hs->c2, &hs->out);
  return hs->out(0, 0);
}

std::vector<nn::Parameter*> ZeroShot::Parameters() {
  std::vector<nn::Parameter*> params;
  for (int t = 0; t < plan::kNumOperatorTypes; ++t) {
    fc1_[static_cast<size_t>(t)].CollectParameters(&params);
    fc2_[static_cast<size_t>(t)].CollectParameters(&params);
  }
  head1_.CollectParameters(&params);
  head2_.CollectParameters(&params);
  return params;
}

void ZeroShot::Train(const std::vector<plan::QueryPlan>& plans) {
  DACE_CHECK(!plans.empty());
  scalers_.Fit(plans);
  {
    std::vector<double> rows;
    for (const plan::QueryPlan& plan : plans) {
      for (const plan::PlanNode& node : plan.nodes()) {
        if (node.annotation.table_id >= 0) {
          rows.push_back(node.annotation.table_rows);
        }
      }
    }
    table_rows_scaler_.Fit(std::move(rows));
  }
  const size_t md = static_cast<size_t>(config_.message_dim);

  RunAdamTraining(config_.train, plans.size(), Parameters(), [&](size_t idx) {
    const plan::QueryPlan& plan = plans[idx];
    std::vector<NodeState> states(plan.size());
    HeadState head;
    const double pred =
        HeadForward(ForwardNode(plan, plan.root(), &states), &head);

    const double label =
        scalers_.time.Transform(plan.node(plan.root()).actual_time_ms);
    const double residual = pred - label;

    // Head backward.
    Matrix dout(1, 1), dhh1, droot;
    dout(0, 0) = HuberGrad(residual);
    BackwardAndAccumulate(&head2_, head.c2, dout, &dhh1);
    nn::ReluBackwardInto(head.z1, dhh1, &dhh1);
    BackwardAndAccumulate(&head1_, head.c1, dhh1, &droot);

    // Top-down through the message graph: preorder guarantees parents
    // finish before their children are visited.
    std::vector<Matrix> dmsg(plan.size());
    dmsg[static_cast<size_t>(plan.root())] = droot;
    for (int32_t id : plan.DfsOrder()) {
      const NodeState& s = states[static_cast<size_t>(id)];
      Matrix& grad = dmsg[static_cast<size_t>(id)];
      if (grad.empty()) grad = Matrix(1, md);
      // Through the trailing ReLU of the message.
      Matrix dz2, dh1, dinput;
      nn::ReluBackwardInto(s.z2, grad, &dz2);
      BackwardAndAccumulate(&fc2_[static_cast<size_t>(s.type)], s.c2, dz2,
                            &dh1);
      nn::ReluBackwardInto(s.z1, dh1, &dh1);
      BackwardAndAccumulate(&fc1_[static_cast<size_t>(s.type)], s.c1, dh1,
                            &dinput);
      const auto& children = plan.node(id).children;
      if (!children.empty()) {
        const double inv = 1.0 / static_cast<double>(children.size());
        for (int32_t child : children) {
          Matrix& dchild = dmsg[static_cast<size_t>(child)];
          if (dchild.empty()) dchild = Matrix(1, md);
          for (size_t j = 0; j < md; ++j) {
            dchild(0, j) += dinput(0, kNodeFeatures + j) * inv;
          }
        }
      }
    }
    return HuberLoss(residual);
  });
}

double ZeroShot::PredictMs(const plan::QueryPlan& plan) const {
  std::vector<NodeState> states(plan.size());
  HeadState head;
  const double pred =
      HeadForward(ForwardNode(plan, plan.root(), &states), &head);
  return ClampPredictionMs(scalers_.time.InverseTransform(pred));
}

size_t ZeroShot::ParameterCount() const {
  size_t total = head1_.ParameterCount() + head2_.ParameterCount();
  for (int t = 0; t < plan::kNumOperatorTypes; ++t) {
    total += fc1_[static_cast<size_t>(t)].ParameterCount();
    total += fc2_[static_cast<size_t>(t)].ParameterCount();
  }
  return total;
}

}  // namespace dace::baselines
