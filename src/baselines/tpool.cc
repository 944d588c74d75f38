#include "baselines/tpool.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace dace::baselines {

namespace {
using nn::Linear;
using nn::Matrix;
}  // namespace

TPool::TPool() : TPool(Config()) {}

TPool::TPool(const Config& config) : config_(config), rng_(config.train.seed) {
  const size_t rep = static_cast<size_t>(config_.rep_dim);
  encoder_.Init(kNodeDim, rep, &rng_);
  combiner_.Init(3 * rep, rep, &rng_);
  time_h1_.Init(rep, rep / 2, &rng_);
  time_h2_.Init(rep / 2, 1, &rng_);
  card_h1_.Init(rep, rep / 2, &rng_);
  card_h2_.Init(rep / 2, 1, &rng_);
}

Matrix TPool::NodeFeature(const plan::PlanNode& node) const {
  Matrix x(1, kNodeDim);
  WriteOneHot(x.RowPtr(0), plan::kNumOperatorTypes,
              static_cast<int>(node.type));
  WriteOneHot(x.RowPtr(0) + plan::kNumOperatorTypes, kMaxTables,
              node.annotation.table_id);
  const size_t base = plan::kNumOperatorTypes + kMaxTables;
  x(0, base) = scalers_.card.Transform(node.est_cardinality);
  x(0, base + 1) = scalers_.cost.Transform(node.est_cost);
  x(0, base + 2) =
      static_cast<double>(node.annotation.filters.size()) / 4.0;
  double min_sel = 1.0;
  for (const plan::FilterPredicate& f : node.annotation.filters) {
    min_sel = std::min(min_sel, f.est_selectivity);
  }
  x(0, base + 3) = min_sel;
  return x;
}

const Matrix& TPool::ForwardNode(const plan::QueryPlan& plan, int32_t id,
                                 std::vector<NodeState>* states) const {
  const plan::PlanNode& node = plan.node(id);
  const size_t rep = static_cast<size_t>(config_.rep_dim);

  Matrix comb_in(1, 3 * rep);
  for (size_t k = 0; k < node.children.size() && k < 2; ++k) {
    const Matrix& child = ForwardNode(plan, node.children[k], states);
    for (size_t j = 0; j < rep; ++j) {
      comb_in(0, rep * (k + 1) + j) = child(0, j);
    }
  }

  NodeState& s = (*states)[static_cast<size_t>(id)];
  encoder_.ForwardReluCached(NodeFeature(node), &s.enc_cache, &s.enc_z,
                             &s.enc_h);
  for (size_t j = 0; j < rep; ++j) comb_in(0, j) = s.enc_h(0, j);
  combiner_.ForwardReluCached(comb_in, &s.comb_cache, &s.comb_z, &s.rep);
  return s.rep;
}

double TPool::HeadForward(const Linear& h1, const Linear& h2,
                          const Matrix& rep, HeadState* hs) const {
  h1.ForwardReluCached(rep, &hs->c1, &hs->z1, &hs->h1);
  h2.ForwardCached(hs->h1, &hs->c2, &hs->out);
  return hs->out(0, 0);
}

std::vector<nn::Parameter*> TPool::Parameters() {
  std::vector<nn::Parameter*> params;
  for (Linear* layer : {&encoder_, &combiner_, &time_h1_, &time_h2_,
                        &card_h1_, &card_h2_}) {
    layer->CollectParameters(&params);
  }
  return params;
}

void TPool::Train(const std::vector<plan::QueryPlan>& plans) {
  DACE_CHECK(!plans.empty());
  scalers_.Fit(plans);
  const size_t rep = static_cast<size_t>(config_.rep_dim);

  RunAdamTraining(config_.train, plans.size(), Parameters(), [&](size_t idx) {
    const plan::QueryPlan& plan = plans[idx];
    std::vector<NodeState> states(plan.size());
    const Matrix& root = ForwardNode(plan, plan.root(), &states);

    const plan::PlanNode& root_node = plan.node(plan.root());
    const double time_label = scalers_.time.Transform(root_node.actual_time_ms);
    const double card_label =
        scalers_.card.Transform(root_node.actual_cardinality);

    HeadState time_head, card_head;
    const double tr =
        HeadForward(time_h1_, time_h2_, root, &time_head) - time_label;
    const double cr =
        HeadForward(card_h1_, card_h2_, root, &card_head) - card_label;
    const double loss =
        HuberLoss(tr) + config_.card_loss_weight * HuberLoss(cr);

    // Heads backward into the root representation.
    Matrix droot(1, rep);
    const auto head_backward = [&droot](Linear* h1, Linear* h2,
                                        const HeadState& hs, double dpred) {
      Matrix dout(1, 1), dh1, dr;
      dout(0, 0) = dpred;
      BackwardAndAccumulate(h2, hs.c2, dout, &dh1);
      nn::ReluBackwardInto(hs.z1, dh1, &dh1);
      BackwardAndAccumulate(h1, hs.c1, dh1, &dr);
      droot.AddScaled(dr, 1.0);
    };
    head_backward(&time_h1_, &time_h2_, time_head, HuberGrad(tr));
    head_backward(&card_h1_, &card_h2_, card_head,
                  config_.card_loss_weight * HuberGrad(cr));

    // Top-down through the tree pooling.
    std::vector<Matrix> drep(plan.size());
    drep[static_cast<size_t>(plan.root())] = std::move(droot);
    for (int32_t id : plan.DfsOrder()) {
      const NodeState& s = states[static_cast<size_t>(id)];
      Matrix& grad = drep[static_cast<size_t>(id)];
      if (grad.empty()) grad = Matrix(1, rep);
      Matrix dcomb_z, dcomb_in;
      nn::ReluBackwardInto(s.comb_z, grad, &dcomb_z);
      BackwardAndAccumulate(&combiner_, s.comb_cache, dcomb_z, &dcomb_in);
      // Own-encoding slice.
      Matrix denc_h(1, rep);
      for (size_t j = 0; j < rep; ++j) denc_h(0, j) = dcomb_in(0, j);
      nn::ReluBackwardInto(s.enc_z, denc_h, &denc_h);
      Matrix dx;
      BackwardAndAccumulate(&encoder_, s.enc_cache, denc_h, &dx);
      // Children slices.
      const auto& children = plan.node(id).children;
      for (size_t k = 0; k < children.size() && k < 2; ++k) {
        Matrix& dchild = drep[static_cast<size_t>(children[k])];
        if (dchild.empty()) dchild = Matrix(1, rep);
        for (size_t j = 0; j < rep; ++j) {
          dchild(0, j) += dcomb_in(0, rep * (k + 1) + j);
        }
      }
    }
    return loss;
  });
}

double TPool::PredictMs(const plan::QueryPlan& plan) const {
  std::vector<NodeState> states(plan.size());
  HeadState head;
  const double pred = HeadForward(
      time_h1_, time_h2_, ForwardNode(plan, plan.root(), &states), &head);
  return ClampPredictionMs(scalers_.time.InverseTransform(pred));
}

double TPool::PredictCardinality(const plan::QueryPlan& plan) const {
  std::vector<NodeState> states(plan.size());
  HeadState head;
  const double pred = HeadForward(
      card_h1_, card_h2_, ForwardNode(plan, plan.root(), &states), &head);
  return std::max(scalers_.card.InverseTransform(pred), 1e-6);
}

size_t TPool::ParameterCount() const {
  size_t total = 0;
  for (const Linear* layer : {&encoder_, &combiner_, &time_h1_, &time_h2_,
                              &card_h1_, &card_h2_}) {
    total += layer->ParameterCount();
  }
  return total;
}

}  // namespace dace::baselines
