#include "baselines/common.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace dace::baselines {

void WriteOneHot(double* dst, int size, int index) {
  if (index < 0) return;
  dst[std::min(index, size - 1)] = 1.0;
}

void PlanScalers::Fit(const std::vector<plan::QueryPlan>& plans) {
  std::vector<double> cards, costs, times, literals;
  for (const plan::QueryPlan& plan : plans) {
    for (const plan::PlanNode& node : plan.nodes()) {
      cards.push_back(node.est_cardinality);
      costs.push_back(node.est_cost);
      times.push_back(node.actual_time_ms);
      for (const plan::FilterPredicate& f : node.annotation.filters) {
        literals.push_back(std::fabs(f.literal));
      }
    }
  }
  card.Fit(std::move(cards));
  cost.Fit(std::move(costs));
  time.Fit(std::move(times));
  literal.Fit(std::move(literals));
}

void BackwardAndAccumulate(nn::Linear* layer,
                           const nn::Linear::ExternalCache& cache,
                           const nn::Matrix& dy, nn::Matrix* dx) {
  nn::Linear::Gradients g;
  layer->InitGradients(&g);
  // The bias sink starts from the bias's running gradient, so dy's rows land
  // on it one at a time: the summation order these trainers have always
  // used. A zeroed bias sink would sum a multi-row dy first and round
  // differently. (Baseline layers always train their base weights, so
  // AccumulateGradients folds the sink back.)
  std::vector<nn::Parameter*> params;
  layer->CollectAllParameters(&params);  // W, b, then any LoRA pair
  std::swap(g.db, params[1]->grad);
  layer->BackwardCached(cache, dy, &g, dx);
  layer->AccumulateGradients(&g);
}

void BackwardAndAccumulate(nn::TreeAttention* layer,
                           const nn::TreeAttention::Cache& cache,
                           const nn::Matrix& dy, nn::Matrix* ds) {
  nn::TreeAttention::Gradients g;
  layer->InitGradients(&g);
  layer->BackwardCached(cache, dy, &g, ds);
  layer->AccumulateGradients(&g);
}

double HuberLoss(double residual) {
  const double a = std::fabs(residual);
  return a <= 1.0 ? 0.5 * residual * residual : a - 0.5;
}

double HuberGrad(double residual) { return std::clamp(residual, -1.0, 1.0); }

double ClampPredictionMs(double ms) {
  return std::clamp(ms, kMinPredictionMs, kMaxPredictionMs);
}

}  // namespace dace::baselines
