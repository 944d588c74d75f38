#ifndef DACE_BASELINES_COMMON_H_
#define DACE_BASELINES_COMMON_H_

#include <numeric>
#include <vector>

#include "featurize/featurize.h"
#include "nn/layers.h"
#include "plan/plan.h"
#include "util/rng.h"

namespace dace::baselines {

// Feature-space limits shared by the within-database featurizers. WDMs are
// allowed to key on database-specific identity (tables, columns) — exactly
// the thing that makes them non-transferable.
inline constexpr int kMaxTables = 16;
inline constexpr int kMaxColumns = 8;
inline constexpr int kNumCompareOps = 6;
inline constexpr int kMaxHeightBucket = 12;

// Clamped one-hot write: indices beyond the limit share the last slot.
void WriteOneHot(double* dst, int size, int index);

// Scalers fitted on a training corpus, shared by the baseline featurizers.
struct PlanScalers {
  featurize::RobustScaler card;
  featurize::RobustScaler cost;
  featurize::RobustScaler time;
  featurize::RobustScaler literal;

  void Fit(const std::vector<plan::QueryPlan>& plans);
};

// Shared Adam training driver: `step(plan_index)` runs forward+backward on
// one training plan (accumulating gradients into `params`) and returns its
// loss. Returns the mean loss of the final epoch.
struct TrainOptions {
  double learning_rate = 1e-3;
  int epochs = 12;
  int batch_size = 64;
  uint64_t seed = 7;
};

template <typename StepFn>
double RunAdamTraining(const TrainOptions& options, size_t num_plans,
                       std::vector<nn::Parameter*> params, StepFn step) {
  nn::Adam adam(options.learning_rate);
  adam.Register(std::move(params));
  Rng rng(options.seed);
  std::vector<size_t> order(num_plans);
  std::iota(order.begin(), order.end(), 0);
  double epoch_loss = 0.0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    epoch_loss = 0.0;
    size_t in_batch = 0;
    for (size_t idx : order) {
      epoch_loss += step(idx);
      if (++in_batch >= static_cast<size_t>(options.batch_size)) {
        adam.Step();
        in_batch = 0;
      }
    }
    if (in_batch > 0) adam.Step();
    epoch_loss /= static_cast<double>(num_plans);
  }
  return epoch_loss;
}

// Backward through one layer application for the single-threaded baseline
// trainers: runs the layer's sink backward and folds the sink into
// Parameter::grad right away, so gradients land where Adam reads them.
void BackwardAndAccumulate(nn::Linear* layer,
                           const nn::Linear::ExternalCache& cache,
                           const nn::Matrix& dy, nn::Matrix* dx);
void BackwardAndAccumulate(nn::TreeAttention* layer,
                           const nn::TreeAttention::Cache& cache,
                           const nn::Matrix& dy, nn::Matrix* ds);

// Huber loss / gradient on a scalar residual (delta = 1).
double HuberLoss(double residual);
double HuberGrad(double residual);

// Every estimator clamps its prediction into a physically plausible window:
// no query finishes in under ~10µs of dispatch overhead, and none run for
// weeks. Without the floor, a slightly-too-negative output in scaled log
// space inverts to ~0 ms and records an absurd q-error against a 0.1 ms
// truth.
inline constexpr double kMinPredictionMs = 0.05;
inline constexpr double kMaxPredictionMs = 1e9;

double ClampPredictionMs(double ms);

}  // namespace dace::baselines

#endif  // DACE_BASELINES_COMMON_H_
