#include "serve/model_registry.h"

#include <chrono>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace dace::serve {

namespace {

obs::Counter* SwapOkCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default()->GetCounter("serve.swap.ok");
  return c;
}

obs::Counter* SwapFailedCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default()->GetCounter("serve.swap.failed");
  return c;
}

// Full SwapFromFile wall time (staging + validation + publish), observed on
// every outcome — failed swaps burn the same loader work and belong in the
// same distribution.
obs::Histogram* SwapDurationHistogram() {
  static obs::Histogram* h = obs::MetricsRegistry::Default()->GetHistogram(
      "serve.swap.duration_us", obs::LatencyBucketsUs());
  return h;
}

obs::Counter* CanaryCounter(const char* outcome) {
  return obs::MetricsRegistry::Default()->GetCounter(
      std::string("serve.canary.") + outcome);
}

}  // namespace

Status ModelRegistry::Register(std::string_view tenant,
                               std::shared_ptr<core::DaceEstimator> estimator) {
  if (tenant.empty()) return Status::InvalidArgument("empty tenant key");
  if (estimator == nullptr) {
    return Status::InvalidArgument("null estimator for tenant: " +
                                   std::string(tenant));
  }
  if (!estimator->featurizer().fitted()) {
    return Status::FailedPrecondition(
        "estimator for tenant '" + std::string(tenant) +
        "' is untrained: call Train() or LoadFromFile() before Register");
  }
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[std::string(tenant)];
  entry.estimator = std::move(estimator);
  ++entry.generation;
  return Status::OK();
}

StatusOr<ModelRegistry::Snapshot> ModelRegistry::Get(
    std::string_view tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(tenant);
  if (it == entries_.end()) {
    return Status::NotFound("unknown tenant: " + std::string(tenant));
  }
  return Snapshot(it->second.estimator);
}

Status ModelRegistry::SwapFromFile(std::string_view tenant,
                                   const std::string& path) {
  DACE_TRACE_SPAN("serve.swap");
  const auto t0 = std::chrono::steady_clock::now();
  const auto observe_duration = [t0] {
    SwapDurationHistogram()->Observe(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };
  std::shared_ptr<core::DaceEstimator> current;
  uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(tenant);
    if (it == entries_.end()) {
      SwapFailedCounter()->Add(1);
      observe_duration();
      DACE_LOG(WARN) << "hot swap of tenant '" << std::string(tenant)
                     << "' (generation 0) from " << path
                     << " rejected: unknown tenant";
      return Status::NotFound("unknown tenant: " + std::string(tenant));
    }
    current = it->second.estimator;
    generation = it->second.generation;
  }
  // Stage entirely off the serving path: the checkpoint loader verifies the
  // checksum before parsing a payload byte, rejects config mismatches, and
  // validates every weight shape before committing into the staged
  // estimator. The published snapshot keeps serving throughout.
  auto staged = std::make_shared<core::DaceEstimator>(current->model().config());
  staged->set_name(current->Name());
  staged->set_prediction_cache_capacity(
      current->prediction_cache_stats().capacity);
  if (const Status status = staged->LoadFromFile(path); !status.ok()) {
    SwapFailedCounter()->Add(1);
    observe_duration();
    DACE_LOG(WARN) << "hot swap of tenant '" << std::string(tenant)
                   << "' (generation " << generation << ") from " << path
                   << " rejected: " << status.ToString();
    return status;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& entry = entries_[std::string(tenant)];
    entry.estimator = std::move(staged);
    ++entry.generation;
    generation = entry.generation;
  }
  SwapOkCounter()->Add(1);
  observe_duration();
  DACE_LOG(INFO) << "hot-swapped tenant '" << std::string(tenant)
                 << "' (generation " << generation << ") from " << path;
  return Status::OK();
}

Status ModelRegistry::BeginCanary(std::string_view tenant,
                                  const std::string& path) {
  std::shared_ptr<core::DaceEstimator> current;
  uint64_t base_generation = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(tenant);
    if (it == entries_.end()) {
      CanaryCounter("stage_failed")->Add(1);
      return Status::NotFound("unknown tenant: " + std::string(tenant));
    }
    if (it->second.canary != nullptr) {
      CanaryCounter("stage_failed")->Add(1);
      return Status::FailedPrecondition(
          "tenant '" + std::string(tenant) + "' already has a canary staged");
    }
    current = it->second.estimator;
    base_generation = it->second.generation;
  }
  // Stage off the lock: the loader verifies checksum, config fingerprint and
  // every weight shape before anything commits into the candidate.
  auto candidate =
      std::make_shared<core::DaceEstimator>(current->model().config());
  candidate->set_name(current->Name());
  candidate->set_prediction_cache_capacity(
      current->prediction_cache_stats().capacity);
  if (const Status status = candidate->LoadFromFile(path); !status.ok()) {
    CanaryCounter("stage_failed")->Add(1);
    DACE_LOG(WARN) << "canary stage for tenant '" << std::string(tenant)
                   << "' (base generation " << base_generation << ") from "
                   << path << " rejected: " << status.ToString();
    return status;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(tenant);
  if (it == entries_.end()) {
    CanaryCounter("stage_failed")->Add(1);
    return Status::NotFound("tenant disappeared during canary staging: " +
                            std::string(tenant));
  }
  if (it->second.canary != nullptr) {
    CanaryCounter("stage_failed")->Add(1);
    return Status::FailedPrecondition(
        "tenant '" + std::string(tenant) +
        "' grew a concurrent canary during staging");
  }
  it->second.canary = std::move(candidate);
  it->second.canary_base_generation = base_generation;
  CanaryCounter("staged")->Add(1);
  DACE_LOG(INFO) << "canary staged for tenant '" << std::string(tenant)
                 << "' against generation " << base_generation << " from "
                 << path;
  return Status::OK();
}

StatusOr<ModelRegistry::Snapshot> ModelRegistry::CanarySnapshot(
    std::string_view tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(tenant);
  if (it == entries_.end() || it->second.canary == nullptr) {
    return Status::NotFound("no canary staged for tenant: " +
                            std::string(tenant));
  }
  return Snapshot(it->second.canary);
}

Status ModelRegistry::PromoteCanary(std::string_view tenant) {
  uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(tenant);
    if (it == entries_.end() || it->second.canary == nullptr) {
      return Status::FailedPrecondition("no canary staged for tenant: " +
                                        std::string(tenant));
    }
    Entry& entry = it->second;
    if (entry.generation != entry.canary_base_generation) {
      // A concurrent SwapFromFile/Register republished the tenant: the
      // candidate was validated against weights that no longer serve, so
      // publishing it would silently undo the newer swap. Drop it whole.
      const uint64_t base = entry.canary_base_generation;
      const uint64_t now = entry.generation;
      entry.canary.reset();
      CanaryCounter("aborted")->Add(1);
      DACE_LOG(WARN) << "canary promote for tenant '" << std::string(tenant)
                     << "' aborted: incumbent moved from generation " << base
                     << " to " << now << " during the canary";
      return Status::Aborted(
          "incumbent generation moved during the canary (staged against " +
          std::to_string(base) + ", now " + std::to_string(now) + ")");
    }
    entry.estimator = std::move(entry.canary);
    entry.canary.reset();
    ++entry.generation;
    generation = entry.generation;
  }
  CanaryCounter("promoted")->Add(1);
  DACE_LOG(INFO) << "canary promoted for tenant '" << std::string(tenant)
                 << "' (generation " << generation << ")";
  return Status::OK();
}

Status ModelRegistry::RollbackCanary(std::string_view tenant) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(tenant);
    if (it == entries_.end() || it->second.canary == nullptr) {
      return Status::FailedPrecondition("no canary staged for tenant: " +
                                        std::string(tenant));
    }
    it->second.canary.reset();
  }
  CanaryCounter("rolledback")->Add(1);
  DACE_LOG(INFO) << "canary rolled back for tenant '" << std::string(tenant)
                 << "'; incumbent untouched";
  return Status::OK();
}

bool ModelRegistry::HasCanary(std::string_view tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(tenant);
  return it != entries_.end() && it->second.canary != nullptr;
}

uint64_t ModelRegistry::Generation(std::string_view tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(tenant);
  return it == entries_.end() ? 0 : it->second.generation;
}

}  // namespace dace::serve
