#ifndef DACE_SERVE_MODEL_REGISTRY_H_
#define DACE_SERVE_MODEL_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "core/dace_model.h"
#include "util/status.h"

namespace dace::serve {

// Thread-safe map from tenant key (a database/hardware profile the serving
// layer prices plans for) to the tenant's current estimator snapshot.
//
// Snapshots are immutable-by-contract: once published, an estimator is only
// ever read through const methods (PredictMs / PredictBatchMs), never
// retrained or reloaded in place. Rolling new weights therefore never
// mutates a live model — SwapFromFile stages a FRESH estimator, runs the
// transactional checkpoint loader on it off the serving path (checksum,
// config fingerprint and every weight shape are validated before anything
// commits; the load itself bumps the staged model's weights_version_, so
// its prediction cache can never serve a pre-load value), and only then
// atomically publishes the new shared_ptr. In-flight requests that resolved
// the old snapshot finish on it — the shared_ptr keeps the old weights and
// their still-valid prediction-cache entries alive until the last reader
// drops them.
class ModelRegistry {
 public:
  using Snapshot = std::shared_ptr<const core::DaceEstimator>;

  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  // Publishes `estimator` as the tenant's current snapshot (upsert: an
  // existing tenant is swapped, which is the pre-built-model analogue of
  // SwapFromFile). The estimator must be trained — an unfitted featurizer
  // is rejected here rather than crashing a serving batch later.
  Status Register(std::string_view tenant,
                  std::shared_ptr<core::DaceEstimator> estimator);

  // The tenant's current snapshot; kNotFound for unknown tenants.
  StatusOr<Snapshot> Get(std::string_view tenant) const;

  // Hot swap: loads the checkpoint at `path` into a staged estimator built
  // from the current snapshot's config (carrying over its name and
  // prediction-cache capacity), and publishes it only if the load fully
  // validates. On any failure the registry is untouched and the published
  // snapshot keeps serving. Counts serve.swap.ok / serve.swap.failed.
  Status SwapFromFile(std::string_view tenant, const std::string& path);

  // Times the tenant's snapshot has been (re)published: 1 after Register,
  // +1 per successful swap or promoted canary. 0 for unknown tenants.
  uint64_t Generation(std::string_view tenant) const;

  // ----------------------------------------------------- canary stage ----
  //
  // The adaptation loop's gated publication path. BeginCanary stages a
  // candidate estimator from a checkpoint exactly like SwapFromFile — same
  // transactional loader, same validation — but parks it BESIDE the
  // published snapshot instead of replacing it, remembering the incumbent
  // generation it was staged against. The caller shadow-scores the staged
  // candidate (CanarySnapshot) off the serving path and then either
  // PromoteCanary (publish, +1 generation) or RollbackCanary (drop the
  // candidate; the incumbent was never touched, so its predictions and
  // prediction-cache entries are bit-identical to before the canary).
  //
  // PromoteCanary is generation-guarded: if a concurrent SwapFromFile /
  // Register republished the tenant after BeginCanary, the promote returns
  // kAborted and drops the candidate — the candidate's baseline comparison
  // was against an incumbent that no longer serves, so publishing it would
  // race in stale weights. Counts serve.canary.staged / stage_failed /
  // promoted / rolledback / aborted.

  // Stages the checkpoint at `path` as the tenant's canary candidate.
  // FailedPrecondition if a canary is already staged; load failures (missing
  // file, corrupt checksum, config mismatch) leave the registry untouched.
  Status BeginCanary(std::string_view tenant, const std::string& path);

  // The staged candidate, for shadow-scoring. kNotFound if the tenant has no
  // canary staged. The caller owns the scoring calls: the candidate is not
  // published, so nothing else touches it.
  StatusOr<Snapshot> CanarySnapshot(std::string_view tenant) const;

  // Publishes the staged candidate (+1 generation). kAborted if the
  // incumbent generation moved since BeginCanary (candidate dropped);
  // kFailedPrecondition if no canary is staged.
  Status PromoteCanary(std::string_view tenant);

  // Drops the staged candidate without publishing. kFailedPrecondition if no
  // canary is staged. The incumbent is untouched.
  Status RollbackCanary(std::string_view tenant);

  // True iff the tenant currently has a staged canary candidate.
  bool HasCanary(std::string_view tenant) const;

 private:
  struct Entry {
    std::shared_ptr<core::DaceEstimator> estimator;
    uint64_t generation = 0;
    // Canary stage: candidate staged beside the snapshot, plus the
    // incumbent generation it was validated against.
    std::shared_ptr<core::DaceEstimator> canary;
    uint64_t canary_base_generation = 0;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace dace::serve

#endif  // DACE_SERVE_MODEL_REGISTRY_H_
