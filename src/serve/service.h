#ifndef DACE_SERVE_SERVICE_H_
#define DACE_SERVE_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "plan/plan.h"
#include "serve/feedback.h"
#include "serve/model_registry.h"
#include "util/status.h"

namespace dace::serve {

// Tunables of the coalescing scheduler. Batching is work-conserving: a
// tenant's drainer claims whatever is pending (up to max_batch) as soon as
// it is free, so an idle service prices a lone request immediately and a
// loaded one coalesces the requests that arrived while the previous batch
// was in flight. No request ever waits on a clock.
struct ServiceConfig {
  // Batch-size cap: one PredictBatchMs call prices at most this many plans.
  size_t max_batch = 64;
  // Admission bound per tenant: Estimate returns kUnavailable (backpressure)
  // when this many requests are already queued, so overload degrades into
  // fast typed rejections instead of unbounded queueing.
  size_t queue_capacity = 1024;
  // Ground-truth feedback path (ledger size / TTL, drift-detector tuning)
  // used by EstimateTracked / ReportActual.
  FeedbackConfig feedback;
};

// An estimate whose prediction is retained for a later ground-truth join:
// quote request_id back to ReportActual once the plan's actual latency is
// known.
struct TrackedEstimate {
  uint64_t request_id = 0;
  double ms = 0.0;
};

// Thread-safe multi-tenant front end over the estimator stack — the piece
// that turns "every caller owns a DaceEstimator" into a service. Concurrent
// single-plan Estimate calls enqueue into a bounded per-tenant admission
// queue; a per-tenant drainer claims everything pending (up to max_batch)
// whenever it is free and prices it with one PredictBatchMs call (which
// fans out across the process thread pool). Requests that arrive while a
// batch is in flight coalesce into the next one, so DACE's batched-inference
// property pays off across callers under load without delaying an idle
// caller.
//
// Results are bit-identical to direct PredictMs / PredictBatchMs calls on
// the snapshot: coalescing only changes who computes, never what is
// computed (serve_differential_test.cc holds this under both kernel ISAs,
// cache on and off).
//
// Error taxonomy (every request resolves to exactly one):
//   OK                 — priced; the double is the estimator's prediction.
//   kNotFound          — unknown tenant (refused before admission).
//   kUnavailable       — backpressure: admission queue full, or the service
//                        is shut down. Safe to retry later.
//   kDeadlineExceeded  — the request's deadline elapsed before dispatch,
//                        while queued, or before its batch completed.
//
// Observability: serve.requests / serve.ok / serve.admission.rejected /
// serve.deadline.missed counters reconcile exactly (every admitted request
// increments serve.requests and exactly one outcome counter), plus
// serve.batches, serve.batch.size and serve.batch.latency_us /
// serve.request.latency_us histograms, a serve.queue.depth.high_water
// gauge, and a DACE_TRACE_SPAN("serve.batch") per dispatched batch. Each
// OK request's latency is also split into three stages that sum to its
// serve.request.latency_us exactly: serve.stage.queue_wait.latency_us
// (admission to claim by the drainer), serve.stage.batch.latency_us (claim
// to result written) and serve.stage.wake.latency_us (result written to the
// caller returning).
//
// Hot swap: each batch resolves the tenant's snapshot at dispatch time, so
// a ModelRegistry::SwapFromFile takes effect on the next batch; batches
// already executing finish on the old snapshot, whose shared_ptr keeps its
// weights and prediction cache alive and valid.
class EstimatorService {
 public:
  explicit EstimatorService(ModelRegistry* registry,
                            const ServiceConfig& config = ServiceConfig());
  ~EstimatorService();  // Shutdown() and joins every drainer.

  EstimatorService(const EstimatorService&) = delete;
  EstimatorService& operator=(const EstimatorService&) = delete;

  // Predicted runtime of `plan` in milliseconds, via the tenant's coalesced
  // batch path. Blocks until the request resolves (at most the batch in
  // flight plus its own batch, or the deadline). deadline_us is a
  // per-request budget relative to the call; <= 0 means no deadline.
  StatusOr<double> Estimate(std::string_view tenant,
                            const plan::QueryPlan& plan,
                            int64_t deadline_us = 0);

  // Estimate, plus the accuracy-observability feedback loop: the prediction
  // is retained in the tenant's feedback ledger and the returned request_id
  // joins it to ground truth via ReportActual. The retention cost on top of
  // Estimate is one wait-free ledger write (~tens of ns), bounded memory.
  StatusOr<TrackedEstimate> EstimateTracked(std::string_view tenant,
                                            const plan::QueryPlan& plan,
                                            int64_t deadline_us = 0);

  // Ground-truth feedback: joins the measured latency of the plan behind
  // `request_id` (from EstimateTracked) to its retained prediction, feeding
  // the tenant's rolling q-error metrics and drift detectors (obs/drift.h).
  // Call it from the executor's completion context — it is off the
  // prediction path and never blocks serving. kNotFound if the tenant has
  // no tracked estimates or the record's TTL elapsed (late actuals are
  // counted in serve.feedback.late, never an error to retry).
  Status ReportActual(std::string_view tenant, uint64_t request_id,
                      double actual_ms);

  // Ground-truth feedback from a fully-executed plan (the EXPLAIN ANALYZE
  // shape: every node carries its measured actual_time_ms). Joins exactly
  // like ReportActual using the root's actual time, and on a successful join
  // retains a copy of the plan in the tenant's bounded labelled-plan ring —
  // the corpus the adaptation loop fine-tunes and shadow-scores on.
  Status ReportExecuted(std::string_view tenant, uint64_t request_id,
                        const plan::QueryPlan& executed_plan);

  // Copy of the tenant's retained labelled plans, oldest first (empty if the
  // tenant has no feedback path yet).
  std::vector<plan::QueryPlan> RetainedPlans(std::string_view tenant);

  // Tells the tenant's drift detectors the model was swapped: the live
  // q-error window becomes the new KS reference and the detectors restart
  // (the new model deserves a fresh baseline). No-op for tenants without a
  // feedback path yet.
  void NotifySwap(std::string_view tenant);

  // The tenant's accuracy monitor (alarm history, callbacks), or nullptr if
  // no EstimateTracked / ReportActual ever ran for the tenant.
  obs::AccuracyMonitor* Monitor(std::string_view tenant);

  // Like Monitor, but creates the tenant's feedback path if it does not
  // exist yet — so the adaptation controller can subscribe its drift-alarm
  // callback before the first tracked estimate ever runs. Never nullptr.
  obs::AccuracyMonitor* EnsureMonitor(std::string_view tenant);

  // Stops admitting new requests (they get kUnavailable); already-admitted
  // requests are drained to completion. Idempotent; the destructor calls it.
  void Shutdown();

  const ServiceConfig& config() const { return config_; }

 private:
  struct Request;
  class TenantQueue;
  friend class EstimatorServiceTestPeer;

  // The tenant's queue, created on first use; nullptr once the service is
  // shut down and the tenant was never served.
  TenantQueue* GetQueue(std::string_view tenant);

  // Test seam for EstimatorServiceTestPeer: while a tenant's drainer is
  // paused it claims nothing, so admitted requests stay queued (Shutdown
  // overrides the pause). PendingRequests is the tenant's queue depth.
  void SetDrainerPaused(std::string_view tenant, bool paused);
  size_t PendingRequests(std::string_view tenant);

  // The tenant's feedback path, created on first use (decoupled from
  // TenantQueue: feedback outlives queue shutdown, and ReportActual must
  // work after Shutdown() drained the queues).
  TenantFeedback* GetFeedback(std::string_view tenant);
  TenantFeedback* FindFeedback(std::string_view tenant);

  ModelRegistry* const registry_;
  const ServiceConfig config_;
  std::mutex mu_;  // guards queues_ / shutdown_
  bool shutdown_ = false;
  std::map<std::string, std::unique_ptr<TenantQueue>, std::less<>> queues_;
  std::mutex feedback_mu_;  // guards feedback_ (map only; entries are
                            // internally synchronized)
  std::map<std::string, std::unique_ptr<TenantFeedback>, std::less<>>
      feedback_;
};

}  // namespace dace::serve

#endif  // DACE_SERVE_SERVICE_H_
