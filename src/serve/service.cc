#include "serve/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/strings.h"

namespace dace::serve {

namespace {

using Clock = std::chrono::steady_clock;

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// Handles into the process-wide registry, resolved once. All accounting for
// one request happens in TenantQueue::Submit, so by construction
//   serve.ok + serve.admission.rejected + serve.deadline.missed
//     == serve.requests
// once callers are quiescent — the reconciliation the soak test asserts.
struct ServeMetrics {
  obs::Counter* issued;
  obs::Counter* ok;
  obs::Counter* rejected;
  obs::Counter* deadline_missed;
  obs::Counter* batches;
  obs::Histogram* batch_size;
  obs::Histogram* batch_us;
  obs::Histogram* request_us;
  // The three stages of one OK request; per request they sum to request_us.
  obs::Histogram* queue_wait_us;
  obs::Histogram* stage_batch_us;
  obs::Histogram* wake_us;
  obs::Gauge* queue_depth_hw;
};

ServeMetrics* Metrics() {
  static ServeMetrics* metrics = [] {
    static const double kBatchSizeBounds[] = {1,  2,  4,   8,   16,  32,
                                              64, 128, 256, 512, 1024};
    obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
    auto* m = new ServeMetrics();
    m->issued = r->GetCounter("serve.requests");
    m->ok = r->GetCounter("serve.ok");
    m->rejected = r->GetCounter("serve.admission.rejected");
    m->deadline_missed = r->GetCounter("serve.deadline.missed");
    m->batches = r->GetCounter("serve.batches");
    m->batch_size = r->GetHistogram("serve.batch.size", kBatchSizeBounds);
    m->batch_us =
        r->GetHistogram("serve.batch.latency_us", obs::LatencyBucketsUs());
    m->request_us =
        r->GetHistogram("serve.request.latency_us", obs::LatencyBucketsUs());
    m->queue_wait_us = r->GetHistogram("serve.stage.queue_wait.latency_us",
                                       obs::LatencyBucketsUs());
    m->stage_batch_us = r->GetHistogram("serve.stage.batch.latency_us",
                                        obs::LatencyBucketsUs());
    m->wake_us = r->GetHistogram("serve.stage.wake.latency_us",
                                 obs::LatencyBucketsUs());
    m->queue_depth_hw = r->GetGauge("serve.queue.depth.high_water");
    return m;
  }();
  return metrics;
}

}  // namespace

// One in-flight request. Lives on the submitting caller's stack: the caller
// never returns from Submit until `done` (or until it removed itself from
// the pending queue under the lock), so a batch leader's pointer to it is
// always valid. `claimed`/`done` and the stage stamps are only written under
// the queue mutex.
struct EstimatorService::Request {
  const plan::QueryPlan* plan = nullptr;
  Clock::time_point deadline{};
  Clock::time_point claimed_at{};   // taken into a batch
  Clock::time_point finished_at{};  // result written by the batch leader
  bool has_deadline = false;
  bool claimed = false;  // owned by a batch; a result is coming
  bool done = false;
  double ms = 0.0;
  Status status;
};

// Bounded admission queue + caller-led batching for one tenant. There is no
// background thread: a caller that finds no batch in flight becomes the
// leader, claims everything pending (up to max_batch, FIFO) and prices it on
// its own thread with a single PredictBatchMsInto call on the tenant's
// current snapshot; that call fans the batch out across the process thread
// pool, and whatever arrives meanwhile waits and forms the next batch, led
// by one of its own callers. At most one batch per tenant is in flight
// (busy_), which is also what makes PredictBatchMsInto safe here — the
// estimator's batch scratch is per-estimator, and exactly one leader touches
// a tenant's snapshot at a time (snapshots retired by a hot swap finish
// their last batch on the old object, which later batches never touch).
class EstimatorService::TenantQueue {
 public:
  TenantQueue(std::string tenant, ModelRegistry* registry,
              const ServiceConfig& config)
      : tenant_(std::move(tenant)), registry_(registry), config_(config) {}

  void Shutdown() {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    NotifyLocked();
  }

  StatusOr<double> Submit(const plan::QueryPlan& plan, int64_t deadline_us) {
    ServeMetrics* m = Metrics();
    m->issued->Add(1);
    const Clock::time_point start = Clock::now();
    Request req;
    req.plan = &plan;
    req.has_deadline = deadline_us > 0;
    if (req.has_deadline) {
      req.deadline = start + std::chrono::microseconds(deadline_us);
    }
    const Status outcome = EnqueueAndWait(&req);
    if (outcome.ok()) {
      const Clock::time_point end = Clock::now();
      m->ok->Add(1);
      m->request_us->Observe(Us(end - start));
      m->queue_wait_us->Observe(Us(req.claimed_at - start));
      m->stage_batch_us->Observe(Us(req.finished_at - req.claimed_at));
      m->wake_us->Observe(Us(end - req.finished_at));
      return req.ms;
    }
    if (outcome.code() == StatusCode::kDeadlineExceeded) {
      m->deadline_missed->Add(1);
    } else {
      m->rejected->Add(1);
    }
    return outcome;
  }

  void SetPaused(bool paused) {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = paused;
    NotifyLocked();
  }

  size_t Pending() {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_.size();
  }

 private:
  Status EnqueueAndWait(Request* req) {
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_) return Status::Unavailable("service is shut down");
    if (pending_.size() >= config_.queue_capacity) {
      return Status::Unavailable(StrFormat(
          "tenant '%s' admission queue full (%zu pending)", tenant_.c_str(),
          pending_.size()));
    }
    if (req->has_deadline && Clock::now() >= req->deadline) {
      return Status::DeadlineExceeded("deadline expired before admission");
    }
    pending_.push_back(req);
    Metrics()->queue_depth_hw->SetMax(static_cast<double>(pending_.size()));

    while (!req->done) {
      // Shutdown overrides a pause: admitted requests still complete.
      if (!req->claimed && !busy_ && (stop_ || !paused_)) {
        LeadBatch(lock);
      } else if (PollForChange(lock)) {
        continue;  // re-check: a result, the lead, a pause or a shutdown
      } else if (req->has_deadline && !req->claimed) {
        cv_.wait_until(lock, req->deadline);
        if (!req->done && !req->claimed && Clock::now() >= req->deadline) {
          // Still queued: abandon the slot. No leader can reach this
          // request any more, so returning (and unwinding the stack slot)
          // is safe.
          pending_.erase(std::find(pending_.begin(), pending_.end(), req));
          return Status::DeadlineExceeded(
              "deadline expired before batch dispatch");
        }
      } else {
        cv_.wait(lock);
      }
    }
    if (!req->status.ok()) return req->status;
    if (req->has_deadline && Clock::now() > req->deadline) {
      return Status::DeadlineExceeded("batch completed after the deadline");
    }
    return Status::OK();
  }

  // Bumps changes_ and wakes every waiter to re-check. Call with mu_ held.
  void NotifyLocked() {
    changes_.fetch_add(1, std::memory_order_release);
    cv_.notify_all();
  }

  // A batch of cache hits or student answers takes a few microseconds, so a
  // waiter first polls, lock released, for up to 20 us for the next
  // NotifyLocked rather than pay a sleep and wake-up whose cost varies from
  // wake to wake. Returns with `lock` held, true if the state changed; if
  // not, no change can slip in before cv_ releases mu_.
  bool PollForChange(std::unique_lock<std::mutex>& lock) {
    const uint64_t seen = changes_.load(std::memory_order_relaxed);
    lock.unlock();
    const auto until = Clock::now() + std::chrono::microseconds(20);
    while (changes_.load(std::memory_order_acquire) == seen &&
           Clock::now() < until) {
      std::this_thread::yield();  // to a leader, if it waits for this core
    }
    lock.lock();
    return changes_.load(std::memory_order_relaxed) != seen;
  }

  // Claims the pending front (up to max_batch) under `lock`, prices it with
  // the lock released, and publishes the results. The caller's own request
  // is usually in the batch, but need not be: a leader whose request sits
  // beyond max_batch leads again once this batch is done. noexcept: an
  // exception escaping mid-batch would leave busy_ set and every later
  // caller of the tenant waiting forever, so it terminates instead.
  void LeadBatch(std::unique_lock<std::mutex>& lock) noexcept {
    busy_ = true;
    const size_t n = std::min(pending_.size(), config_.max_batch);
    const auto split = pending_.begin() + static_cast<ptrdiff_t>(n);
    const Clock::time_point now = Clock::now();
    batch_.clear();
    for (auto it = pending_.begin(); it != split; ++it) {
      Request* r = *it;
      r->claimed = true;
      r->claimed_at = now;
      if (r->has_deadline && now >= r->deadline) {
        // Expired while queued: fail it now instead of spending forward-pass
        // work on a result the caller already gave up on.
        r->status = Status::DeadlineExceeded("deadline expired while queued");
        r->done = true;
      } else {
        batch_.push_back(r);
      }
    }
    pending_.erase(pending_.begin(), split);
    if (batch_.size() < n) NotifyLocked();  // some expired
    lock.unlock();

    ServeMetrics* m = Metrics();
    Status failure;
    if (!batch_.empty()) {
      auto snapshot_or = registry_->Get(tenant_);
      if (!snapshot_or.ok()) {
        failure = snapshot_or.status();
      } else {
        const ModelRegistry::Snapshot snapshot = *std::move(snapshot_or);
        plans_.clear();
        for (const Request* r : batch_) plans_.push_back(r->plan);
        DACE_TRACE_SPAN("serve.batch");
        const Clock::time_point t0 = Clock::now();
        snapshot->PredictBatchMsInto(plans_, &results_);
        m->batches->Add(1);
        m->batch_size->Observe(static_cast<double>(batch_.size()));
        m->batch_us->Observe(Us(Clock::now() - t0));
      }
    }

    lock.lock();
    const Clock::time_point finished = Clock::now();
    for (size_t i = 0; i < batch_.size(); ++i) {
      if (failure.ok()) {
        batch_[i]->ms = results_[i];
      } else {
        batch_[i]->status = failure;
      }
      batch_[i]->finished_at = finished;
      batch_[i]->done = true;
    }
    busy_ = false;
    // Wakes the batch's callers and hands the lead for the next batch to a
    // caller still queued.
    NotifyLocked();
  }

  const std::string tenant_;
  ModelRegistry* const registry_;
  const ServiceConfig config_;

  std::mutex mu_;
  std::condition_variable cv_;  // callers wait for a result or the lead
  std::atomic<uint64_t> changes_{0};  // NotifyLocked calls, see PollForChange
  std::deque<Request*> pending_;
  bool stop_ = false;
  bool paused_ = false;  // test seam, see EstimatorService::SetBatchingPaused
  bool busy_ = false;    // a leader is pricing a batch
  // The leader's batch buffers, reused across batches (guarded by busy_).
  std::vector<Request*> batch_;
  std::vector<const plan::QueryPlan*> plans_;
  std::vector<double> results_;
};

EstimatorService::EstimatorService(ModelRegistry* registry,
                                   const ServiceConfig& config)
    : registry_(registry), config_(config) {
  DACE_CHECK(registry != nullptr);
  DACE_CHECK(config.max_batch >= 1);
  DACE_CHECK(config.queue_capacity >= 1);
  Metrics();  // register the serve.* families before the first request
}

EstimatorService::~EstimatorService() { Shutdown(); }

void EstimatorService::Shutdown() {
  std::vector<TenantQueue*> queues;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    queues.reserve(queues_.size());
    for (const auto& [tenant, queue] : queues_) queues.push_back(queue.get());
  }
  for (TenantQueue* queue : queues) queue->Shutdown();
}

EstimatorService::TenantQueue* EstimatorService::GetQueue(
    std::string_view tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queues_.find(tenant);
  if (it != queues_.end()) return it->second.get();
  // Never served this tenant and no longer admitting: refuse without
  // creating a queue.
  if (shutdown_) return nullptr;
  return queues_
      .emplace(std::string(tenant),
               std::make_unique<TenantQueue>(std::string(tenant), registry_,
                                             config_))
      .first->second.get();
}

StatusOr<double> EstimatorService::Estimate(std::string_view tenant,
                                            const plan::QueryPlan& plan,
                                            int64_t deadline_us) {
  {
    // Unknown tenants are refused before admission (and before any serve.*
    // accounting): there is no queue to put them on.
    auto snapshot = registry_->Get(tenant);
    if (!snapshot.ok()) return snapshot.status();
  }
  TenantQueue* queue = GetQueue(tenant);
  if (queue == nullptr) return Status::Unavailable("service is shut down");
  // After Shutdown an existing queue refuses in Submit, with accounting.
  return queue->Submit(plan, deadline_us);
}

void EstimatorService::SetBatchingPaused(std::string_view tenant,
                                         bool paused) {
  TenantQueue* queue = GetQueue(tenant);
  DACE_CHECK(queue != nullptr) << "service is shut down";
  queue->SetPaused(paused);
}

size_t EstimatorService::PendingRequests(std::string_view tenant) {
  TenantQueue* queue = GetQueue(tenant);
  return queue == nullptr ? 0 : queue->Pending();
}

TenantFeedback* EstimatorService::GetFeedback(std::string_view tenant) {
  std::lock_guard<std::mutex> lock(feedback_mu_);
  auto it = feedback_.find(tenant);
  if (it == feedback_.end()) {
    it = feedback_
             .emplace(std::string(tenant),
                      std::make_unique<TenantFeedback>(
                          std::string(tenant), config_.feedback,
                          obs::MetricsRegistry::Default()))
             .first;
  }
  return it->second.get();
}

TenantFeedback* EstimatorService::FindFeedback(std::string_view tenant) {
  std::lock_guard<std::mutex> lock(feedback_mu_);
  const auto it = feedback_.find(tenant);
  return it == feedback_.end() ? nullptr : it->second.get();
}

StatusOr<TrackedEstimate> EstimatorService::EstimateTracked(
    std::string_view tenant, const plan::QueryPlan& plan, int64_t deadline_us) {
  auto estimate = Estimate(tenant, plan, deadline_us);
  if (!estimate.ok()) return estimate.status();
  TrackedEstimate tracked;
  tracked.ms = *estimate;
  tracked.request_id = GetFeedback(tenant)->RecordPrediction(tracked.ms);
  return tracked;
}

Status EstimatorService::ReportActual(std::string_view tenant,
                                      uint64_t request_id, double actual_ms) {
  TenantFeedback* feedback = FindFeedback(tenant);
  if (feedback == nullptr) {
    return Status::NotFound("tenant '" + std::string(tenant) +
                            "' has no tracked estimates");
  }
  return feedback->ReportActual(request_id, actual_ms);
}

Status EstimatorService::ReportExecuted(std::string_view tenant,
                                        uint64_t request_id,
                                        const plan::QueryPlan& executed_plan) {
  TenantFeedback* feedback = FindFeedback(tenant);
  if (feedback == nullptr) {
    return Status::NotFound("tenant '" + std::string(tenant) +
                            "' has no tracked estimates");
  }
  return feedback->ReportExecuted(request_id, executed_plan);
}

std::vector<plan::QueryPlan> EstimatorService::RetainedPlans(
    std::string_view tenant) {
  TenantFeedback* feedback = FindFeedback(tenant);
  return feedback == nullptr ? std::vector<plan::QueryPlan>()
                             : feedback->RetainedPlans();
}

void EstimatorService::NotifySwap(std::string_view tenant) {
  if (TenantFeedback* feedback = FindFeedback(tenant)) feedback->NotifySwap();
}

obs::AccuracyMonitor* EstimatorService::Monitor(std::string_view tenant) {
  TenantFeedback* feedback = FindFeedback(tenant);
  return feedback == nullptr ? nullptr : feedback->monitor();
}

obs::AccuracyMonitor* EstimatorService::EnsureMonitor(std::string_view tenant) {
  return GetFeedback(tenant)->monitor();
}

}  // namespace dace::serve
