#include "serve/service.h"

#include <algorithm>
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
// the pending queue under the lock), so the drainer's pointer is always
// valid. `claimed`/`done` and the stage stamps are only written under the
// queue mutex.
struct EstimatorService::Request {
  const plan::QueryPlan* plan = nullptr;
  Clock::time_point deadline{};
  Clock::time_point claimed_at{};   // taken into a drainer batch
  Clock::time_point finished_at{};  // result written by the drainer
  bool has_deadline = false;
  bool claimed = false;  // owned by a drainer batch; a result is coming
  bool done = false;
  double ms = 0.0;
  Status status;
};

// Bounded admission queue + work-conserving drainer for one tenant. Whenever
// the drainer thread is free it claims everything pending (up to max_batch)
// and prices it with a single PredictBatchMsInto call on the tenant's
// current snapshot; that call fans the batch out across the process thread
// pool, and whatever arrives meanwhile forms the next batch. Serializing
// batches per tenant is also what makes PredictBatchMsInto safe here — the
// estimator's batch scratch is per-estimator, and exactly one drainer
// touches a tenant's snapshot at a time (snapshots retired by a hot swap
// finish their last batch on the old object, which the new drainer batches
// never touch).
class EstimatorService::TenantQueue {
 public:
  TenantQueue(std::string tenant, ModelRegistry* registry,
              const ServiceConfig& config)
      : tenant_(std::move(tenant)), registry_(registry), config_(config) {
    drainer_ = std::thread([this] { DrainLoop(); });
  }

  ~TenantQueue() {
    Shutdown();
    drainer_.join();
  }

  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    drain_cv_.notify_all();
    client_cv_.notify_all();
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
    {
      std::lock_guard<std::mutex> lock(mu_);
      paused_ = paused;
    }
    drain_cv_.notify_all();
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
    drain_cv_.notify_one();

    while (!req->done) {
      if (req->has_deadline && !req->claimed) {
        client_cv_.wait_until(lock, req->deadline);
        if (!req->done && !req->claimed && Clock::now() >= req->deadline) {
          // Still queued: abandon the slot. The drainer can no longer reach
          // this request, so returning (and unwinding the stack slot) is
          // safe.
          pending_.erase(std::find(pending_.begin(), pending_.end(), req));
          return Status::DeadlineExceeded(
              "deadline expired before batch dispatch");
        }
      } else {
        client_cv_.wait(lock);
      }
    }
    if (!req->status.ok()) return req->status;
    if (req->has_deadline && Clock::now() > req->deadline) {
      return Status::DeadlineExceeded("batch completed after the deadline");
    }
    return Status::OK();
  }

  void DrainLoop() {
    std::vector<Request*> batch;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        // Shutdown overrides a pause: admitted requests still complete.
        drain_cv_.wait(lock, [this] {
          return stop_ || (!paused_ && !pending_.empty());
        });
        if (pending_.empty()) return;  // shut down with nothing left to drain
        const size_t n = std::min(pending_.size(), config_.max_batch);
        const auto split = pending_.begin() + static_cast<ptrdiff_t>(n);
        const Clock::time_point now = Clock::now();
        batch.clear();
        for (auto it = pending_.begin(); it != split; ++it) {
          Request* r = *it;
          r->claimed = true;
          r->claimed_at = now;
          if (r->has_deadline && now >= r->deadline) {
            // Expired while queued: fail it now instead of spending forward-
            // pass work on a result the caller already gave up on.
            r->status =
                Status::DeadlineExceeded("deadline expired while queued");
            r->done = true;
          } else {
            batch.push_back(r);
          }
        }
        pending_.erase(pending_.begin(), split);
        if (batch.size() < n) client_cv_.notify_all();  // some expired
      }
      ExecuteBatch(batch);
    }
  }

  void ExecuteBatch(const std::vector<Request*>& batch) {
    if (batch.empty()) return;
    ServeMetrics* m = Metrics();
    Status failure;
    auto snapshot_or = registry_->Get(tenant_);
    if (!snapshot_or.ok()) {
      failure = snapshot_or.status();
    } else {
      const ModelRegistry::Snapshot snapshot = *std::move(snapshot_or);
      plans_.clear();
      for (const Request* r : batch) plans_.push_back(r->plan);
      DACE_TRACE_SPAN("serve.batch");
      const Clock::time_point t0 = Clock::now();
      snapshot->PredictBatchMsInto(plans_, &results_);
      m->batches->Add(1);
      m->batch_size->Observe(static_cast<double>(batch.size()));
      m->batch_us->Observe(Us(Clock::now() - t0));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      const Clock::time_point finished = Clock::now();
      for (size_t i = 0; i < batch.size(); ++i) {
        if (failure.ok()) {
          batch[i]->ms = results_[i];
        } else {
          batch[i]->status = failure;
        }
        batch[i]->finished_at = finished;
        batch[i]->done = true;
      }
    }
    client_cv_.notify_all();
  }

  const std::string tenant_;
  ModelRegistry* const registry_;
  const ServiceConfig config_;

  std::mutex mu_;
  std::condition_variable drain_cv_;   // drainer waits for work
  std::condition_variable client_cv_;  // submitters wait for their result
  std::deque<Request*> pending_;
  bool stop_ = false;
  bool paused_ = false;  // test seam, see EstimatorService::SetDrainerPaused
  // Drainer-only batch buffers, reused across batches.
  std::vector<const plan::QueryPlan*> plans_;
  std::vector<double> results_;
  std::thread drainer_;
};

EstimatorService::EstimatorService(ModelRegistry* registry,
                                   const ServiceConfig& config)
    : registry_(registry), config_(config) {
  DACE_CHECK(registry != nullptr);
  DACE_CHECK(config.max_batch >= 1);
  DACE_CHECK(config.queue_capacity >= 1);
  Metrics();  // register the serve.* families before the first request
}

EstimatorService::~EstimatorService() {
  Shutdown();
  // TenantQueue destructors join the drainers.
}

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
  // spawning a drainer that would outlive the shutdown.
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

void EstimatorService::SetDrainerPaused(std::string_view tenant, bool paused) {
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
