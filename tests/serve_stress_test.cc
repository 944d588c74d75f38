// Stress / soak tests for the serving layer, written to run under TSan:
// many closed-loop clients across several tenants while a swapper thread
// hot-swaps checkpoints underneath them. Every request must resolve to a
// typed outcome (OK / kUnavailable / kDeadlineExceeded — never a crash,
// hang, or data race), and the serve.* counters must reconcile exactly:
//   serve.ok + serve.admission.rejected + serve.deadline.missed
//     == serve.requests.
// The soak uses a deliberately tiny admission queue so backpressure is
// actually exercised (asserted via serve.admission.rejected > 0). The
// deterministic scheduler tests hold requests queued by pausing a tenant's
// drainer through EstimatorServiceTestPeer, never by waiting on a clock.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/dace_model.h"
#include "engine/corpus.h"
#include "engine/dataset.h"
#include "engine/machine.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "serve/model_registry.h"
#include "serve/service.h"

namespace dace::serve {

// Drives EstimatorService's drainer-pause seam: while paused, a tenant's
// drainer claims nothing, so admitted requests stay queued for as long as a
// test needs them to.
class EstimatorServiceTestPeer {
 public:
  static void PauseDrainer(EstimatorService* service,
                           std::string_view tenant) {
    service->SetDrainerPaused(tenant, true);
  }
  static void ResumeDrainer(EstimatorService* service,
                            std::string_view tenant) {
    service->SetDrainerPaused(tenant, false);
  }
  static size_t Pending(EstimatorService* service, std::string_view tenant) {
    return service->PendingRequests(tenant);
  }
  // Blocks until at least `n` requests are queued for `tenant`.
  static void AwaitPending(EstimatorService* service, std::string_view tenant,
                           size_t n) {
    while (service->PendingRequests(tenant) < n) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
};

namespace {

struct CounterSnapshot {
  uint64_t issued = 0;
  uint64_t ok = 0;
  uint64_t rejected = 0;
  uint64_t deadline_missed = 0;

  static CounterSnapshot Take() {
    obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
    CounterSnapshot s;
    s.issued = r->GetCounter("serve.requests")->Value();
    s.ok = r->GetCounter("serve.ok")->Value();
    s.rejected = r->GetCounter("serve.admission.rejected")->Value();
    s.deadline_missed = r->GetCounter("serve.deadline.missed")->Value();
    return s;
  }
};

class ServeStressTest : public ::testing::Test {
 protected:
  static constexpr int kTenants = 3;

  void SetUp() override {
    const engine::Database db = engine::BuildTpchLike(17);
    plans_ = engine::GenerateLabeledPlans(db, engine::MachineM1(),
                                          engine::WorkloadKind::kComplex, 24, 3);
    core::DaceConfig config;
    config.epochs = 1;
    base_ = std::make_shared<core::DaceEstimator>(config);
    base_->set_name("stress-base");
    base_->Train(plans_);

    // Two checkpoint generations for the swapper: the trained base, and a
    // fine-tuned variant whose predictions genuinely differ.
    base_path_ = ::testing::TempDir() + "/serve_stress_base.dace";
    tuned_path_ = ::testing::TempDir() + "/serve_stress_tuned.dace";
    ASSERT_TRUE(base_->SaveToFile(base_path_).ok());
    core::DaceEstimator tuned(config);
    tuned.set_name("stress-base");
    tuned.Train(plans_);
    tuned.FineTune(plans_);
    ASSERT_TRUE(tuned.SaveToFile(tuned_path_).ok());

    for (int t = 0; t < kTenants; ++t) {
      auto est = std::make_shared<core::DaceEstimator>(config);
      est->set_name("stress-base");
      ASSERT_TRUE(est->LoadFromFile(base_path_).ok());
      ASSERT_TRUE(registry_.Register(TenantName(t), est).ok());
    }
  }

  static std::string TenantName(int t) {
    return "tenant-" + std::to_string(t);
  }

  std::vector<plan::QueryPlan> plans_;
  std::shared_ptr<core::DaceEstimator> base_;
  std::string base_path_;
  std::string tuned_path_;
  ModelRegistry registry_;
};

// The soak: 8 closed-loop clients × 3 tenants with a tiny queue while a
// swapper flips every tenant between two checkpoints. Typed outcomes only,
// and exact counter reconciliation at quiescence.
TEST_F(ServeStressTest, SoakWithConcurrentSwaps) {
  ServiceConfig config;
  config.max_batch = 4;
  config.queue_capacity = 2;  // tiny on purpose: force real backpressure
  EstimatorService service(&registry_, config);

  const CounterSnapshot before = CounterSnapshot::Take();

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 200;
  std::atomic<uint64_t> issued{0}, ok{0}, unavailable{0}, deadline{0};
  std::atomic<int> bad_outcomes{0};
  std::atomic<bool> stop_swapper{false};

  std::thread swapper([&] {
    const std::string* paths[2] = {&tuned_path_, &base_path_};
    for (int i = 0; !stop_swapper.load(std::memory_order_relaxed); ++i) {
      for (int t = 0; t < kTenants; ++t) {
        ASSERT_TRUE(
            registry_.SwapFromFile(TenantName(t), *paths[i % 2]).ok());
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const std::string tenant = TenantName((c + i) % kTenants);
        const plan::QueryPlan& plan =
            plans_[static_cast<size_t>(c * 31 + i) % plans_.size()];
        // Every 4th request carries a deadline tight enough to sometimes
        // miss under load, so all three outcome paths get exercised.
        const int64_t deadline_us = (i % 4 == 3) ? 500 : 0;
        issued.fetch_add(1, std::memory_order_relaxed);
        const auto result = service.Estimate(tenant, plan, deadline_us);
        if (result.ok()) {
          EXPECT_GT(*result, 0.0);
          ok.fetch_add(1, std::memory_order_relaxed);
        } else if (result.status().code() == StatusCode::kUnavailable) {
          unavailable.fetch_add(1, std::memory_order_relaxed);
        } else if (result.status().code() == StatusCode::kDeadlineExceeded) {
          deadline.fetch_add(1, std::memory_order_relaxed);
        } else {
          bad_outcomes.fetch_add(1, std::memory_order_relaxed);
          ADD_FAILURE() << "untyped outcome: " << result.status().ToString();
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  stop_swapper.store(true, std::memory_order_relaxed);
  swapper.join();

  const CounterSnapshot after = CounterSnapshot::Take();

  EXPECT_EQ(bad_outcomes.load(), 0);
  EXPECT_EQ(issued.load(),
            static_cast<uint64_t>(kClients) * kRequestsPerClient);
  // Client-side tallies match the service's own accounting...
  EXPECT_EQ(after.issued - before.issued, issued.load());
  EXPECT_EQ(after.ok - before.ok, ok.load());
  EXPECT_EQ(after.rejected - before.rejected, unavailable.load());
  EXPECT_EQ(after.deadline_missed - before.deadline_missed, deadline.load());
  // ...and reconcile exactly: every admitted request has one outcome.
  EXPECT_EQ((after.ok - before.ok) + (after.rejected - before.rejected) +
                (after.deadline_missed - before.deadline_missed),
            after.issued - before.issued);
  // The tiny queue must have produced real backpressure, and admitted
  // traffic must still be getting through. (No stronger ratio is asserted:
  // under TSan a batch forward is slow, and rejected closed-loop clients
  // retry immediately, so the OK:rejected mix is schedule-dependent.)
  EXPECT_GT(after.rejected - before.rejected, 0u);
  EXPECT_GT(ok.load(), 0u);
}

// Deterministic backpressure: capacity 1 and a paused drainer means the
// first admitted request holds the only queue slot, so every other client
// must be refused with kUnavailable; after the resume the holder succeeds.
TEST_F(ServeStressTest, BackpressureIsDeterministicWithFullQueue) {
  ServiceConfig config;
  config.queue_capacity = 1;
  EstimatorService service(&registry_, config);
  EstimatorServiceTestPeer::PauseDrainer(&service, "tenant-0");

  constexpr int kClients = 4;
  std::atomic<uint64_t> ok{0}, unavailable{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      const auto result = service.Estimate("tenant-0", plans_[0]);
      if (result.ok()) {
        ok.fetch_add(1);
      } else if (result.status().code() == StatusCode::kUnavailable) {
        unavailable.fetch_add(1);
      } else {
        ADD_FAILURE() << result.status().ToString();
      }
    });
  }
  while (unavailable.load() < kClients - 1) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_EQ(ok.load(), 0u);  // the slot holder is still parked
  EXPECT_EQ(EstimatorServiceTestPeer::Pending(&service, "tenant-0"), 1u);
  EstimatorServiceTestPeer::ResumeDrainer(&service, "tenant-0");
  for (std::thread& c : clients) c.join();

  EXPECT_EQ(ok.load(), 1u);
  EXPECT_EQ(unavailable.load(), static_cast<uint64_t>(kClients - 1));
}

// Deterministic deadline miss: the drainer is paused, so the request can
// only sit in the queue until its deadline expires there.
TEST_F(ServeStressTest, DeadlineExpiresBeforeDispatch) {
  ServiceConfig config;
  config.queue_capacity = 8;
  EstimatorService service(&registry_, config);
  EstimatorServiceTestPeer::PauseDrainer(&service, "tenant-0");

  const CounterSnapshot before = CounterSnapshot::Take();
  const auto result = service.Estimate("tenant-0", plans_[0], /*deadline_us=*/2000);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  const CounterSnapshot after = CounterSnapshot::Take();
  EXPECT_EQ(after.deadline_missed - before.deadline_missed, 1u);
  EXPECT_EQ(after.issued - before.issued, 1u);
  // The expired request removed itself from the queue.
  EXPECT_EQ(EstimatorServiceTestPeer::Pending(&service, "tenant-0"), 0u);
}

// Work-conserving coalescing: requests that arrive while the drainer is
// busy (here: paused, standing in for an in-flight batch) dispatch together
// as one batch as soon as it is free, and max_batch caps each claim.
TEST_F(ServeStressTest, CoalescesBehindInFlightBatch) {
  for (const size_t max_batch : {size_t{64}, size_t{4}}) {
    SCOPED_TRACE("max_batch=" + std::to_string(max_batch));
    ServiceConfig config;
    config.max_batch = max_batch;
    EstimatorService service(&registry_, config);
    // Registered (with its bounds) by the service constructor.
    obs::Histogram* batch_size =
        obs::MetricsRegistry::Default()->GetHistogram("serve.batch.size", {});
    EstimatorServiceTestPeer::PauseDrainer(&service, "tenant-0");

    constexpr size_t kRequests = 6;
    const obs::Histogram::Snapshot before = batch_size->TakeSnapshot();
    std::atomic<size_t> ok{0};
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kRequests; ++c) {
      clients.emplace_back([&, c] {
        if (service.Estimate("tenant-0", plans_[c]).ok()) ok.fetch_add(1);
      });
    }
    EstimatorServiceTestPeer::AwaitPending(&service, "tenant-0", kRequests);
    EstimatorServiceTestPeer::ResumeDrainer(&service, "tenant-0");
    for (std::thread& c : clients) c.join();
    const obs::Histogram::Snapshot after = batch_size->TakeSnapshot();

    EXPECT_EQ(ok.load(), kRequests);
    EXPECT_EQ(after.sum - before.sum, static_cast<double>(kRequests));
    // One batch of 6 under the default cap; 4 + 2 under max_batch = 4.
    EXPECT_EQ(after.count - before.count,
              (kRequests + max_batch - 1) / max_batch);
  }
}

// The per-request latency ledger: queue wait + batch + wake is computed from
// the same stamps as serve.request.latency_us, so the stage sums reconcile
// with the end-to-end sum, and every OK request lands in every stage.
TEST_F(ServeStressTest, StageLatenciesSumToRequestLatency) {
  obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
  const char* kStages[] = {"serve.stage.queue_wait.latency_us",
                           "serve.stage.batch.latency_us",
                           "serve.stage.wake.latency_us"};
  auto take = [&](const char* name) {
    return r->GetHistogram(name, obs::LatencyBucketsUs())->TakeSnapshot();
  };
  obs::Histogram::Snapshot stage_before[3];
  for (int s = 0; s < 3; ++s) stage_before[s] = take(kStages[s]);
  const obs::Histogram::Snapshot request_before =
      take("serve.request.latency_us");
  const CounterSnapshot before = CounterSnapshot::Take();

  {
    EstimatorService service(&registry_);
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < 40; ++i) {
          const plan::QueryPlan& plan =
              plans_[static_cast<size_t>(c * 7 + i) % plans_.size()];
          EXPECT_TRUE(service.Estimate(TenantName(c % 2), plan).ok());
        }
      });
    }
    for (std::thread& c : clients) c.join();
  }

  const CounterSnapshot after = CounterSnapshot::Take();
  const obs::Histogram::Snapshot request_after =
      take("serve.request.latency_us");
  const uint64_t ok = after.ok - before.ok;
  ASSERT_EQ(ok, 120u);
  EXPECT_EQ(request_after.count - request_before.count, ok);
  double stage_sum = 0.0;
  for (int s = 0; s < 3; ++s) {
    const obs::Histogram::Snapshot stage_after = take(kStages[s]);
    EXPECT_EQ(stage_after.count - stage_before[s].count, ok) << kStages[s];
    const double sum = stage_after.sum - stage_before[s].sum;
    EXPECT_GE(sum, 0.0) << kStages[s];
    stage_sum += sum;
  }
  const double request_sum = request_after.sum - request_before.sum;
  EXPECT_GT(request_sum, 0.0);
  EXPECT_NEAR(stage_sum, request_sum, 1e-9 * request_sum + 1e-6);
}

// An already-expired deadline is refused immediately, before queueing.
TEST_F(ServeStressTest, ExpiredDeadlineRefusedAtAdmission) {
  EstimatorService service(&registry_);
  // 1us deadline: expired by the time admission checks it (the check uses
  // now >= deadline and admission does real work first).
  const auto result = service.Estimate("tenant-0", plans_[0], /*deadline_us=*/1);
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  }
  // Either way the request resolved in a typed fashion; no hang.
}

// Swapping to a bad checkpoint must not disturb serving: the swap fails
// with a typed error and the old snapshot keeps serving bit-identically.
TEST_F(ServeStressTest, FailedSwapLeavesServingIntact) {
  EstimatorService service(&registry_);
  const auto before = service.Estimate("tenant-0", plans_[0]);
  ASSERT_TRUE(before.ok());

  const uint64_t gen = registry_.Generation("tenant-0");
  EXPECT_FALSE(
      registry_.SwapFromFile("tenant-0", "/nonexistent/ckpt.dace").ok());
  EXPECT_EQ(registry_.Generation("tenant-0"), gen);

  const auto after = service.Estimate("tenant-0", plans_[0]);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);
}

// A successful swap takes effect on subsequent batches: the fine-tuned
// checkpoint produces different predictions for at least one plan.
TEST_F(ServeStressTest, SwapChangesServedPredictions) {
  EstimatorService service(&registry_);
  std::vector<double> before;
  for (const auto& plan : plans_) {
    const auto r = service.Estimate("tenant-1", plan);
    ASSERT_TRUE(r.ok());
    before.push_back(*r);
  }

  const uint64_t gen = registry_.Generation("tenant-1");
  ASSERT_TRUE(registry_.SwapFromFile("tenant-1", tuned_path_).ok());
  EXPECT_EQ(registry_.Generation("tenant-1"), gen + 1);

  bool any_changed = false;
  for (size_t i = 0; i < plans_.size(); ++i) {
    const auto r = service.Estimate("tenant-1", plans_[i]);
    ASSERT_TRUE(r.ok());
    if (*r != before[i]) any_changed = true;
  }
  EXPECT_TRUE(any_changed)
      << "fine-tuned checkpoint served identical predictions";
}

}  // namespace
}  // namespace dace::serve
