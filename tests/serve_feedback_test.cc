// Ground-truth feedback path: the lock-free FeedbackLedger, the per-tenant
// TenantFeedback join, and the EstimatorService EstimateTracked /
// ReportActual / NotifySwap surface. Suites are named Serve* so
// tools/check.sh's tsan-serve stage replays them under TSan — the ledger's
// release-publish / CAS-claim / seqlock-validate protocol and the
// concurrent predict+feedback mix are exactly the races it must prove
// absent. Key behaviours:
//   - each request id joins exactly once; duplicates are NotFound,
//   - an actual reported after the ledger's TTL (ring capacity in issued
//     predictions) is counted in serve.feedback.late and returns NotFound —
//     never a crash, never a torn prediction,
//   - joined pairs feed the tenant's accuracy monitor (q-error window,
//     EWMAs, drift detectors).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dace_model.h"
#include "engine/corpus.h"
#include "engine/dataset.h"
#include "engine/machine.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "serve/feedback.h"
#include "serve/model_registry.h"
#include "serve/service.h"

namespace dace::serve {
namespace {

// Ground-truth latency of a labeled plan (stored on its root node).
double ActualMs(const plan::QueryPlan& p) {
  return p.node(p.root()).actual_time_ms;
}

TEST(ServeFeedbackLedgerTest, RecordThenJoinRoundTrips) {
  FeedbackLedger ledger(64);
  const uint64_t id0 = ledger.RecordPrediction(12.5);
  const uint64_t id1 = ledger.RecordPrediction(7.25);
  EXPECT_EQ(id0, 0u);
  EXPECT_EQ(id1, 1u);
  double predicted = 0.0;
  ASSERT_TRUE(ledger.Join(id1, &predicted).ok());
  EXPECT_DOUBLE_EQ(predicted, 7.25);
  ASSERT_TRUE(ledger.Join(id0, &predicted).ok());
  EXPECT_DOUBLE_EQ(predicted, 12.5);
}

TEST(ServeFeedbackLedgerTest, DuplicateAndUnknownJoinsAreNotFound) {
  FeedbackLedger ledger(64);
  const uint64_t id = ledger.RecordPrediction(1.0);
  double predicted = 0.0;
  ASSERT_TRUE(ledger.Join(id, &predicted).ok());
  EXPECT_EQ(ledger.Join(id, &predicted).code(), StatusCode::kNotFound);
  EXPECT_EQ(ledger.Join(999, &predicted).code(), StatusCode::kNotFound);
}

TEST(ServeFeedbackLedgerTest, RecordsEvictOnceCapacityNewerIdsIssued) {
  FeedbackLedger ledger(8);  // rounded to 8; TTL = 8 predictions
  EXPECT_EQ(ledger.capacity(), 8u);
  const uint64_t old_id = ledger.RecordPrediction(1.0);
  for (int i = 0; i < 8; ++i) ledger.RecordPrediction(2.0);
  double predicted = 0.0;
  EXPECT_EQ(ledger.Join(old_id, &predicted).code(), StatusCode::kNotFound);
  // The slot's new occupant is still joinable.
  const uint64_t fresh = ledger.issued() - 1;
  ASSERT_TRUE(ledger.Join(fresh, &predicted).ok());
  EXPECT_DOUBLE_EQ(predicted, 2.0);
}

TEST(ServeFeedbackLedgerTest, ConcurrentRecordAndJoinNeverTearsValues) {
  // Writers lap the ring while joiners chase them: every successful join
  // must return the exact double recorded for that id (ids encode their
  // value, so a torn read is detectable), and every join must resolve to
  // OK or NotFound — never hang or crash.
  FeedbackLedger ledger(256);
  constexpr int kWriters = 4, kJoiners = 4;
  constexpr uint64_t kPerWriter = 20000;
  std::atomic<uint64_t> joined{0}, late{0};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + kJoiners);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&ledger] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        const uint64_t id = ledger.RecordPrediction(0.0);  // placeholder
        (void)id;
      }
    });
  }
  for (int j = 0; j < kJoiners; ++j) {
    threads.emplace_back([&ledger, &joined, &late] {
      for (uint64_t id = 0; id < kWriters * kPerWriter; id += 7) {
        double predicted = 0.0;
        const Status s = ledger.Join(id, &predicted);
        if (s.ok()) {
          EXPECT_DOUBLE_EQ(predicted, 0.0);
          joined.fetch_add(1, std::memory_order_relaxed);
        } else {
          EXPECT_EQ(s.code(), StatusCode::kNotFound);
          late.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Exactly-once: the joiners' OK count can never exceed the distinct ids
  // they probed.
  EXPECT_LE(joined.load(), kWriters * kPerWriter / 7 + 1);
  EXPECT_GT(joined.load() + late.load(), 0u);
}

TEST(ServeFeedbackLedgerTest, SingleWriterValuesSurviveLapping) {
  // Deterministic tear check: id i carries value i. A joiner racing the
  // wrapping writer must only ever see its exact value or NotFound.
  FeedbackLedger ledger(64);
  constexpr uint64_t kIds = 200000;
  std::thread writer([&ledger] {
    for (uint64_t i = 0; i < kIds; ++i) {
      ledger.RecordPrediction(static_cast<double>(i));
    }
  });
  std::thread joiner([&ledger] {
    for (uint64_t id = 0; id < kIds; id += 3) {
      double predicted = -1.0;
      if (ledger.Join(id, &predicted).ok()) {
        EXPECT_DOUBLE_EQ(predicted, static_cast<double>(id))
            << "torn join at id " << id;
      }
    }
  });
  writer.join();
  joiner.join();
}

class ServeFeedbackServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const engine::Database db = engine::BuildTpchLike(23);
    plans_ = engine::GenerateLabeledPlans(db, engine::MachineM1(),
                                          engine::WorkloadKind::kComplex, 24, 3);
    core::DaceConfig config;
    config.epochs = 1;
    auto est = std::make_shared<core::DaceEstimator>(config);
    est->set_name("feedback-test");
    est->Train(plans_);
    ASSERT_TRUE(registry_.Register("t0", est).ok());
  }

  std::vector<plan::QueryPlan> plans_;
  ModelRegistry registry_;
};

TEST_F(ServeFeedbackServiceTest, TrackedEstimateJoinsGroundTruth) {
  obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
  const uint64_t joined_before =
      r->GetCounter("serve.feedback.joined")->Value();
  EstimatorService service(&registry_);
  auto tracked = service.EstimateTracked("t0", plans_[0]);
  ASSERT_TRUE(tracked.ok()) << tracked.status().ToString();
  EXPECT_GT(tracked->ms, 0.0);

  ASSERT_TRUE(
      service.ReportActual("t0", tracked->request_id, ActualMs(plans_[0]))
          .ok());
  EXPECT_EQ(r->GetCounter("serve.feedback.joined")->Value(),
            joined_before + 1);
  obs::AccuracyMonitor* monitor = service.Monitor("t0");
  ASSERT_NE(monitor, nullptr);
  EXPECT_EQ(monitor->observations(), 1u);
  EXPECT_EQ(monitor->WindowSnapshot().count, 1u);

  // Duplicate actual for the same id: typed refusal, counted late.
  const uint64_t late_before = r->GetCounter("serve.feedback.late")->Value();
  EXPECT_EQ(service.ReportActual("t0", tracked->request_id, 1.0).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(r->GetCounter("serve.feedback.late")->Value(), late_before + 1);
}

TEST_F(ServeFeedbackServiceTest, LateActualAfterTtlIsCountedNotCrashed) {
  ServiceConfig config;
  config.feedback.ledger_capacity = 16;  // tiny TTL to force eviction
  EstimatorService service(&registry_, config);
  auto first = service.EstimateTracked("t0", plans_[0]);
  ASSERT_TRUE(first.ok());
  // 16 newer predictions evict the first record.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(service.EstimateTracked("t0", plans_[i % plans_.size()]).ok());
  }
  obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
  const uint64_t late_before = r->GetCounter("serve.feedback.late")->Value();
  const Status late =
      service.ReportActual("t0", first->request_id, ActualMs(plans_[0]));
  EXPECT_EQ(late.code(), StatusCode::kNotFound);
  EXPECT_EQ(r->GetCounter("serve.feedback.late")->Value(), late_before + 1);
  obs::AccuracyMonitor* monitor = service.Monitor("t0");
  ASSERT_NE(monitor, nullptr);
  EXPECT_EQ(monitor->observations(), 0u);  // evicted actual never joined
}

TEST_F(ServeFeedbackServiceTest, UnknownTenantActualIsNotFound) {
  EstimatorService service(&registry_);
  EXPECT_EQ(service.ReportActual("never-seen", 0, 1.0).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.Monitor("never-seen"), nullptr);
}

TEST_F(ServeFeedbackServiceTest, NotifySwapCapturesDetectorReference) {
  EstimatorService service(&registry_);
  for (int i = 0; i < 4; ++i) {
    auto tracked = service.EstimateTracked("t0", plans_[i % plans_.size()]);
    ASSERT_TRUE(tracked.ok());
    ASSERT_TRUE(service
                    .ReportActual("t0", tracked->request_id,
                                  ActualMs(plans_[i % plans_.size()]))
                    .ok());
  }
  obs::AccuracyMonitor* monitor = service.Monitor("t0");
  ASSERT_NE(monitor, nullptr);
  EXPECT_FALSE(monitor->has_reference());  // too few samples to auto-capture
  service.NotifySwap("t0");
  EXPECT_TRUE(monitor->has_reference());
  service.NotifySwap("no-such-tenant");  // no-op, not a crash
}

TEST_F(ServeFeedbackServiceTest, ConcurrentPredictAndFeedback) {
  // The TSan target: closed-loop clients running tracked estimates while
  // reporter threads join actuals (in-order and deliberately late), with
  // the drift monitor churning underneath. Everything must stay typed and
  // race-free, and predictions/joined/late must reconcile at quiescence.
  ServiceConfig config;
  config.feedback.ledger_capacity = 1 << 10;
  EstimatorService service(&registry_, config);

  obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
  const uint64_t pred_before =
      r->GetCounter("serve.feedback.predictions")->Value();
  const uint64_t joined_before =
      r->GetCounter("serve.feedback.joined")->Value();
  const uint64_t late_before = r->GetCounter("serve.feedback.late")->Value();

  constexpr int kClients = 6;
  constexpr int kPerClient = 120;
  std::atomic<uint64_t> ok_estimates{0}, ok_joins{0}, late_joins{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const plan::QueryPlan& plan = plans_[(c + i) % plans_.size()];
        auto tracked = service.EstimateTracked("t0", plan);
        if (!tracked.ok()) continue;
        ok_estimates.fetch_add(1, std::memory_order_relaxed);
        // Half report promptly; half re-report a stale id (duplicate /
        // late path) before the real one.
        if (i % 2 == 0) {
          const Status dup = service.ReportActual("t0", 0, ActualMs(plan));
          if (dup.ok()) {
            ok_joins.fetch_add(1, std::memory_order_relaxed);
          } else {
            late_joins.fetch_add(1, std::memory_order_relaxed);
          }
        }
        const Status s = service.ReportActual("t0", tracked->request_id,
                                              ActualMs(plan));
        if (s.ok()) {
          ok_joins.fetch_add(1, std::memory_order_relaxed);
        } else {
          late_joins.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(r->GetCounter("serve.feedback.predictions")->Value() - pred_before,
            ok_estimates.load());
  EXPECT_EQ(r->GetCounter("serve.feedback.joined")->Value() - joined_before,
            ok_joins.load());
  EXPECT_EQ(r->GetCounter("serve.feedback.late")->Value() - late_before,
            late_joins.load());
  obs::AccuracyMonitor* monitor = service.Monitor("t0");
  ASSERT_NE(monitor, nullptr);
  EXPECT_EQ(monitor->observations(), ok_joins.load());
}

}  // namespace
}  // namespace dace::serve
