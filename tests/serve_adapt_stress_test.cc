// Whole-loop concurrency soak for the adaptation controller, run under TSan
// by tools/check.sh's tsan-serve stage (the suite name matches its
// 'Serve|RegistrySwap' filter): concurrent serve traffic + feedback
// reporting + operator hot swaps + trigger storms against a 2-slot
// adaptation queue, followed by EXACT serve.adapt.* counter reconciliation —
// every trigger resolves exactly once, every fine-tune resolves exactly
// once, nothing is lost and nothing double-counts.

#include <sys/stat.h>

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
#include "serve/adaptation.h"
#include "serve/model_registry.h"
#include "serve/service.h"

namespace dace::serve {
namespace {

struct AdaptCounters {
  uint64_t triggered;
  uint64_t dropped;
  uint64_t skipped;
  uint64_t finetunes;
  uint64_t promoted;
  uint64_t rolledback;
  uint64_t aborted;

  static AdaptCounters Take() {
    obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
    AdaptCounters c;
    c.triggered = r->GetCounter("serve.adapt.triggered")->Value();
    c.dropped = r->GetCounter("serve.adapt.dropped")->Value();
    c.skipped = r->GetCounter("serve.adapt.skipped")->Value();
    c.finetunes = r->GetCounter("serve.adapt.finetunes")->Value();
    c.promoted = r->GetCounter("serve.adapt.promoted")->Value();
    c.rolledback = r->GetCounter("serve.adapt.rolledback")->Value();
    c.aborted = r->GetCounter("serve.adapt.aborted")->Value();
    return c;
  }
};


// A per-test checkpoint directory: sibling tests run as concurrent
// processes sharing TempDir(), and the controller names its artifacts by
// (tenant, generation) only.
std::string PrivateCheckpointDir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = ::testing::TempDir() + "/" +
                          info->test_suite_name() + "." + info->name();
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

TEST(ServeAdaptStressTest, ConcurrentTrafficSwapsAndAdaptationReconcile) {
  const engine::Database db = engine::BuildTpchLike(41);
  std::vector<plan::QueryPlan> plans = engine::GenerateLabeledPlans(
      db, engine::MachineM1(), engine::WorkloadKind::kComplex, 24, 3);
  std::vector<plan::QueryPlan> drifted = plans;
  engine::RelabelPlans(db, engine::MachineM2(), /*seed=*/11, &drifted);

  core::DaceConfig config;
  config.epochs = 1;
  config.finetune_epochs = 1;

  ModelRegistry registry;
  const std::vector<std::string> tenants = {"stress-a", "stress-b"};
  for (const std::string& tenant : tenants) {
    auto est = std::make_shared<core::DaceEstimator>(config);
    est->set_name(tenant);
    est->Train(plans);
    ASSERT_TRUE(registry.Register(tenant, est).ok());
  }
  // A checkpoint for the operator-swap thread to race promotions with.
  const std::string swap_path = ::testing::TempDir() + "/adapt_stress.ckpt";
  {
    core::DaceEstimator est(config);
    est.Train(plans);
    ASSERT_TRUE(est.SaveToFile(swap_path).ok());
  }

  ServiceConfig sc;
  sc.feedback.retain_capacity = 64;
  EstimatorService service(&registry, sc);

  AdaptationConfig ac;
  ac.checkpoint_dir = PrivateCheckpointDir();
  ac.min_finetune_plans = 16;
  ac.holdout_plans = 4;
  ac.queue_capacity = 2;  // the ISSUE's 2-slot queue, saturated on purpose
  AdaptationController controller(&registry, &service, ac);

  const AdaptCounters before = AdaptCounters::Take();

  // 2 client threads per tenant (tracked estimates + executed-plan
  // feedback), 1 operator-swap thread, 2 trigger-storm threads.
  constexpr int kClientsPerTenant = 2;
  constexpr int kRoundsPerClient = 3;
  constexpr int kTriggerThreads = 2;
  constexpr int kTriggersPerThread = 24;

  std::atomic<uint64_t> requests_ok{0};
  std::atomic<uint64_t> requests_failed{0};
  std::atomic<uint64_t> trigger_accepted{0};
  std::atomic<uint64_t> trigger_rejected{0};

  std::vector<std::thread> threads;
  for (const std::string& tenant : tenants) {
    for (int c = 0; c < kClientsPerTenant; ++c) {
      threads.emplace_back([&, tenant, c] {
        for (int round = 0; round < kRoundsPerClient; ++round) {
          const std::vector<plan::QueryPlan>& source =
              (round + c) % 2 == 0 ? drifted : plans;
          for (const plan::QueryPlan& plan : source) {
            auto tracked = service.EstimateTracked(tenant, plan);
            if (!tracked.ok()) {
              requests_failed.fetch_add(1);
              continue;
            }
            requests_ok.fetch_add(1);
            // Duplicate joins across clients are late/NotFound, never fatal.
            (void)service.ReportExecuted(tenant, tracked->request_id, plan);
          }
        }
      });
    }
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 6; ++i) {
      for (const std::string& tenant : tenants) {
        ASSERT_TRUE(registry.SwapFromFile(tenant, swap_path).ok());
        service.NotifySwap(tenant);
      }
      std::this_thread::yield();
    }
  });
  for (int t = 0; t < kTriggerThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kTriggersPerThread; ++i) {
        const std::string& tenant = tenants[(t + i) % tenants.size()];
        if (controller.TriggerAdaptation(tenant)) {
          trigger_accepted.fetch_add(1);
        } else {
          trigger_rejected.fetch_add(1);
        }
        if (i % 8 == 0) std::this_thread::yield();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  controller.Quiesce();

  const AdaptCounters after = AdaptCounters::Take();
  const uint64_t triggered = after.triggered - before.triggered;
  const uint64_t dropped = after.dropped - before.dropped;
  const uint64_t skipped = after.skipped - before.skipped;
  const uint64_t finetunes = after.finetunes - before.finetunes;
  const uint64_t promoted = after.promoted - before.promoted;
  const uint64_t rolledback = after.rolledback - before.rolledback;
  const uint64_t aborted = after.aborted - before.aborted;

  // The deterministic books: the controller's counters reconcile exactly
  // against the trigger ledger this test drove, under full concurrency.
  EXPECT_EQ(triggered, trigger_accepted.load());
  EXPECT_EQ(dropped, trigger_rejected.load());
  EXPECT_EQ(triggered, skipped + finetunes)
      << "every accepted trigger must resolve exactly once";
  EXPECT_EQ(finetunes, promoted + rolledback + aborted)
      << "every fine-tune must resolve exactly once";
  EXPECT_EQ(controller.cycles_completed(), triggered);
  EXPECT_GE(triggered, 1u);
  EXPECT_GE(requests_ok.load(), 1u);
  EXPECT_EQ(requests_failed.load(), 0u)
      << "adaptation and swaps must never fail serving traffic";

  // Terminal states only after quiesce, and the registry is consistent:
  // no orphaned canary, generations moved by the swaps (and possibly
  // promotions).
  for (const std::string& tenant : tenants) {
    EXPECT_FALSE(registry.HasCanary(tenant));
    EXPECT_GE(registry.Generation(tenant), 7u);  // 1 register + 6 swaps
    const AdaptationController::State state = controller.state(tenant);
    EXPECT_TRUE(state != AdaptationController::State::kFineTuning &&
                state != AdaptationController::State::kCanary &&
                state != AdaptationController::State::kDrifted)
        << "tenant " << tenant << " stuck in state "
        << static_cast<int>(state);
    // Serving still healthy on whatever won.
    auto estimate = service.Estimate(tenant, plans.front());
    ASSERT_TRUE(estimate.ok());
    EXPECT_GT(*estimate, 0.0);
  }
}

TEST(ServeAdaptStressTest, ShutdownDrainsQueuedJobsAsSkipped) {
  const engine::Database db = engine::BuildTpchLike(43);
  const std::vector<plan::QueryPlan> plans = engine::GenerateLabeledPlans(
      db, engine::MachineM1(), engine::WorkloadKind::kComplex, 12, 3);
  core::DaceConfig config;
  config.epochs = 1;
  ModelRegistry registry;
  auto est = std::make_shared<core::DaceEstimator>(config);
  est->Train(plans);
  ASSERT_TRUE(registry.Register("t0", est).ok());
  ServiceConfig sc;
  EstimatorService service(&registry, sc);

  const AdaptCounters before = AdaptCounters::Take();
  uint64_t accepted = 0;
  {
    AdaptationConfig ac;
    ac.checkpoint_dir = PrivateCheckpointDir();
    ac.min_finetune_plans = 1 << 20;  // cycles that do run resolve as skipped
    ac.queue_capacity = 2;
    AdaptationController controller(&registry, &service, ac);
    // Race triggers against an immediate shutdown: whatever was accepted
    // must still resolve (run as skipped, or drained as skipped).
    for (int i = 0; i < 4; ++i) {
      if (controller.TriggerAdaptation("t0")) ++accepted;
    }
    controller.Shutdown();
    // Post-shutdown triggers are refused and counted dropped.
    EXPECT_FALSE(controller.TriggerAdaptation("t0"));
  }  // destructor joins the worker

  const AdaptCounters after = AdaptCounters::Take();
  EXPECT_EQ(after.triggered - before.triggered, accepted);
  EXPECT_EQ(after.skipped - before.skipped, accepted)
      << "shutdown must drain queued jobs as skipped, not lose them";
  EXPECT_EQ(after.finetunes - before.finetunes, 0u);
}

}  // namespace
}  // namespace dace::serve
