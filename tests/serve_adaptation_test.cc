// Closed adaptation loop (DESIGN.md §17) and its building blocks:
//   - seeded FineTune is bit-reproducible regardless of RNG history and
//     thread count (the PR-1 determinism contract extended to adaptation),
//   - checkpoint lineage tags round-trip and follow the committed weights,
//   - Clone() is a bit-identical, fully-isolated copy,
//   - AccuracyMonitor alarm callbacks may re-enter the monitor (the
//     controller's subscription does exactly that) without deadlock or
//     double-delivery,
//   - the end-to-end loop: drifted traffic -> alarm -> background LoRA
//     fine-tune -> canary -> promote -> drift detectors re-baselined,
//     with measurable accuracy recovery and zero serving downtime.
// Suites are named Serve* so tools/check.sh's tsan-serve stage replays them
// under TSan.

#include <sys/stat.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dace_model.h"
#include "engine/corpus.h"
#include "engine/dataset.h"
#include "engine/machine.h"
#include "gtest/gtest.h"
#include "obs/drift.h"
#include "obs/metrics.h"
#include "serve/adaptation.h"
#include "serve/feedback.h"
#include "serve/model_registry.h"
#include "serve/service.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace dace::serve {
namespace {

std::vector<plan::QueryPlan> MakePlans(uint64_t db_seed, int count) {
  const engine::Database db = engine::BuildTpchLike(db_seed);
  return engine::GenerateLabeledPlans(db, engine::MachineM1(),
                                      engine::WorkloadKind::kComplex, count, 3);
}

// The canonical flat weight image (the bytes the PR-1 determinism tests
// compare).
std::string WeightBytes(const core::DaceEstimator& est) {
  ByteWriter w;
  est.model().Serialize(&w);
  return w.buffer();
}

// A per-test checkpoint directory: sibling tests run as concurrent
// processes sharing TempDir(), and the controller names its artifacts by
// (tenant, generation) only — two tests adapting tenant "t0" at generation
// 1 would overwrite each other's candidate mid-cycle.
std::string PrivateCheckpointDir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = ::testing::TempDir() + "/" +
                          info->test_suite_name() + "." + info->name();
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

// ------------------------------------------------- seeded fine-tune ----

TEST(ServeSeededFineTuneTest, SeedErasesRngHistory) {
  const std::vector<plan::QueryPlan> plans = MakePlans(11, 24);
  core::DaceConfig config;
  config.epochs = 1;
  config.finetune_epochs = 2;

  // e1 trained in-process (its RNG advanced through training + shuffles);
  // e2 loaded from e1's checkpoint (fresh RNG, identical weights). The
  // unseeded FineTune would diverge — the seeded one must not.
  core::DaceEstimator e1(config);
  e1.Train(plans);
  const std::string path = ::testing::TempDir() + "/seeded_ft_base.ckpt";
  ASSERT_TRUE(e1.SaveToFile(path).ok());
  core::DaceEstimator e2(config);
  ASSERT_TRUE(e2.LoadFromFile(path).ok());
  ASSERT_EQ(WeightBytes(e1), WeightBytes(e2));

  e1.FineTune(plans, /*seed=*/1234);
  e2.FineTune(plans, /*seed=*/1234);
  EXPECT_EQ(WeightBytes(e1), WeightBytes(e2))
      << "seeded fine-tune must be independent of prior RNG history";

  // A different seed must explore a different adapter initialization.
  core::DaceEstimator e3(config);
  ASSERT_TRUE(e3.LoadFromFile(path).ok());
  e3.FineTune(plans, /*seed=*/999);
  EXPECT_NE(WeightBytes(e1), WeightBytes(e3));
}

TEST(ServeSeededFineTuneTest, SeedIsBitReproducibleAtAnyThreadCount) {
  const std::vector<plan::QueryPlan> plans = MakePlans(11, 24);
  core::DaceConfig config;
  config.epochs = 1;
  config.finetune_epochs = 2;
  core::DaceEstimator base(config);
  base.Train(plans);
  const std::string path = ::testing::TempDir() + "/seeded_ft_pool.ckpt";
  ASSERT_TRUE(base.SaveToFile(path).ok());

  std::string reference;
  for (const int threads : {1, 3, 8}) {
    ThreadPool pool(threads);
    core::DaceEstimator est(config);
    est.set_thread_pool(&pool);
    ASSERT_TRUE(est.LoadFromFile(path).ok());
    est.FineTune(plans, /*seed=*/0xDACE5EED);
    const std::string bytes = WeightBytes(est);
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference)
          << "seeded fine-tune diverged at pool size " << threads;
    }
  }
}

// ---------------------------------------------------------- lineage ----

TEST(ServeLineageTest, LineageRoundTripsAndFollowsCommittedWeights) {
  const std::vector<plan::QueryPlan> plans = MakePlans(12, 24);
  core::DaceConfig config;
  config.epochs = 1;
  core::DaceEstimator est(config);
  est.Train(plans);

  const uint64_t version = est.model().weights_version();
  est.set_lineage("candidate tenant=t0 parent_gen=3 seed=42");
  EXPECT_EQ(est.model().weights_version(), version)
      << "lineage is provenance, not weights: it must not invalidate caches";

  const std::string tagged = ::testing::TempDir() + "/lineage_tagged.ckpt";
  ASSERT_TRUE(est.SaveToFile(tagged).ok());
  core::DaceEstimator loaded(config);
  ASSERT_TRUE(loaded.LoadFromFile(tagged).ok());
  EXPECT_EQ(loaded.lineage(), "candidate tenant=t0 parent_gen=3 seed=42");
  EXPECT_EQ(WeightBytes(loaded), WeightBytes(est));

  // A checkpoint without the section clears any stale tag: lineage always
  // describes the weights that are actually live.
  core::DaceEstimator untagged(config);
  untagged.Train(plans);
  const std::string plain = ::testing::TempDir() + "/lineage_plain.ckpt";
  ASSERT_TRUE(untagged.SaveToFile(plain).ok());
  ASSERT_TRUE(loaded.LoadFromFile(plain).ok());
  EXPECT_TRUE(loaded.lineage().empty());
}

TEST(ServeLineageTest, UntaggedArtifactBytesAreUnchangedByTheFeature) {
  // An untagged save must be byte-identical to what pre-lineage builds
  // wrote: the optional section only exists when a tag is set.
  const std::vector<plan::QueryPlan> plans = MakePlans(12, 24);
  core::DaceConfig config;
  config.epochs = 1;
  core::DaceEstimator est(config);
  est.Train(plans);
  const std::string untagged_blob = est.SerializeToString();
  est.set_lineage("x");
  const std::string tagged_blob = est.SerializeToString();
  est.set_lineage("");
  EXPECT_EQ(est.SerializeToString(), untagged_blob);
  EXPECT_GT(tagged_blob.size(), untagged_blob.size());
}

// ------------------------------------------------------------- clone ----

TEST(ServeCloneTest, CloneIsBitIdenticalAndFullyIsolated) {
  const std::vector<plan::QueryPlan> plans = MakePlans(13, 24);
  core::DaceConfig config;
  config.epochs = 1;
  config.finetune_epochs = 2;
  core::DaceEstimator est(config);
  est.set_name("clone-src");
  est.Train(plans);
  est.set_lineage("anchor tenant=t0 gen=1");

  std::unique_ptr<core::DaceEstimator> clone = est.Clone();
  EXPECT_EQ(clone->Name(), "clone-src");
  EXPECT_EQ(clone->lineage(), "anchor tenant=t0 gen=1");
  EXPECT_EQ(WeightBytes(*clone), WeightBytes(est));

  std::vector<const plan::QueryPlan*> ptrs;
  for (const auto& p : plans) ptrs.push_back(&p);
  const std::vector<double> before = est.PredictBatchMs(ptrs);
  EXPECT_EQ(clone->PredictBatchMs(ptrs), before);

  // Mutating the clone (the background fine-tune) must leave the original's
  // weights and predictions untouched — the serving snapshot never moves.
  clone->FineTune(plans, /*seed=*/7);
  EXPECT_NE(WeightBytes(*clone), WeightBytes(est));
  EXPECT_EQ(est.PredictBatchMs(ptrs), before);
}

// ------------------------------------------- alarm re-entrancy (pin) ----

TEST(ServeDriftReentrancyTest, CallbackMayReenterMonitorWithoutDeadlock) {
  obs::AccuracyMonitorConfig config;
  config.page_hinkley = {/*delta=*/0.01, /*lambda=*/0.5, /*min_samples=*/4};
  config.ks.min_samples = 1 << 20;  // keep KS out of this test
  obs::AccuracyMonitor monitor("reentrancy", config,
                               obs::MetricsRegistry::Default());

  std::atomic<int> fired{0};
  monitor.AddAlarmCallback([&](const obs::Alarm& alarm) {
    fired.fetch_add(1);
    // Everything an adaptation callback plausibly does, re-entrantly:
    // inspect history, acknowledge (CaptureReference — the NotifySwap
    // path), register another listener, even feed an observation. All of
    // these take the monitor lock, so this deadlocks if alarms were ever
    // delivered under it.
    EXPECT_FALSE(monitor.Alarms().empty());
    EXPECT_EQ(monitor.Alarms().back().detector, alarm.detector);
    monitor.CaptureReference();
    monitor.AddAlarmCallback([](const obs::Alarm&) {});
    monitor.ObserveQError(1.0, 1.0);
  });

  // Accurate warmup, then a sustained accuracy collapse.
  for (int i = 0; i < 8; ++i) monitor.ObserveQError(1.0, 1.0);
  int alarms_before_drift = fired.load();
  EXPECT_EQ(alarms_before_drift, 0);
  for (int i = 0; i < 64 && fired.load() == 0; ++i) {
    monitor.ObserveQError(1.0, 20.0);
  }
  EXPECT_GE(fired.load(), 1) << "sustained drift must alarm";
  // Exactly one delivery per raised alarm: the callback count matches the
  // retained alarm history (no double-fire from the re-entrant calls).
  EXPECT_EQ(static_cast<size_t>(fired.load()), monitor.Alarms().size());
}

TEST(ServeDriftReentrancyTest, CallbackMayCallServiceNotifySwap) {
  // The controller-shaped callback: drive the service feedback path until an
  // alarm fires, and from inside the callback call the service's NotifySwap
  // (which lands on CaptureReference of the SAME monitor mid-dispatch).
  const std::vector<plan::QueryPlan> plans = MakePlans(14, 16);
  core::DaceConfig config;
  config.epochs = 1;
  ModelRegistry registry;
  auto est = std::make_shared<core::DaceEstimator>(config);
  est->Train(plans);
  ASSERT_TRUE(registry.Register("t0", est).ok());

  ServiceConfig sc;
  sc.feedback.monitor.page_hinkley = {/*delta=*/0.01, /*lambda=*/0.5,
                                      /*min_samples=*/4};
  sc.feedback.monitor.ks.min_samples = 1 << 20;
  EstimatorService service(&registry, sc);

  std::atomic<int> fired{0};
  service.EnsureMonitor("t0")->AddAlarmCallback([&](const obs::Alarm&) {
    fired.fetch_add(1);
    service.NotifySwap("t0");
  });
  // Accurate warmup first (Page-Hinkley detects a SHIFT of the mean; a
  // signal that is bad from the first sample never shifts), then collapse.
  for (int i = 0; i < 8; ++i) {
    auto tracked = service.EstimateTracked("t0", plans[i % plans.size()]);
    ASSERT_TRUE(tracked.ok());
    ASSERT_TRUE(
        service.ReportActual("t0", tracked->request_id, tracked->ms).ok());
  }
  for (int i = 0; i < 64 && fired.load() == 0; ++i) {
    auto tracked = service.EstimateTracked("t0", plans[i % plans.size()]);
    ASSERT_TRUE(tracked.ok());
    ASSERT_TRUE(
        service.ReportActual("t0", tracked->request_id, tracked->ms * 25.0)
            .ok());
  }
  EXPECT_GE(fired.load(), 1);
  EXPECT_TRUE(service.Monitor("t0")->has_reference());  // NotifySwap landed
}

// ------------------------------------------------- retention harvest ----

TEST(ServeRetentionTest, ReportExecutedRetainsBoundedLabelledPlans) {
  const std::vector<plan::QueryPlan> plans = MakePlans(15, 24);
  core::DaceConfig config;
  config.epochs = 1;
  ModelRegistry registry;
  auto est = std::make_shared<core::DaceEstimator>(config);
  est->Train(plans);
  ASSERT_TRUE(registry.Register("t0", est).ok());

  ServiceConfig sc;
  sc.feedback.retain_capacity = 8;
  EstimatorService service(&registry, sc);

  for (int round = 0; round < 2; ++round) {
    for (const plan::QueryPlan& plan : plans) {
      auto tracked = service.EstimateTracked("t0", plan);
      ASSERT_TRUE(tracked.ok());
      ASSERT_TRUE(
          service.ReportExecuted("t0", tracked->request_id, plan).ok());
      // A duplicate executed report must neither join nor retain twice.
      EXPECT_EQ(
          service.ReportExecuted("t0", tracked->request_id, plan).code(),
          StatusCode::kNotFound);
    }
  }
  const std::vector<plan::QueryPlan> retained = service.RetainedPlans("t0");
  ASSERT_EQ(retained.size(), 8u) << "ring must stay bounded";
  // Oldest-first, holding the most recent 8 executions.
  for (size_t i = 0; i < retained.size(); ++i) {
    const plan::QueryPlan& want = plans[plans.size() - 8 + i];
    EXPECT_EQ(retained[i].node(retained[i].root()).actual_time_ms,
              want.node(want.root()).actual_time_ms);
  }
  EXPECT_TRUE(service.RetainedPlans("unknown").empty());
}

// ------------------------------------------------- the closed loop ----

class ServeAdaptationLoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<engine::Database>(engine::BuildTpchLike(17));
    plans_ = engine::GenerateLabeledPlans(*db_, engine::MachineM1(),
                                          engine::WorkloadKind::kComplex, 48, 3);
    // The drifted world: the same statements executed on machine M2 — the
    // paper's "across-more" hardware-shift scenario LoRA adapts to.
    drifted_ = plans_;
    engine::RelabelPlans(*db_, engine::MachineM2(), /*seed=*/5, &drifted_);

    core::DaceConfig config;
    config.epochs = 4;
    config.finetune_epochs = 8;
    auto est = std::make_shared<core::DaceEstimator>(config);
    est->set_name("adapt-loop");
    est->Train(plans_);
    ASSERT_TRUE(registry_.Register("t0", est).ok());
  }

  std::unique_ptr<engine::Database> db_;
  std::vector<plan::QueryPlan> plans_;
  std::vector<plan::QueryPlan> drifted_;
  ModelRegistry registry_;
};

TEST_F(ServeAdaptationLoopTest, DriftAlarmDrivesFineTuneCanaryPromote) {
  obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
  const uint64_t promoted_before =
      r->GetCounter("serve.adapt.promoted")->Value();
  const uint64_t triggered_before =
      r->GetCounter("serve.adapt.triggered")->Value();

  ServiceConfig sc;
  sc.feedback.retain_capacity = 128;
  // Burn-in of 64: by the time Page-Hinkley is allowed to alarm, at least
  // ~40 drifted executions are already retained, so the triggered cycle has
  // a real fine-tune corpus instead of skipping on an empty buffer.
  sc.feedback.monitor.page_hinkley = {/*delta=*/0.05, /*lambda=*/1.0,
                                      /*min_samples=*/64};
  sc.feedback.monitor.ks.min_samples = 1 << 20;  // PH drives this test
  EstimatorService service(&registry_, sc);

  AdaptationConfig ac;
  ac.checkpoint_dir = PrivateCheckpointDir();
  ac.min_finetune_plans = 32;
  ac.holdout_plans = 8;
  ac.accept_margin = 0.9;
  AdaptationController controller(&registry_, &service, ac);
  ASSERT_TRUE(controller.Watch("t0").ok());
  EXPECT_EQ(controller.Watch("no-such-tenant").code(), StatusCode::kNotFound);

  const uint64_t gen_before = registry_.Generation("t0");
  ASSERT_EQ(gen_before, 1u);

  // Accurate warmup (joined, not retained: ReportActual) establishes the
  // pre-drift baseline the detectors measure the shift against.
  for (size_t i = 0; i < 24; ++i) {
    const plan::QueryPlan& plan = plans_[i % plans_.size()];
    auto tracked = service.EstimateTracked("t0", plan);
    ASSERT_TRUE(tracked.ok());
    ASSERT_TRUE(service
                    .ReportActual("t0", tracked->request_id,
                                  plan.node(plan.root()).actual_time_ms)
                    .ok());
  }

  // Drifted traffic: estimates from the stale model, ground truth from M2.
  // Every request must stay OK throughout — adaptation runs off-path.
  for (int round = 0; round < 4 && registry_.Generation("t0") == gen_before;
       ++round) {
    for (const plan::QueryPlan& plan : drifted_) {
      auto tracked = service.EstimateTracked("t0", plan);
      ASSERT_TRUE(tracked.ok()) << tracked.status().ToString();
      ASSERT_TRUE(
          service.ReportExecuted("t0", tracked->request_id, plan).ok());
    }
    controller.Quiesce();
  }
  controller.Quiesce();

  // The loop closed: alarm -> fine-tune -> canary -> promote.
  EXPECT_GT(r->GetCounter("serve.adapt.triggered")->Value(), triggered_before);
  ASSERT_GT(r->GetCounter("serve.adapt.promoted")->Value(), promoted_before)
      << "drifted traffic must end in a promoted candidate";
  EXPECT_GE(registry_.Generation("t0"), gen_before + 1);
  // Terminal after Quiesce: never stuck mid-cycle.
  const AdaptationController::State state = controller.state("t0");
  EXPECT_TRUE(state == AdaptationController::State::kPromoted ||
              state == AdaptationController::State::kRolledBack ||
              state == AdaptationController::State::kStable)
      << "non-terminal state " << static_cast<int>(state);
  EXPECT_TRUE(service.Monitor("t0")->has_reference())
      << "promotion must re-baseline the drift detectors";

  // The promoted model is measurably better on the drifted workload: the
  // canary gate demanded candidate <= 0.9 x incumbent on the holdout, so the
  // post-swap snapshot beats the anchor it replaced.
  auto snapshot = registry_.Get("t0");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ((*snapshot)->lineage().substr(0, 9), "candidate");

  // Continuity: serving kept working across the swap and keeps working now.
  for (const plan::QueryPlan& plan : drifted_) {
    auto est = service.Estimate("t0", plan);
    ASSERT_TRUE(est.ok());
    EXPECT_GT(*est, 0.0);
  }
}

TEST_F(ServeAdaptationLoopTest, InsufficientRetentionSkipsCycle) {
  obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
  const uint64_t skipped_before = r->GetCounter("serve.adapt.skipped")->Value();
  ServiceConfig sc;
  EstimatorService service(&registry_, sc);
  AdaptationConfig ac;
  ac.checkpoint_dir = PrivateCheckpointDir();
  ac.min_finetune_plans = 1 << 20;  // unreachable: every cycle skips
  AdaptationController controller(&registry_, &service, ac);

  ASSERT_TRUE(controller.TriggerAdaptation("t0"));
  controller.Quiesce();
  EXPECT_EQ(r->GetCounter("serve.adapt.skipped")->Value(), skipped_before + 1);
  EXPECT_EQ(controller.state("t0"), AdaptationController::State::kStable);
  EXPECT_EQ(registry_.Generation("t0"), 1u);
  EXPECT_EQ(controller.cycles_completed(), 1u);
}

TEST_F(ServeAdaptationLoopTest, DuplicateTriggersAreDroppedNotQueued) {
  obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
  const uint64_t dropped_before = r->GetCounter("serve.adapt.dropped")->Value();
  ServiceConfig sc;
  EstimatorService service(&registry_, sc);
  AdaptationConfig ac;
  ac.checkpoint_dir = PrivateCheckpointDir();
  ac.min_finetune_plans = 1 << 20;
  ac.queue_capacity = 2;
  AdaptationController controller(&registry_, &service, ac);

  // Same tenant twice: the second is a dedupe drop regardless of capacity.
  const bool first = controller.TriggerAdaptation("t0");
  const bool second = controller.TriggerAdaptation("t0");
  EXPECT_TRUE(first);
  if (!second) {
    EXPECT_GE(r->GetCounter("serve.adapt.dropped")->Value(),
              dropped_before + 1);
  }
  controller.Quiesce();
  EXPECT_GE(controller.cycles_completed(), 1u);
}

}  // namespace
}  // namespace dace::serve
