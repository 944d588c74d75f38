// Figure 7: robustness under data drift. ADMs (DACE, Zero-Shot) train on
// the corpus without TPC-H; WDMs (MSCN, QueryFormer) train on TPC-H at
// scale 1. Everyone is tested on TPC-H instances scaled up to 100x without
// retraining.
//
//   ./bench_fig07_data_drift [--wdm_train=1000] [--test_queries=200]
//                            [--queries_per_db=60] [--epochs=8]
//                            [--json=out.json]
//
// Besides the accuracy-vs-scale tables, the same prediction streams are
// replayed through the online drift detectors (obs::AccuracyMonitor): the
// scale-1 test set is the stationary prefix (must raise zero alarms), then
// the scaled test sets arrive in sweep order as live drift. Per monitored
// model the replay reports false alarms on the prefix and the
// time-to-detect (in joined observations past drift onset) for both
// Page-Hinkley and KS — the WDM's degradation must trip both detectors.
// The run ends with a continuous-drift SOAK of the closed adaptation loop
// (serve::AdaptationController): live traffic through the serving stack
// drifts hard (TPC-H scaled 20x AND relabelled on machine M2), the drift
// alarm triggers a background LoRA fine-tune on the retained executed
// plans, the candidate canaries against the incumbent and is promoted —
// and the soak verifies accuracy RECOVERS (post-adaptation windowed median
// q-error vs the pre-drift baseline) with zero dropped requests, plus a
// forced-regression cycle whose canary rolls back leaving the incumbent's
// predictions bit-identical.
//
// With --json the tables, replay verdicts and soak results are emitted as
// records ("fig07_row", "fig07_drift_detection", "fig07_soak",
// "fig07_rollback") for the check.sh drift and drift-recovery gates.

#include <sys/stat.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/mscn.h"
#include "baselines/postgres_cost.h"
#include "baselines/queryformer.h"
#include "baselines/zeroshot.h"
#include "bench/bench_util.h"
#include "core/dace_model.h"
#include "engine/dataset.h"
#include "obs/drift.h"
#include "obs/metrics.h"
#include "serve/adaptation.h"
#include "serve/model_registry.h"
#include "serve/service.h"
#include "util/strings.h"

namespace {

using namespace dace;

// One (predicted, actual) pair of a model on one test plan — the unit the
// online monitor consumes.
struct Joined {
  double predicted_ms = 0.0;
  double actual_ms = 0.0;
};

std::vector<Joined> JoinPredictions(const core::CostEstimator& estimator,
                                    const std::vector<plan::QueryPlan>& test) {
  std::vector<Joined> out;
  out.reserve(test.size());
  for (const plan::QueryPlan& plan : test) {
    out.push_back({estimator.PredictMs(plan),
                   plan.node(plan.root()).actual_time_ms});
  }
  return out;
}

struct ReplayVerdict {
  std::string model;
  uint64_t stationary_obs = 0;
  uint64_t drift_obs = 0;
  uint64_t false_alarms = 0;        // alarms raised on the stationary prefix
  int64_t ph_time_to_detect = -1;   // observations past onset; -1 = never
  int64_t ks_time_to_detect = -1;
};

// Replays a stationary prefix followed by a drifted stream through a fresh
// AccuracyMonitor and reports what the detectors did. The replay is purely
// tick-driven, so it is deterministic for a fixed prediction stream.
ReplayVerdict ReplayThroughDetectors(const std::string& model,
                                     const std::vector<Joined>& stationary,
                                     const std::vector<Joined>& drifted) {
  obs::AccuracyMonitorConfig config;
  config.window = obs::WindowConfig{/*width_ticks=*/64, /*sub_windows=*/8};
  obs::AccuracyMonitor monitor("fig07-" + model, config,
                               obs::MetricsRegistry::Default());
  for (const Joined& j : stationary) {
    monitor.ObserveQError(j.predicted_ms, j.actual_ms);
  }
  // Deployment-shaped replay: the stationary prefix ends with the model
  // being (re)blessed, so snapshot the full stationary window as the KS
  // reference — same as NotifySwap after a hot swap. Auto-reference would
  // otherwise have frozen a smaller early sample, costing KS power.
  monitor.CaptureReference();
  const uint64_t onset = monitor.tick();
  ReplayVerdict verdict;
  verdict.model = model;
  verdict.stationary_obs = onset;
  verdict.drift_obs = drifted.size();
  for (const Joined& j : drifted) {
    monitor.ObserveQError(j.predicted_ms, j.actual_ms);
  }
  for (const obs::Alarm& alarm : monitor.Alarms()) {
    if (alarm.tick < onset) {
      ++verdict.false_alarms;
      continue;
    }
    const int64_t delay = static_cast<int64_t>(alarm.tick - onset) + 1;
    if (alarm.detector == std::string("page_hinkley")) {
      if (verdict.ph_time_to_detect < 0) verdict.ph_time_to_detect = delay;
    } else if (verdict.ks_time_to_detect < 0) {
      verdict.ks_time_to_detect = delay;
    }
  }
  return verdict;
}

// -------------------- closed-adaptation-loop soak --------------------

// Counts every request of the soak: the zero-downtime claim is literal —
// every Estimate/EstimateTracked across drift, fine-tune, canary and swap
// must resolve OK.
struct SoakTraffic {
  uint64_t requests = 0;
  uint64_t failed = 0;
};

// Feeds one pass of `plans` through the serving stack as tracked traffic
// and returns the tenant's live windowed median q-error afterwards. With
// `retain`, ground truth arrives as fully-executed plans (ReportExecuted),
// feeding the adaptation loop's labelled-plan ring; without, as bare
// latencies (ReportActual) — joined into the drift detectors but kept out
// of the fine-tune corpus, the right shape for traffic that predates the
// regime the loop should adapt to.
double FeedTraffic(serve::EstimatorService* service, const char* tenant,
                   const std::vector<plan::QueryPlan>& plans, bool retain,
                   SoakTraffic* traffic) {
  for (const plan::QueryPlan& plan : plans) {
    ++traffic->requests;
    auto tracked = service->EstimateTracked(tenant, plan);
    if (!tracked.ok()) {
      ++traffic->failed;
      continue;
    }
    const Status joined =
        retain ? service->ReportExecuted(tenant, tracked->request_id, plan)
               : service->ReportActual(tenant, tracked->request_id,
                                       plan.node(plan.root()).actual_time_ms);
    if (!joined.ok()) ++traffic->failed;
  }
  obs::AccuracyMonitor* monitor = service->Monitor(tenant);
  return monitor != nullptr ? monitor->WindowMedianQError() : 0.0;
}

// The continuous-drift soak: stationary traffic establishes the baseline,
// then the workload shifts hard (scaled database AND a different machine).
// The PR-9 drift alarm fires, the adaptation controller fine-tunes on the
// retained executed plans, canaries the candidate and promotes it; traffic
// keeps flowing throughout. Afterwards a forced-regression cycle (accept
// margin far below what one fine-tune can reach) proves the rollback path:
// the incumbent keeps serving bit-identical predictions.
void RunAdaptationSoak(const core::DaceEstimator& trained,
                       const std::vector<plan::QueryPlan>& stationary,
                       const std::vector<plan::QueryPlan>& drifted) {
  std::printf("\nclosed-loop adaptation soak (drift -> alarm -> fine-tune ->"
              " canary -> promote):\n");
  obs::MetricsRegistry* metrics = obs::MetricsRegistry::Default();
  const uint64_t promoted_before =
      metrics->GetCounter("serve.adapt.promoted")->Value();
  const uint64_t rolledback_before =
      metrics->GetCounter("serve.adapt.rolledback")->Value();

  serve::ModelRegistry registry;
  std::shared_ptr<core::DaceEstimator> serving = trained.Clone();
  serving->set_name("fig07-soak");
  if (!registry.Register("soak", serving).ok()) return;

  serve::ServiceConfig sc;
  sc.feedback.retain_capacity = 512;
  // A short rolling window so the post-swap accuracy measurement flushes
  // pre-swap observations quickly.
  sc.feedback.monitor.window = obs::WindowConfig{/*width_ticks=*/32,
                                                 /*sub_windows=*/4};
  // Page-Hinkley drives the soak deterministically. The burn-in is sized so
  // the alarm can only fire once roughly two-thirds of a drifted round has
  // been retained — by the time the cycle harvests, the fine-tune buffer
  // holds a real corpus of the NEW regime (stationary traffic above joins
  // without retention).
  sc.feedback.monitor.page_hinkley = {
      /*delta=*/0.05, /*lambda=*/2.0,
      /*min_samples=*/stationary.size() + (2 * drifted.size()) / 3};
  sc.feedback.monitor.ks.min_samples = 1 << 20;
  serve::EstimatorService service(&registry, sc);

  serve::AdaptationConfig ac;
  ac.checkpoint_dir = "fig07_soak_ckpt";
  ::mkdir(ac.checkpoint_dir.c_str(), 0755);
  ac.min_finetune_plans = 64;
  ac.holdout_plans = 16;
  ac.accept_margin = 0.9;
  serve::AdaptationController controller(&registry, &service, ac);
  if (!controller.Watch("soak").ok()) return;

  SoakTraffic traffic;
  const double pre_drift_median =
      FeedTraffic(&service, "soak", stationary, /*retain=*/false, &traffic);

  // Drift: keep serving the shifted workload until the loop promotes an
  // adapted model (bounded rounds — the gate below fails loudly if the loop
  // never closes).
  double drifted_median = 0.0;
  int drift_rounds = 0;
  for (int round = 0; round < 6 && registry.Generation("soak") == 1; ++round) {
    const double median =
        FeedTraffic(&service, "soak", drifted, /*retain=*/true, &traffic);
    if (round == 0) drifted_median = median;
    controller.Quiesce();
    ++drift_rounds;
  }
  const bool adapted = registry.Generation("soak") > 1;

  // Post-adaptation: the same drifted workload on the promoted model. Two
  // passes so the rolling window holds only post-swap observations.
  FeedTraffic(&service, "soak", drifted, /*retain=*/true, &traffic);
  const double recovered_median =
      FeedTraffic(&service, "soak", drifted, /*retain=*/true, &traffic);
  const uint64_t promoted =
      metrics->GetCounter("serve.adapt.promoted")->Value() - promoted_before;
  const double recovery_ratio =
      pre_drift_median > 0.0 ? recovered_median / pre_drift_median : 0.0;

  std::printf(
      "  pre-drift median q-error    %.3f\n"
      "  drifted median q-error      %.3f  (scale 20x + machine M2)\n"
      "  recovered median q-error    %.3f  (%.2fx pre-drift; gate <= 1.5x)\n"
      "  promoted candidates         %llu  (generation %llu after %d drift "
      "rounds)\n"
      "  requests %llu, failed %llu  (gate: zero failures)\n",
      pre_drift_median, drifted_median, recovered_median, recovery_ratio,
      static_cast<unsigned long long>(promoted),
      static_cast<unsigned long long>(registry.Generation("soak")),
      drift_rounds, static_cast<unsigned long long>(traffic.requests),
      static_cast<unsigned long long>(traffic.failed));
  bench::Json()
      .Add("fig07_soak")
      .Num("pre_drift_median", pre_drift_median)
      .Num("drifted_median", drifted_median)
      .Num("recovered_median", recovered_median)
      .Num("recovery_ratio", recovery_ratio)
      .Num("adapted", adapted ? 1 : 0)
      .Num("promoted", static_cast<double>(promoted))
      .Num("generation", static_cast<double>(registry.Generation("soak")))
      .Num("requests", static_cast<double>(traffic.requests))
      .Num("requests_failed", static_cast<double>(traffic.failed));

  // Forced-regression canary: with an accept margin no single fine-tune can
  // reach, the candidate must be rejected and rolled back, and the rollback
  // must be exact — same snapshot object, bit-identical predictions.
  serve::ModelRegistry rb_registry;
  std::shared_ptr<core::DaceEstimator> rb_serving = trained.Clone();
  rb_serving->set_name("fig07-rollback");
  if (!rb_registry.Register("soak-rb", rb_serving).ok()) return;
  serve::EstimatorService rb_service(&rb_registry, sc);
  serve::AdaptationConfig rb_config = ac;
  rb_config.accept_margin = 0.25;
  serve::AdaptationController rb_controller(&rb_registry, &rb_service,
                                            rb_config);
  SoakTraffic rb_traffic;
  FeedTraffic(&rb_service, "soak-rb", stationary, /*retain=*/true,
              &rb_traffic);
  const serve::ModelRegistry::Snapshot incumbent =
      *rb_registry.Get("soak-rb");
  const std::vector<double> preds_before =
      incumbent->PredictBatchMs(stationary);
  rb_controller.TriggerAdaptation("soak-rb");
  rb_controller.Quiesce();
  const uint64_t rolledback =
      metrics->GetCounter("serve.adapt.rolledback")->Value() -
      rolledback_before;
  const serve::ModelRegistry::Snapshot after = *rb_registry.Get("soak-rb");
  const bool bit_identical = after.get() == incumbent.get() &&
                             after->PredictBatchMs(stationary) == preds_before;
  std::printf(
      "  forced-regression canary: rolled back %llu, incumbent predictions "
      "bit-identical %s\n",
      static_cast<unsigned long long>(rolledback),
      bit_identical ? "yes" : "NO");
  bench::Json()
      .Add("fig07_rollback")
      .Num("rolledback", static_cast<double>(rolledback))
      .Num("bit_identical", bit_identical ? 1 : 0)
      .Num("generation", static_cast<double>(rb_registry.Generation("soak-rb")))
      .Num("requests_failed", static_cast<double>(rb_traffic.failed));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dace;
  const Flags flags = bench::ParseFlagsOrDie(argc, argv);
  eval::ExperimentConfig config = eval::ExperimentConfig::FromFlags(flags);
  config.queries_per_db = static_cast<int>(flags.GetInt("queries_per_db", 60));
  config.epochs = static_cast<int>(flags.GetInt("epochs", 8));
  const int wdm_train_queries =
      static_cast<int>(flags.GetInt("wdm_train", 1000));
  const int test_queries = static_cast<int>(flags.GetInt("test_queries", 200));
  flags.DieOnUnreadKeys();

  bench::PrintHeader("Fig. 7 — data drift on scaled TPC-H",
                     "DACE paper Fig. 7 (q-error vs database scale)");

  eval::Workbench bench(config);
  const engine::Database& tpch = bench.corpus()[engine::kTpchIndex];

  // ADMs: trained without TPC-H.
  const auto adm_train = bench.TrainPlansExcluding(engine::kTpchIndex);
  core::DaceConfig dace_config;
  dace_config.epochs = config.epochs;
  core::DaceEstimator dace_est(dace_config);
  dace_est.Train(adm_train);
  baselines::ZeroShot::Config zs_config;
  zs_config.train.epochs = config.epochs;
  baselines::ZeroShot zeroshot(zs_config);
  zeroshot.Train(adm_train);
  std::printf("  trained ADMs (DACE, Zero-Shot) without TPC-H\n");

  // WDMs: trained on TPC-H scale 1.
  const auto wdm_train = engine::GenerateLabeledPlans(
      tpch, bench.m1(), engine::WorkloadKind::kComplex, wdm_train_queries, 444);
  baselines::TrainOptions opts;
  opts.epochs = config.epochs;
  baselines::Mscn::Config mscn_config;
  mscn_config.train = opts;
  baselines::Mscn mscn(mscn_config);
  mscn.Train(wdm_train);
  baselines::QueryFormer::Config qf_config;
  qf_config.train = opts;
  baselines::QueryFormer queryformer(qf_config);
  queryformer.Train(wdm_train);
  baselines::PostgresLinear postgres;
  postgres.Train(wdm_train);
  std::printf("  trained WDMs (MSCN, QueryFormer) on TPC-H scale 1\n");

  eval::TablePrinter median_table({"scale", "PostgreSQL", "MSCN",
                                   "QueryFormer", "Zero-Shot", "DACE"});
  eval::TablePrinter p95_table({"scale", "PostgreSQL", "MSCN", "QueryFormer",
                                "Zero-Shot", "DACE"});
  double dace_first_median = 0.0, dace_last_median = 0.0;

  // Per-model prediction streams for the detector replay: the scale-1 set
  // is the stationary regime, everything scaled is the drift.
  std::vector<Joined> mscn_stationary, mscn_drift;
  std::vector<Joined> dace_stationary, dace_drift;

  const double scales[] = {1.0, 5.0, 10.0, 20.0, 50.0, 100.0};
  for (double scale : scales) {
    const engine::Database scaled = engine::ScaleDatabase(tpch, scale);
    // The same statement timeout applies at every scale, exactly as a real
    // trace-collection pipeline would enforce it.
    const auto test = engine::GenerateLabeledPlans(
        scaled, bench.m1(), engine::WorkloadKind::kComplex, test_queries, 999);
    const auto pg = eval::Evaluate(postgres, test);
    const auto ms = eval::Evaluate(mscn, test);
    const auto qf = eval::Evaluate(queryformer, test);
    const auto zs = eval::Evaluate(zeroshot, test);
    const auto dc = eval::Evaluate(dace_est, test);
    {
      auto mscn_pairs = JoinPredictions(mscn, test);
      auto dace_pairs = JoinPredictions(dace_est, test);
      auto& mscn_dst = scale == 1.0 ? mscn_stationary : mscn_drift;
      auto& dace_dst = scale == 1.0 ? dace_stationary : dace_drift;
      mscn_dst.insert(mscn_dst.end(), mscn_pairs.begin(), mscn_pairs.end());
      dace_dst.insert(dace_dst.end(), dace_pairs.begin(), dace_pairs.end());
    }
    median_table.AddRow({StrFormat("%gx", scale), eval::FormatMetric(pg.median),
                         eval::FormatMetric(ms.median),
                         eval::FormatMetric(qf.median),
                         eval::FormatMetric(zs.median),
                         eval::FormatMetric(dc.median)});
    p95_table.AddRow({StrFormat("%gx", scale), eval::FormatMetric(pg.p95),
                      eval::FormatMetric(ms.p95), eval::FormatMetric(qf.p95),
                      eval::FormatMetric(zs.p95), eval::FormatMetric(dc.p95)});
    bench::Json()
        .Add("fig07_row")
        .Str("scale", StrFormat("%gx", scale))
        .Num("mscn_median", ms.median)
        .Num("queryformer_median", qf.median)
        .Num("zeroshot_median", zs.median)
        .Num("dace_median", dc.median);
    if (scale == 1.0) dace_first_median = dc.median;
    dace_last_median = dc.median;
    std::printf("  evaluated scale %gx\n", scale);
  }

  std::printf("\nmedian q-error by scale factor:\n");
  median_table.Print();
  std::printf("\n95th-percentile q-error by scale factor:\n");
  p95_table.Print();
  std::printf(
      "\nDACE median degradation across the sweep: %.0f%% (paper: <= 5%%).\n"
      "expected shape: WDMs degrade sharply as data drifts; ADMs stay\n"
      "stable, with DACE most accurate throughout.\n",
      100.0 * (dace_last_median / dace_first_median - 1.0));

  // -------- online drift-detector replay over the same streams --------
  std::printf("\ndetector replay (stationary = scale 1x, drift = 5x..100x):\n");
  eval::TablePrinter replay_table({"model", "stationary", "false alarms",
                                   "PH detect", "KS detect"});
  const ReplayVerdict verdicts[] = {
      ReplayThroughDetectors("mscn", mscn_stationary, mscn_drift),
      ReplayThroughDetectors("dace", dace_stationary, dace_drift),
  };
  auto format_delay = [](int64_t d) {
    return d < 0 ? std::string("never") : StrFormat("+%lld obs",
                                                    static_cast<long long>(d));
  };
  for (const ReplayVerdict& v : verdicts) {
    replay_table.AddRow({v.model, StrFormat("%llu obs",
                                  static_cast<unsigned long long>(v.stationary_obs)),
                         StrFormat("%llu",
                                   static_cast<unsigned long long>(v.false_alarms)),
                         format_delay(v.ph_time_to_detect),
                         format_delay(v.ks_time_to_detect)});
    bench::Json()
        .Add("fig07_drift_detection")
        .Str("model", v.model)
        .Num("stationary_obs", static_cast<double>(v.stationary_obs))
        .Num("drift_obs", static_cast<double>(v.drift_obs))
        .Num("false_alarms", static_cast<double>(v.false_alarms))
        .Num("ph_detected", v.ph_time_to_detect >= 0 ? 1 : 0)
        .Num("ks_detected", v.ks_time_to_detect >= 0 ? 1 : 0)
        .Num("ph_time_to_detect", static_cast<double>(v.ph_time_to_detect))
        .Num("ks_time_to_detect", static_cast<double>(v.ks_time_to_detect));
  }
  replay_table.Print();
  std::printf(
      "expected shape: the WDM's accuracy collapse past 1x trips BOTH\n"
      "detectors with zero alarms on the stationary prefix; the stable ADM\n"
      "gives the detectors nothing to find (or detects much later).\n");

  // -------- continuous-drift soak through the closed adaptation loop ----
  // Drift is deliberately brutal — the data shifts (20x scale) AND the
  // hardware shifts (M2) — so the stale model degrades far past any gate
  // and only genuine adaptation can recover it.
  const int soak_queries = std::max(96, test_queries);
  const auto soak_stationary = engine::GenerateLabeledPlans(
      tpch, bench.m1(), engine::WorkloadKind::kComplex, soak_queries, 2026);
  const engine::Database drifted_db = engine::ScaleDatabase(tpch, 20.0);
  auto soak_drifted = engine::GenerateLabeledPlans(
      drifted_db, bench.m1(), engine::WorkloadKind::kComplex, soak_queries,
      2027);
  engine::RelabelPlans(drifted_db, bench.m2(), 2028, &soak_drifted);
  // On top of the machine shift, a sustained uniform 3x slowdown (storage
  // degradation / noisy neighbours): database-agnostic features are robust
  // to the scale and machine axes by design, so this is the component that
  // visibly degrades the stale model — and being systematic, it is exactly
  // what a LoRA fine-tune on retained executions can adapt away.
  for (plan::QueryPlan& plan : soak_drifted) {
    for (plan::PlanNode& node : plan.mutable_nodes()) {
      node.actual_time_ms *= 3.0;
    }
  }
  RunAdaptationSoak(dace_est, soak_stationary, soak_drifted);

  if (!bench::Json().WriteIfRequested()) return 1;
  return 0;
}
