// Closed-loop load generator for the serving layer: N client threads ×
// T tenants drive EstimatorService (work-conserving coalescing scheduler over
// per-tenant snapshots) while an optional swapper hot-swaps checkpoints
// mid-run.
// Reports client-observed latency percentiles, throughput, the serve.*
// outcome counters, and the realized coalescing (batches / mean batch
// size). Not a paper table — this benchmarks the PR-5 serving layer that
// fronts the estimator.
//
//   ./bench_serve [--tenants=3] [--clients=8] [--requests=2000]
//                 [--plans=64] [--epochs=1] [--max-batch=64]
//                 [--queue-cap=1024] [--deadline-us=0]
//                 [--swaps=4] [--threads=N] [--precision=i8|f32|f64]
//                 [--json=out.json] [--metrics-json=m.json]
//                 [--trace-json=t.json] [--metrics-port=0]
//                 [--metrics-period-ms=0] [--linger-ms=0]
//
// The base model is distilled before registration, so every tenant serves
// through the tiered path (student first, agreement-gated escalation) and
// the run reports the realized tier fallback rate.
//
// Clients run the full accuracy-observability loop: EstimateTracked, then
// ReportActual with the plan's labeled ground truth, so the run exercises
// the feedback ledger, rolling q-error metrics and drift detectors end to
// end (serve.feedback.* counters and drift.alarms are reported).
// --metrics-port=N serves live Prometheus text at 127.0.0.1:N (N=0 picks
// an ephemeral port, printed at startup; omit the flag to disable);
// --metrics-period-ms=N additionally rewrites --metrics-json
// every N ms while the bench runs; --linger-ms=N keeps the process (and
// the metrics endpoint) alive that long after the run so an external
// scraper can pull the end-state — the check.sh exposition smoke does
// exactly that.
//
// Any other flag (a typo, a retired option) aborts naming it.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/dace_model.h"
#include "engine/corpus.h"
#include "engine/dataset.h"
#include "engine/machine.h"
#include "nn/kernels_f32.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "plan/plan.h"
#include "serve/model_registry.h"
#include "serve/service.h"

namespace {

using namespace dace;

// Labeled ground truth for the feedback path: the executed latency the
// corpus recorded at the plan root.
double ActualMs(const plan::QueryPlan& plan) {
  return plan.node(plan.root()).actual_time_ms;
}

double Percentile(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0.0;
  const size_t idx = std::min(
      sorted->size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted->size() - 1)));
  return (*sorted)[idx];
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = bench::ParseFlagsOrDie(argc, argv);
  const int tenants = static_cast<int>(flags.GetInt("tenants", 3));
  const int clients = static_cast<int>(flags.GetInt("clients", 8));
  const int requests = static_cast<int>(flags.GetInt("requests", 2000));
  const int plan_count = static_cast<int>(flags.GetInt("plans", 64));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 1));
  const int swaps = static_cast<int>(flags.GetInt("swaps", 4));
  const int64_t deadline_us = flags.GetInt("deadline-us", 0);
  // -1 = no endpoint; 0 = ephemeral port (printed); >0 = that port.
  const int metrics_port = static_cast<int>(flags.GetInt("metrics-port", -1));
  const int64_t metrics_period_ms = flags.GetInt("metrics-period-ms", 0);
  const int64_t linger_ms = flags.GetInt("linger-ms", 0);
  // The serving-tier default is int8 (the student's kernel path); the flag
  // overrides both the flag default and any DACE_PRECISION in the env.
  const std::string precision = flags.GetString("precision", "i8");
  if (precision == "i8") {
    nn::kernel::SetPrecision(nn::kernel::Precision::kI8);
  } else if (precision == "f32") {
    nn::kernel::SetPrecision(nn::kernel::Precision::kF32);
  } else if (precision == "f64") {
    nn::kernel::SetPrecision(nn::kernel::Precision::kF64);
  } else {
    std::fprintf(stderr, "unknown --precision value '%s'\n", precision.c_str());
    return 1;
  }

  serve::ServiceConfig service_config;
  service_config.max_batch =
      static_cast<size_t>(flags.GetInt("max-batch", 64));
  service_config.queue_capacity =
      static_cast<size_t>(flags.GetInt("queue-cap", 1024));
  flags.DieOnUnreadKeys();

  bench::PrintHeader("serving layer: coalescing + hot swap under load",
                     "serving micro-benchmark (no paper table)");

  // Bring observability plumbing up before any work happens so an external
  // scraper can watch the whole run live.
  std::unique_ptr<obs::ExpositionServer> exposition;
  if (metrics_port >= 0) {
    auto server =
        obs::ExpositionServer::Start(obs::MetricsRegistry::Default(),
                                     metrics_port);
    if (!server.ok()) {
      std::fprintf(stderr, "metrics endpoint failed: %s\n",
                   server.status().ToString().c_str());
      return 1;
    }
    exposition = std::move(*server);
    // Flushed immediately: the check.sh exposition smoke parses this line
    // from the redirected log while the run is still in flight.
    std::printf("metrics endpoint: http://127.0.0.1:%d/metrics\n",
                exposition->port());
    std::fflush(stdout);
  }
  std::unique_ptr<obs::PeriodicSnapshotWriter> sidecar;
  if (metrics_period_ms > 0 && !bench::MetricsJsonPath().empty()) {
    sidecar = std::make_unique<obs::PeriodicSnapshotWriter>(
        bench::MetricsJsonPath(), metrics_period_ms);
  }

  const engine::Database db = engine::BuildTpchLike(42);
  const auto plans = engine::GenerateLabeledPlans(
      db, engine::MachineM1(), engine::WorkloadKind::kComplex, plan_count, 9);

  core::DaceConfig model_config;
  model_config.epochs = epochs;
  core::DaceEstimator base(model_config);
  base.set_name("bench-serve");
  {
    bench::WallTimer timer;
    base.Train(plans);
    std::printf("trained base model in %.0f ms (%d epochs, %zu plans)\n",
                timer.ElapsedMs(), epochs, plans.size());
  }
  {
    bench::WallTimer timer;
    base.Distill(plans);
    std::printf("distilled student tier in %.0f ms\n", timer.ElapsedMs());
  }
  const std::string ckpt = "/tmp/bench_serve_ckpt.dace";
  if (const auto s = base.SaveToFile(ckpt); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  serve::ModelRegistry registry;
  for (int t = 0; t < tenants; ++t) {
    auto est = std::make_shared<core::DaceEstimator>(model_config);
    est->set_name("bench-serve");
    if (const auto s = est->LoadFromFile(ckpt); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    (void)registry.Register("tenant-" + std::to_string(t), est);
  }

  serve::EstimatorService service(&registry, service_config);

  std::atomic<uint64_t> ok{0}, rejected{0}, missed{0};
  std::vector<std::vector<double>> latencies(static_cast<size_t>(clients));
  std::atomic<bool> stop_swapper{false};
  std::atomic<int> swaps_done{0};

  std::thread swapper;
  if (swaps > 0) {
    swapper = std::thread([&] {
      for (int i = 0; i < swaps && !stop_swapper.load(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        for (int t = 0; t < tenants; ++t) {
          const std::string tenant = "tenant-" + std::to_string(t);
          if (registry.SwapFromFile(tenant, ckpt).ok()) {
            // Re-baseline the tenant's KS drift reference on the (possibly
            // retrained) model, exactly as a production swap would.
            service.NotifySwap(tenant);
            swaps_done.fetch_add(1);
          }
        }
      }
    });
  }

  bench::WallTimer run_timer;
  std::vector<std::thread> workers;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      auto& lat = latencies[static_cast<size_t>(c)];
      lat.reserve(static_cast<size_t>(requests));
      for (int i = 0; i < requests; ++i) {
        const std::string tenant =
            "tenant-" + std::to_string((c + i) % tenants);
        const auto& plan =
            plans[static_cast<size_t>(c * 131 + i) % plans.size()];
        bench::WallTimer timer;
        const auto result = service.EstimateTracked(tenant, plan, deadline_us);
        if (result.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
          lat.push_back(timer.ElapsedMs() * 1000.0);  // us
          // Close the loop: report the labeled execution latency so the
          // feedback join, rolling q-error and drift detectors all run.
          (void)service.ReportActual(tenant, result->request_id,
                                     ActualMs(plan));
        } else if (result.status().code() == StatusCode::kDeadlineExceeded) {
          missed.fetch_add(1, std::memory_order_relaxed);
        } else {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const double wall_ms = run_timer.ElapsedMs();
  stop_swapper.store(true);
  if (swapper.joinable()) swapper.join();

  std::vector<double> all;
  for (const auto& lat : latencies) all.insert(all.end(), lat.begin(), lat.end());
  std::sort(all.begin(), all.end());
  double sum = 0.0;
  for (double v : all) sum += v;
  const double mean_us = all.empty() ? 0.0 : sum / static_cast<double>(all.size());
  const double p50 = Percentile(&all, 0.50);
  const double p95 = Percentile(&all, 0.95);
  const double p99 = Percentile(&all, 0.99);
  const double qps =
      static_cast<double>(ok.load()) / (wall_ms / 1000.0);

  obs::MetricsRegistry* metrics = obs::MetricsRegistry::Default();
  const uint64_t batches = metrics->GetCounter("serve.batches")->Value();
  const uint64_t issued = metrics->GetCounter("serve.requests")->Value();
  const double mean_batch =
      batches > 0 ? static_cast<double>(ok.load()) /
                        static_cast<double>(batches)
                  : 0.0;
  // Tier fallback: the fraction of gate-eligible requests the student's
  // agreement gate escalated to the teacher (aggregated across tenants).
  const uint64_t tier_requests =
      metrics->GetCounter("predict.tier.requests")->Value();
  const uint64_t tier_student =
      metrics->GetCounter("predict.tier.student")->Value();
  const uint64_t tier_escalated =
      metrics->GetCounter("predict.tier.escalated")->Value();
  const double tier_fallback_rate =
      tier_requests > 0 ? static_cast<double>(tier_escalated) /
                              static_cast<double>(tier_requests)
                        : 0.0;
  const uint64_t fb_predictions =
      metrics->GetCounter("serve.feedback.predictions")->Value();
  const uint64_t fb_joined =
      metrics->GetCounter("serve.feedback.joined")->Value();
  const uint64_t fb_late =
      metrics->GetCounter("serve.feedback.late")->Value();
  const uint64_t drift_alarms = metrics->GetCounter("drift.alarms")->Value();

  std::printf("\nclients=%d tenants=%d requests/client=%d "
              "max_batch=%zu queue_cap=%zu\n",
              clients, tenants, requests, service_config.max_batch,
              service_config.queue_capacity);
  std::printf("outcomes: ok=%llu rejected=%llu deadline_missed=%llu "
              "(issued=%llu)\n",
              static_cast<unsigned long long>(ok.load()),
              static_cast<unsigned long long>(rejected.load()),
              static_cast<unsigned long long>(missed.load()),
              static_cast<unsigned long long>(issued));
  std::printf("throughput: %.0f ok-req/s over %.0f ms wall\n", qps, wall_ms);
  std::printf("latency us: mean=%.1f p50=%.1f p95=%.1f p99=%.1f\n", mean_us,
              p50, p95, p99);
  std::printf("coalescing: %llu batches, %.2f requests/batch; swaps=%d\n",
              static_cast<unsigned long long>(batches), mean_batch,
              swaps_done.load());
  std::printf("tier (%s): requests=%llu student=%llu escalated=%llu "
              "fallback_rate=%.4f\n",
              precision.c_str(),
              static_cast<unsigned long long>(tier_requests),
              static_cast<unsigned long long>(tier_student),
              static_cast<unsigned long long>(tier_escalated),
              tier_fallback_rate);
  std::printf("feedback: predictions=%llu joined=%llu late=%llu "
              "drift_alarms=%llu\n",
              static_cast<unsigned long long>(fb_predictions),
              static_cast<unsigned long long>(fb_joined),
              static_cast<unsigned long long>(fb_late),
              static_cast<unsigned long long>(drift_alarms));

  bench::Json()
      .Add("serve_load")
      .Num("clients", clients)
      .Num("tenants", tenants)
      .Num("requests_per_client", requests)
      .Num("max_batch", static_cast<double>(service_config.max_batch))
      .Num("queue_capacity", static_cast<double>(service_config.queue_capacity))
      .Num("deadline_us", static_cast<double>(deadline_us))
      .Num("ok", static_cast<double>(ok.load()))
      .Num("rejected", static_cast<double>(rejected.load()))
      .Num("deadline_missed", static_cast<double>(missed.load()))
      .Num("throughput_qps", qps)
      .Num("latency_mean_us", mean_us)
      .Num("latency_p50_us", p50)
      .Num("latency_p95_us", p95)
      .Num("latency_p99_us", p99)
      .Num("batches", static_cast<double>(batches))
      .Num("mean_batch_size", mean_batch)
      .Num("swaps", swaps_done.load());
  bench::Json()
      .Add("serve_tier_fallback")
      .Str("precision", precision)
      .Num("tier_requests", static_cast<double>(tier_requests))
      .Num("tier_student", static_cast<double>(tier_student))
      .Num("tier_escalated", static_cast<double>(tier_escalated))
      .Num("tier_fallback_rate", tier_fallback_rate);
  bench::Json()
      .Add("serve_feedback")
      .Num("predictions", static_cast<double>(fb_predictions))
      .Num("joined", static_cast<double>(fb_joined))
      .Num("late", static_cast<double>(fb_late))
      .Num("drift_alarms", static_cast<double>(drift_alarms));
  if (!bench::Json().WriteIfRequested()) return 1;
  std::remove(ckpt.c_str());

  // Keep the metrics endpoint serving the end-state so an external scraper
  // (e.g. the check.sh exposition smoke) can pull it after the run.
  if (linger_ms > 0 && exposition) {
    std::printf("lingering %lld ms for scrapes on port %d\n",
                static_cast<long long>(linger_ms), exposition->port());
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  }
  return 0;
}
