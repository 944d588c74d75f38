// Quickstart: pre-train DACE on several synthetic databases and predict the
// execution time of queries on a database it has never seen.
//
//   ./quickstart [--train_dbs=6] [--queries_per_db=150] [--epochs=10]
//                [--metrics-port=N] [--linger-ms=N]
//
// With --metrics-port the run serves its live metrics (rolling q-error
// window, drift-detector gauges, counters) as Prometheus text at
// http://127.0.0.1:PORT/metrics (0 = ephemeral, printed at startup); pair
// it with --linger-ms to keep the endpoint up after the run, e.g.
//   ./quickstart --metrics-port=9178 --linger-ms=60000 &
//   curl localhost:9178/metrics

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "core/dace_model.h"
#include "engine/corpus.h"
#include "engine/dataset.h"
#include "engine/machine.h"
#include "obs/drift.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "util/flags.h"

namespace {

double Qerror(double est, double act) {
  est = std::max(est, 1e-6);
  act = std::max(act, 1e-6);
  return std::max(est / act, act / est);
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_or = dace::Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n", flags_or.status().ToString().c_str());
    return 1;
  }
  const dace::Flags& flags = *flags_or;
  const int train_dbs = static_cast<int>(flags.GetInt("train_dbs", 6));
  const int queries_per_db =
      static_cast<int>(flags.GetInt("queries_per_db", 150));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 10));
  const int metrics_port = static_cast<int>(flags.GetInt("metrics-port", -1));
  const int64_t linger_ms = flags.GetInt("linger-ms", 0);
  flags.DieOnUnreadKeys();

  std::unique_ptr<dace::obs::ExpositionServer> exposition;
  if (metrics_port >= 0) {
    auto server = dace::obs::ExpositionServer::Start(
        dace::obs::MetricsRegistry::Default(), metrics_port);
    if (!server.ok()) {
      std::fprintf(stderr, "metrics endpoint failed: %s\n",
                   server.status().ToString().c_str());
      return 1;
    }
    exposition = std::move(*server);
    std::printf("metrics endpoint: http://127.0.0.1:%d/metrics\n",
                exposition->port());
    std::fflush(stdout);
  }

  // 1. Build a corpus of synthetic databases. Database 0 (IMDB-like) is the
  //    held-out test database; DACE trains on the others.
  const std::vector<dace::engine::Database> corpus =
      dace::engine::BuildCorpus(/*seed=*/42, /*num_databases=*/train_dbs + 1);
  const dace::engine::MachineProfile machine = dace::engine::MachineM1();

  // 2. Collect labelled plans: the optimizer produces EXPLAIN-style
  //    estimates, the executor produces "measured" runtimes.
  std::vector<dace::plan::QueryPlan> train_plans;
  for (int db = 1; db <= train_dbs; ++db) {
    auto plans = dace::engine::GenerateLabeledPlans(
        corpus[static_cast<size_t>(db)], machine,
        dace::engine::WorkloadKind::kComplex, queries_per_db,
        /*seed=*/1000 + static_cast<uint64_t>(db));
    train_plans.insert(train_plans.end(), plans.begin(), plans.end());
  }
  std::printf("collected %zu training plans from %d databases\n",
              train_plans.size(), train_dbs);

  // 3. Pre-train DACE.
  dace::core::DaceConfig config;
  config.epochs = epochs;
  dace::core::DaceEstimator dace_est(config);
  dace_est.Train(train_plans);
  std::printf("trained DACE (%zu parameters) in %.0f ms, final loss %.4f\n",
              dace_est.ParameterCount(), dace_est.last_train_stats().wall_ms,
              dace_est.last_train_stats().final_loss);

  // 4. Predict on the unseen database and report q-errors.
  const auto test_plans = dace::engine::GenerateLabeledPlans(
      corpus[0], machine, dace::engine::WorkloadKind::kComplex,
      /*count=*/200, /*seed=*/999);
  // The same joined (predicted, actual) pairs also feed an online accuracy
  // monitor, so the metrics endpoint exposes a rolling q-error window and
  // the drift-detector gauges for this run.
  dace::obs::AccuracyMonitor monitor("quickstart",
                                     dace::obs::AccuracyMonitorConfig{},
                                     dace::obs::MetricsRegistry::Default());
  std::vector<double> qerrors;
  qerrors.reserve(test_plans.size());
  for (const auto& plan : test_plans) {
    const double est = dace_est.PredictMs(plan);
    const double act = plan.node(plan.root()).actual_time_ms;
    monitor.ObserveQError(est, act);
    qerrors.push_back(Qerror(est, act));
  }
  std::sort(qerrors.begin(), qerrors.end());
  const auto pct = [&](double p) {
    return qerrors[static_cast<size_t>(p * (qerrors.size() - 1))];
  };
  std::printf("q-error on unseen database '%s' (%zu queries):\n",
              corpus[0].name.c_str(), qerrors.size());
  std::printf("  median=%.2f  p90=%.2f  p95=%.2f  max=%.2f\n", pct(0.5),
              pct(0.9), pct(0.95), qerrors.back());

  // 5. Show one plan with DACE's sub-plan predictions.
  const auto& sample = test_plans.front();
  const std::vector<double> sub = dace_est.PredictSubPlansMs(sample);
  std::printf("\nsample plan (root predicted %.2f ms, actual %.2f ms):\n%s",
              sub[0], sample.node(sample.root()).actual_time_ms,
              sample.ToText().c_str());

  if (linger_ms > 0 && exposition) {
    std::printf("\nlingering %lld ms for scrapes on port %d "
                "(curl localhost:%d/metrics)\n",
                static_cast<long long>(linger_ms), exposition->port(),
                exposition->port());
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  }
  return 0;
}
