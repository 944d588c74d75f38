// Figure 9: cold start. MSCN with and without the DACE encoder, trained on
// 100 … 5000 IMDB queries (scaled from the paper's 100 … 100k) and tested on
// workload 3's JOB-light, with PostgreSQL as the reference line.
//
//   ./bench_fig09_cold_start [--queries_per_db=60] [--epochs=10]
//                            [--job_light=70]

#include "baselines/mscn.h"
#include "baselines/postgres_cost.h"
#include "bench/bench_util.h"
#include "core/dace_model.h"
#include "engine/dataset.h"
#include "util/strings.h"

int main(int argc, char** argv) {
  using namespace dace;
  const Flags flags = bench::ParseFlagsOrDie(argc, argv);
  eval::ExperimentConfig config = eval::ExperimentConfig::FromFlags(flags);
  config.queries_per_db = static_cast<int>(flags.GetInt("queries_per_db", 60));
  config.epochs = static_cast<int>(flags.GetInt("epochs", 10));
  const int n_job_light = static_cast<int>(flags.GetInt("job_light", 70));
  flags.DieOnUnreadKeys();

  bench::PrintHeader("Fig. 9 — cold start: MSCN ± DACE vs training size",
                     "DACE paper Fig. 9 (q-error by #training queries)");

  eval::Workbench bench(config);
  const engine::Database& imdb = bench.corpus()[engine::kImdbIndex];
  engine::WorkloadOptions train_window;
  train_window.filter_q_hi = 0.60;
  engine::WorkloadOptions test_window;
  test_window.filter_q_lo = 0.30;

  const auto full_train = engine::GenerateLabeledPlans(
      imdb, bench.m1(), engine::WorkloadKind::kSynthetic, 5000, 555,
      engine::kStatementTimeoutMs, train_window);
  const auto job_light = engine::GenerateLabeledPlans(
      imdb, bench.m1(), engine::WorkloadKind::kJobLight, n_job_light, 719,
      engine::kStatementTimeoutMs, test_window);

  // Pre-train DACE on the other databases (once).
  core::DaceConfig dace_config;
  dace_config.epochs = config.epochs;
  core::DaceEstimator dace_est(dace_config);
  dace_est.Train(bench.TrainPlansExcluding(engine::kImdbIndex));
  std::printf("  pre-trained DACE encoder\n");

  // PostgreSQL reference.
  baselines::PostgresLinear postgres;
  postgres.Train(full_train);
  const auto pg = eval::Evaluate(postgres, job_light);

  eval::TablePrinter table({"#train queries", "MSCN median", "MSCN 95th",
                            "DACE-MSCN median", "DACE-MSCN 95th"});
  for (int n : {100, 250, 500, 1000, 2500, 5000}) {
    std::vector<plan::QueryPlan> train(full_train.begin(),
                                       full_train.begin() + n);
    baselines::Mscn::Config c;
    c.train.epochs = config.epochs;
    baselines::Mscn plain(c);
    plain.Train(train);
    baselines::Mscn integrated(c, &dace_est);
    integrated.Train(train);
    const auto p = eval::Evaluate(plain, job_light);
    const auto i = eval::Evaluate(integrated, job_light);
    table.AddRow({StrFormat("%d", n), eval::FormatMetric(p.median),
                  eval::FormatMetric(p.p95), eval::FormatMetric(i.median),
                  eval::FormatMetric(i.p95)});
    std::printf("  evaluated with %d training queries\n", n);
  }

  std::printf("\n");
  table.Print();
  std::printf(
      "\nPostgreSQL reference on JOB-light: median %.2f, 95th %.2f.\n"
      "expected shape (paper Fig. 9): MSCN needs thousands of queries to\n"
      "reach PostgreSQL; DACE-MSCN beats PostgreSQL from ~100 queries on.\n",
      pg.median, pg.p95);
  return 0;
}
