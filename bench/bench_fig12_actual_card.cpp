// Figure 12: DACE vs DACE-A (true cardinality as the input feature) as the
// number of training databases grows. DACE-A is the oracle upper bound:
// perfect "general knowledge" about cardinalities.
//
//   ./bench_fig12_actual_card [--queries_per_db=60] [--epochs=8]
//                             [--synthetic=300] [--scale=200] [--job_light=70]

#include "bench/bench_util.h"
#include "core/dace_model.h"
#include "engine/dataset.h"
#include "util/strings.h"

int main(int argc, char** argv) {
  using namespace dace;
  const Flags flags = bench::ParseFlagsOrDie(argc, argv);
  eval::ExperimentConfig config = eval::ExperimentConfig::FromFlags(flags);
  config.queries_per_db = static_cast<int>(flags.GetInt("queries_per_db", 60));
  config.epochs = static_cast<int>(flags.GetInt("epochs", 8));
  const int n_synthetic = static_cast<int>(flags.GetInt("synthetic", 300));
  const int n_scale = static_cast<int>(flags.GetInt("scale", 200));
  const int n_job_light = static_cast<int>(flags.GetInt("job_light", 70));
  flags.DieOnUnreadKeys();

  bench::PrintHeader("Fig. 12 — DACE vs DACE-A (actual cardinalities)",
                     "DACE paper Fig. 12 (by number of training databases)");

  eval::Workbench bench(config);
  const engine::Database& imdb = bench.corpus()[engine::kImdbIndex];
  engine::WorkloadOptions test_window;
  test_window.filter_q_lo = 0.30;

  struct TestSet {
    const char* name;
    std::vector<plan::QueryPlan> plans;
  };
  const TestSet test_sets[] = {
      {"Synthetic",
       engine::GenerateLabeledPlans(imdb, bench.m1(),
                                    engine::WorkloadKind::kSynthetic,
                                    n_synthetic, 717,
                                    engine::kStatementTimeoutMs, test_window)},
      {"Scale",
       engine::GenerateLabeledPlans(imdb, bench.m1(),
                                    engine::WorkloadKind::kScale, n_scale, 718,
                                    engine::kStatementTimeoutMs, test_window)},
      {"JOB-light",
       engine::GenerateLabeledPlans(imdb, bench.m1(),
                                    engine::WorkloadKind::kJobLight,
                                    n_job_light, 719,
                                    engine::kStatementTimeoutMs, test_window)},
  };

  eval::TablePrinter table({"#train dbs", "model", "Synthetic median",
                            "Scale median", "JOB-light median"});
  for (int num_dbs : {1, 3, 5, 10, 15, 19}) {
    const auto train =
        bench.TrainPlansExcluding(engine::kImdbIndex, -1, num_dbs);

    core::DaceConfig dace_config;
    dace_config.epochs = config.epochs;
    core::DaceEstimator dace_est(dace_config);
    dace_est.Train(train);

    core::DaceConfig oracle_config = dace_config;
    oracle_config.use_actual_cardinality = true;
    core::DaceEstimator dace_a(oracle_config);
    dace_a.Train(train);

    std::vector<std::string> dace_row = {StrFormat("%d", num_dbs), "DACE"};
    std::vector<std::string> oracle_row = {"", "DACE-A"};
    for (const TestSet& test_set : test_sets) {
      dace_row.push_back(
          eval::FormatMetric(eval::Evaluate(dace_est, test_set.plans).median));
      oracle_row.push_back(
          eval::FormatMetric(eval::Evaluate(dace_a, test_set.plans).median));
    }
    table.AddRow(dace_row);
    table.AddRow(oracle_row);
    std::printf("  evaluated with %d training databases\n", num_dbs);
  }

  std::printf("\n");
  table.Print();
  std::printf(
      "\nexpected shape (paper Fig. 12): DACE-A reaches good accuracy with\n"
      "fewer databases; DACE needs the general knowledge of many databases\n"
      "to approach it.\n");
  return 0;
}
