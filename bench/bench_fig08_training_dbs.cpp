// Figure 8: accuracy as a function of the number of training databases.
// DACE and Zero-Shot train on 1, 3, 5, 10, 15 and 19 databases (IMDB
// excluded) and are tested on the workload-3 test sets.
//
//   ./bench_fig08_training_dbs [--queries_per_db=60] [--epochs=8]
//                              [--synthetic=300] [--scale=200] [--job_light=70]

#include "baselines/zeroshot.h"
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

  bench::PrintHeader("Fig. 8 — accuracy vs number of training databases",
                     "DACE paper Fig. 8 (DACE vs Zero-Shot)");

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

    baselines::ZeroShot::Config zs_config;
    zs_config.train.epochs = config.epochs;
    baselines::ZeroShot zeroshot(zs_config);
    zeroshot.Train(train);

    std::vector<std::string> dace_row = {StrFormat("%d", num_dbs), "DACE"};
    std::vector<std::string> zs_row = {"", "Zero-Shot"};
    for (const TestSet& test_set : test_sets) {
      dace_row.push_back(
          eval::FormatMetric(eval::Evaluate(dace_est, test_set.plans).median));
      zs_row.push_back(
          eval::FormatMetric(eval::Evaluate(zeroshot, test_set.plans).median));
    }
    table.AddRow(dace_row);
    table.AddRow(zs_row);
    std::printf("  evaluated with %d training databases\n", num_dbs);
  }

  std::printf("\n");
  table.Print();
  std::printf(
      "\nexpected shape (paper Fig. 8): DACE stabilizes after 3-5 training\n"
      "databases; Zero-Shot needs 10-15.\n");
  return 0;
}
