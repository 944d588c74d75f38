// Figure 6: knowledge integration. MSCN and QueryFormer with and without
// the pre-trained DACE encoder, evaluated on JOB-light.
//
//   ./bench_fig06_knowledge_integration [--train_queries=1200]
//       [--job_light=70] [--queries_per_db=60] [--epochs=8]

#include "baselines/mscn.h"
#include "baselines/queryformer.h"
#include "bench/bench_util.h"
#include "core/dace_model.h"
#include "engine/dataset.h"

int main(int argc, char** argv) {
  using namespace dace;
  const Flags flags = bench::ParseFlagsOrDie(argc, argv);
  eval::ExperimentConfig config = eval::ExperimentConfig::FromFlags(flags);
  config.queries_per_db = static_cast<int>(flags.GetInt("queries_per_db", 60));
  config.epochs = static_cast<int>(flags.GetInt("epochs", 8));
  const int train_queries =
      static_cast<int>(flags.GetInt("train_queries", 1200));
  const int n_job_light = static_cast<int>(flags.GetInt("job_light", 70));
  flags.DieOnUnreadKeys();

  bench::PrintHeader("Fig. 6 — WDMs with and without the DACE encoder",
                     "DACE paper Fig. 6 (JOB-light, knowledge integration)");

  eval::Workbench bench(config);
  const engine::Database& imdb = bench.corpus()[engine::kImdbIndex];

  engine::WorkloadOptions train_window;
  train_window.filter_q_hi = 0.60;
  engine::WorkloadOptions test_window;
  test_window.filter_q_lo = 0.30;
  const auto wdm_train = engine::GenerateLabeledPlans(
      imdb, bench.m1(), engine::WorkloadKind::kSynthetic, train_queries, 555,
      engine::kStatementTimeoutMs, train_window);
  const auto job_light = engine::GenerateLabeledPlans(
      imdb, bench.m1(), engine::WorkloadKind::kJobLight, n_job_light, 719,
      engine::kStatementTimeoutMs, test_window);

  // Pre-train the DACE encoder on the other 19 databases.
  core::DaceConfig dace_config;
  dace_config.epochs = config.epochs;
  core::DaceEstimator dace_est(dace_config);
  dace_est.Train(bench.TrainPlansExcluding(engine::kImdbIndex));
  std::printf("  pre-trained DACE encoder\n");

  baselines::TrainOptions opts;
  opts.epochs = config.epochs;

  eval::TablePrinter table(
      {"Model", "Median", "90th", "95th", "99th", "Max", "Mean"});
  {
    baselines::Mscn::Config c;
    c.train = opts;
    baselines::Mscn plain(c);
    plain.Train(wdm_train);
    table.AddSummaryRow("MSCN", eval::Evaluate(plain, job_light));
    baselines::Mscn integrated(c, &dace_est);
    integrated.Train(wdm_train);
    table.AddSummaryRow("DACE-MSCN", eval::Evaluate(integrated, job_light));
    std::printf("  trained MSCN and DACE-MSCN\n");
  }
  {
    baselines::QueryFormer::Config c;
    c.train = opts;
    baselines::QueryFormer plain(c);
    plain.Train(wdm_train);
    table.AddSummaryRow("QueryFormer", eval::Evaluate(plain, job_light));
    baselines::QueryFormer integrated(c, &dace_est);
    integrated.Train(wdm_train);
    table.AddSummaryRow("DACE-QueryFormer",
                        eval::Evaluate(integrated, job_light));
    std::printf("  trained QueryFormer and DACE-QueryFormer\n");
  }

  std::printf("\n");
  table.Print();
  std::printf(
      "\nexpected shape (paper Fig. 6): the DACE-integrated variants cut the\n"
      "tail q-errors of their hosts (paper: max q-error 11x / 7x lower).\n");
  return 0;
}
