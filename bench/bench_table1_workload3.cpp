// Table I: q-error statistics on workload 3 (the MSCN-style IMDB benchmark:
// synthetic / scale / JOB-light test sets). Within-database models train on
// IMDB queries; DACE and Zero-Shot train only on the other databases;
// DACE-LoRA additionally fine-tunes on the IMDB training workload.
//
//   ./bench_table1_workload3 [--train_queries=2000] [--queries_per_db=60]
//       [--synthetic=600] [--scale=300] [--job_light=70] [--epochs=8]

#include <functional>
#include <memory>

#include "baselines/mscn.h"
#include "baselines/postgres_cost.h"
#include "baselines/qppnet.h"
#include "baselines/queryformer.h"
#include "baselines/tpool.h"
#include "baselines/zeroshot.h"
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
      static_cast<int>(flags.GetInt("train_queries", 2000));
  const int n_synthetic = static_cast<int>(flags.GetInt("synthetic", 600));
  const int n_scale = static_cast<int>(flags.GetInt("scale", 300));
  const int n_job_light = static_cast<int>(flags.GetInt("job_light", 70));
  flags.DieOnUnreadKeys();

  bench::PrintHeader("Table I — q-error on workload 3 (IMDB-like database)",
                     "DACE paper Tab. I (synthetic / scale / JOB-light)");

  eval::Workbench bench(config);
  const engine::Database& imdb = bench.corpus()[engine::kImdbIndex];

  // Within-database training workload on IMDB (paper: 100k queries). The
  // train/test split follows the paper's Drift I: the training workload's
  // filter cut-points come from a restricted quantile range, the test
  // workloads from a shifted one.
  engine::WorkloadOptions train_window;
  train_window.filter_q_lo = 0.05;
  train_window.filter_q_hi = 0.60;
  engine::WorkloadOptions test_window;
  test_window.filter_q_lo = 0.30;
  test_window.filter_q_hi = 0.95;
  const auto wdm_train = engine::GenerateLabeledPlans(
      imdb, bench.m1(), engine::WorkloadKind::kSynthetic, train_queries, 555,
      engine::kStatementTimeoutMs, train_window);
  // Across-database training pool (excludes IMDB).
  const auto adm_train = bench.TrainPlansExcluding(engine::kImdbIndex);

  // The three test sets.
  struct TestSet {
    const char* name;
    std::vector<plan::QueryPlan> plans;
  };
  std::vector<TestSet> test_sets;
  test_sets.push_back({"Synthetic",
                       engine::GenerateLabeledPlans(
                           imdb, bench.m1(), engine::WorkloadKind::kSynthetic,
                           n_synthetic, 717, engine::kStatementTimeoutMs,
                           test_window)});
  test_sets.push_back(
      {"Scale", engine::GenerateLabeledPlans(imdb, bench.m1(),
                                             engine::WorkloadKind::kScale,
                                             n_scale, 718,
                                             engine::kStatementTimeoutMs,
                                             test_window)});
  test_sets.push_back({"JOB-light",
                       engine::GenerateLabeledPlans(
                           imdb, bench.m1(), engine::WorkloadKind::kJobLight,
                           n_job_light, 719, engine::kStatementTimeoutMs,
                           test_window)});

  bench::WallTimer timer;
  baselines::TrainOptions wdm_opts;
  wdm_opts.epochs = config.epochs;

  // Build and train every model of the table.
  std::vector<std::pair<std::string, std::unique_ptr<core::CostEstimator>>>
      models;
  models.emplace_back("PostgreSQL", std::make_unique<baselines::PostgresLinear>());
  {
    baselines::Mscn::Config c;
    c.train = wdm_opts;
    models.emplace_back("MSCN", std::make_unique<baselines::Mscn>(c));
  }
  {
    baselines::QppNet::Config c;
    c.train = wdm_opts;
    models.emplace_back("QPPNet", std::make_unique<baselines::QppNet>(c));
  }
  {
    baselines::TPool::Config c;
    c.train = wdm_opts;
    models.emplace_back("TPool", std::make_unique<baselines::TPool>(c));
  }
  {
    baselines::QueryFormer::Config c;
    c.train = wdm_opts;
    models.emplace_back("QueryFormer",
                        std::make_unique<baselines::QueryFormer>(c));
  }
  for (auto& [name, model] : models) {
    model->Train(wdm_train);
    std::printf("  trained %s (%.0fs elapsed)\n", name.c_str(),
                timer.ElapsedMs() / 1000.0);
  }

  // ADMs: Zero-Shot and DACE never see IMDB.
  {
    baselines::ZeroShot::Config c;
    c.train.epochs = config.epochs;
    auto zeroshot = std::make_unique<baselines::ZeroShot>(c);
    zeroshot->Train(adm_train);
    models.emplace_back("Zero-Shot", std::move(zeroshot));
    std::printf("  trained Zero-Shot (%.0fs elapsed)\n",
                timer.ElapsedMs() / 1000.0);
  }
  core::DaceConfig dace_config;
  dace_config.epochs = config.epochs;
  auto dace_est = std::make_unique<core::DaceEstimator>(dace_config);
  dace_est->Train(adm_train);
  std::printf("  trained DACE (%.0fs elapsed)\n", timer.ElapsedMs() / 1000.0);

  // DACE-LoRA: fine-tuned on the IMDB training workload (instance
  // adaptation, Sec. V-B "Discussion").
  auto dace_lora = std::make_unique<core::DaceEstimator>(dace_config);
  dace_lora->Train(adm_train);
  dace_lora->FineTune(wdm_train);
  std::printf("  fine-tuned DACE-LoRA (%.0fs elapsed)\n",
              timer.ElapsedMs() / 1000.0);

  models.emplace_back("DACE", std::move(dace_est));
  models.emplace_back("DACE-LoRA", std::move(dace_lora));

  for (const TestSet& test_set : test_sets) {
    std::printf("\n%s (%zu queries)\n", test_set.name, test_set.plans.size());
    eval::TablePrinter table(
        {"Model", "Median", "90th", "95th", "99th", "Max", "Mean"});
    for (auto& [name, model] : models) {
      const eval::QerrorSummary s = eval::Evaluate(*model, test_set.plans);
      table.AddSummaryRow(name, s);
      bench::Json()
          .Add("table1_row")
          .Str("test_set", test_set.name)
          .Str("model", name)
          .Num("median", s.median)
          .Num("p90", s.p90)
          .Num("p95", s.p95)
          .Num("p99", s.p99)
          .Num("max", s.max)
          .Num("mean", s.mean);
    }
    table.Print();
  }
  if (!bench::Json().WriteIfRequested()) return 1;
  std::printf(
      "\nexpected shape (paper Tab. I): PostgreSQL worst; DACE beats both\n"
      "WDMs and Zero-Shot on tail metrics despite never training on IMDB;\n"
      "DACE-LoRA improves further.\n");
  return 0;
}
