// Figure 5: overall across-database accuracy. For every database in the
// corpus, train DACE and Zero-Shot on the other databases (workload 1,
// machine M1) and test on the held-out one; then LoRA-fine-tune DACE on the
// other databases' workload 2 (machine M2) and test on the held-out
// database's workload 2 (across-more).
//
//   ./bench_fig05_overall_accuracy [--runs=20] [--queries_per_db=60]
//                                  [--test_queries=200] [--epochs=8]

#include "baselines/zeroshot.h"
#include "bench/bench_util.h"
#include "core/dace_model.h"
#include "engine/dataset.h"

int main(int argc, char** argv) {
  using namespace dace;
  const Flags flags = bench::ParseFlagsOrDie(argc, argv);
  eval::ExperimentConfig config = eval::ExperimentConfig::FromFlags(flags);
  config.queries_per_db = static_cast<int>(flags.GetInt("queries_per_db", 60));
  config.test_queries = static_cast<int>(flags.GetInt("test_queries", 200));
  config.epochs = static_cast<int>(flags.GetInt("epochs", 8));
  const int runs =
      static_cast<int>(flags.GetInt("runs", config.num_databases));
  // The fine-tune corpus spans 19 databases here, so far fewer adapter
  // epochs are needed than the small-corpus default.
  const int finetune_epochs =
      static_cast<int>(flags.GetInt("finetune_epochs", 12));
  flags.DieOnUnreadKeys();

  bench::PrintHeader(
      "Fig. 5 — per-database median q-error, workloads 1 and 2",
      "DACE paper Fig. 5 (DACE vs Zero-Shot; DACE-LoRA across-more)");

  eval::Workbench bench(config);
  eval::TablePrinter table({"held-out db", "Zero-Shot", "DACE",
                            "DACE-LoRA (w2)", "DACE wins"});
  int dace_wins = 0;
  double worst_dace = 0.0, worst_zeroshot = 0.0, worst_lora = 0.0;

  bench::WallTimer timer;
  for (int test_db = 0; test_db < runs; ++test_db) {
    const auto train = bench.TrainPlansExcluding(test_db);
    const auto test_w1 = bench.TestPlans(test_db, engine::WorkloadKind::kComplex,
                                         config.test_queries);

    // Zero-Shot on workload 1.
    baselines::ZeroShot::Config zs_config;
    zs_config.train.epochs = config.epochs;
    baselines::ZeroShot zeroshot(zs_config);
    zeroshot.Train(train);
    const auto zs = eval::Evaluate(zeroshot, test_w1);

    // DACE on workload 1.
    core::DaceConfig dace_config;
    dace_config.epochs = config.epochs;
    dace_config.finetune_epochs = finetune_epochs;
    core::DaceEstimator dace_est(dace_config);
    dace_est.Train(train);
    const auto dace = eval::Evaluate(dace_est, test_w1);

    // DACE-LoRA: fine-tune on the training databases' workload 2 and test
    // on the held-out database's workload 2.
    std::vector<plan::QueryPlan> train_w2;
    for (int db = 0; db < config.num_databases; ++db) {
      if (db == test_db) continue;
      auto w2 = bench.Workload2(db);
      train_w2.insert(train_w2.end(), w2.begin(), w2.end());
    }
    dace_est.FineTune(train_w2);
    auto test_w2 = test_w1;
    engine::RelabelPlans(bench.corpus()[static_cast<size_t>(test_db)],
                         bench.m2(), 0xf16a + static_cast<uint64_t>(test_db),
                         &test_w2);
    const auto lora = eval::Evaluate(dace_est, test_w2);

    const bool win = dace.median < zs.median;
    dace_wins += win ? 1 : 0;
    worst_dace = std::max(worst_dace, dace.median);
    worst_zeroshot = std::max(worst_zeroshot, zs.median);
    worst_lora = std::max(worst_lora, lora.median);
    table.AddRow({bench.corpus()[static_cast<size_t>(test_db)].name,
                  eval::FormatMetric(zs.median), eval::FormatMetric(dace.median),
                  eval::FormatMetric(lora.median), win ? "yes" : "no"});
    bench::Json()
        .Add("fig05_db")
        .Str("database", bench.corpus()[static_cast<size_t>(test_db)].name)
        .Num("zeroshot_median", zs.median)
        .Num("dace_median", dace.median)
        .Num("dace_lora_median", lora.median)
        .Num("dace_wins", win ? 1 : 0);
    std::printf("  [run %d/%d] %s done (%.0fs elapsed)\n", test_db + 1, runs,
                bench.corpus()[static_cast<size_t>(test_db)].name.c_str(),
                timer.ElapsedMs() / 1000.0);
  }

  std::printf("\n(median q-error on the held-out database)\n");
  table.Print();
  std::printf(
      "\nDACE beats Zero-Shot on %d/%d databases "
      "(paper: 16/20).\n"
      "worst-database median: DACE %.2f vs Zero-Shot %.2f "
      "(paper: 1.48 vs 1.56); DACE-LoRA on workload 2: %.2f "
      "(paper: < 1.27).\n",
      dace_wins, runs, worst_dace, worst_zeroshot, worst_lora);
  bench::Json()
      .Add("fig05_summary")
      .Num("dace_wins", dace_wins)
      .Num("runs", runs)
      .Num("worst_dace_median", worst_dace)
      .Num("worst_zeroshot_median", worst_zeroshot)
      .Num("worst_lora_median", worst_lora);
  return bench::Json().WriteIfRequested() ? 0 : 1;
}
