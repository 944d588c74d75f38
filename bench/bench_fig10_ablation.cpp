// Figure 10: ablation of DACE's key components on the workload-3 test sets.
//   DACE          — full model (alpha = 0.5, tree attention)
//   DACE w/o TA   — full attention instead of the tree mask
//   DACE w/o SP   — alpha = 0: no sub-plan supervision
//   DACE w/o LA   — alpha = 1: sub-plans without the loss adjuster
//
//   ./bench_fig10_ablation [--queries_per_db=60] [--epochs=8]
//                          [--synthetic=300] [--scale=200] [--job_light=70]

#include "bench/bench_util.h"
#include "core/dace_model.h"
#include "engine/dataset.h"

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

  bench::PrintHeader("Fig. 10 — ablation of tree attention and loss adjuster",
                     "DACE paper Fig. 10 (DACE vs w/o TA, w/o SP, w/o LA)");

  eval::Workbench bench(config);
  const engine::Database& imdb = bench.corpus()[engine::kImdbIndex];
  const auto train = bench.TrainPlansExcluding(engine::kImdbIndex);
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

  struct Variant {
    const char* name;
    core::DaceConfig config;
  };
  std::vector<Variant> variants;
  {
    core::DaceConfig base;
    base.epochs = config.epochs;
    Variant full{"DACE", base};
    variants.push_back(full);
    Variant no_ta{"DACE w/o TA", base};
    no_ta.config.tree_attention = false;
    variants.push_back(no_ta);
    Variant no_sp{"DACE w/o SP", base};
    no_sp.config.alpha = 0.0;
    variants.push_back(no_sp);
    Variant no_la{"DACE w/o LA", base};
    no_la.config.alpha = 1.0;
    variants.push_back(no_la);
  }

  eval::TablePrinter table({"variant", "Synthetic median", "Synthetic 95th",
                            "Scale median", "Scale 95th", "JOB-light median",
                            "JOB-light 95th"});
  for (const Variant& variant : variants) {
    core::DaceEstimator est(variant.config);
    est.Train(train);
    std::vector<std::string> row = {variant.name};
    for (const TestSet& test_set : test_sets) {
      const auto s = eval::Evaluate(est, test_set.plans);
      row.push_back(eval::FormatMetric(s.median));
      row.push_back(eval::FormatMetric(s.p95));
    }
    table.AddRow(row);
    std::printf("  evaluated %s\n", variant.name);
  }

  std::printf("\n");
  table.Print();
  std::printf(
      "\nexpected shape (paper Fig. 10): full DACE best; w/o LA worst\n"
      "(information redundancy); w/o TA loses ~16-21%% median accuracy.\n");
  return 0;
}
