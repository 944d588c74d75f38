// Figure 4: Zero-Shot q-error grows with the number of plan nodes.
// Protocol: leave-one-out over the corpus (train on the other databases,
// test on the held-out one), bucket the test q-errors by plan node count,
// and report the average across experiments.
//
//   ./bench_fig04_zeroshot_nodes [--runs=20] [--queries_per_db=60]
//                                [--test_queries=300] [--epochs=8]

#include <map>
#include <vector>

#include "baselines/zeroshot.h"
#include "bench/bench_util.h"

namespace {

int NodeBucket(size_t nodes) {
  if (nodes <= 5) return 0;
  if (nodes <= 10) return 1;
  if (nodes <= 15) return 2;
  if (nodes <= 20) return 3;
  return 4;
}

const char* kBucketNames[] = {"1-5", "6-10", "11-15", "16-20", ">20"};

}  // namespace

int main(int argc, char** argv) {
  using namespace dace;
  const Flags flags = bench::ParseFlagsOrDie(argc, argv);
  eval::ExperimentConfig config = eval::ExperimentConfig::FromFlags(flags);
  config.queries_per_db =
      static_cast<int>(flags.GetInt("queries_per_db", 60));
  config.test_queries = static_cast<int>(flags.GetInt("test_queries", 300));
  config.epochs = static_cast<int>(flags.GetInt("epochs", 8));
  const int runs = static_cast<int>(
      flags.GetInt("runs", config.num_databases));
  flags.DieOnUnreadKeys();

  bench::PrintHeader("Fig. 4 — Zero-Shot accuracy vs. plan size",
                     "DACE paper Fig. 4 (mean q-error by #nodes)");

  eval::Workbench bench(config);
  // bucket -> all q-errors across all leave-one-out runs.
  std::map<int, std::vector<double>> buckets;

  bench::WallTimer timer;
  for (int test_db = 0; test_db < runs; ++test_db) {
    baselines::ZeroShot::Config zs_config;
    zs_config.train.epochs = config.epochs;
    baselines::ZeroShot model(zs_config);
    model.Train(bench.TrainPlansExcluding(test_db));
    const auto test = bench.TestPlans(test_db, engine::WorkloadKind::kComplex,
                                      config.test_queries);
    for (const auto& plan : test) {
      const double q = eval::Qerror(model.PredictMs(plan),
                                    plan.node(plan.root()).actual_time_ms);
      buckets[NodeBucket(plan.size())].push_back(q);
    }
    std::printf("  [run %d/%d] held out db %s (%.0fs elapsed)\n", test_db + 1,
                runs, bench.corpus()[static_cast<size_t>(test_db)].name.c_str(),
                timer.ElapsedMs() / 1000.0);
  }

  std::printf("\n");
  eval::TablePrinter table(
      {"#nodes", "mean q-error", "median", "90th", "queries"});
  for (auto& [bucket, qerrors] : buckets) {
    const eval::QerrorSummary s = eval::Summarize(qerrors);
    table.AddRow({kBucketNames[bucket], eval::FormatMetric(s.mean),
                  eval::FormatMetric(s.median), eval::FormatMetric(s.p90),
                  std::to_string(s.count)});
  }
  table.Print();
  std::printf(
      "\nexpected shape: mean q-error increases with node count —\n"
      "root-only supervision struggles on deep plans (motivates DACE's\n"
      "parallel sub-plan learning).\n");
  return 0;
}
