// Figure 11: DACE vs DACE w/o LA on plans of growing size. Trained on the
// 19 non-IMDB databases, tested on IMDB complex queries bucketed by node
// count. The loss adjuster is what keeps accuracy flat as plans deepen.
//
//   ./bench_fig11_nodes_ablation [--queries_per_db=60] [--epochs=8]
//                                [--test_queries=1500]

#include <map>

#include "bench/bench_util.h"
#include "core/dace_model.h"
#include "engine/dataset.h"

namespace {

int NodeBucket(size_t nodes) {
  if (nodes <= 5) return 0;
  if (nodes <= 10) return 1;
  if (nodes <= 15) return 2;
  return 3;
}

const char* kBucketNames[] = {"1-5", "6-10", "11-15", ">15"};

}  // namespace

int main(int argc, char** argv) {
  using namespace dace;
  const Flags flags = bench::ParseFlagsOrDie(argc, argv);
  eval::ExperimentConfig config = eval::ExperimentConfig::FromFlags(flags);
  config.queries_per_db = static_cast<int>(flags.GetInt("queries_per_db", 60));
  config.epochs = static_cast<int>(flags.GetInt("epochs", 8));
  const int test_queries =
      static_cast<int>(flags.GetInt("test_queries", 1500));
  flags.DieOnUnreadKeys();

  bench::PrintHeader("Fig. 11 — q-error vs plan size, DACE vs DACE w/o LA",
                     "DACE paper Fig. 11 (loss adjuster on deep plans)");

  eval::Workbench bench(config);
  const auto train = bench.TrainPlansExcluding(engine::kImdbIndex);
  const auto test = bench.TestPlans(engine::kImdbIndex,
                                    engine::WorkloadKind::kComplex,
                                    test_queries);

  core::DaceConfig full_config;
  full_config.epochs = config.epochs;
  core::DaceEstimator full(full_config);
  full.Train(train);
  std::printf("  trained DACE\n");

  core::DaceConfig no_la_config = full_config;
  no_la_config.alpha = 1.0;
  core::DaceEstimator no_la(no_la_config);
  no_la.Train(train);
  std::printf("  trained DACE w/o LA\n");

  std::map<int, std::vector<double>> full_buckets, no_la_buckets;
  for (const auto& plan : test) {
    const double act = plan.node(plan.root()).actual_time_ms;
    const int bucket = NodeBucket(plan.size());
    full_buckets[bucket].push_back(eval::Qerror(full.PredictMs(plan), act));
    no_la_buckets[bucket].push_back(eval::Qerror(no_la.PredictMs(plan), act));
  }

  std::printf("\n");
  eval::TablePrinter table({"#nodes", "DACE median", "DACE 95th",
                            "w/o LA median", "w/o LA 95th", "queries"});
  for (int bucket = 0; bucket < 4; ++bucket) {
    if (!full_buckets.count(bucket)) continue;
    const auto f = eval::Summarize(full_buckets[bucket]);
    const auto n = eval::Summarize(no_la_buckets[bucket]);
    table.AddRow({kBucketNames[bucket], eval::FormatMetric(f.median),
                  eval::FormatMetric(f.p95), eval::FormatMetric(n.median),
                  eval::FormatMetric(n.p95), std::to_string(f.count)});
  }
  table.Print();
  std::printf(
      "\nexpected shape (paper Fig. 11): w/o LA degrades as node count\n"
      "grows; full DACE stays nearly flat.\n");
  return 0;
}
