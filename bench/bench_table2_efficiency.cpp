// Table II: model size (MB), training efficiency (queries/sec) and
// inference efficiency (queries/sec) for every estimator, plus DACE-LoRA's
// tuning efficiency. Batch size 512, as in the paper.
//
//   ./bench_table2_efficiency [--train_queries=1500] [--infer_queries=1500]
//                             [--queries_per_db=40]

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
#include "util/strings.h"

namespace {

using namespace dace;

struct Row {
  std::string name;
  double size_mb = 0.0;
  double train_qps = 0.0;
  double infer_qps = 0.0;
  bool tuning = false;
};

double TimeInferenceQps(const core::CostEstimator& model,
                        const std::vector<plan::QueryPlan>& plans) {
  bench::WallTimer timer;
  double checksum = 0.0;
  for (const auto& plan : plans) checksum += model.PredictMs(plan);
  const double ms = timer.ElapsedMs();
  // Defeat dead-code elimination.
  if (checksum < 0) std::printf("impossible\n");
  return static_cast<double>(plans.size()) / (ms / 1000.0);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = bench::ParseFlagsOrDie(argc, argv);
  eval::ExperimentConfig config = eval::ExperimentConfig::FromFlags(flags);
  config.queries_per_db = static_cast<int>(flags.GetInt("queries_per_db", 40));
  const int train_queries =
      static_cast<int>(flags.GetInt("train_queries", 1500));
  const int infer_queries =
      static_cast<int>(flags.GetInt("infer_queries", 1500));
  flags.DieOnUnreadKeys();

  bench::PrintHeader("Table II — efficiency analysis",
                     "DACE paper Tab. II (size / train qps / infer qps)");

  eval::Workbench bench(config);
  const engine::Database& imdb = bench.corpus()[engine::kImdbIndex];
  const auto train = engine::GenerateLabeledPlans(
      imdb, bench.m1(), engine::WorkloadKind::kSynthetic, train_queries, 555);
  const auto infer = engine::GenerateLabeledPlans(
      imdb, bench.m1(), engine::WorkloadKind::kSynthetic, infer_queries, 556);

  // One training epoch with batch 512, timed.
  baselines::TrainOptions one_epoch;
  one_epoch.epochs = 1;
  one_epoch.batch_size = 512;

  std::vector<Row> rows;

  // PostgreSQL: inference only (its "model" is the cost formula itself).
  {
    baselines::PostgresLinear model;
    model.Train(train);
    Row row;
    row.name = "PostgreSQL";
    row.infer_qps = TimeInferenceQps(model, infer);
    rows.push_back(row);
  }

  const auto measure = [&](const std::string& name,
                           core::CostEstimator* model) {
    Row row;
    row.name = name;
    row.size_mb = core::ModelSizeMb(model->ParameterCount());
    bench::WallTimer timer;
    model->Train(train);
    row.train_qps =
        static_cast<double>(train.size()) / (timer.ElapsedMs() / 1000.0);
    row.infer_qps = TimeInferenceQps(*model, infer);
    rows.push_back(row);
    std::printf("  measured %s\n", name.c_str());
  };

  {
    baselines::Mscn::Config c;
    c.train = one_epoch;
    baselines::Mscn model(c);
    measure("MSCN", &model);
  }
  {
    baselines::QppNet::Config c;
    c.train = one_epoch;
    baselines::QppNet model(c);
    measure("QPPNet", &model);
  }
  {
    baselines::TPool::Config c;
    c.train = one_epoch;
    baselines::TPool model(c);
    measure("TPool", &model);
  }
  {
    baselines::QueryFormer::Config c;
    c.train = one_epoch;
    baselines::QueryFormer model(c);
    measure("QueryFormer", &model);
  }
  {
    baselines::ZeroShot::Config c;
    c.train = one_epoch;
    baselines::ZeroShot model(c);
    measure("Zero-Shot", &model);
  }

  // DACE, DACE-LoRA and the knowledge-integrated WDMs.
  core::DaceConfig dace_config;
  dace_config.epochs = 1;
  dace_config.batch_size = 512;
  core::DaceEstimator dace_est(dace_config);
  {
    Row row;
    row.name = "DACE";
    row.size_mb = core::ModelSizeMb(dace_est.ParameterCount());
    bench::WallTimer timer;
    dace_est.Train(train);
    row.train_qps =
        static_cast<double>(train.size()) / (timer.ElapsedMs() / 1000.0);
    row.infer_qps = TimeInferenceQps(dace_est, infer);
    rows.push_back(row);
    std::printf("  measured DACE\n");
  }
  {
    core::DaceConfig lora_config = dace_config;
    lora_config.finetune_epochs = 1;
    core::DaceEstimator lora(lora_config);
    lora.Train(train);
    Row row;
    row.name = "DACE-LoRA";
    bench::WallTimer timer;
    lora.FineTune(train);
    row.train_qps =
        static_cast<double>(train.size()) / (timer.ElapsedMs() / 1000.0);
    row.tuning = true;
    row.size_mb = core::ModelSizeMb(lora.LoraParameterCount());
    row.infer_qps = TimeInferenceQps(lora, infer);
    rows.push_back(row);
    std::printf("  measured DACE-LoRA\n");
  }
  {
    baselines::Mscn::Config c;
    c.train = one_epoch;
    baselines::Mscn model(c, &dace_est);
    measure("DACE-MSCN", &model);
  }
  {
    baselines::QueryFormer::Config c;
    c.train = one_epoch;
    baselines::QueryFormer model(c, &dace_est);
    measure("DACE-QueryFormer", &model);
  }

  std::printf("\n");
  eval::TablePrinter table({"Model", "Size (MB)", "Train (q/s)",
                            "Infer (q/s)"});
  for (const Row& row : rows) {
    table.AddRow({row.name,
                  row.size_mb > 0 ? StrFormat("%.3f", row.size_mb) : "-",
                  row.train_qps > 0
                      ? eval::FormatMetric(row.train_qps) +
                            (row.tuning ? " (tuning)" : "")
                      : "-",
                  eval::FormatMetric(row.infer_qps)});
  }
  table.Print();
  for (const Row& row : rows) {
    bench::Json()
        .Add("table2_row")
        .Str("model", row.name)
        .Num("size_mb", row.size_mb)
        .Num("train_qps", row.train_qps)
        .Num("infer_qps", row.infer_qps)
        .Num("tuning", row.tuning ? 1 : 0);
  }
  if (!bench::Json().WriteIfRequested()) return 1;
  std::printf(
      "\nexpected shape (paper Tab. II): DACE is the smallest model by a\n"
      "wide margin and the fastest learned model to train and to run.\n"
      "DACE-LoRA's adapter is ~1/3 of DACE's size. Caveats vs the paper:\n"
      "on a single CPU core LoRA tuning saves little wall-clock (the\n"
      "paper's 1.92x tuning speedup comes from GPU optimizer-state savings),\n"
      "and PostgreSQL's 'inference' is a single affine map here rather than\n"
      "a full cost-model evaluation.\n");
  return 0;
}
