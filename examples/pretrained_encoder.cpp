// Knowledge integration: use a pre-trained DACE as an encoder inside a
// within-database model (MSCN), Eq. (9) of the paper. With only a handful
// of training queries on a new database, the integrated model already beats
// the plain one — DACE's cross-database knowledge solves the cold start.
//
//   ./pretrained_encoder [--train_dbs=8] [--queries_per_db=80]
//                        [--wdm_queries=100] [--epochs=10]

#include <cstdio>
#include <vector>

#include "baselines/mscn.h"
#include "core/dace_model.h"
#include "engine/corpus.h"
#include "engine/dataset.h"
#include "engine/machine.h"
#include "eval/metrics.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  auto flags_or = dace::Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n", flags_or.status().ToString().c_str());
    return 1;
  }
  const dace::Flags& flags = *flags_or;
  const int train_dbs = static_cast<int>(flags.GetInt("train_dbs", 8));
  const int queries_per_db =
      static_cast<int>(flags.GetInt("queries_per_db", 80));
  const int wdm_queries = static_cast<int>(flags.GetInt("wdm_queries", 100));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 10));
  flags.DieOnUnreadKeys();

  const auto corpus = dace::engine::BuildCorpus(42, train_dbs + 1);
  const auto m1 = dace::engine::MachineM1();
  const dace::engine::Database& target = corpus[0];  // the "new" database

  // 1. Pre-train DACE on the other databases — the reusable encoder.
  std::vector<dace::plan::QueryPlan> pretrain;
  for (int db = 1; db <= train_dbs; ++db) {
    auto batch = dace::engine::GenerateLabeledPlans(
        corpus[static_cast<size_t>(db)], m1,
        dace::engine::WorkloadKind::kComplex, queries_per_db,
        4000 + static_cast<uint64_t>(db));
    pretrain.insert(pretrain.end(), batch.begin(), batch.end());
  }
  dace::core::DaceConfig dace_config;
  dace_config.epochs = epochs;
  dace::core::DaceEstimator encoder(dace_config);
  encoder.Train(pretrain);
  std::printf("pre-trained DACE encoder on %zu plans from %d databases\n",
              pretrain.size(), train_dbs);

  // A plan's encoding is the 64-dim hidden state of DACE's MLP (w_E).
  const auto probe = dace::engine::GenerateLabeledPlans(
      target, m1, dace::engine::WorkloadKind::kSynthetic, 1, 1);
  const std::vector<double> w_e = encoder.Encode(probe[0]);
  std::printf("plan encoding w_E has %zu dimensions\n", w_e.size());

  // 2. The new database only has a small training workload (cold start).
  const auto wdm_train = dace::engine::GenerateLabeledPlans(
      target, m1, dace::engine::WorkloadKind::kSynthetic, wdm_queries, 777);
  const auto test = dace::engine::GenerateLabeledPlans(
      target, m1, dace::engine::WorkloadKind::kJobLight, 70, 888);

  dace::baselines::Mscn::Config mscn_config;
  mscn_config.train.epochs = epochs;

  dace::baselines::Mscn plain(mscn_config);
  plain.Train(wdm_train);
  const auto plain_summary = dace::eval::Evaluate(plain, test);

  // 3. DACE-MSCN: the same model, with w_E concatenated into its head.
  dace::baselines::Mscn integrated(mscn_config, &encoder);
  integrated.Train(wdm_train);
  const auto integrated_summary = dace::eval::Evaluate(integrated, test);

  std::printf(
      "\nJOB-light q-error after training on only %d queries:\n"
      "  MSCN       median %.2f   95th %.2f   max %.2f\n"
      "  DACE-MSCN  median %.2f   95th %.2f   max %.2f\n",
      wdm_queries, plain_summary.median, plain_summary.p95, plain_summary.max,
      integrated_summary.median, integrated_summary.p95,
      integrated_summary.max);
  std::printf(
      "\nthe integrated model inherits DACE's cross-database knowledge and\n"
      "needs far fewer queries to become useful (paper Figs. 6 and 9).\n");
  return 0;
}
