// Across-more in practice: a DACE model pre-trained on machine M1's traces
// is moved to machine M2 (different CPU/storage balance). Instead of
// retraining, attach LoRA adapters and fine-tune only them — the paper's
// Eq. (8) — then compare zero-shot vs fine-tuned accuracy on M2, and save
// and reload the adapted model.
//
//   ./finetune_lora [--train_dbs=6] [--queries_per_db=120] [--epochs=8]

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

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
  const int train_dbs = static_cast<int>(flags.GetInt("train_dbs", 6));
  const int queries_per_db =
      static_cast<int>(flags.GetInt("queries_per_db", 120));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 8));
  flags.DieOnUnreadKeys();

  const auto corpus = dace::engine::BuildCorpus(42, train_dbs + 1);
  const auto m1 = dace::engine::MachineM1();
  const auto m2 = dace::engine::MachineM2();

  // Collect workload 1 (M1 labels) and workload 2 (identical queries and
  // plans, re-executed on M2) for the training databases.
  std::vector<dace::plan::QueryPlan> train_m1, train_m2;
  for (int db = 1; db <= train_dbs; ++db) {
    auto batch = dace::engine::GenerateLabeledPlans(
        corpus[static_cast<size_t>(db)], m1,
        dace::engine::WorkloadKind::kComplex, queries_per_db,
        2000 + static_cast<uint64_t>(db));
    train_m1.insert(train_m1.end(), batch.begin(), batch.end());
    dace::engine::RelabelPlans(corpus[static_cast<size_t>(db)], m2,
                               3000 + static_cast<uint64_t>(db), &batch);
    train_m2.insert(train_m2.end(), batch.begin(), batch.end());
  }
  const auto test_m2 = dace::engine::GenerateLabeledPlans(
      corpus[0], m2, dace::engine::WorkloadKind::kComplex, 200, 9999);

  // Pre-train on M1.
  dace::core::DaceConfig config;
  config.epochs = epochs;
  dace::core::DaceEstimator est(config);
  est.Train(train_m1);
  std::printf("pre-trained DACE on %zu M1-labelled plans (%zu parameters)\n",
              train_m1.size(), est.ParameterCount());

  const auto before = dace::eval::Evaluate(est, test_m2);
  std::printf("zero-shot on M2:   median q-error %.2f, 95th %.2f\n",
              before.median, before.p95);

  // LoRA fine-tune: base weights frozen, only the adapters train.
  const auto stats = est.FineTune(train_m2);
  std::printf(
      "fine-tuned %zu LoRA parameters (%.1f%% of the model) in %.0f ms\n",
      est.LoraParameterCount(),
      100.0 * static_cast<double>(est.LoraParameterCount()) /
          static_cast<double>(est.ParameterCount()),
      stats.wall_ms);

  const auto after = dace::eval::Evaluate(est, test_m2);
  std::printf("fine-tuned on M2:  median q-error %.2f, 95th %.2f\n",
              after.median, after.p95);

  // The adapted model round-trips through the checkpoint subsystem: the save
  // is atomic (temp file + rename) and the load is transactional, so a
  // failure at either step leaves the estimator untouched and returns a
  // Status explaining what went wrong.
  const std::string path = "/tmp/dace_lora_model.ckpt";
  if (auto status = est.SaveToFile(path); !status.ok()) {
    std::fprintf(stderr, "save failed: %s\n", status.ToString().c_str());
    return 1;
  }
  dace::core::DaceEstimator restored(config);
  if (auto status = restored.LoadFromFile(path); !status.ok()) {
    std::fprintf(stderr, "load failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("saved + reloaded adapted model: prediction drift %.2e ms\n",
              std::fabs(restored.PredictMs(test_m2[0]) -
                        est.PredictMs(test_m2[0])));

  // The reloaded estimator is fully live: keep fine-tuning it where the
  // original left off (e.g. after shipping the checkpoint to the M2 host).
  const auto resumed = restored.FineTune(train_m2);
  const auto after_resume = dace::eval::Evaluate(restored, test_m2);
  std::printf(
      "resumed fine-tune on reloaded model (%.0f ms): median q-error %.2f, "
      "95th %.2f\n",
      resumed.wall_ms, after_resume.median, after_resume.p95);

  // A checkpoint only loads into an estimator with the identical
  // architecture fingerprint; anything else is rejected up front instead of
  // silently mis-shaping the weights.
  dace::core::DaceConfig other = config;
  other.hidden1 *= 2;
  dace::core::DaceEstimator mismatched(other);
  if (auto status = mismatched.LoadFromFile(path); status.ok()) {
    std::fprintf(stderr, "cross-config load unexpectedly succeeded\n");
    return 1;
  } else {
    std::printf("cross-config load rejected as expected:\n  %s\n",
                status.ToString().c_str());
  }
  return 0;
}
