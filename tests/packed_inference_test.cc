// Packed multi-plan inference tests. Packing is a property of single
// precision: at kF64 every miss is priced per plan through the bit-exact
// reference, and at kF32/kI8 multi-miss batches run the packed f32 forward.
// Its contract is the DESIGN §13 error budget: for any batch composition —
// duplicates, a 1-node plan packed next to a deep chain, a 1-plan tail pack
// — the q-error of each packed f32 prediction measured against the f64
// per-plan PredictMs stays under a bound far below any model-accuracy
// signal. Also covers the scratch shrink-to-high-watermark governor and the
// PackedMode dispatcher.

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/dace_model.h"
#include "engine/corpus.h"
#include "engine/dataset.h"
#include "engine/machine.h"
#include "gtest/gtest.h"
#include "nn/kernels.h"
#include "nn/kernels_f32.h"
#include "obs/metrics.h"

namespace dace::core {
namespace {

using PackedMode = DaceEstimator::PackedMode;

// A root-to-leaf chain of `nodes` operators — the deepest possible plan
// shape, maximizing both the DFS row count and the ancestor-mask density.
plan::QueryPlan ChainPlan(int nodes) {
  plan::QueryPlan p;
  for (int i = 0; i < nodes; ++i) {
    plan::PlanNode node;
    node.type = i + 1 == nodes ? plan::OperatorType::kSeqScan
                               : plan::OperatorType::kNestedLoop;
    node.est_cardinality = 10.0 + i;
    node.est_cost = 100.0 + 3.0 * i;
    node.actual_cardinality = 12.0 + i;
    node.actual_time_ms = 1.0 + 0.1 * i;
    if (i + 1 < nodes) node.children.push_back(i + 1);
    p.AddNode(std::move(node));
  }
  p.SetRoot(0);
  return p;
}

plan::QueryPlan SingleNodePlan() { return ChainPlan(1); }

class PackedInferenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const engine::Database db = engine::BuildImdbLike(11);
    plans_ = engine::GenerateLabeledPlans(db, engine::MachineM1(),
                                          engine::WorkloadKind::kComplex, 48, 3);
    DaceConfig config;
    config.epochs = 1;
    estimator_ = DaceEstimator(config);
    estimator_.Train(plans_);
    estimator_.set_prediction_cache_capacity(0);
    // Tests start at the f64 reference whatever DACE_PRECISION says; tests
    // that exercise the packed f32 path opt in explicitly.
    nn::kernel::SetPrecision(nn::kernel::Precision::kF64);
  }

  void TearDown() override {
    nn::kernel::SetIsa(original_isa_);
    nn::kernel::SetPrecision(original_precision_);
  }

  std::vector<const plan::QueryPlan*> Ptrs(
      const std::vector<plan::QueryPlan>& plans) {
    std::vector<const plan::QueryPlan*> ptrs;
    for (const auto& p : plans) ptrs.push_back(&p);
    return ptrs;
  }

  // The batch path over `batch` under `mode`, with an empty cache so every
  // plan is computed.
  std::vector<double> Predict(const std::vector<plan::QueryPlan>& batch,
                              PackedMode mode) {
    estimator_.set_packed_inference(mode);
    estimator_.set_prediction_cache_capacity(0);
    return estimator_.PredictBatchMs(Ptrs(batch));
  }

  // The f64 per-plan reference: PredictMs at kF64, cache off. Restores the
  // precision the caller had.
  std::vector<double> Reference(const std::vector<plan::QueryPlan>& batch) {
    const nn::kernel::Precision prev = nn::kernel::ActivePrecision();
    nn::kernel::SetPrecision(nn::kernel::Precision::kF64);
    estimator_.set_prediction_cache_capacity(0);
    std::vector<double> out;
    for (const auto& p : batch) out.push_back(estimator_.PredictMs(p));
    nn::kernel::SetPrecision(prev);
    return out;
  }

  // Asserts the 1.001 q-error budget plan by plan; returns the worst q.
  static double ExpectWithinBudget(const std::vector<double>& reference,
                                   const std::vector<double>& got) {
    EXPECT_EQ(reference.size(), got.size());
    double worst_q = 1.0;
    for (size_t i = 0; i < std::min(reference.size(), got.size()); ++i) {
      EXPECT_GT(reference[i], 0.0) << "plan " << i;
      EXPECT_GT(got[i], 0.0) << "plan " << i;
      const double q =
          std::max(reference[i] / got[i], got[i] / reference[i]);
      EXPECT_LT(q, 1.001) << "plan " << i << ": f64=" << reference[i]
                          << " got=" << got[i];
      worst_q = std::max(worst_q, q);
    }
    return worst_q;
  }

  static uint64_t PackCount() {
    return obs::MetricsRegistry::Default()
        ->GetCounter("predict.pack.packs")
        ->Value();
  }

  std::vector<plan::QueryPlan> plans_;
  DaceEstimator estimator_;
  const nn::kernel::Isa original_isa_ = nn::kernel::ActiveIsa();
  const nn::kernel::Precision original_precision_ =
      nn::kernel::ActivePrecision();
};

TEST_F(PackedInferenceTest, EmptyBatchReturnsEmptyOnEveryMode) {
  for (nn::kernel::Precision prec :
       {nn::kernel::Precision::kF64, nn::kernel::Precision::kF32}) {
    nn::kernel::SetPrecision(prec);
    for (PackedMode mode : {PackedMode::kOff, PackedMode::kAuto}) {
      estimator_.set_packed_inference(mode);
      EXPECT_TRUE(estimator_.PredictBatchMs(std::vector<plan::QueryPlan>())
                      .empty());
    }
  }
}

// At kF64 the batch path never packs: it prices every miss per plan, so it
// is bit-identical to PredictMs under both ISAs and leaves the pack
// counters untouched.
TEST_F(PackedInferenceTest, F64BatchMatchesPerPlanBitwiseOnBothIsas) {
  for (nn::kernel::Isa isa : {nn::kernel::Isa::kScalar, nn::kernel::Isa::kAvx2}) {
    if (isa == nn::kernel::Isa::kAvx2 && !nn::kernel::HasAvx2()) continue;
    nn::kernel::SetIsa(isa);
    SCOPED_TRACE(nn::kernel::IsaName(isa));
    const uint64_t packs_before = PackCount();
    const std::vector<double> reference = Reference(plans_);
    const std::vector<double> batch = Predict(plans_, PackedMode::kAuto);
    ASSERT_EQ(reference.size(), batch.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(reference[i], batch[i]) << "plan " << i;
    }
    EXPECT_EQ(packs_before, PackCount());
  }
}

TEST_F(PackedInferenceTest, ExtremeShapeMixWithinBudget) {
  // One-node plans packed against a plan deeper than anything in the
  // training corpus: the score tiles of the small plans are almost entirely
  // padding, which must never leak into the valid rows.
  std::vector<plan::QueryPlan> batch;
  batch.push_back(SingleNodePlan());
  batch.push_back(ChainPlan(120));
  batch.push_back(SingleNodePlan());
  for (int i = 0; i < 6; ++i) batch.push_back(plans_[static_cast<size_t>(i)]);
  batch.push_back(ChainPlan(2));
  const std::vector<double> reference = Reference(batch);
  nn::kernel::SetPrecision(nn::kernel::Precision::kF32);
  const uint64_t packs_before = PackCount();
  const std::vector<double> packed = Predict(batch, PackedMode::kAuto);
  EXPECT_EQ(packs_before + 1, PackCount());
  ExpectWithinBudget(reference, packed);
}

TEST_F(PackedInferenceTest, IdenticalPlansBatchAndCacheInteraction) {
  // A batch of copies of one plan, cache enabled: every copy misses the
  // (empty) cache in the probe pass, all land in one pack, and every result
  // must sit within budget of the f64 per-plan value. The NEXT batch is all
  // hits and returns the packed answers unchanged.
  const double reference = Reference({plans_[3]})[0];
  nn::kernel::SetPrecision(nn::kernel::Precision::kF32);
  estimator_.set_packed_inference(PackedMode::kAuto);
  estimator_.set_prediction_cache_capacity(64);
  const std::vector<plan::QueryPlan> batch(8, plans_[3]);
  const std::vector<double> first = estimator_.PredictBatchMs(Ptrs(batch));
  ExpectWithinBudget(std::vector<double>(batch.size(), reference), first);
  for (size_t i = 1; i < first.size(); ++i) {
    EXPECT_EQ(first[0], first[i]) << "copy " << i;
  }
  const auto after_fill = estimator_.prediction_cache_stats();
  EXPECT_EQ(0u, after_fill.hits);
  const std::vector<double> second = estimator_.PredictBatchMs(Ptrs(batch));
  for (size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "cached copy " << i;
  }
  const auto after_hits = estimator_.prediction_cache_stats();
  EXPECT_EQ(8u, after_hits.hits);
  estimator_.set_prediction_cache_capacity(0);
}

// The f32 error budget (DESIGN §13): per-plan q-error of the f32 packed
// prediction against the f64 per-plan reference. The budget is 1.001 — a
// 0.1% multiplicative error, two orders of magnitude below the model's own
// median q-error, asserted with the batch containing the corpus plus the
// extreme synthetic shapes.
TEST_F(PackedInferenceTest, F32QErrorDeltaWithinBudget) {
  std::vector<plan::QueryPlan> batch = plans_;
  batch.push_back(SingleNodePlan());
  batch.push_back(ChainPlan(120));
  const std::vector<double> f64_preds = Reference(batch);
  nn::kernel::SetPrecision(nn::kernel::Precision::kF32);
  const std::vector<double> f32_preds = Predict(batch, PackedMode::kAuto);
  const double worst_q = ExpectWithinBudget(f64_preds, f32_preds);
  // The bound must not be vacuous: f32 really is a different computation.
  EXPECT_GT(worst_q, 1.0);
}

// Production reaches a 1-plan pack whenever a batch has 65 misses: one full
// 64-plan pack plus a 1-plan tail. The tail must price like any other pack.
TEST_F(PackedInferenceTest, OnePlanTailPackWithinBudget) {
  const engine::Database db = engine::BuildImdbLike(11);
  std::vector<plan::QueryPlan> batch = plans_;
  for (const auto& p : engine::GenerateLabeledPlans(
           db, engine::MachineM1(), engine::WorkloadKind::kComplex, 40, 5)) {
    batch.push_back(p);
  }
  // 65 distinct plans (by fingerprint), so no two misses share an answer
  // and the batch really splits 64 + 1.
  std::vector<plan::QueryPlan> distinct;
  std::vector<uint64_t> seen;
  const featurize::FeaturizerConfig fc;
  for (const auto& p : batch) {
    const uint64_t fp = estimator_.featurizer().Fingerprint(p, fc);
    if (std::find(seen.begin(), seen.end(), fp) != seen.end()) continue;
    seen.push_back(fp);
    distinct.push_back(p);
    if (distinct.size() == 65) break;
  }
  ASSERT_EQ(65u, distinct.size());
  const std::vector<double> reference = Reference(distinct);
  nn::kernel::SetPrecision(nn::kernel::Precision::kF32);
  const uint64_t packs_before = PackCount();
  const std::vector<double> packed = Predict(distinct, PackedMode::kAuto);
  EXPECT_EQ(packs_before + 2, PackCount());
  ExpectWithinBudget(reference, packed);
}

// f32 must also re-fold its weight image when the weights change, rather
// than serving predictions from the stale fold.
TEST_F(PackedInferenceTest, F32RefoldsAfterFineTune) {
  nn::kernel::SetPrecision(nn::kernel::Precision::kF32);
  const std::vector<double> before = Predict(plans_, PackedMode::kAuto);
  estimator_.FineTune(plans_);
  const std::vector<double> after = Predict(plans_, PackedMode::kAuto);
  nn::kernel::SetPrecision(nn::kernel::Precision::kF64);
  // Post-fine-tune f32 tracks the post-fine-tune f64 weights (the LoRA
  // adapters are folded into the f32 image), same budget as above.
  ExpectWithinBudget(Reference(plans_), after);
  bool any_changed = false;
  for (size_t i = 0; i < before.size(); ++i) {
    any_changed = any_changed || before[i] != after[i];
  }
  EXPECT_TRUE(any_changed);  // the fine-tune moved the weights
}

// Scratch governor: one pathological deep plan pins megabyte-class buffers;
// a patience-window of small batches afterwards must shrink them back.
TEST_F(PackedInferenceTest, ScratchShrinksBackToSmallWorkload) {
  nn::kernel::SetPrecision(nn::kernel::Precision::kF32);
  for (PackedMode mode : {PackedMode::kOff, PackedMode::kAuto}) {
    estimator_.set_packed_inference(mode);
    SCOPED_TRACE(static_cast<int>(mode));
    // Two ~300-node plans (>= the governor's 256-node floor) warm the
    // scratch; under kAuto they share one pack.
    std::vector<plan::QueryPlan> big;
    big.push_back(ChainPlan(300));
    big.push_back(ChainPlan(299));
    const std::vector<double> big_ref = Reference(big);
    ExpectWithinBudget(big_ref, estimator_.PredictBatchMs(Ptrs(big)));
    EXPECT_GE(estimator_.InferenceScratchPeakNodes(), 300u);
    // Small batches only: the governor needs its full patience streak
    // before dropping the watermark.
    std::vector<plan::QueryPlan> small(plans_.begin(), plans_.begin() + 8);
    for (int call = 0; call < 20; ++call) {
      (void)estimator_.PredictBatchMs(Ptrs(small));
    }
    EXPECT_LT(estimator_.InferenceScratchPeakNodes(), 256u)
        << "scratch still sized for the 300-node outlier";
  }
}

// One oversized batch inside the patience window resets the streak: the
// governor must NOT shrink scratch a live workload still needs.
TEST_F(PackedInferenceTest, GovernorSparesActiveDeepWorkloads) {
  nn::kernel::SetPrecision(nn::kernel::Precision::kF32);
  estimator_.set_packed_inference(PackedMode::kAuto);
  std::vector<plan::QueryPlan> big;
  big.push_back(ChainPlan(300));
  big.push_back(ChainPlan(299));
  std::vector<plan::QueryPlan> small(plans_.begin(), plans_.begin() + 8);
  (void)estimator_.PredictBatchMs(Ptrs(big));
  for (int round = 0; round < 3; ++round) {
    for (int call = 0; call < 10; ++call) {
      (void)estimator_.PredictBatchMs(Ptrs(small));
    }
    (void)estimator_.PredictBatchMs(Ptrs(big));  // streak reset
  }
  EXPECT_GE(estimator_.InferenceScratchPeakNodes(), 300u);
}

TEST_F(PackedInferenceTest, AutoModeUsesPerPlanPathForSingleMiss) {
  // kAuto with a single miss must not pack, even at f32: the lone plan runs
  // the per-plan f64 reference, so it matches PredictMs bitwise and leaves
  // the pack counter where it was.
  const double reference = Reference({plans_[5]})[0];
  nn::kernel::SetPrecision(nn::kernel::Precision::kF32);
  const uint64_t packs_before = PackCount();
  const std::vector<double> out =
      Predict(std::vector<plan::QueryPlan>{plans_[5]}, PackedMode::kAuto);
  ASSERT_EQ(1u, out.size());
  EXPECT_EQ(reference, out[0]);
  EXPECT_EQ(packs_before, PackCount());
}

}  // namespace
}  // namespace dace::core
