// Differential test for the serving layer: for every plan in a generated
// corpus, the coalesced service path returns the BIT-IDENTICAL double a
// direct PredictMs / PredictBatchMs call on the same snapshot produces —
// under both kernel ISAs (scalar always; AVX2 when the machine has it),
// with the prediction cache disabled and enabled, sequentially and under
// concurrent submission (where requests from different threads coalesce
// into mixed micro-batches). Coalescing may only change who computes,
// never what is computed. The PackedF32* variants serve at kF32, where
// coalesced multi-miss micro-batches run the packed f32 forward, and hold
// every answer to the DESIGN §13 q-error budget of f64 PredictMs instead.

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dace_model.h"
#include "engine/corpus.h"
#include "engine/dataset.h"
#include "engine/machine.h"
#include "gtest/gtest.h"
#include "nn/kernels.h"
#include "nn/kernels_f32.h"
#include "serve/model_registry.h"
#include "serve/service.h"

namespace dace::serve {
namespace {

class ServeDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const engine::Database db = engine::BuildTpchLike(42);
    plans_ = engine::GenerateLabeledPlans(db, engine::MachineM1(),
                                          engine::WorkloadKind::kComplex, 32, 7);
    core::DaceConfig config;
    config.epochs = 1;
    estimator_ = std::make_shared<core::DaceEstimator>(config);
    estimator_->Train(plans_);
    ASSERT_TRUE(registry_.Register("tenant", estimator_).ok());
    // The bitwise variants are an f64 contract (PredictMs vs batched vs
    // coalesced service). Pin the precision so a DACE_PRECISION=f32
    // environment doesn't route multi-miss batches through the packed f32
    // path, whose results are only q-error-bounded, not bitwise; the
    // PackedF32* variants opt in explicitly.
    nn::kernel::SetPrecision(nn::kernel::Precision::kF64);
  }

  void TearDown() override {
    nn::kernel::SetIsa(original_isa_);
    nn::kernel::SetPrecision(original_precision_);
  }

  // All plans through the service, `threads` concurrent submitters each
  // owning a disjoint slice (threads == 1 degrades to sequential).
  std::vector<double> ServeAll(EstimatorService* service, int threads) {
    std::vector<double> out(plans_.size(), 0.0);
    std::vector<Status> errors(static_cast<size_t>(threads));
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (size_t i = static_cast<size_t>(t); i < plans_.size();
             i += static_cast<size_t>(threads)) {
          auto result = service->Estimate("tenant", plans_[i]);
          if (!result.ok()) {
            errors[static_cast<size_t>(t)] = result.status();
            return;
          }
          out[i] = *result;
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (const Status& s : errors) EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

  void RunDifferential(nn::kernel::Isa isa) {
    nn::kernel::SetIsa(isa);
    SCOPED_TRACE(std::string("isa=") + nn::kernel::IsaName(isa));

    // Direct reference, cache disabled: per-plan and batched paths agree.
    estimator_->set_prediction_cache_capacity(0);
    std::vector<double> direct;
    direct.reserve(plans_.size());
    for (const auto& plan : plans_) direct.push_back(estimator_->PredictMs(plan));
    const std::vector<double> direct_batch = estimator_->PredictBatchMs(plans_);
    ASSERT_EQ(direct_batch.size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(direct[i], direct_batch[i]) << "plan " << i;
    }

    // The service (and its drainers) is created inside the ISA phase so the
    // coalesced batches run on the ISA under test.
    ServiceConfig config;
    config.max_batch = 8;

    // Cache disabled: sequential, then coalesced-concurrent submission.
    {
      EstimatorService service(&registry_, config);
      const std::vector<double> sequential = ServeAll(&service, 1);
      const std::vector<double> concurrent = ServeAll(&service, 8);
      for (size_t i = 0; i < plans_.size(); ++i) {
        EXPECT_EQ(direct[i], sequential[i]) << "sequential plan " << i;
        EXPECT_EQ(direct[i], concurrent[i]) << "concurrent plan " << i;
      }
    }

    // Cache enabled: the fill pass and the all-hits pass both match the
    // cold reference bit-for-bit (resetting capacity also drops any entries
    // computed under the other ISA — dot/masked_exp reductions differ
    // between ISAs, so cross-ISA reuse would be a real mismatch).
    estimator_->set_prediction_cache_capacity(256);
    {
      EstimatorService service(&registry_, config);
      const std::vector<double> fill = ServeAll(&service, 8);
      const std::vector<double> hits = ServeAll(&service, 8);
      for (size_t i = 0; i < plans_.size(); ++i) {
        EXPECT_EQ(direct[i], fill[i]) << "cache-fill plan " << i;
        EXPECT_EQ(direct[i], hits[i]) << "cache-hit plan " << i;
      }
      const auto stats = estimator_->prediction_cache_stats();
      EXPECT_GE(stats.hits, plans_.size());  // second pass served from cache
    }
  }

  static void ExpectWithinBudget(const std::vector<double>& reference,
                                 const std::vector<double>& got,
                                 const char* what) {
    ASSERT_EQ(reference.size(), got.size()) << what;
    for (size_t i = 0; i < reference.size(); ++i) {
      ASSERT_GT(got[i], 0.0) << what << " plan " << i;
      const double q =
          std::max(reference[i] / got[i], got[i] / reference[i]);
      EXPECT_LT(q, 1.001) << what << " plan " << i << ": f64=" << reference[i]
                          << " served=" << got[i];
    }
  }

  void RunPackedF32Differential(nn::kernel::Isa isa) {
    nn::kernel::SetIsa(isa);
    SCOPED_TRACE(std::string("isa=") + nn::kernel::IsaName(isa));

    // f64 per-plan reference, cache disabled.
    estimator_->set_prediction_cache_capacity(0);
    std::vector<double> reference;
    reference.reserve(plans_.size());
    for (const auto& plan : plans_) {
      reference.push_back(estimator_->PredictMs(plan));
    }

    nn::kernel::SetPrecision(nn::kernel::Precision::kF32);
    // The direct batch call packs every miss (32 plans, one pack).
    ExpectWithinBudget(reference, estimator_->PredictBatchMs(plans_),
                       "direct batch");

    ServiceConfig config;
    config.max_batch = 8;
    {
      EstimatorService service(&registry_, config);
      ExpectWithinBudget(reference, ServeAll(&service, 1), "sequential");
      ExpectWithinBudget(reference, ServeAll(&service, 8), "concurrent");
    }
    // Cache enabled: hits return the packed answers the fill pass stored.
    estimator_->set_prediction_cache_capacity(256);
    {
      EstimatorService service(&registry_, config);
      const std::vector<double> fill = ServeAll(&service, 8);
      const std::vector<double> hits = ServeAll(&service, 8);
      ExpectWithinBudget(reference, fill, "cache-fill");
      for (size_t i = 0; i < plans_.size(); ++i) {
        EXPECT_EQ(fill[i], hits[i]) << "cache-hit plan " << i;
      }
      EXPECT_GE(estimator_->prediction_cache_stats().hits, plans_.size());
    }
  }

  std::vector<plan::QueryPlan> plans_;
  std::shared_ptr<core::DaceEstimator> estimator_;
  ModelRegistry registry_;
  const nn::kernel::Isa original_isa_ = nn::kernel::ActiveIsa();
  const nn::kernel::Precision original_precision_ =
      nn::kernel::ActivePrecision();
};

TEST_F(ServeDifferentialTest, ScalarKernels) {
  RunDifferential(nn::kernel::Isa::kScalar);
}

TEST_F(ServeDifferentialTest, Avx2Kernels) {
  if (!nn::kernel::HasAvx2()) {
    GTEST_SKIP() << "AVX2 not available on this machine/build";
  }
  RunDifferential(nn::kernel::Isa::kAvx2);
}

// The packed f32 fan-out behind the service: at kF32 coalesced micro-batches
// with two or more misses run the packed forward on the drainer. Every
// answer — sequential, coalesced-concurrent, cache fill and cache hit — must
// stay within 1.001 q-error of the f64 PredictMs reference.
TEST_F(ServeDifferentialTest, PackedF32ScalarKernels) {
  RunPackedF32Differential(nn::kernel::Isa::kScalar);
}

TEST_F(ServeDifferentialTest, PackedF32Avx2Kernels) {
  if (!nn::kernel::HasAvx2()) {
    GTEST_SKIP() << "AVX2 not available on this machine/build";
  }
  RunPackedF32Differential(nn::kernel::Isa::kAvx2);
}

// Unknown tenants are refused with a typed error before any queueing.
TEST_F(ServeDifferentialTest, UnknownTenantIsNotFound) {
  EstimatorService service(&registry_);
  const auto result = service.Estimate("no-such-tenant", plans_[0]);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

// After Shutdown every new request gets kUnavailable, typed, not a hang.
TEST_F(ServeDifferentialTest, ShutdownRefusesNewRequests) {
  EstimatorService service(&registry_);
  ASSERT_TRUE(service.Estimate("tenant", plans_[0]).ok());
  service.Shutdown();
  const auto result = service.Estimate("tenant", plans_[0]);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace dace::serve
