#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "baselines/mscn.h"
#include "baselines/postgres_cost.h"
#include "baselines/qppnet.h"
#include "baselines/queryformer.h"
#include "baselines/tpool.h"
#include "baselines/zeroshot.h"
#include "core/dace_model.h"
#include "engine/corpus.h"
#include "engine/dataset.h"
#include "engine/machine.h"
#include "eval/metrics.h"

namespace dace::baselines {
namespace {

std::vector<plan::QueryPlan> ImdbPlans(int count, uint64_t seed) {
  const engine::Database db = engine::BuildImdbLike(42);
  return engine::GenerateLabeledPlans(db, engine::MachineM1(),
                                      engine::WorkloadKind::kComplex, count,
                                      seed);
}

TrainOptions FastTrain() {
  TrainOptions opts;
  opts.epochs = 6;
  return opts;
}

// ------------------------------------------------ BackwardAndAccumulate ----

// The baseline trainers fold every backward into Parameter::grad at once.
// The bias gradient must take dy's rows one at a time onto the running
// gradient, (G + r0) + r1, as these trainers always have: summing the rows
// first, G + (r0 + r1), rounds differently and changes trained weights. The
// values are chosen so the two orders differ.
TEST(BackwardAndAccumulateTest, BiasRowsLandOnTheRunningGradient) {
  Rng rng(3);
  nn::Linear layer;
  layer.Init(2, 1, &rng);
  std::vector<nn::Parameter*> params;
  layer.CollectAllParameters(&params);
  nn::Parameter* bias = params[1];

  nn::Linear::ExternalCache cache;
  nn::Matrix y, dx;
  layer.ForwardCached(nn::Matrix(1, 2, {1.0, 2.0}), &cache, &y);
  BackwardAndAccumulate(&layer, cache, nn::Matrix(1, 1, {1.0}), &dx);
  ASSERT_EQ(bias->grad(0, 0), 1.0);

  layer.ForwardCached(nn::Matrix(2, 2, {1.0, 2.0, 3.0, 4.0}), &cache, &y);
  BackwardAndAccumulate(&layer, cache, nn::Matrix(2, 1, {1e-16, 1e-16}),
                        &dx);
  const double rows_in_order = (1.0 + 1e-16) + 1e-16;
  ASSERT_NE(rows_in_order, 1.0 + (1e-16 + 1e-16));
  EXPECT_EQ(bias->grad(0, 0), rows_in_order);
  // The weight gradient is the usual fresh x^T dy added once per call.
  EXPECT_EQ(params[0]->grad(0, 0), 1.0 + (1.0 * 1e-16 + 3.0 * 1e-16));
}

// ----------------------------------------------------- PostgresLinear ----

TEST(PostgresLinearTest, RecoversExactLinearRelation) {
  // Craft plans where time = 2·cost + 5 exactly.
  std::vector<plan::QueryPlan> plans;
  for (int i = 1; i <= 20; ++i) {
    plan::QueryPlan p;
    plan::PlanNode node;
    node.type = plan::OperatorType::kSeqScan;
    node.est_cost = 100.0 * i;
    node.actual_time_ms = 2.0 * node.est_cost + 5.0;
    p.SetRoot(p.AddNode(node));
    plans.push_back(std::move(p));
  }
  PostgresLinear model;
  model.Train(plans);
  EXPECT_NEAR(model.slope(), 2.0, 1e-9);
  EXPECT_NEAR(model.intercept(), 5.0, 1e-6);
  for (const auto& p : plans) {
    EXPECT_NEAR(model.PredictMs(p), p.node(p.root()).actual_time_ms, 1e-6);
  }
}

TEST(PostgresLinearTest, TwoParameters) {
  PostgresLinear model;
  EXPECT_EQ(model.ParameterCount(), 2u);
}

TEST(PostgresLinearTest, ReasonableOnRealWorkload) {
  const auto plans = ImdbPlans(150, 1);
  PostgresLinear model;
  model.Train(plans);
  const auto summary = eval::Evaluate(model, plans);
  EXPECT_LT(summary.median, 5.0);
  EXPECT_GE(summary.median, 1.0);
}

// ------------------------------------------- Shared learned-model tests --

struct EstimatorFactory {
  std::string name;
  std::function<std::unique_ptr<core::CostEstimator>()> make;
};

std::vector<EstimatorFactory> AllLearnedFactories() {
  return {
      {"MSCN",
       [] {
         Mscn::Config c;
         c.train = FastTrain();
         return std::make_unique<Mscn>(c);
       }},
      {"QPPNet",
       [] {
         QppNet::Config c;
         c.train = FastTrain();
         return std::make_unique<QppNet>(c);
       }},
      {"TPool",
       [] {
         TPool::Config c;
         c.train = FastTrain();
         return std::make_unique<TPool>(c);
       }},
      {"QueryFormer",
       [] {
         QueryFormer::Config c;
         c.num_layers = 2;  // keep the unit test fast
         c.train = FastTrain();
         return std::make_unique<QueryFormer>(c);
       }},
      {"Zero-Shot",
       [] {
         ZeroShot::Config c;
         c.train = FastTrain();
         return std::make_unique<ZeroShot>(c);
       }},
  };
}

class LearnedBaselineTest : public ::testing::TestWithParam<int> {};

TEST_P(LearnedBaselineTest, TrainsAndPredictsFinite) {
  const auto factory = AllLearnedFactories()[static_cast<size_t>(GetParam())];
  auto model = factory.make();
  const auto plans = ImdbPlans(60, 7);
  model->Train(plans);
  for (const auto& plan : plans) {
    const double ms = model->PredictMs(plan);
    EXPECT_TRUE(std::isfinite(ms)) << factory.name;
    EXPECT_GT(ms, 0.0) << factory.name;
  }
}

TEST_P(LearnedBaselineTest, HasParameters) {
  const auto factory = AllLearnedFactories()[static_cast<size_t>(GetParam())];
  auto model = factory.make();
  EXPECT_GT(model->ParameterCount(), 100u) << factory.name;
}

TEST_P(LearnedBaselineTest, LearnsTrainingDistribution) {
  const auto factory = AllLearnedFactories()[static_cast<size_t>(GetParam())];
  auto model = factory.make();
  const auto plans = ImdbPlans(120, 13);
  model->Train(plans);
  const auto summary = eval::Evaluate(*model, plans);
  // Any reasonable learned model fits its own training set far better than
  // an order-of-magnitude error.
  EXPECT_LT(summary.median, 3.0) << factory.name;
}

INSTANTIATE_TEST_SUITE_P(Models, LearnedBaselineTest, ::testing::Range(0, 5));

// ------------------------------------------------------ Architecture ----

TEST(ModelSizeTest, DaceIsSmallest) {
  core::DaceEstimator dace;
  Mscn mscn;
  QppNet qppnet;
  TPool tpool;
  QueryFormer queryformer;
  ZeroShot zeroshot;
  const size_t dace_size = dace.ParameterCount();
  EXPECT_LT(dace_size, mscn.ParameterCount());
  EXPECT_LT(dace_size, qppnet.ParameterCount());
  EXPECT_LT(dace_size, tpool.ParameterCount());
  EXPECT_LT(dace_size, queryformer.ParameterCount());
  EXPECT_LT(dace_size, zeroshot.ParameterCount());
  // QueryFormer is the heavyweight, as in Table II.
  EXPECT_GT(queryformer.ParameterCount(), 4 * dace_size);
}

TEST(ZeroShotTest, TransfersAcrossDatabases) {
  // Train on several non-IMDB databases, test on IMDB: as an ADM, Zero-Shot
  // must stay in a sane q-error range on the unseen schema.
  const auto corpus = engine::BuildCorpus(42, 5);
  std::vector<plan::QueryPlan> train;
  for (int db = 1; db <= 4; ++db) {
    auto batch = engine::GenerateLabeledPlans(
        corpus[static_cast<size_t>(db)], engine::MachineM1(),
        engine::WorkloadKind::kComplex, 80, 31 + static_cast<uint64_t>(db));
    train.insert(train.end(), batch.begin(), batch.end());
  }
  ZeroShot::Config config;
  config.train.epochs = 10;
  ZeroShot model(config);
  model.Train(train);
  const auto test = ImdbPlans(100, 99);
  const auto summary = eval::Evaluate(model, test);
  EXPECT_LT(summary.median, 8.0);
}

// ------------------------------------------------ Knowledge integration --

class KnowledgeIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // One shared pre-trained DACE for the suite (training is the slow part).
    const auto corpus = engine::BuildCorpus(42, 4);
    std::vector<plan::QueryPlan> train;
    for (int db = 1; db <= 3; ++db) {
      auto batch = engine::GenerateLabeledPlans(
          corpus[static_cast<size_t>(db)], engine::MachineM1(),
          engine::WorkloadKind::kComplex, 60, 61 + static_cast<uint64_t>(db));
      train.insert(train.end(), batch.begin(), batch.end());
    }
    core::DaceConfig config;
    config.epochs = 8;
    dace_ = new core::DaceEstimator(config);
    dace_->Train(train);
  }
  static void TearDownTestSuite() {
    delete dace_;
    dace_ = nullptr;
  }
  static core::DaceEstimator* dace_;
};

core::DaceEstimator* KnowledgeIntegrationTest::dace_ = nullptr;

TEST_F(KnowledgeIntegrationTest, DaceMscnTrainsAndPredicts) {
  Mscn::Config config;
  config.train = FastTrain();
  Mscn model(config, dace_);
  EXPECT_EQ(model.Name(), "DACE-MSCN");
  const auto plans = ImdbPlans(60, 17);
  model.Train(plans);
  for (const auto& plan : plans) {
    EXPECT_GT(model.PredictMs(plan), 0.0);
  }
}

TEST_F(KnowledgeIntegrationTest, DaceQueryFormerTrainsAndPredicts) {
  QueryFormer::Config config;
  config.num_layers = 2;
  config.train = FastTrain();
  QueryFormer model(config, dace_);
  EXPECT_EQ(model.Name(), "DACE-QueryFormer");
  const auto plans = ImdbPlans(50, 19);
  model.Train(plans);
  for (const auto& plan : plans) {
    EXPECT_GT(model.PredictMs(plan), 0.0);
  }
}

TEST_F(KnowledgeIntegrationTest, IntegrationAddsParameters) {
  Mscn::Config config;
  Mscn plain(config);
  Mscn integrated(config, dace_);
  // The encoder widens the head input by 64 dims.
  EXPECT_GT(integrated.ParameterCount(), plain.ParameterCount());
}

TEST_F(KnowledgeIntegrationTest, ColdStartAdvantage) {
  // With very few training queries, DACE-MSCN should beat plain MSCN
  // (Fig. 9's cold-start claim).
  const auto tiny_train = ImdbPlans(25, 23);
  const auto test = ImdbPlans(120, 29);

  Mscn::Config config;
  config.train.epochs = 12;
  Mscn plain(config);
  plain.Train(tiny_train);
  Mscn integrated(config, dace_);
  integrated.Train(tiny_train);

  const auto plain_summary = eval::Evaluate(plain, test);
  const auto integrated_summary = eval::Evaluate(integrated, test);
  EXPECT_LT(integrated_summary.median, plain_summary.median * 1.2)
      << "knowledge integration should not hurt, and usually helps";
}

}  // namespace
}  // namespace dace::baselines
