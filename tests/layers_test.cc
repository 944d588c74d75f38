#include "nn/layers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <sstream>

#include "nn/matrix.h"
#include "util/rng.h"

namespace dace::nn {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  m.FillGaussian(&rng, 1.0);
  return m;
}

double WeightedSum(const Matrix& out, const Matrix& coeff) {
  double total = 0.0;
  for (size_t i = 0; i < out.size(); ++i) {
    total += out.data()[i] * coeff.data()[i];
  }
  return total;
}

// Central finite difference of `loss` with respect to a parameter entry.
double NumericGrad(Parameter* param, size_t index,
                   const std::function<double()>& loss, double eps = 1e-5) {
  double* entry = param->value.data() + index;
  const double original = *entry;
  *entry = original + eps;
  const double plus = loss();
  *entry = original - eps;
  const double minus = loss();
  *entry = original;
  return (plus - minus) / (2.0 * eps);
}

// Forward through a throwaway cache (the layers keep no activation state).
Matrix Forward(const Linear& layer, const Matrix& x) {
  Linear::ExternalCache cache;
  Matrix y;
  layer.ForwardCached(x, &cache, &y);
  return y;
}

Matrix Forward(const TreeAttention& attn, const Matrix& s, const Matrix& mask) {
  TreeAttention::Cache cache;
  Matrix out;
  attn.ForwardCached(s, mask, &cache, &out);
  return out;
}

// Forward + backward of `dy` through a gradient sink folded into
// Parameter::grad, the way a single-threaded trainer drives a layer.
// Returns d/dx.
Matrix Backward(Linear* layer, const Matrix& x, const Matrix& dy) {
  Linear::ExternalCache cache;
  Matrix y, dx;
  layer->ForwardCached(x, &cache, &y);
  Linear::Gradients g;
  layer->InitGradients(&g);
  layer->BackwardCached(cache, dy, &g, &dx);
  layer->AccumulateGradients(&g);
  return dx;
}

Matrix Backward(TreeAttention* attn, const Matrix& s, const Matrix& mask,
                const Matrix& dy) {
  TreeAttention::Cache cache;
  Matrix out, ds;
  attn->ForwardCached(s, mask, &cache, &out);
  TreeAttention::Gradients g;
  attn->InitGradients(&g);
  attn->BackwardCached(cache, dy, &g, &ds);
  attn->AccumulateGradients(&g);
  return ds;
}

void ExpectBitwiseEqual(const Matrix& a, const Matrix& b) {
  ASSERT_TRUE(a.SameShape(b));
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]) << "entry " << i;
  }
}

// ------------------------------------------------------------- Linear ----

TEST(LinearTest, ForwardComputesAffineMap) {
  Rng rng(1);
  Linear layer;
  layer.Init(3, 2, &rng);
  const Matrix x = RandomMatrix(4, 3, 2);
  const Matrix y = Forward(layer, x);
  ASSERT_EQ(y.rows(), 4u);
  ASSERT_EQ(y.cols(), 2u);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      double expected = layer.bias()(0, j);
      for (size_t k = 0; k < 3; ++k) expected += x(i, k) * layer.weight()(k, j);
      EXPECT_NEAR(y(i, j), expected, 1e-12);
    }
  }
}

TEST(LinearTest, GradientCheckBaseWeights) {
  Rng rng(2);
  Linear layer;
  layer.Init(4, 3, &rng);
  const Matrix x = RandomMatrix(5, 4, 3);
  const Matrix coeff = RandomMatrix(5, 3, 4);

  const auto loss = [&]() { return WeightedSum(Forward(layer, x), coeff); };

  Backward(&layer, x, coeff);

  std::vector<Parameter*> params;
  layer.CollectAllParameters(&params);
  for (Parameter* p : params) {
    for (size_t i = 0; i < std::min<size_t>(p->size(), 8); ++i) {
      EXPECT_NEAR(p->grad.data()[i], NumericGrad(p, i, loss), 1e-6);
    }
  }
}

TEST(LinearTest, GradientCheckInput) {
  Rng rng(5);
  Linear layer;
  layer.Init(3, 2, &rng);
  Matrix x = RandomMatrix(2, 3, 6);
  const Matrix coeff = RandomMatrix(2, 2, 7);

  const Matrix dx = Backward(&layer, x, coeff);

  for (size_t i = 0; i < x.size(); ++i) {
    const double original = x.data()[i];
    const double eps = 1e-5;
    x.data()[i] = original + eps;
    const double plus = WeightedSum(Forward(layer, x), coeff);
    x.data()[i] = original - eps;
    const double minus = WeightedSum(Forward(layer, x), coeff);
    x.data()[i] = original;
    EXPECT_NEAR(dx.data()[i], (plus - minus) / (2 * eps), 1e-6);
  }
}

TEST(LinearTest, LoraStartsAsIdentityPerturbation) {
  Rng rng(8);
  Linear plain, with_lora;
  plain.Init(4, 3, &rng);
  Rng rng2(8);
  with_lora.Init(4, 3, &rng2, /*lora_rank=*/2);
  const Matrix x = RandomMatrix(3, 4, 9);
  const Matrix y1 = Forward(plain, x);
  const Matrix y2 = Forward(with_lora, x);
  // B initialized to zero: the adapter contributes nothing initially.
  for (size_t i = 0; i < y1.size(); ++i) {
    EXPECT_NEAR(y1.data()[i], y2.data()[i], 1e-12);
  }
}

TEST(LinearTest, GradientCheckLoraWeights) {
  Rng rng(10);
  Linear layer;
  layer.Init(4, 3, &rng, /*lora_rank=*/2);
  // Make B nonzero so the LoRA path is exercised.
  std::vector<Parameter*> params;
  layer.CollectAllParameters(&params);
  ASSERT_EQ(params.size(), 4u);  // w, b, lora_a, lora_b
  Rng rng2(11);
  params[3]->value.FillGaussian(&rng2, 0.5);

  layer.SetTrainBase(false);
  layer.SetTrainLora(true);
  const Matrix x = RandomMatrix(4, 4, 12);
  const Matrix coeff = RandomMatrix(4, 3, 13);
  const auto loss = [&]() { return WeightedSum(Forward(layer, x), coeff); };
  Backward(&layer, x, coeff);

  // LoRA A and B get gradients; base stays zero.
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(params[2]->grad.data()[i], NumericGrad(params[2], i, loss),
                1e-6);
    EXPECT_NEAR(params[3]->grad.data()[i], NumericGrad(params[3], i, loss),
                1e-6);
  }
  EXPECT_DOUBLE_EQ(params[0]->grad.SumAbs(), 0.0);
  EXPECT_DOUBLE_EQ(params[1]->grad.SumAbs(), 0.0);
}

// The baselines run every hidden layer through the fused path, so it must
// reproduce ForwardCached + ReluInto to the bit, with and without LoRA.
TEST(LinearTest, FusedReluMatchesUnfusedBitwise) {
  for (const size_t rank : {size_t{0}, size_t{3}}) {
    SCOPED_TRACE(rank);
    Rng rng(40);
    Linear layer;
    layer.Init(37, 29, &rng, rank);
    if (rank > 0) {
      std::vector<Parameter*> params;
      layer.CollectAllParameters(&params);
      Rng rng2(41);
      params[3]->value.FillGaussian(&rng2, 0.5);  // nonzero LoRA B
    }
    const Matrix x = RandomMatrix(11, 37, 42);

    Linear::ExternalCache unfused_cache;
    Matrix z_ref, h_ref;
    layer.ForwardCached(x, &unfused_cache, &z_ref);
    ReluInto(z_ref, &h_ref);

    Linear::ExternalCache fused_cache;
    Matrix z, h;
    layer.ForwardReluCached(x, &fused_cache, &z, &h);
    ExpectBitwiseEqual(z, z_ref);
    ExpectBitwiseEqual(h, h_ref);
    ExpectBitwiseEqual(fused_cache.x, unfused_cache.x);
    ExpectBitwiseEqual(fused_cache.xa, unfused_cache.xa);
  }
}

TEST(LinearTest, TrainModeControlsCollectedParams) {
  Rng rng(14);
  Linear layer;
  layer.Init(2, 2, &rng, /*lora_rank=*/1);
  std::vector<Parameter*> params;
  layer.CollectParameters(&params);
  EXPECT_EQ(params.size(), 2u);  // base only by default
  params.clear();
  layer.SetTrainBase(false);
  layer.SetTrainLora(true);
  layer.CollectParameters(&params);
  EXPECT_EQ(params.size(), 2u);  // lora_a, lora_b
  params.clear();
  layer.SetTrainBase(true);
  layer.CollectParameters(&params);
  EXPECT_EQ(params.size(), 4u);
}

TEST(LinearTest, ParameterCounts) {
  Rng rng(18);
  Linear layer;
  layer.Init(10, 5, &rng);
  EXPECT_EQ(layer.ParameterCount(), 10u * 5 + 5);
  layer.AttachLora(2, &rng);
  EXPECT_EQ(layer.LoraParameterCount(), 10u * 2 + 2 * 5);
  EXPECT_EQ(layer.ParameterCount(), 10u * 5 + 5 + 10 * 2 + 2 * 5);
}

TEST(LinearTest, SerializationRoundTrip) {
  Rng rng(19);
  Linear layer;
  layer.Init(4, 3, &rng, /*lora_rank=*/2);
  const Matrix x = RandomMatrix(2, 4, 20);
  const Matrix y_before = Forward(layer, x);

  dace::ByteWriter w;
  layer.Serialize(&w);
  dace::ByteReader r(w.buffer().data(), w.buffer().size());
  Linear restored;
  ASSERT_TRUE(restored.Deserialize(&r).ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(restored.lora_rank(), 2u);
  const Matrix y_after = Forward(restored, x);
  for (size_t i = 0; i < y_before.size(); ++i) {
    EXPECT_DOUBLE_EQ(y_before.data()[i], y_after.data()[i]);
  }
}

// --------------------------------------------------------------- Relu ----

TEST(ReluTest, ForwardClampsNegatives) {
  Matrix x(1, 4, {-1.0, 0.0, 2.0, -3.0});
  Matrix y;
  ReluInto(x, &y);
  EXPECT_DOUBLE_EQ(y(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(y(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(y(0, 3), 0.0);
}

TEST(ReluTest, BackwardMasksByInputSign) {
  Matrix x(1, 4, {-1.0, 0.5, 2.0, -3.0});
  Matrix dy(1, 4, {1.0, 1.0, 1.0, 1.0});
  Matrix dx;
  ReluBackwardInto(x, dy, &dx);
  EXPECT_DOUBLE_EQ(dx(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(dx(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(dx(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(dx(0, 3), 0.0);
  // In place: the gradient buffer doubles as the output.
  ReluBackwardInto(x, dy, &dy);
  ExpectBitwiseEqual(dy, dx);
}

// ------------------------------------------------------ TreeAttention ----

Matrix ChainMask(size_t n) {
  // Mask of a chain plan: node i may attend to j >= i (its subtree in DFS).
  Matrix mask(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      mask(i, j) = j >= i ? 0.0 : kMaskNegInf;
    }
  }
  return mask;
}

TEST(TreeAttentionTest, OutputShape) {
  Rng rng(21);
  TreeAttention attn;
  attn.Init(6, 8, 5, &rng);
  const Matrix s = RandomMatrix(4, 6, 22);
  const Matrix out = Forward(attn, s, ChainMask(4));
  EXPECT_EQ(out.rows(), 4u);
  EXPECT_EQ(out.cols(), 5u);
}

TEST(TreeAttentionTest, LeafAttendsOnlyToItself) {
  // With a chain mask, the last row can only attend to itself, so its
  // output must equal its own value projection.
  Rng rng(25);
  TreeAttention attn;
  attn.Init(6, 8, 5, &rng);
  const Matrix s = RandomMatrix(4, 6, 26);
  const Matrix out = Forward(attn, s, ChainMask(4));
  // Changing other rows must not change the last row's output.
  Matrix s2 = s;
  for (size_t j = 0; j < 6; ++j) s2(0, j) += 10.0;
  const Matrix out2 = Forward(attn, s2, ChainMask(4));
  for (size_t j = 0; j < 5; ++j) {
    EXPECT_NEAR(out(3, j), out2(3, j), 1e-9);
  }
}

TEST(TreeAttentionTest, MaskBlocksInformationFlow) {
  // Row 0 of a chain mask attends to everything; row 2 must ignore row 1.
  Rng rng(27);
  TreeAttention attn;
  attn.Init(4, 4, 4, &rng);
  Matrix s = RandomMatrix(3, 4, 28);
  const Matrix out1 = Forward(attn, s, ChainMask(3));
  s(1, 0) += 5.0;  // perturb node 1
  const Matrix out2 = Forward(attn, s, ChainMask(3));
  // Node 2 (deeper) unchanged; node 0 (root) changed.
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(out1(2, j), out2(2, j), 1e-9);
  }
  double root_delta = 0.0;
  for (size_t j = 0; j < 4; ++j) {
    root_delta += std::fabs(out1(0, j) - out2(0, j));
  }
  EXPECT_GT(root_delta, 1e-6);
}

TEST(TreeAttentionTest, GradientCheckParameters) {
  Rng rng(29);
  TreeAttention attn;
  attn.Init(5, 6, 4, &rng);
  const Matrix s = RandomMatrix(4, 5, 30);
  const Matrix mask = ChainMask(4);
  const Matrix coeff = RandomMatrix(4, 4, 31);

  const auto loss = [&]() {
    return WeightedSum(Forward(attn, s, mask), coeff);
  };

  Backward(&attn, s, mask, coeff);

  std::vector<Parameter*> params;
  attn.CollectAllParameters(&params);
  ASSERT_EQ(params.size(), 3u);
  for (Parameter* p : params) {
    for (size_t i = 0; i < std::min<size_t>(p->size(), 10); ++i) {
      EXPECT_NEAR(p->grad.data()[i], NumericGrad(p, i, loss), 1e-5);
    }
  }
}

TEST(TreeAttentionTest, GradientCheckInput) {
  Rng rng(32);
  TreeAttention attn;
  attn.Init(4, 5, 3, &rng);
  Matrix s = RandomMatrix(3, 4, 33);
  const Matrix mask = ChainMask(3);
  const Matrix coeff = RandomMatrix(3, 3, 34);

  const Matrix ds = Backward(&attn, s, mask, coeff);

  for (size_t i = 0; i < s.size(); ++i) {
    const double original = s.data()[i];
    const double eps = 1e-5;
    s.data()[i] = original + eps;
    const double plus = WeightedSum(Forward(attn, s, mask), coeff);
    s.data()[i] = original - eps;
    const double minus = WeightedSum(Forward(attn, s, mask), coeff);
    s.data()[i] = original;
    EXPECT_NEAR(ds.data()[i], (plus - minus) / (2 * eps), 1e-5);
  }
}

TEST(TreeAttentionTest, SerializationRoundTrip) {
  Rng rng(35);
  TreeAttention attn;
  attn.Init(5, 6, 4, &rng);
  const Matrix s = RandomMatrix(3, 5, 36);
  const Matrix mask = ChainMask(3);
  const Matrix before = Forward(attn, s, mask);

  dace::ByteWriter w;
  attn.Serialize(&w);
  dace::ByteReader r(w.buffer().data(), w.buffer().size());
  TreeAttention restored;
  ASSERT_TRUE(restored.Deserialize(&r).ok());
  const Matrix after = Forward(restored, s, mask);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_DOUBLE_EQ(before.data()[i], after.data()[i]);
  }
}

// ------------------------------------------------------------- Packed ----

TEST(PackLayoutTest, TracksOffsetsTotalsAndMax) {
  PackLayout layout;
  EXPECT_EQ(0u, layout.num_plans());
  EXPECT_EQ(0u, layout.Add(3));
  EXPECT_EQ(3u, layout.Add(1));
  EXPECT_EQ(4u, layout.Add(7));
  EXPECT_EQ(3u, layout.num_plans());
  EXPECT_EQ(11u, layout.total_rows);
  EXPECT_EQ(7u, layout.max_nodes);
  layout.Clear();
  EXPECT_EQ(0u, layout.num_plans());
  EXPECT_EQ(0u, layout.total_rows);
  EXPECT_EQ(0u, layout.max_nodes);
}

// --------------------------------------------------------------- Adam ----

TEST(AdamTest, MinimizesQuadratic) {
  // Minimize f(w) = ||w - target||^2 with Adam.
  Parameter w;
  w.value = Matrix(1, 3, {5.0, -4.0, 2.0});
  w.ResetGrad();
  const Matrix target(1, 3, {1.0, 2.0, 3.0});

  Adam adam(0.05);
  adam.Register({&w});
  for (int step = 0; step < 500; ++step) {
    for (size_t i = 0; i < 3; ++i) {
      w.grad(0, i) = 2.0 * (w.value(0, i) - target(0, i));
    }
    adam.Step();
  }
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(w.value(0, i), target(0, i), 1e-2);
  }
}

TEST(AdamTest, StepZeroesGradients) {
  Parameter w;
  w.value = Matrix(1, 2, {1.0, 1.0});
  w.ResetGrad();
  w.grad(0, 0) = 3.0;
  Adam adam(0.01);
  adam.Register({&w});
  w.grad(0, 0) = 3.0;
  adam.Step();
  EXPECT_DOUBLE_EQ(w.grad.SumAbs(), 0.0);
}

TEST(AdamTest, LearningRateAccessors) {
  Adam adam(0.123);
  EXPECT_DOUBLE_EQ(adam.lr(), 0.123);
  adam.set_lr(0.5);
  EXPECT_DOUBLE_EQ(adam.lr(), 0.5);
}

// Property sweep: a single Linear layer can fit random linear functions.
class LinearFitTest : public ::testing::TestWithParam<int> {};

TEST_P(LinearFitTest, FitsRandomLinearMap) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed + 100);
  const Matrix true_w = RandomMatrix(3, 2, seed + 200);
  const Matrix x = RandomMatrix(40, 3, seed + 300);
  Matrix y;
  MatMul(x, true_w, &y);

  Linear layer;
  layer.Init(3, 2, &rng);
  std::vector<Parameter*> params;
  layer.CollectParameters(&params);
  Adam adam(0.05);
  adam.Register(params);

  for (int step = 0; step < 400; ++step) {
    Matrix dy = Forward(layer, x);
    dy.AddScaled(y, -1.0);
    dy.Scale(2.0 / static_cast<double>(x.rows()));
    Backward(&layer, x, dy);
    adam.Step();
  }
  Matrix pred = Forward(layer, x);
  pred.AddScaled(y, -1.0);
  EXPECT_LT(pred.MaxAbs(), 0.05) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearFitTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace dace::nn
