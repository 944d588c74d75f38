#include "nn/matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "util/rng.h"

namespace dace::nn {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  m.FillGaussian(&rng, 1.0);
  return m;
}

// Reference O(n^3) matmul for cross-checking the optimized loops.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      out(i, j) = acc;
    }
  }
  return out;
}

void ExpectMatrixNear(const Matrix& a, const Matrix& b, double tol = 1e-12) {
  ASSERT_TRUE(a.SameShape(b));
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_NEAR(a(i, j), b(i, j), tol) << "at (" << i << "," << j << ")";
    }
  }
}

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(MatrixTest, FromDataVector) {
  Matrix m(2, 2, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(m(0, 1), 2);
  EXPECT_DOUBLE_EQ(m(1, 0), 3);
}

TEST(MatrixTest, FillAndZero) {
  Matrix m(3, 3);
  m.Fill(2.5);
  EXPECT_DOUBLE_EQ(m(2, 2), 2.5);
  m.SetZero();
  EXPECT_DOUBLE_EQ(m.SumAbs(), 0.0);
}

TEST(MatrixTest, AddScaled) {
  Matrix a(1, 3, {1, 2, 3});
  Matrix b(1, 3, {10, 20, 30});
  a.AddScaled(b, 0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(a(0, 2), 18.0);
}

TEST(MatrixTest, MulElementwiseAndScale) {
  Matrix a(1, 3, {1, 2, 3});
  Matrix b(1, 3, {2, 3, 4});
  a.MulElementwise(b);
  EXPECT_DOUBLE_EQ(a(0, 1), 6.0);
  a.Scale(0.5);
  EXPECT_DOUBLE_EQ(a(0, 2), 6.0);
}

TEST(MatrixTest, MaxAbsAndSumAbs) {
  Matrix m(1, 3, {-4, 2, 3});
  EXPECT_DOUBLE_EQ(m.MaxAbs(), 4.0);
  EXPECT_DOUBLE_EQ(m.SumAbs(), 9.0);
}

TEST(MatMulTest, MatchesNaive) {
  const Matrix a = RandomMatrix(5, 7, 1);
  const Matrix b = RandomMatrix(7, 4, 2);
  Matrix out;
  MatMul(a, b, &out);
  ExpectMatrixNear(out, NaiveMatMul(a, b));
}

TEST(MatMulTest, IdentityIsNoop) {
  const Matrix a = RandomMatrix(4, 4, 3);
  Matrix eye(4, 4);
  for (size_t i = 0; i < 4; ++i) eye(i, i) = 1.0;
  Matrix out;
  MatMul(a, eye, &out);
  ExpectMatrixNear(out, a);
}

TEST(MatMulTest, TransposedBMatchesExplicitTranspose) {
  const Matrix a = RandomMatrix(3, 6, 4);
  const Matrix b = RandomMatrix(5, 6, 5);  // b^T is 6×5
  Matrix bt(6, 5);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 6; ++j) bt(j, i) = b(i, j);
  }
  Matrix expected;
  MatMul(a, bt, &expected);
  Matrix out;
  MatMulTransposedB(a, b, &out);
  ExpectMatrixNear(out, expected);
}

TEST(MatMulTest, TransposedAMatchesExplicitTranspose) {
  const Matrix a = RandomMatrix(6, 3, 6);  // a^T is 3×6
  const Matrix b = RandomMatrix(6, 4, 7);
  Matrix at(3, 6);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 3; ++j) at(j, i) = a(i, j);
  }
  Matrix expected;
  MatMul(at, b, &expected);
  Matrix out;
  MatMulTransposedA(a, b, &out);
  ExpectMatrixNear(out, expected);
}

TEST(MatMulTest, OutputReuseReshapes) {
  Matrix out(1, 1);
  MatMul(RandomMatrix(2, 3, 8), RandomMatrix(3, 5, 9), &out);
  EXPECT_EQ(out.rows(), 2u);
  EXPECT_EQ(out.cols(), 5u);
}

TEST(SoftmaxTest, RowsSumToOne) {
  const Matrix in = RandomMatrix(4, 6, 10);
  Matrix mask(4, 6);  // all allowed
  Matrix out;
  MaskedRowSoftmax(in, mask, &out);
  for (size_t i = 0; i < out.rows(); ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < out.cols(); ++j) {
      EXPECT_GT(out(i, j), 0.0);
      sum += out(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(SoftmaxTest, MaskedEntriesAreZero) {
  const Matrix in = RandomMatrix(3, 3, 11);
  Matrix mask(3, 3);
  mask(0, 1) = kMaskNegInf;
  mask(0, 2) = kMaskNegInf;
  Matrix out;
  MaskedRowSoftmax(in, mask, &out);
  EXPECT_DOUBLE_EQ(out(0, 0), 1.0);  // only unmasked entry in row 0
  EXPECT_DOUBLE_EQ(out(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(out(0, 2), 0.0);
}

TEST(SoftmaxTest, InvariantToRowShift) {
  Matrix in = RandomMatrix(2, 5, 12);
  Matrix mask(2, 5);
  Matrix out1;
  MaskedRowSoftmax(in, mask, &out1);
  for (size_t j = 0; j < 5; ++j) in(0, j) += 100.0;
  Matrix out2;
  MaskedRowSoftmax(in, mask, &out2);
  ExpectMatrixNear(out1, out2, 1e-9);
}

TEST(SoftmaxTest, LargestLogitDominates) {
  Matrix in(1, 3, {0.0, 10.0, 0.0});
  Matrix mask(1, 3);
  Matrix out;
  MaskedRowSoftmax(in, mask, &out);
  EXPECT_GT(out(0, 1), 0.99);
}

// The checkpoint reader over ByteReader: every malformed input fails with
// a typed Status before any allocation or over-read.
TEST(SerializationTest, RoundTrip) {
  const Matrix m = RandomMatrix(7, 3, 13);
  ByteWriter w;
  WriteMatrix(m, &w);
  ByteReader r(w.buffer().data(), w.size());
  Matrix restored;
  ASSERT_TRUE(ReadMatrix(&r, &restored).ok());
  ExpectMatrixNear(restored, m, 0.0);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SerializationTest, TruncatedStreamFails) {
  const Matrix m = RandomMatrix(4, 4, 14);
  ByteWriter w;
  WriteMatrix(m, &w);
  // Cut inside the payload and inside the header: both must fail.
  for (const size_t keep : {w.size() / 2, size_t{12}}) {
    ByteReader r(w.buffer().data(), keep);
    Matrix restored;
    const Status status = ReadMatrix(&r, &restored);
    ASSERT_FALSE(status.ok()) << "keep=" << keep;
    EXPECT_EQ(status.code(), StatusCode::kDataLoss);
    EXPECT_EQ(restored.size(), 0u);
  }
}

TEST(SerializationTest, EmptyStreamFails) {
  ByteReader r;
  Matrix restored;
  EXPECT_FALSE(ReadMatrix(&r, &restored).ok());
}

// Header-only input: the shape words and no payload.
ByteWriter ShapeHeader(uint64_t rows, uint64_t cols) {
  ByteWriter w;
  w.WriteU64(rows);
  w.WriteU64(cols);
  return w;
}

TEST(SerializationTest, RejectsImplausibleJointShape) {
  // Each dimension alone passes the per-dimension bound, but together they
  // describe a ~2^46-element allocation; the joint bound must catch it
  // before any allocation happens.
  const ByteWriter w = ShapeHeader(1ull << 23, 1ull << 23);
  ByteReader r(w.buffer().data(), w.size());
  Matrix restored;
  const Status status = ReadMatrix(&r, &restored);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("implausible"), std::string::npos)
      << status.ToString();
}

TEST(SerializationTest, RejectsOversizedSingleDimension) {
  const ByteWriter w = ShapeHeader(1ull << 25, 1);
  ByteReader r(w.buffer().data(), w.size());
  Matrix restored;
  const Status status = ReadMatrix(&r, &restored);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("implausible"), std::string::npos)
      << status.ToString();
}

// The blocked kernels must stay bit-identical to the naive accumulation
// order at shapes spanning multiple k/j tiles (tiles are 32×64 / 16 rows).
TEST(MatMulTest, BlockedMatchesNaiveBitExact) {
  const Matrix a = RandomMatrix(70, 130, 21);
  const Matrix b = RandomMatrix(130, 150, 22);
  const Matrix expected = NaiveMatMul(a, b);
  Matrix out;
  MatMul(a, b, &out);
  ASSERT_TRUE(out.SameShape(expected));
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out.data()[i], expected.data()[i]) << "element " << i;
  }
}

TEST(MatMulTest, AccumulateVariantsAddOnTop) {
  const Matrix a = RandomMatrix(33, 65, 23);
  const Matrix b = RandomMatrix(65, 40, 24);
  Matrix base;
  MatMul(a, b, &base);

  Matrix acc(33, 40);
  acc.Fill(1.5);
  MatMulAcc(a, b, &acc);
  // The accumulate variant folds the pre-existing value into the running sum,
  // so rounding differs from `base + 1.5` by a few ULPs — compare with a
  // tolerance, not bit-exactly.
  for (size_t i = 0; i < acc.size(); ++i) {
    EXPECT_NEAR(acc.data()[i], base.data()[i] + 1.5, 1e-9);
  }

  const Matrix at = RandomMatrix(65, 33, 25);  // a^T layout: (k × m)
  Matrix ta_base;
  MatMulTransposedA(at, b, &ta_base);
  Matrix ta_acc(33, 40);
  ta_acc.Fill(-2.0);
  MatMulTransposedAAcc(at, b, &ta_acc);
  for (size_t i = 0; i < ta_acc.size(); ++i) {
    EXPECT_NEAR(ta_acc.data()[i], ta_base.data()[i] - 2.0, 1e-9);
  }
}

// Property sweep: MatMul distributes over addition.
class MatMulPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MatMulPropertyTest, DistributesOverAddition) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  const Matrix a = RandomMatrix(4, 5, seed);
  const Matrix b = RandomMatrix(5, 3, seed + 100);
  Matrix c = RandomMatrix(5, 3, seed + 200);
  // a(b + c) == ab + ac.
  Matrix bc = b;
  bc.AddScaled(c, 1.0);
  Matrix left, ab, ac;
  MatMul(a, bc, &left);
  MatMul(a, b, &ab);
  MatMul(a, c, &ac);
  ab.AddScaled(ac, 1.0);
  ExpectMatrixNear(left, ab, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatMulPropertyTest, ::testing::Range(0, 10));

TEST(MatrixTest, RejectsMismatchedPayloadSize) {
  const std::vector<double> three = {1.0, 2.0, 3.0};
  EXPECT_DEATH(Matrix(2, 2, three), "Matrix payload size does not match shape");
  EXPECT_DEATH(Matrix(1, 4, three), "Matrix payload size does not match shape");
  // Exact match is fine.
  Matrix ok(1, 3, three);
  EXPECT_EQ(ok(0, 2), 3.0);
}

TEST(MatrixTest, StorageIs64ByteAligned) {
  // The SIMD kernels rely on Matrix rows starting at the allocation origin of
  // a 64-byte-aligned buffer (they still use unaligned loads, but alignment
  // keeps panel rows within minimal cache lines).
  for (size_t n : {1u, 3u, 7u, 64u, 129u}) {
    Matrix m(n, n);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data()) % 64, 0u) << n;
  }
}

}  // namespace
}  // namespace dace::nn
