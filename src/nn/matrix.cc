#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/kernels.h"

namespace dace::nn {

namespace {

thread_local int capacity_reuse_depth = 0;

// Gives *out the shape rows×cols, zero-filled if the shape changed. Inside a
// ScopedCapacityReuse the buffer is kept when it is big enough; otherwise
// it is replaced, so the workspace holds exactly the current shape.
void Reshape(Matrix* out, size_t rows, size_t cols) {
  if (out->rows() == rows && out->cols() == cols) return;
  if (capacity_reuse_depth > 0) {
    out->Resize(rows, cols);
  } else {
    *out = Matrix(rows, cols);
  }
}

}  // namespace

ScopedCapacityReuse::ScopedCapacityReuse() { ++capacity_reuse_depth; }
ScopedCapacityReuse::~ScopedCapacityReuse() { --capacity_reuse_depth; }

void Matrix::SetZero() { std::fill(data_.begin(), data_.end(), 0.0); }

void Matrix::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::FillGaussian(Rng* rng, double stddev) {
  for (double& v : data_) v = rng->Gaussian(0.0, stddev);
}

void Matrix::AddScaled(const Matrix& other, double scale) {
  DACE_CHECK(SameShape(other));
  kernel::Active().axpy(data_.size(), scale, other.data(), data_.data());
}

void Matrix::MulElementwise(const Matrix& other) {
  DACE_CHECK(SameShape(other));
  const double* src = other.data();
  for (size_t i = 0; i < data_.size(); ++i) data_[i] *= src[i];
}

void Matrix::Scale(double factor) {
  kernel::Active().scale(data_.size(), factor, data_.data());
}

double Matrix::SumAbs() const {
  double total = 0.0;
  for (double v : data_) total += std::fabs(v);
  return total;
}

double Matrix::MaxAbs() const {
  double best = 0.0;
  for (double v : data_) best = std::max(best, std::fabs(v));
  return best;
}

namespace {

// L1-residency tiles for the blocked kernels. A kKc×kJc panel of b is
// 16 KB (2048 doubles) — half a typical 32 KB L1d, leaving room for the a/out
// rows streaming through. Tiling only reorders which (i, j) cells are visited
// when; for any fixed output cell the k-accumulation still runs in ascending
// k order, so the blocked kernels are bit-identical to the naive ones (and
// across the scalar/SIMD dispatch paths).
constexpr size_t kKc = 32;   // rows of b per tile (k direction)
constexpr size_t kJc = 64;   // columns of b per tile (j direction)
constexpr size_t kJb = 16;   // b rows per tile in the dot-product kernel

// Accumulating blocked matmul core: out += a * b through the active ISA's
// panel kernel. The table is fetched once per matrix-level call so the
// per-panel cost is a single indirect call.
void MatMulBlockedInto(const Matrix& a, const Matrix& b, Matrix* out) {
  const kernel::Table& t = kernel::Active();
  const size_t k = a.cols(), n = b.cols();
  for (size_t jj = 0; jj < n; jj += kJc) {
    const size_t jend = std::min(jj + kJc, n);
    for (size_t pp = 0; pp < k; pp += kKc) {
      t.mm_panel(a.data(), a.cols(), b.data(), b.cols(), out->data(),
                 out->cols(), a.rows(), pp, std::min(pp + kKc, k), jj, jend);
    }
  }
}

// Shared implementation of MatMulBias / MatMulBiasRelu: seed every output
// row with the bias, run the blocked accumulation, and (optionally) apply
// the ReLU to each j-tile right after its last k-panel, while the tile is
// still in L1.
void MatMulBiasImpl(const Matrix& a, const Matrix& b, const Matrix& bias,
                    Matrix* z, Matrix* h) {
  DACE_CHECK_EQ(a.cols(), b.rows());
  DACE_CHECK_EQ(bias.rows(), 1u);
  DACE_CHECK_EQ(bias.cols(), b.cols());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  Reshape(z, m, n);
  if (h != nullptr) Reshape(h, m, n);
  const double* brow = bias.RowPtr(0);
  for (size_t i = 0; i < m; ++i) {
    std::memcpy(z->RowPtr(i), brow, n * sizeof(double));
  }
  const kernel::Table& t = kernel::Active();
  for (size_t jj = 0; jj < n; jj += kJc) {
    const size_t jend = std::min(jj + kJc, n);
    for (size_t pp = 0; pp < k; pp += kKc) {
      t.mm_panel(a.data(), a.cols(), b.data(), b.cols(), z->data(), z->cols(),
                 m, pp, std::min(pp + kKc, k), jj, jend);
    }
    if (h != nullptr) {
      for (size_t i = 0; i < m; ++i) {
        t.relu(jend - jj, z->RowPtr(i) + jj, h->RowPtr(i) + jj);
      }
    }
  }
}

}  // namespace

void MatMul(const Matrix& a, const Matrix& b, Matrix* out) {
  DACE_CHECK_EQ(a.cols(), b.rows());
  const size_t m = a.rows(), n = b.cols();
  Reshape(out, m, n);
  out->SetZero();
  MatMulBlockedInto(a, b, out);
}

void MatMulAcc(const Matrix& a, const Matrix& b, Matrix* out) {
  DACE_CHECK_EQ(a.cols(), b.rows());
  DACE_CHECK_EQ(out->rows(), a.rows());
  DACE_CHECK_EQ(out->cols(), b.cols());
  MatMulBlockedInto(a, b, out);
}

void MatMulBias(const Matrix& a, const Matrix& b, const Matrix& bias,
                Matrix* out) {
  MatMulBiasImpl(a, b, bias, out, nullptr);
}

void MatMulBiasRelu(const Matrix& a, const Matrix& b, const Matrix& bias,
                    Matrix* z, Matrix* h) {
  DACE_CHECK(z != h);
  MatMulBiasImpl(a, b, bias, z, h);
}

void MatMulTransposedB(const Matrix& a, const Matrix& b, Matrix* out) {
  DACE_CHECK_EQ(a.cols(), b.cols());
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  Reshape(out, m, n);
  const kernel::Table& t = kernel::Active();
  // j-tiled dot products: a kJb-row panel of b (≤16 KB at k = 128) stays in
  // L1 while every row of a streams against it. Attention's (n×n) score and
  // context products hit this kernel with n up to the plan size.
  for (size_t jj = 0; jj < n; jj += kJb) {
    const size_t jend = std::min(jj + kJb, n);
    for (size_t i = 0; i < m; ++i) {
      const double* arow = a.RowPtr(i);
      double* orow = out->RowPtr(i);
      for (size_t j = jj; j < jend; ++j) {
        orow[j] = t.dot(k, arow, b.RowPtr(j));
      }
    }
  }
}

void MatMulTransposedA(const Matrix& a, const Matrix& b, Matrix* out) {
  DACE_CHECK_EQ(a.rows(), b.rows());
  const size_t m = a.cols(), n = b.cols();
  Reshape(out, m, n);
  out->SetZero();
  MatMulTransposedAAcc(a, b, out);
}

void MatMulTransposedAAcc(const Matrix& a, const Matrix& b, Matrix* out) {
  DACE_CHECK_EQ(a.rows(), b.rows());
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  DACE_CHECK_EQ(out->rows(), m);
  DACE_CHECK_EQ(out->cols(), n);
  const kernel::Table& t = kernel::Active();
  for (size_t p = 0; p < k; ++p) {
    const double* arow = a.RowPtr(p);
    const double* brow = b.RowPtr(p);
    for (size_t i = 0; i < m; ++i) {
      const double av = arow[i];
      if (av == 0.0) continue;
      t.axpy(n, av, brow, out->RowPtr(i));
    }
  }
}

void ReluInto(const Matrix& z, Matrix* h) {
  Reshape(h, z.rows(), z.cols());
  kernel::Active().relu(z.size(), z.data(), h->data());
}

void ReluBackwardInto(const Matrix& z, const Matrix& dy, Matrix* dx) {
  DACE_CHECK(dy.SameShape(z));
  Reshape(dx, dy.rows(), dy.cols());
  const double* zp = z.data();
  const double* g = dy.data();
  double* out = dx->data();
  for (size_t i = 0; i < dy.size(); ++i) out[i] = zp[i] > 0.0 ? g[i] : 0.0;
}

void MaskedRowSoftmax(const Matrix& in, const Matrix& mask, Matrix* out) {
  DACE_CHECK(in.SameShape(mask));
  Reshape(out, in.rows(), in.cols());
  const kernel::Table& t = kernel::Active();
  const size_t n = in.cols();
  for (size_t i = 0; i < in.rows(); ++i) {
    const double* irow = in.RowPtr(i);
    const double* mrow = mask.RowPtr(i);
    double* orow = out->RowPtr(i);
    const double max_val = t.masked_max(n, irow, mrow, kMaskNegInf);
    DACE_CHECK_GT(max_val, kMaskNegInf) << "softmax row " << i << " fully masked";
    const double denom = t.masked_exp(n, irow, mrow, max_val, kMaskNegInf, orow);
    t.div(n, denom, orow);
  }
}

void WriteMatrix(const Matrix& m, ByteWriter* w) {
  w->WriteU64(m.rows());
  w->WriteU64(m.cols());
  w->WriteBytes(m.data(), sizeof(double) * m.size());
}

Status ReadMatrix(ByteReader* r, Matrix* m) {
  uint64_t rows = 0, cols = 0;
  DACE_RETURN_IF_ERROR(r->ReadU64(&rows));
  DACE_RETURN_IF_ERROR(r->ReadU64(&cols));
  // Bound the element count jointly, not per dimension (two individually
  // plausible dimensions from a corrupt file can still multiply into ~2^48
  // doubles), and against the reader's own window: a corrupt shape can
  // neither trigger a huge allocation nor read past the framed section it
  // lives in.
  constexpr uint64_t kMaxElements = 1ull << 24;
  if (rows > kMaxElements || cols > kMaxElements ||
      (rows != 0 && cols > kMaxElements / rows)) {
    return Status::DataLoss("implausible matrix shape");
  }
  const uint64_t payload_bytes = rows * cols * sizeof(double);
  if (payload_bytes > r->remaining()) {
    return Status::DataLoss("truncated matrix payload");
  }
  Matrix result(rows, cols);
  DACE_RETURN_IF_ERROR(r->ReadBytes(result.data(), payload_bytes));
  *m = std::move(result);
  return Status::OK();
}

}  // namespace dace::nn
