#ifndef DACE_NN_MATRIX_H_
#define DACE_NN_MATRIX_H_

#include <cstddef>
#include <new>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"

namespace dace::nn {

// 64-byte-aligned allocator backing Matrix storage: buffers start on a cache
// line (and AVX-512-friendly) boundary. The SIMD kernels use unaligned loads
// and never *require* this — alignment just removes split-line penalties on
// the leading rows.
template <typename T>
class AlignedAllocator {
 public:
  using value_type = T;
  static constexpr std::align_val_t kAlignment{64};

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) {}

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlignment));
  }
  void deallocate(T* p, size_t) { ::operator delete(p, kAlignment); }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const {
    return true;
  }
};

// Dense row-major matrix of doubles. This is the whole math substrate for
// the learned models in this repository: the networks are tiny (DACE has
// ~30k parameters), so the kernels optimize for L1 residency and SIMD width
// rather than many-core GEMM. The matrix-level entry points below dispatch
// to the ISA-specific primitive kernels in nn/kernels.h.
class Matrix {
 public:
  using Buffer = std::vector<double, AlignedAllocator<double>>;

  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}
  // Copies `data` (row-major) into aligned storage. Rejects a payload whose
  // size does not match rows*cols — silently accepting one would smear the
  // shape mismatch into whichever kernel touches the matrix next.
  Matrix(size_t rows, size_t cols, const std::vector<double>& data)
      : rows_(rows), cols_(cols) {
    DACE_CHECK_EQ(data.size(), rows_ * cols_)
        << "Matrix payload size does not match shape";
    data_.assign(data.begin(), data.end());
  }

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) {
    DACE_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    DACE_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  double* RowPtr(size_t r) { return data_.data() + r * cols_; }
  const double* RowPtr(size_t r) const { return data_.data() + r * cols_; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  // Reshapes to rows×cols and zero-fills. The heap buffer is reused whenever
  // rows*cols fits in the current capacity, so warm callers that cycle
  // through per-plan shapes (the batched featurize/inference paths) stop
  // allocating once they have seen their largest plan.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
  }

  void SetZero();
  void Fill(double value);

  // Fills with N(0, stddev^2) entries (e.g. Xavier/He scaling chosen by the
  // caller from fan-in).
  void FillGaussian(Rng* rng, double stddev);

  // this += scale * other. Shapes must match.
  void AddScaled(const Matrix& other, double scale);

  // Elementwise multiply in place.
  void MulElementwise(const Matrix& other);

  void Scale(double factor);

  double SumAbs() const;
  double MaxAbs() const;

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  size_t rows_;
  size_t cols_;
  Buffer data_;
};

// Output policy of the matrix ops below. An op whose output has the wrong
// shape normally replaces its buffer, so a workspace holds exactly its
// current shape. While a ScopedCapacityReuse is alive on the calling thread
// the ops reshape through Matrix::Resize instead and keep any buffer that is
// big enough. Inference scratch that cycles through per-plan shapes opts in
// and stops allocating once warm; training chunks and reference workspaces
// stay out, so they never pin their largest plan's capacity.
class ScopedCapacityReuse {
 public:
  ScopedCapacityReuse();
  ~ScopedCapacityReuse();
  ScopedCapacityReuse(const ScopedCapacityReuse&) = delete;
  ScopedCapacityReuse& operator=(const ScopedCapacityReuse&) = delete;
};

// out = a * b, shapes (m×k)·(k×n) → (m×n). `out` is overwritten. The kernels
// are cache-blocked (k/j tiles sized for L1 residency) but accumulate each
// output cell in ascending-k order, so results are bit-identical across the
// scalar and SIMD dispatch paths (see nn/kernels.h for the FP contract).
void MatMul(const Matrix& a, const Matrix& b, Matrix* out);

// out += a * b. `out` must already have shape (m×n). Used by the gradient
// accumulation paths so per-plan gradients land directly in the sink with no
// temporary.
void MatMulAcc(const Matrix& a, const Matrix& b, Matrix* out);

// out = a * b + bias, where bias is (1×n) and broadcast across rows — the
// Linear-layer forward with the bias folded into the accumulator init
// instead of a separate pass.
void MatMulBias(const Matrix& a, const Matrix& b, const Matrix& bias,
                Matrix* out);

// z = a * b + bias and h = relu(z), with the ReLU applied in the matmul
// epilogue while the just-finished tile is still cache-hot. z and h must be
// distinct matrices.
void MatMulBiasRelu(const Matrix& a, const Matrix& b, const Matrix& bias,
                    Matrix* z, Matrix* h);

// out = a * b^T, shapes (m×k)·(n×k)^T → (m×n). Row-dot-row kernel; the SIMD
// path uses split accumulators, so results may differ from scalar by a few
// ULPs (documented in nn/kernels.h).
void MatMulTransposedB(const Matrix& a, const Matrix& b, Matrix* out);

// out = a^T * b, shapes (k×m)^T·(k×n) → (m×n).
void MatMulTransposedA(const Matrix& a, const Matrix& b, Matrix* out);

// out += a^T * b. `out` must already have shape (m×n).
void MatMulTransposedAAcc(const Matrix& a, const Matrix& b, Matrix* out);

// Elementwise h = max(z, 0) (shapes must match; resizes *h if needed).
void ReluInto(const Matrix& z, Matrix* h);

// ReLU backward from the pre-activation: dx = dy where z > 0, else 0. `dx`
// may alias `dy` (the mask is then applied in place).
void ReluBackwardInto(const Matrix& z, const Matrix& dy, Matrix* dx);

// Row-wise softmax with an additive mask applied before normalisation:
// out(i,j) = softmax_j(in(i,j) + mask(i,j)). Mask entries of -infinity
// (any value <= kMaskNegInf) force a zero probability. Each row must have at
// least one unmasked entry.
inline constexpr double kMaskNegInf = -1e30;
void MaskedRowSoftmax(const Matrix& in, const Matrix& mask, Matrix* out);

// Binary serialization over the checkpoint byte substrate (u64 rows, u64
// cols, row-major doubles). The reader rejects an implausible shape BEFORE
// allocating and can never over-read its window.
void WriteMatrix(const Matrix& m, ByteWriter* w);
Status ReadMatrix(ByteReader* r, Matrix* m);

}  // namespace dace::nn

#endif  // DACE_NN_MATRIX_H_
