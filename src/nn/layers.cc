#include "nn/layers.h"

#include <cmath>
#include <utility>

#include "nn/kernels.h"

namespace dace::nn {

namespace {
// Xavier/Glorot stddev for a (fan_in × fan_out) weight.
double XavierStd(size_t fan_in, size_t fan_out) {
  return std::sqrt(2.0 / static_cast<double>(fan_in + fan_out));
}
}  // namespace

// ---------------------------------------------------------------- Linear --

void Linear::Init(size_t in_dim, size_t out_dim, Rng* rng, size_t lora_rank) {
  w_.value = Matrix(in_dim, out_dim);
  w_.value.FillGaussian(rng, XavierStd(in_dim, out_dim));
  w_.ResetGrad();
  b_.value = Matrix(1, out_dim);
  b_.ResetGrad();
  lora_rank_ = 0;
  if (lora_rank > 0) AttachLora(lora_rank, rng);
}

void Linear::AttachLora(size_t rank, Rng* rng) {
  DACE_CHECK_GT(rank, 0u);
  lora_rank_ = rank;
  lora_scale_ = 1.0;  // alpha == rank, the common default
  lora_a_.value = Matrix(in_dim(), rank);
  lora_a_.value.FillGaussian(rng, XavierStd(in_dim(), rank));
  lora_a_.ResetGrad();
  // B starts at zero so the adapter initially contributes nothing.
  lora_b_.value = Matrix(rank, out_dim());
  lora_b_.ResetGrad();
}

void Linear::ForwardCached(const Matrix& x, ExternalCache* cache,
                           Matrix* y) const {
  DACE_CHECK_EQ(x.cols(), in_dim());
  cache->x = x;
  MatMulBias(x, w_.value, b_.value, y);
  if (lora_rank_ > 0) {
    MatMul(x, lora_a_.value, &cache->xa);
    MatMul(cache->xa, lora_b_.value, &cache->xab);
    y->AddScaled(cache->xab, lora_scale_);
  }
}

void Linear::ForwardReluCached(const Matrix& x, ExternalCache* cache,
                               Matrix* z, Matrix* h) const {
  DACE_CHECK_EQ(x.cols(), in_dim());
  cache->x = x;
  if (lora_rank_ == 0) {
    MatMulBiasRelu(x, w_.value, b_.value, z, h);
    return;
  }
  MatMulBias(x, w_.value, b_.value, z);
  MatMul(x, lora_a_.value, &cache->xa);
  MatMul(cache->xa, lora_b_.value, &cache->xab);
  z->AddScaled(cache->xab, lora_scale_);
  ReluInto(*z, h);
}

void Linear::InitGradients(Gradients* g) const {
  g->dw = Matrix(w_.value.rows(), w_.value.cols());
  g->db = Matrix(b_.value.rows(), b_.value.cols());
  if (lora_rank_ > 0) {
    g->dla = Matrix(lora_a_.value.rows(), lora_a_.value.cols());
    g->dlb = Matrix(lora_b_.value.rows(), lora_b_.value.cols());
  }
}

void Linear::BackwardCached(const ExternalCache& cache, const Matrix& dy,
                            Gradients* g, Matrix* dx) const {
  DACE_CHECK_EQ(dy.rows(), cache.x.rows());
  DACE_CHECK_EQ(dy.cols(), out_dim());
  if (train_base_) {
    MatMulTransposedAAcc(cache.x, dy, &g->dw);
    double* db = g->db.RowPtr(0);
    for (size_t i = 0; i < dy.rows(); ++i) {
      const double* row = dy.RowPtr(i);
      for (size_t j = 0; j < dy.cols(); ++j) db[j] += row[j];
    }
  }
  MatMulTransposedB(dy, w_.value, dx);
  if (lora_rank_ > 0) {
    // s1 = dy B^T is shared by the dla path and the dx path.
    MatMulTransposedB(dy, lora_b_.value, &g->s1);
    if (train_lora_) {
      MatMulTransposedAAcc(cache.xa, dy, &g->dlb);
      MatMulTransposedAAcc(cache.x, g->s1, &g->dla);
    }
    MatMulTransposedB(g->s1, lora_a_.value, &g->s2);
    dx->AddScaled(g->s2, lora_scale_);
  }
}

void Linear::AccumulateGradients(Gradients* g) {
  if (train_base_) {
    w_.grad.AddScaled(g->dw, 1.0);
    b_.grad.AddScaled(g->db, 1.0);
    g->dw.SetZero();
    g->db.SetZero();
  }
  if (train_lora_ && lora_rank_ > 0) {
    lora_a_.grad.AddScaled(g->dla, lora_scale_);
    lora_b_.grad.AddScaled(g->dlb, lora_scale_);
    g->dla.SetZero();
    g->dlb.SetZero();
  }
}

void Linear::CollectParameters(std::vector<Parameter*>* out) {
  if (train_base_) {
    out->push_back(&w_);
    out->push_back(&b_);
  }
  if (train_lora_ && lora_rank_ > 0) {
    out->push_back(&lora_a_);
    out->push_back(&lora_b_);
  }
}

void Linear::CollectAllParameters(std::vector<Parameter*>* out) {
  out->push_back(&w_);
  out->push_back(&b_);
  if (lora_rank_ > 0) {
    out->push_back(&lora_a_);
    out->push_back(&lora_b_);
  }
}

size_t Linear::ParameterCount() const {
  return w_.size() + b_.size() + LoraParameterCount();
}

size_t Linear::LoraParameterCount() const {
  if (lora_rank_ == 0) return 0;
  return lora_a_.size() + lora_b_.size();
}

void Linear::Serialize(ByteWriter* w) const {
  w->WriteU64(lora_rank_);
  WriteMatrix(w_.value, w);
  WriteMatrix(b_.value, w);
  if (lora_rank_ > 0) {
    WriteMatrix(lora_a_.value, w);
    WriteMatrix(lora_b_.value, w);
  }
}

Status Linear::Deserialize(ByteReader* r) {
  // Parse everything into staging first: committing lora_rank_ (or any
  // matrix) before the rest of the layer is known-good would leave a torn
  // layer behind a non-OK Status.
  uint64_t rank = 0;
  DACE_RETURN_IF_ERROR(r->ReadU64(&rank));
  Matrix w, b, la, lb;
  DACE_RETURN_IF_ERROR(ReadMatrix(r, &w));
  DACE_RETURN_IF_ERROR(ReadMatrix(r, &b));
  if (w.rows() == 0 || w.cols() == 0) {
    return Status::DataLoss("Linear weight matrix has an empty dimension");
  }
  if (b.rows() != 1 || b.cols() != w.cols()) {
    return Status::DataLoss("Linear bias shape does not match the weight");
  }
  if (rank > 0) {
    DACE_RETURN_IF_ERROR(ReadMatrix(r, &la));
    DACE_RETURN_IF_ERROR(ReadMatrix(r, &lb));
    if (la.rows() != w.rows() || la.cols() != rank) {
      return Status::DataLoss("LoRA A shape inconsistent with rank/in_dim");
    }
    if (lb.rows() != rank || lb.cols() != w.cols()) {
      return Status::DataLoss("LoRA B shape inconsistent with rank/out_dim");
    }
  }
  w_.value = std::move(w);
  b_.value = std::move(b);
  w_.ResetGrad();
  b_.ResetGrad();
  lora_rank_ = rank;
  lora_scale_ = 1.0;
  if (lora_rank_ > 0) {
    lora_a_.value = std::move(la);
    lora_b_.value = std::move(lb);
    lora_a_.ResetGrad();
    lora_b_.ResetGrad();
  }
  return Status::OK();
}

// --------------------------------------------------------- TreeAttention --

void TreeAttention::Init(size_t d_model, size_t d_k, size_t d_v, Rng* rng) {
  wq_.value = Matrix(d_model, d_k);
  wq_.value.FillGaussian(rng, XavierStd(d_model, d_k));
  wq_.ResetGrad();
  wk_.value = Matrix(d_model, d_k);
  wk_.value.FillGaussian(rng, XavierStd(d_model, d_k));
  wk_.ResetGrad();
  wv_.value = Matrix(d_model, d_v);
  wv_.value.FillGaussian(rng, XavierStd(d_model, d_v));
  wv_.ResetGrad();
  inv_sqrt_dk_ = 1.0 / std::sqrt(static_cast<double>(d_k));
}

void TreeAttention::ForwardCached(const Matrix& s, const Matrix& mask,
                                  Cache* cache, Matrix* out) const {
  DACE_CHECK_EQ(s.cols(), wq_.value.rows());
  DACE_CHECK_EQ(mask.rows(), s.rows());
  DACE_CHECK_EQ(mask.cols(), s.rows());
  cache->s = s;
  MatMul(s, wq_.value, &cache->q);
  MatMul(s, wk_.value, &cache->k);
  MatMul(s, wv_.value, &cache->v);
  MatMulTransposedB(cache->q, cache->k, &cache->scores);
  cache->scores.Scale(inv_sqrt_dk_);
  MaskedRowSoftmax(cache->scores, mask, &cache->probs);
  MatMul(cache->probs, cache->v, out);
}

void TreeAttention::InitGradients(Gradients* g) const {
  g->dwq = Matrix(wq_.value.rows(), wq_.value.cols());
  g->dwk = Matrix(wk_.value.rows(), wk_.value.cols());
  g->dwv = Matrix(wv_.value.rows(), wv_.value.cols());
}

void TreeAttention::BackwardCached(const Cache& cache, const Matrix& dy,
                                   Gradients* g, Matrix* ds) const {
  const size_t n = cache.s.rows();
  DACE_CHECK_EQ(dy.rows(), n);
  DACE_CHECK_EQ(dy.cols(), cache.v.cols());

  // out = P V.
  MatMulTransposedB(dy, cache.v, &g->d_probs);     // (n × n)
  MatMulTransposedA(cache.probs, dy, &g->dv);      // (n × d_v)

  // Softmax backward per row: dscore = P ⊙ (dP − sum_j dP_j P_j).
  if (!g->d_scores.SameShape(cache.probs)) g->d_scores = Matrix(n, n);
  for (size_t i = 0; i < n; ++i) {
    const double* prow = cache.probs.RowPtr(i);
    const double* dprow = g->d_probs.RowPtr(i);
    double dot = 0.0;
    for (size_t j = 0; j < n; ++j) dot += prow[j] * dprow[j];
    double* drow = g->d_scores.RowPtr(i);
    for (size_t j = 0; j < n; ++j) drow[j] = prow[j] * (dprow[j] - dot);
  }
  g->d_scores.Scale(inv_sqrt_dk_);

  // scores = Q K^T (pre-scale): dQ = dS K, dK = dS^T Q.
  MatMul(g->d_scores, cache.k, &g->dq);
  MatMulTransposedA(g->d_scores, cache.q, &g->dk);

  if (train_base_) {
    MatMulTransposedAAcc(cache.s, g->dq, &g->dwq);
    MatMulTransposedAAcc(cache.s, g->dk, &g->dwk);
    MatMulTransposedAAcc(cache.s, g->dv, &g->dwv);
  }

  // dS = dQ Wq^T + dK Wk^T + dV Wv^T.
  MatMulTransposedB(g->dq, wq_.value, ds);
  MatMulTransposedB(g->dk, wk_.value, &g->tmp);
  ds->AddScaled(g->tmp, 1.0);
  MatMulTransposedB(g->dv, wv_.value, &g->tmp);
  ds->AddScaled(g->tmp, 1.0);
}

void TreeAttention::AccumulateGradients(Gradients* g) {
  if (!train_base_) return;
  wq_.grad.AddScaled(g->dwq, 1.0);
  wk_.grad.AddScaled(g->dwk, 1.0);
  wv_.grad.AddScaled(g->dwv, 1.0);
  g->dwq.SetZero();
  g->dwk.SetZero();
  g->dwv.SetZero();
}

void TreeAttention::CollectParameters(std::vector<Parameter*>* out) {
  if (!train_base_) return;
  out->push_back(&wq_);
  out->push_back(&wk_);
  out->push_back(&wv_);
}

void TreeAttention::CollectAllParameters(std::vector<Parameter*>* out) {
  out->push_back(&wq_);
  out->push_back(&wk_);
  out->push_back(&wv_);
}

size_t TreeAttention::ParameterCount() const {
  return wq_.size() + wk_.size() + wv_.size();
}

void TreeAttention::Serialize(ByteWriter* w) const {
  WriteMatrix(wq_.value, w);
  WriteMatrix(wk_.value, w);
  WriteMatrix(wv_.value, w);
}

Status TreeAttention::Deserialize(ByteReader* r) {
  Matrix wq, wk, wv;
  DACE_RETURN_IF_ERROR(ReadMatrix(r, &wq));
  DACE_RETURN_IF_ERROR(ReadMatrix(r, &wk));
  DACE_RETURN_IF_ERROR(ReadMatrix(r, &wv));
  if (wq.rows() == 0 || wq.cols() == 0 || wv.cols() == 0) {
    return Status::DataLoss("TreeAttention weight has an empty dimension");
  }
  if (!wk.SameShape(wq) || wv.rows() != wq.rows()) {
    return Status::DataLoss("TreeAttention Wq/Wk/Wv shapes are inconsistent");
  }
  wq_.value = std::move(wq);
  wk_.value = std::move(wk);
  wv_.value = std::move(wv);
  wq_.ResetGrad();
  wk_.ResetGrad();
  wv_.ResetGrad();
  inv_sqrt_dk_ = 1.0 / std::sqrt(static_cast<double>(wq_.value.cols()));
  return Status::OK();
}

// ------------------------------------------------------------------ Adam --

void Adam::Register(std::vector<Parameter*> params) {
  params_ = std::move(params);
  m_.clear();
  v_.clear();
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
    p->ResetGrad();
  }
  t_ = 0;
}

void Adam::Step() {
  ++t_;
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (size_t idx = 0; idx < params_.size(); ++idx) {
    Parameter* p = params_[idx];
    double* value = p->value.data();
    double* grad = p->grad.data();
    double* m = m_[idx].data();
    double* v = v_[idx].data();
    for (size_t i = 0; i < p->value.size(); ++i) {
      m[i] = beta1_ * m[i] + (1.0 - beta1_) * grad[i];
      v[i] = beta2_ * v[i] + (1.0 - beta2_) * grad[i] * grad[i];
      const double mhat = m[i] / bias1;
      const double vhat = v[i] / bias2;
      value[i] -= lr_ * mhat / (std::sqrt(vhat) + epsilon_);
      grad[i] = 0.0;
    }
  }
}

}  // namespace dace::nn
