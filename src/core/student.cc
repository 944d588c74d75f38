#include "core/student.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>

#include "util/logging.h"

namespace dace::core {

namespace {

// Same robust loss as the teacher's trainer (dace_model.cc), delta = 1.
double HuberLoss(double r) {
  const double a = std::abs(r);
  return a <= 1.0 ? 0.5 * r * r : a - 0.5;
}

double HuberGrad(double r) { return std::clamp(r, -1.0, 1.0); }

// Rows per gradient chunk. Chunks are keyed by batch position and reduced in
// chunk order, so results are independent of the pool size (the PR-1
// reduction scheme, mirrored from DaceModel::RunTraining).
constexpr size_t kChunkRows = 64;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// Per-chunk training state: activations, caches and gradient sinks for one
// worker. Buffers reuse capacity across chunks, so a warm epoch allocates
// nothing inside the parallel region.
struct StudentModel::Workspace {
  nn::Matrix x;  // (rows × in) chunk input
  nn::Linear::ExternalCache c1, c2, c3;
  nn::Matrix z1, h1, z2, h2, out;
  nn::Matrix dout, dh2, dz2, dh1, dz1, dx;
  nn::Linear::Gradients g1, g2, g3;
  double loss = 0.0;
};

StudentModel::StudentModel(int hidden1, int hidden2, uint64_t seed)
    : hidden1_(hidden1), hidden2_(hidden2), rng_(seed) {
  DACE_CHECK(hidden1 > 0 && hidden2 > 0) << "student hidden dims must be > 0";
  fc1_.Init(featurize::kStudentFeatureDim, static_cast<size_t>(hidden1), &rng_);
  fc2_.Init(static_cast<size_t>(hidden1), static_cast<size_t>(hidden2), &rng_);
  fc3_.Init(static_cast<size_t>(hidden2), 2, &rng_);
}

size_t StudentModel::ParameterCount() const {
  return fc1_.ParameterCount() + fc2_.ParameterCount() + fc3_.ParameterCount();
}

StudentTrainStats StudentModel::Train(const nn::Matrix& inputs,
                                      const std::vector<double>& targets,
                                      const TrainConfig& cfg,
                                      ThreadPool* pool) {
  const size_t n = inputs.rows();
  DACE_CHECK_EQ(targets.size(), n) << "one target per input row";
  DACE_CHECK_EQ(inputs.cols(),
                static_cast<size_t>(featurize::kStudentFeatureDim))
      << "student input width mismatch";
  DACE_CHECK(n > 0) << "cannot distill from an empty set";
  const double start_ms = NowMs();

  std::vector<nn::Parameter*> params;
  fc1_.CollectParameters(&params);
  fc2_.CollectParameters(&params);
  fc3_.CollectParameters(&params);
  nn::Adam adam(cfg.learning_rate);
  adam.Register(params);

  const size_t batch_size =
      std::max<size_t>(1, static_cast<size_t>(cfg.batch_size));
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<Workspace> workspaces;

  double epoch_loss = 0.0;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    rng_.Shuffle(&order);
    epoch_loss = 0.0;
    for (size_t begin = 0; begin < n; begin += batch_size) {
      const size_t rows = std::min(batch_size, n - begin);
      const size_t num_chunks = (rows + kChunkRows - 1) / kChunkRows;
      if (workspaces.size() < num_chunks) workspaces.resize(num_chunks);
      // Mean-loss gradient over the minibatch, so the learning rate is
      // independent of batch_size.
      const double inv_rows = 1.0 / static_cast<double>(rows);

      pool->ParallelFor(0, num_chunks, [&](size_t c) {
        Workspace& ws = workspaces[c];
        const size_t r0 = begin + c * kChunkRows;
        const size_t r1 = std::min(r0 + kChunkRows, begin + rows);
        const size_t chunk = r1 - r0;
        ws.x.Resize(chunk, static_cast<size_t>(featurize::kStudentFeatureDim));
        for (size_t i = 0; i < chunk; ++i) {
          std::memcpy(ws.x.RowPtr(i), inputs.RowPtr(order[r0 + i]),
                      sizeof(double) * inputs.cols());
        }
        fc1_.ForwardReluCached(ws.x, &ws.c1, &ws.z1, &ws.h1);
        fc2_.ForwardReluCached(ws.h1, &ws.c2, &ws.z2, &ws.h2);
        fc3_.ForwardCached(ws.h2, &ws.c3, &ws.out);

        ws.dout.Resize(chunk, 2);
        ws.loss = 0.0;
        for (size_t i = 0; i < chunk; ++i) {
          const double e = ws.out(i, 0) - targets[order[r0 + i]];
          // Residual head regresses |e| with the target detached: its
          // gradient never flows into the ŷ head through `e`.
          const double re = ws.out(i, 1) - std::abs(e);
          ws.loss += HuberLoss(e) + cfg.residual_weight * HuberLoss(re);
          ws.dout(i, 0) = HuberGrad(e) * inv_rows;
          ws.dout(i, 1) = cfg.residual_weight * HuberGrad(re) * inv_rows;
        }

        fc1_.InitGradients(&ws.g1);
        fc2_.InitGradients(&ws.g2);
        fc3_.InitGradients(&ws.g3);
        fc3_.BackwardCached(ws.c3, ws.dout, &ws.g3, &ws.dh2);
        nn::ReluBackwardInto(ws.z2, ws.dh2, &ws.dz2);
        fc2_.BackwardCached(ws.c2, ws.dz2, &ws.g2, &ws.dh1);
        nn::ReluBackwardInto(ws.z1, ws.dh1, &ws.dz1);
        fc1_.BackwardCached(ws.c1, ws.dz1, &ws.g1, &ws.dx);
      });

      // Fixed chunk-order reduction: bit-identical for any pool size.
      for (size_t c = 0; c < num_chunks; ++c) {
        Workspace& ws = workspaces[c];
        fc1_.AccumulateGradients(&ws.g1);
        fc2_.AccumulateGradients(&ws.g2);
        fc3_.AccumulateGradients(&ws.g3);
        epoch_loss += ws.loss;
      }
      adam.Step();
    }
  }

  FinalizeI8();

  StudentTrainStats stats;
  stats.final_loss = epoch_loss / static_cast<double>(n);
  stats.epochs = cfg.epochs;
  stats.num_rows = n;
  stats.wall_ms = NowMs() - start_ms;
  return stats;
}

void StudentModel::PredictF64(const float* input, double* y, double* r) const {
  constexpr int kIn = featurize::kStudentFeatureDim;
  const int h1 = hidden1_;
  const int h2 = hidden2_;
  // Plain scalar loops over the f64 weights: no SIMD dispatch, no blocking —
  // the reference result is the same on every ISA and build.
  double a1[256];  // hidden dims are small; guarded in the constructor
  DACE_CHECK(h1 <= 256 && h2 <= 256) << "student hidden dim exceeds scratch";
  double a2[256];
  const nn::Matrix& w1 = fc1_.weight();
  const nn::Matrix& b1 = fc1_.bias();
  for (int o = 0; o < h1; ++o) {
    double acc = b1(0, static_cast<size_t>(o));
    for (int i = 0; i < kIn; ++i) {
      acc += static_cast<double>(input[i]) *
             w1(static_cast<size_t>(i), static_cast<size_t>(o));
    }
    a1[o] = acc > 0.0 ? acc : 0.0;
  }
  const nn::Matrix& w2 = fc2_.weight();
  const nn::Matrix& b2 = fc2_.bias();
  for (int o = 0; o < h2; ++o) {
    double acc = b2(0, static_cast<size_t>(o));
    for (int i = 0; i < h1; ++i) {
      acc += a1[i] * w2(static_cast<size_t>(i), static_cast<size_t>(o));
    }
    a2[o] = acc > 0.0 ? acc : 0.0;
  }
  const nn::Matrix& w3 = fc3_.weight();
  const nn::Matrix& b3 = fc3_.bias();
  double out[2];
  for (int o = 0; o < 2; ++o) {
    double acc = b3(0, static_cast<size_t>(o));
    for (int i = 0; i < h2; ++i) {
      acc += a2[i] * w3(static_cast<size_t>(i), static_cast<size_t>(o));
    }
    out[o] = acc;
  }
  *y = out[0];
  *r = out[1];
}

void StudentModel::PredictI8(const float* input, I8Scratch* scratch, float* y,
                             float* r) const {
  DACE_CHECK(i8_ready()) << "FinalizeI8 has not run";
  const nn::kernel::TableI8& t = nn::kernel::ActiveI8();
  const I8Layer& l1 = i8_[0];
  const I8Layer& l2 = i8_[1];
  const I8Layer& l3 = i8_[2];
  scratch->xq.resize(std::max({l1.lda, l2.lda, l3.lda}));
  scratch->h1.resize(l1.out);
  scratch->h2.resize(l2.out);

  // Activations quantize over the real layer width, then the pad up to lda
  // is zeroed so the gemv can run full-width over the padded rows: the extra
  // products are exact zeros, so sx and every output bit match an unpadded
  // forward while the kernel never enters its tail loops.
  float sx = t.quantize(l1.in, input, scratch->xq.data());
  if (l1.lda > l1.in) std::memset(scratch->xq.data() + l1.in, 0, l1.lda - l1.in);
  t.gemv(l1.wq.data(), l1.lda, l1.sw.data(), l1.bias.data(), scratch->xq.data(),
         sx, l1.lda, l1.out, scratch->h1.data());
  t.relu(l1.out, scratch->h1.data());

  sx = t.quantize(l2.in, scratch->h1.data(), scratch->xq.data());
  if (l2.lda > l2.in) std::memset(scratch->xq.data() + l2.in, 0, l2.lda - l2.in);
  t.gemv(l2.wq.data(), l2.lda, l2.sw.data(), l2.bias.data(), scratch->xq.data(),
         sx, l2.lda, l2.out, scratch->h2.data());
  t.relu(l2.out, scratch->h2.data());

  sx = t.quantize(l3.in, scratch->h2.data(), scratch->xq.data());
  if (l3.lda > l3.in) std::memset(scratch->xq.data() + l3.in, 0, l3.lda - l3.in);
  t.gemv(l3.wq.data(), l3.lda, l3.sw.data(), l3.bias.data(), scratch->xq.data(),
         sx, l3.lda, l3.out, scratch->out);
  *y = scratch->out[0];
  *r = scratch->out[1];
}

void StudentModel::QuantizeLayer(const nn::Linear& fc, I8Layer* out) const {
  const nn::Matrix& w = fc.weight();  // (in × out)
  const nn::Matrix& b = fc.bias();    // (1 × out)
  const size_t in = w.rows();
  const size_t n_out = w.cols();
  out->in = in;
  out->out = n_out;
  // Pad each transposed row to a multiple of the gemv's 32-byte main step;
  // the pad stays zero so it contributes nothing to the exact integer sums.
  out->lda = (in + 31) & ~size_t{31};
  out->wq.assign(n_out * out->lda, 0);
  out->sw.assign(n_out, 0.0f);
  out->bias.resize(n_out);
  for (size_t o = 0; o < n_out; ++o) {
    out->bias[o] = static_cast<float>(b(0, o));
    double maxabs = 0.0;
    for (size_t i = 0; i < in; ++i) {
      maxabs = std::max(maxabs, std::abs(w(i, o)));
    }
    if (maxabs == 0.0) continue;  // all-zero row: scale 0, weights 0
    // Symmetric per-output-row scale; quantized rows are stored transposed
    // (out × in) so the gemv walks each row contiguously.
    const float scale = static_cast<float>(maxabs) / 127.0f;
    const double inv = 127.0 / maxabs;
    out->sw[o] = scale;
    for (size_t i = 0; i < in; ++i) {
      const int q = static_cast<int>(std::nearbyint(w(i, o) * inv));
      out->wq[o * out->lda + i] = static_cast<int8_t>(std::clamp(q, -127, 127));
    }
  }
}

void StudentModel::FinalizeI8() {
  QuantizeLayer(fc1_, &i8_[0]);
  QuantizeLayer(fc2_, &i8_[1]);
  QuantizeLayer(fc3_, &i8_[2]);
}

void StudentModel::Serialize(ByteWriter* w) const {
  w->WriteU32(static_cast<uint32_t>(featurize::kStudentFeatureDim));
  w->WriteU32(static_cast<uint32_t>(hidden1_));
  w->WriteU32(static_cast<uint32_t>(hidden2_));
  w->WriteDouble(tau_);
  w->WriteDouble(q_bound_);
  fc1_.Serialize(w);
  fc2_.Serialize(w);
  fc3_.Serialize(w);
}

Status StudentModel::Deserialize(ByteReader* r) {
  uint32_t in_dim = 0, h1 = 0, h2 = 0;
  double tau = 0.0, q_bound = 0.0;
  DACE_RETURN_IF_ERROR(r->ReadU32(&in_dim));
  DACE_RETURN_IF_ERROR(r->ReadU32(&h1));
  DACE_RETURN_IF_ERROR(r->ReadU32(&h2));
  DACE_RETURN_IF_ERROR(r->ReadDouble(&tau));
  DACE_RETURN_IF_ERROR(r->ReadDouble(&q_bound));
  if (in_dim != static_cast<uint32_t>(featurize::kStudentFeatureDim)) {
    return Status::DataLoss("student input dim mismatch: checkpoint has " +
                            std::to_string(in_dim));
  }
  if (h1 == 0 || h2 == 0 || h1 > 256 || h2 > 256) {
    return Status::DataLoss("student hidden dims out of range");
  }
  if (!std::isfinite(tau) || !std::isfinite(q_bound) || q_bound < 0.0) {
    return Status::DataLoss("student gate parameters are not usable");
  }
  nn::Linear fc1, fc2, fc3;
  DACE_RETURN_IF_ERROR(fc1.Deserialize(r));
  DACE_RETURN_IF_ERROR(fc2.Deserialize(r));
  DACE_RETURN_IF_ERROR(fc3.Deserialize(r));
  const auto dim_error = [](const char* what) {
    return Status::DataLoss(std::string("student layer shape mismatch: ") +
                            what);
  };
  if (fc1.in_dim() != static_cast<size_t>(featurize::kStudentFeatureDim) ||
      fc1.out_dim() != h1) {
    return dim_error("fc1");
  }
  if (fc2.in_dim() != h1 || fc2.out_dim() != h2) return dim_error("fc2");
  if (fc3.in_dim() != h2 || fc3.out_dim() != 2) return dim_error("fc3");
  if (fc1.has_lora() || fc2.has_lora() || fc3.has_lora()) {
    return Status::DataLoss("student layers never carry LoRA adapters");
  }
  // Commit.
  hidden1_ = static_cast<int>(h1);
  hidden2_ = static_cast<int>(h2);
  tau_ = tau;
  q_bound_ = q_bound;
  fc1_ = std::move(fc1);
  fc2_ = std::move(fc2);
  fc3_ = std::move(fc3);
  FinalizeI8();
  return Status::OK();
}

}  // namespace dace::core
