#include "core/dace_model.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>
#include <tuple>
#include <utility>

#include "core/checkpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace dace::core {

namespace {

using featurize::PlanFeatures;
using nn::Matrix;

// Training metrics, written at epoch granularity (never inside the batch
// loop). Handles resolve once per process.
obs::Counter* TrainEpochsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default()->GetCounter("train.epochs");
  return c;
}

obs::Counter* TrainMinibatchesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default()->GetCounter("train.minibatches");
  return c;
}

obs::Gauge* TrainEpochLossGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Default()->GetGauge("train.epoch_loss");
  return g;
}

obs::Gauge* TrainGradNormGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Default()->GetGauge("train.grad_norm");
  return g;
}

obs::Histogram* TrainEpochMsHistogram() {
  static obs::Histogram* h = [] {
    const std::vector<double> bounds = obs::ExponentialBuckets(0.1, 2.0, 24);
    return obs::MetricsRegistry::Default()->GetHistogram("train.epoch_ms",
                                                         bounds);
  }();
  return h;
}

// Inference latency, observed per prediction (cache hits included — the
// histogram tracks what a caller of PredictMs/PredictBatchMs experienced).
obs::Histogram* PredictLatencyUsHistogram() {
  static obs::Histogram* h = obs::MetricsRegistry::Default()->GetHistogram(
      "predict.latency_us", obs::LatencyBucketsUs());
  return h;
}

obs::Counter* PredictionsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default()->GetCounter("predict.predictions");
  return c;
}

// Packed-path instrumentation. "Rows" are DFS rows (plan nodes): valid rows
// are the tightly packed activation rows a pack actually computes, padded
// rows the score-tile slack N·max_nodes − Σn[b] that shape dispersion costs.
// Occupancy = valid / (valid + padded), per pack.
obs::Counter* PackPacksCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default()->GetCounter("predict.pack.packs");
  return c;
}

obs::Counter* PackPlansCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default()->GetCounter("predict.pack.plans");
  return c;
}

obs::Counter* PackRowsValidCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default()->GetCounter("predict.pack.rows.valid");
  return c;
}

obs::Counter* PackRowsPaddedCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default()->GetCounter("predict.pack.rows.padded");
  return c;
}

obs::Histogram* PackOccupancyHistogram() {
  static obs::Histogram* h = [] {
    const std::vector<double> bounds = {0.1, 0.2, 0.3, 0.4, 0.5,
                                        0.6, 0.7, 0.8, 0.9, 1.0};
    return obs::MetricsRegistry::Default()->GetHistogram(
        "predict.pack.occupancy", bounds);
  }();
  return h;
}

obs::Counter* ScratchShrinksCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default()->GetCounter("predict.scratch.shrinks");
  return c;
}

// Tiered-serving instrumentation (DESIGN.md §14). The counters reconcile
// exactly: every miss that enters the tiered gate bumps `requests` and then
// exactly one of `student` (gate kept the student's answer) or `escalated`
// (re-priced by the teacher), so student + escalated == requests always.
// Misses served while no student is eligible bump `teacher` instead.
obs::Counter* TierRequestsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default()->GetCounter("predict.tier.requests");
  return c;
}

obs::Counter* TierStudentCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default()->GetCounter("predict.tier.student");
  return c;
}

obs::Counter* TierEscalatedCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default()->GetCounter("predict.tier.escalated");
  return c;
}

obs::Counter* TierTeacherCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default()->GetCounter("predict.tier.teacher");
  return c;
}

obs::Histogram* TierStudentLatencyHistogram() {
  static obs::Histogram* h = obs::MetricsRegistry::Default()->GetHistogram(
      "serve.tier.student.latency_us", obs::LatencyBucketsUs());
  return h;
}

obs::Histogram* TierEscalatedLatencyHistogram() {
  static obs::Histogram* h = obs::MetricsRegistry::Default()->GetHistogram(
      "serve.tier.escalated.latency_us", obs::LatencyBucketsUs());
  return h;
}

obs::Histogram* TierEscalatedFractionHistogram() {
  static obs::Histogram* h = [] {
    const std::vector<double> bounds = {0.0, 0.05, 0.1, 0.2, 0.3, 0.4,
                                        0.5,  0.6,  0.7, 0.8, 0.9, 1.0};
    return obs::MetricsRegistry::Default()->GetHistogram(
        "serve.tier.escalated_fraction", bounds);
  }();
  return h;
}

obs::Gauge* TierGateThresholdGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Default()->GetGauge("serve.tier.gate.threshold");
  return g;
}

obs::Gauge* TierGateQBoundGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Default()->GetGauge("serve.tier.gate.q_bound");
  return g;
}

uint64_t LatencyNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// L2 norm of every accumulated parameter gradient — the per-epoch training
// health signal (measured on the last minibatch of the epoch, just before
// Adam consumes the gradients).
double GradientNorm(const std::vector<nn::Parameter*>& params) {
  double sum_sq = 0.0;
  for (const nn::Parameter* p : params) {
    const double* g = p->grad.data();
    for (size_t i = 0; i < p->grad.size(); ++i) sum_sq += g[i] * g[i];
  }
  return std::sqrt(sum_sq);
}

// Huber loss and derivative (delta = 1) on the scaled-log-time residual:
// quadratic near zero for smooth convergence, linear in the tails so outlier
// plans do not dominate. |residual| in scaled-log space is monotone in the
// q-error, so this optimizes the evaluation metric directly.
double HuberLoss(double r) {
  const double a = std::fabs(r);
  return a <= 1.0 ? 0.5 * r * r : a - 0.5;
}

double HuberGrad(double r) { return std::clamp(r, -1.0, 1.0); }

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Plans per gradient chunk. Chunks — not workers — own the accumulation
// buffers: chunk c always covers the same batch positions and its buffer is
// always reduced c-th, so training arithmetic is a pure function of the data
// and the batch schedule, never of the pool size or thread timing. Small
// enough that a default 64-plan batch yields 16 chunks for load balancing.
constexpr size_t kGradChunkPlans = 4;

// Plans per pack on the packed inference path. Large enough that the fused
// MLP matmuls run at GEMM-friendly row counts (a 64-plan pack of ~15-node
// plans is ~1000 rows), small enough that several packs fan out across the
// pool for one serving-sized batch.
constexpr size_t kPackMaxPlans = 64;

}  // namespace

DaceModel::DaceModel(const DaceConfig& config)
    : config_(config), rng_(config.seed) {
  attention_.Init(static_cast<size_t>(config_.d_model),
                  static_cast<size_t>(config_.d_k),
                  static_cast<size_t>(config_.d_v), &rng_);
  fc1_.Init(static_cast<size_t>(config_.d_v),
            static_cast<size_t>(config_.hidden1), &rng_);
  fc2_.Init(static_cast<size_t>(config_.hidden1),
            static_cast<size_t>(config_.hidden2), &rng_);
  fc3_.Init(static_cast<size_t>(config_.hidden2), 1, &rng_);
}

void DaceModel::SetTrainMode(bool train_base, bool train_lora) {
  attention_.SetTrainBase(train_base);
  fc1_.SetTrainBase(train_base);
  fc2_.SetTrainBase(train_base);
  fc3_.SetTrainBase(train_base);
  fc1_.SetTrainLora(train_lora);
  fc2_.SetTrainLora(train_lora);
  fc3_.SetTrainLora(train_lora);
}

void DaceModel::ForwardHidden(const PlanFeatures& f, Workspace* ws) const {
  attention_.ForwardCached(f.node_features, f.attention_mask, &ws->attn_c,
                           &ws->attn);
  fc1_.ForwardReluCached(ws->attn, &ws->fc1_c, &ws->z1, &ws->h1);
  fc2_.ForwardReluCached(ws->h1, &ws->fc2_c, &ws->z2, &ws->h2);
}

double DaceModel::ForwardBackward(const PlanFeatures& f, Workspace* ws) const {
  const size_t n = f.node_features.rows();
  ForwardHidden(f, ws);
  fc3_.ForwardCached(ws->h2, &ws->fc3_c, &ws->pred);  // (n × 1)

  double weight_sum = 0.0;
  for (double w : f.loss_weights) weight_sum += w;
  if (weight_sum <= 0.0) weight_sum = 1.0;

  double loss = 0.0;
  if (ws->dpred.rows() != n || ws->dpred.cols() != 1) {
    ws->dpred = Matrix(n, 1);
  }
  for (size_t i = 0; i < n; ++i) {
    const double residual = ws->pred(i, 0) - f.labels[i];
    const double w = f.loss_weights[i] / weight_sum;
    loss += w * HuberLoss(residual);
    ws->dpred(i, 0) = w * HuberGrad(residual);
  }

  fc3_.BackwardCached(ws->fc3_c, ws->dpred, &ws->fc3_g, &ws->dh2);
  nn::ReluBackwardInto(ws->z2, ws->dh2, &ws->dh2_pre);
  fc2_.BackwardCached(ws->fc2_c, ws->dh2_pre, &ws->fc2_g, &ws->dh1);
  nn::ReluBackwardInto(ws->z1, ws->dh1, &ws->dh1_pre);
  fc1_.BackwardCached(ws->fc1_c, ws->dh1_pre, &ws->fc1_g, &ws->dattn);
  attention_.BackwardCached(ws->attn_c, ws->dattn, &ws->attn_g, &ws->ds);
  return loss;
}

void DaceModel::InitWorkspaceGradients(Workspace* ws) const {
  attention_.InitGradients(&ws->attn_g);
  fc1_.InitGradients(&ws->fc1_g);
  fc2_.InitGradients(&ws->fc2_g);
  fc3_.InitGradients(&ws->fc3_g);
}

TrainStats DaceModel::RunTraining(const std::vector<PlanFeatures>& data,
                                  bool lora_only) {
  DACE_CHECK(!data.empty());
  SetTrainMode(/*train_base=*/!lora_only, /*train_lora=*/lora_only);

  std::vector<nn::Parameter*> params;
  attention_.CollectParameters(&params);
  fc1_.CollectParameters(&params);
  fc2_.CollectParameters(&params);
  fc3_.CollectParameters(&params);
  DACE_CHECK(!params.empty());
  nn::Adam adam(lora_only ? config_.lora_learning_rate
                          : config_.learning_rate);
  adam.Register(params);

  std::vector<size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);

  ThreadPool* pool = thread_pool();
  const size_t batch_size = static_cast<size_t>(config_.batch_size);
  const size_t max_chunks =
      (std::min(batch_size, data.size()) + kGradChunkPlans - 1) /
      kGradChunkPlans;
  std::vector<Workspace> chunks(max_chunks);
  for (Workspace& ws : chunks) InitWorkspaceGradients(&ws);

  const double start_ms = NowMs();
  const int epochs = lora_only ? config_.finetune_epochs : config_.epochs;
  double epoch_loss = 0.0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    DACE_TRACE_SPAN("train.epoch");
    const double epoch_start_ms = NowMs();
    double grad_norm = 0.0;
    size_t minibatches = 0;
    rng_.Shuffle(&order);
    epoch_loss = 0.0;
    for (size_t base = 0; base < order.size(); base += batch_size) {
      const size_t batch_end = std::min(base + batch_size, order.size());
      const size_t num_chunks =
          (batch_end - base + kGradChunkPlans - 1) / kGradChunkPlans;
      // Chunk workers share the frozen weights (all cached passes are const)
      // and write only their own chunk's workspace.
      pool->ParallelFor(0, num_chunks, [&](size_t c) {
        Workspace& ws = chunks[c];
        const size_t lo = base + c * kGradChunkPlans;
        const size_t hi = std::min(lo + kGradChunkPlans, batch_end);
        for (size_t i = lo; i < hi; ++i) {
          ws.loss += ForwardBackward(data[order[i]], &ws);
        }
      });
      // Deterministic reduction: chunk buffers fold into the shared
      // gradients in chunk order, whatever thread produced them.
      for (size_t c = 0; c < num_chunks; ++c) {
        epoch_loss += chunks[c].loss;
        chunks[c].loss = 0.0;
        attention_.AccumulateGradients(&chunks[c].attn_g);
        fc1_.AccumulateGradients(&chunks[c].fc1_g);
        fc2_.AccumulateGradients(&chunks[c].fc2_g);
        fc3_.AccumulateGradients(&chunks[c].fc3_g);
      }
      ++minibatches;
      if (batch_end == order.size()) grad_norm = GradientNorm(params);
      adam.Step();
    }
    epoch_loss /= static_cast<double>(data.size());

    const double epoch_ms = NowMs() - epoch_start_ms;
    TrainEpochsCounter()->Add(1);
    TrainMinibatchesCounter()->Add(minibatches);
    TrainEpochLossGauge()->Set(epoch_loss);
    TrainGradNormGauge()->Set(grad_norm);
    TrainEpochMsHistogram()->Observe(epoch_ms);
    DACE_LOG(INFO) << (lora_only ? "finetune" : "train") << " epoch "
                   << epoch + 1 << "/" << epochs << " loss=" << epoch_loss
                   << " grad_norm=" << grad_norm << " batches=" << minibatches
                   << " wall_ms=" << epoch_ms;
  }

  TrainStats stats;
  stats.final_loss = epoch_loss;
  stats.epochs = epochs;
  stats.num_plans = data.size();
  stats.wall_ms = NowMs() - start_ms;
  ++weights_version_;  // every cached prediction is now stale
  // The student was distilled from the weights that just changed; serving a
  // stale student would silently answer for a teacher that no longer exists.
  student_.reset();
  return stats;
}

TrainStats DaceModel::Train(const std::vector<PlanFeatures>& data) {
  return RunTraining(data, /*lora_only=*/false);
}

TrainStats DaceModel::FineTuneLora(const std::vector<PlanFeatures>& data) {
  if (!lora_attached_) {
    fc1_.AttachLora(static_cast<size_t>(config_.lora_r1), &rng_);
    fc2_.AttachLora(static_cast<size_t>(config_.lora_r2), &rng_);
    fc3_.AttachLora(static_cast<size_t>(config_.lora_r3), &rng_);
    lora_attached_ = true;
  }
  return RunTraining(data, /*lora_only=*/true);
}

TrainStats DaceModel::FineTuneLora(const std::vector<PlanFeatures>& data,
                                   uint64_t seed) {
  // Reseeding before adapter init / shuffling erases whatever RNG history the
  // model accumulated (every prior Train/FineTune advanced rng_), so two
  // models with identical weights produce bitwise-identical fine-tunes from
  // the same (data, seed) — the reproducibility contract the background
  // adaptation loop records in its lineage tag.
  rng_.Reseed(seed);
  return FineTuneLora(data);
}

StudentTrainStats DaceModel::DistillStudent(
    const std::vector<PlanFeatures>& data, const Matrix& inputs) {
  DACE_CHECK(!data.empty());
  DACE_CHECK_EQ(inputs.rows(), data.size())
      << "one student input row per teacher plan";
  ThreadPool* pool = thread_pool();
  const int workers = pool->num_threads();

  // Teacher targets: the frozen teacher's root prediction per plan. Slot
  // workspaces are reuse-only — targets[i] depends on plan i alone, so the
  // result is pool-size independent.
  std::vector<double> targets(data.size());
  std::vector<Workspace> wss(static_cast<size_t>(workers));
  std::vector<std::vector<double>> preds(static_cast<size_t>(workers));
  pool->ParallelForWorker(0, data.size(), [&](int slot, size_t i) {
    const size_t w = static_cast<size_t>(slot);
    PredictAllInto(data[i], &wss[w], &preds[w]);
    targets[i] = preds[w][0];
  });

  auto student = std::make_unique<StudentModel>(
      config_.student_hidden1, config_.student_hidden2,
      HashMix(config_.seed + 0x5d111ed));
  StudentModel::TrainConfig tc;
  tc.learning_rate = config_.distill_learning_rate;
  tc.epochs = config_.distill_epochs;
  tc.batch_size = config_.distill_batch_size;
  const StudentTrainStats stats = student->Train(inputs, targets, tc, pool);

  // Gate calibration. q_bound is the empirical max |ŷ_i8 − ŷ_f64| over the
  // distillation set — the quantization slack the gate must assume whenever
  // the i8 image answers. τ is the escalation_quantile quantile of
  // (r̂ + q_bound): plans whose predicted residual clears it re-price on the
  // teacher.
  const size_t n = data.size();
  std::vector<double> rhat(n);
  std::vector<StudentModel::I8Scratch> i8s(static_cast<size_t>(workers));
  std::vector<double> qmax(static_cast<size_t>(workers), 0.0);
  pool->ParallelForWorker(0, n, [&](int slot, size_t i) {
    const size_t w = static_cast<size_t>(slot);
    float in[featurize::kStudentFeatureDim];
    const double* src = inputs.RowPtr(i);
    for (int j = 0; j < featurize::kStudentFeatureDim; ++j) {
      in[j] = static_cast<float>(src[j]);
    }
    double y64 = 0.0, r64 = 0.0;
    student->PredictF64(in, &y64, &r64);
    float yi8 = 0.0f, ri8 = 0.0f;
    student->PredictI8(in, &i8s[w], &yi8, &ri8);
    qmax[w] = std::max(qmax[w], std::abs(static_cast<double>(yi8) - y64));
    rhat[i] = r64;
  });
  double q_bound = 0.0;
  for (double q : qmax) q_bound = std::max(q_bound, q);
  std::sort(rhat.begin(), rhat.end());
  const size_t k = std::min(
      n - 1, static_cast<size_t>(config_.escalation_quantile *
                                 static_cast<double>(n)));
  student->set_gate(/*threshold=*/rhat[k] + q_bound, q_bound);

  student_ = std::move(student);
  // The servable function set changed (student answers now mix into the
  // batched path), so predictions cached before distillation must flush.
  ++weights_version_;
  DACE_LOG(INFO) << "distill: rows=" << stats.num_rows
                 << " loss=" << stats.final_loss
                 << " tau=" << student_->gate_threshold()
                 << " q_bound=" << student_->gate_q_bound()
                 << " wall_ms=" << stats.wall_ms;
  return stats;
}

void DaceModel::PredictAllInto(const PlanFeatures& f, Workspace* ws,
                               std::vector<double>* out) const {
  ForwardHidden(f, ws);
  fc3_.ForwardCached(ws->h2, &ws->fc3_c, &ws->pred);
  out->resize(ws->pred.rows());
  for (size_t i = 0; i < ws->pred.rows(); ++i) (*out)[i] = ws->pred(i, 0);
}

std::vector<double> DaceModel::PredictAll(const PlanFeatures& f) const {
  Workspace ws;
  std::vector<double> out;
  PredictAllInto(f, &ws, &out);
  return out;
}

double DaceModel::PredictRoot(const PlanFeatures& f) const {
  return PredictAll(f)[0];
}

void DaceModel::PredictPackedInto(
    std::span<const PlanFeatures* const> feats, PackedWorkspace* ws,
    std::vector<double>* roots) const {
  roots->resize(feats.size());
  if (feats.empty()) return;
  ws->layout.Clear();
  for (const PlanFeatures* f : feats) ws->layout.Add(f->node_features.rows());
  ForwardPackedF32(feats, ws, roots);
}

void DaceModel::EnsureF32Weights() const {
  if (f32_.version == weights_version_) return;
  const auto narrow = [](const Matrix& m, F32Weights::FloatBuffer* out) {
    out->resize(m.size());
    const double* src = m.data();
    for (size_t i = 0; i < m.size(); ++i) {
      (*out)[i] = static_cast<float>(src[i]);
    }
  };
  // Fold W_eff = W + scale·A·B in double (bit-identical to what the f64
  // forward applies factored), then narrow once — the adapter never exists
  // as a separate f32 factor, so the packed f32 MLP is plain dense GEMMs.
  const auto fold = [&narrow](const nn::Linear& fc, F32Weights::FloatBuffer* w,
                              F32Weights::FloatBuffer* b) {
    if (fc.has_lora()) {
      Matrix ab;
      nn::MatMul(fc.lora_a(), fc.lora_b(), &ab);
      Matrix eff = fc.weight();
      eff.AddScaled(ab, fc.lora_scale());
      narrow(eff, w);
    } else {
      narrow(fc.weight(), w);
    }
    narrow(fc.bias(), b);
  };
  narrow(attention_.wq(), &f32_.wq);
  narrow(attention_.wk(), &f32_.wk);
  narrow(attention_.wv(), &f32_.wv);
  fold(fc1_, &f32_.w1, &f32_.b1);
  fold(fc2_, &f32_.w2, &f32_.b2);
  fold(fc3_, &f32_.w3, &f32_.b3);
  f32_.inv_sqrt_dk = static_cast<float>(attention_.inv_sqrt_dk());
  f32_.version = weights_version_;
}

void DaceModel::ForwardPackedF32(std::span<const PlanFeatures* const> feats,
                                 PackedWorkspace* ws,
                                 std::vector<double>* roots) const {
  DACE_CHECK_EQ(f32_.version, weights_version_)
      << "f32 packed inference with stale folded weights: EnsureF32Weights "
         "must run after every weight mutation";
  const nn::kernel::TableF32& t = nn::kernel::ActiveF32();
  const nn::PackLayout& layout = ws->layout;
  const size_t count = feats.size();
  const size_t rows = layout.total_rows;
  const size_t maxn = layout.max_nodes;
  const size_t dm = static_cast<size_t>(config_.d_model);
  const size_t dk = static_cast<size_t>(config_.d_k);
  const size_t dv = static_cast<size_t>(config_.d_v);
  const size_t n1 = static_cast<size_t>(config_.hidden1);
  const size_t n2 = static_cast<size_t>(config_.hidden2);

  // Only the ROOT prediction of each block leaves this function, and the MLP
  // is row-wise, so everything downstream of K/V runs on one row per plan:
  // Q, scores, softmax and context for the root row only, then a
  // (count × ·) MLP instead of a (total_rows × ·) one. K and V are the only
  // full-pack tensors — every packed row is a softmax candidate for its
  // block's root. (The f64 reference PredictAllInto prices every row; this
  // path's contract is the DESIGN §13 error budget, not bit-identity, so it
  // is free to skip rows nobody reads.)

  // Packed feature tile, narrowed from the featurizer's doubles (linear in
  // the input; a rounding error far below the kernel error budget).
  ws->s32.resize(rows * dm);
  for (size_t b = 0; b < count; ++b) {
    const size_t off = layout.offset[b];
    const size_t nb = layout.n[b];
    const double* src = feats[b]->node_features.data();
    float* dst = ws->s32.data() + off * dm;
    for (size_t i = 0; i < nb * dm; ++i) dst[i] = static_cast<float>(src[i]);
  }
  // Root-row additive mask, one row per block, column-padded to maxn.
  ws->mask32.resize(count * maxn);
  for (size_t b = 0; b < count; ++b) {
    const size_t nb = layout.n[b];
    const double* mrow = feats[b]->attention_mask.RowPtr(0);
    float* mdst = ws->mask32.data() + b * maxn;
    for (size_t j = 0; j < nb; ++j) mdst[j] = static_cast<float>(mrow[j]);
  }

  // K/V over the whole pack, Q for the root rows only. Feature rows are
  // sparse (one-hot node type + two scalars), so the zero-skipping panel
  // kernel beats a dense GEMM on all three projections.
  ws->k32.assign(rows * dk, 0.0f);
  ws->v32.assign(rows * dv, 0.0f);
  ws->q32.assign(count * dk, 0.0f);
  t.mm_panel(ws->s32.data(), dm, f32_.wk.data(), dk, ws->k32.data(), dk, rows,
             0, dm, 0, dk);
  t.mm_panel(ws->s32.data(), dm, f32_.wv.data(), dv, ws->v32.data(), dv, rows,
             0, dm, 0, dv);
  for (size_t b = 0; b < count; ++b) {
    t.mm_panel(ws->s32.data() + layout.offset[b] * dm, dm, f32_.wq.data(), dk,
               ws->q32.data() + b * dk, dk, 1, 0, dm, 0, dk);
  }

  // Root-row scores + fused masked softmax, one row per block. kMaskNegInf
  // (-1e30) is exactly representable in float and the additive mask values
  // are 0/-1e30, so the f32 masking semantics match the f64 path exactly.
  const float neg_inf = static_cast<float>(nn::kMaskNegInf);
  ws->scores32.resize(count * maxn);
  ws->probs32.resize(count * maxn);
  for (size_t b = 0; b < count; ++b) {
    const size_t off = layout.offset[b];
    const size_t nb = layout.n[b];
    float* srow = ws->scores32.data() + b * maxn;
    const float* qrow = ws->q32.data() + b * dk;
    for (size_t j = 0; j < nb; ++j) {
      srow[j] = t.dot(dk, qrow, ws->k32.data() + (off + j) * dk);
    }
    t.scale(nb, f32_.inv_sqrt_dk, srow);
    const float* mrow = ws->mask32.data() + b * maxn;
    float* prow = ws->probs32.data() + b * maxn;
    const float max_val = t.masked_max(nb, srow, mrow, neg_inf);
    DACE_CHECK_GT(max_val, neg_inf)
        << "packed softmax root row of block " << b << " fully masked";
    const float denom = t.masked_exp(nb, srow, mrow, max_val, neg_inf, prow);
    t.div(nb, denom, prow);
  }

  // Root context rows: probs_root · V_block. Masked probabilities are
  // exactly 0.0f, so the zero-skip kernel prices only the root's unmasked
  // ancestor set.
  ws->attn32.assign(count * dv, 0.0f);
  for (size_t b = 0; b < count; ++b) {
    t.mm_panel(ws->probs32.data() + b * maxn, maxn,
               ws->v32.data() + layout.offset[b] * dv, dv,
               ws->attn32.data() + b * dv, dv, 1, 0, layout.n[b], 0, dv);
  }

  // Root MLP across the pack: bias-seeded dense GEMM + in-place ReLU
  // epilogue, count rows tall. This is where the register-blocked f32 GEMM
  // earns its keep — every plan in the pack shares the instruction stream.
  ws->z132.resize(count * n1);
  for (size_t i = 0; i < count; ++i) {
    std::memcpy(ws->z132.data() + i * n1, f32_.b1.data(), n1 * sizeof(float));
  }
  t.gemm(ws->attn32.data(), dv, f32_.w1.data(), n1, ws->z132.data(), n1,
         count, dv, n1);
  t.relu(count * n1, ws->z132.data(), ws->z132.data());
  ws->z232.resize(count * n2);
  for (size_t i = 0; i < count; ++i) {
    std::memcpy(ws->z232.data() + i * n2, f32_.b2.data(), n2 * sizeof(float));
  }
  t.gemm(ws->z132.data(), n1, f32_.w2.data(), n2, ws->z232.data(), n2, count,
         n1, n2);
  t.relu(count * n2, ws->z232.data(), ws->z232.data());

  // Head: one dot per plan.
  const float b3 = f32_.b3[0];
  for (size_t b = 0; b < count; ++b) {
    const float* hrow = ws->z232.data() + b * n2;
    (*roots)[b] = static_cast<double>(b3 + t.dot(n2, hrow, f32_.w3.data()));
  }
}

std::vector<double> DaceModel::EncodeRoot(const PlanFeatures& f) const {
  Workspace ws;
  ForwardHidden(f, &ws);
  const double* root = ws.h2.RowPtr(0);
  return std::vector<double>(root, root + ws.h2.cols());
}

size_t DaceModel::ParameterCount() const {
  return attention_.ParameterCount() + fc1_.ParameterCount() +
         fc2_.ParameterCount() + fc3_.ParameterCount();
}

size_t DaceModel::BaseParameterCount() const {
  return ParameterCount() - LoraParameterCount();
}

size_t DaceModel::LoraParameterCount() const {
  return fc1_.LoraParameterCount() + fc2_.LoraParameterCount() +
         fc3_.LoraParameterCount();
}

void DaceModel::Serialize(ByteWriter* w) const {
  attention_.Serialize(w);
  fc1_.Serialize(w);
  fc2_.Serialize(w);
  fc3_.Serialize(w);
}

void DaceModel::AppendSections(CheckpointWriter* w) const {
  w->BeginSection(kSectionAttention);
  attention_.Serialize(w->bytes());
  w->EndSection();
  const std::pair<uint32_t, const nn::Linear*> linears[] = {
      {kSectionFc1, &fc1_}, {kSectionFc2, &fc2_}, {kSectionFc3, &fc3_}};
  for (const auto& [tag, layer] : linears) {
    w->BeginSection(tag);
    layer->Serialize(w->bytes());
    w->EndSection();
  }
  // The student is an optional trailing section: pre-distillation saves emit
  // nothing, so their byte layout (and old readers of it) is unchanged.
  if (student_ != nullptr) {
    w->BeginSection(kSectionStudent);
    student_->Serialize(w->bytes());
    w->EndSection();
  }
  // Lineage is likewise optional and trailing (after the student, when both
  // are present): untagged models write nothing, so their artifacts are
  // byte-identical to pre-lineage builds.
  if (!lineage_.empty()) {
    w->BeginSection(kSectionLineage);
    w->bytes()->WriteBytes(lineage_.data(), lineage_.size());
    w->EndSection();
  }
}

Status DaceModel::LoadSections(CheckpointReader* r) {
  StagedWeights staged;
  const auto load = [r](uint32_t tag, auto* layer,
                        const char* what) -> Status {
    ByteReader payload;
    DACE_RETURN_IF_ERROR(r->EnterSection(tag, &payload));
    DACE_RETURN_IF_ERROR(layer->Deserialize(&payload));
    if (payload.remaining() != 0) {
      return Status::DataLoss(std::string(what) +
                              " section has trailing bytes");
    }
    return Status::OK();
  };
  DACE_RETURN_IF_ERROR(load(kSectionAttention, &staged.attention, "attention"));
  DACE_RETURN_IF_ERROR(load(kSectionFc1, &staged.fc1, "fc1"));
  DACE_RETURN_IF_ERROR(load(kSectionFc2, &staged.fc2, "fc2"));
  DACE_RETURN_IF_ERROR(load(kSectionFc3, &staged.fc3, "fc3"));
  if (!r->AtEnd()) {
    uint32_t tag = 0;
    DACE_RETURN_IF_ERROR(r->PeekSectionTag(&tag));
    if (tag == kSectionStudent) {
      // Optional trailing student section. The staged student is constructed
      // with the config dims and then overwritten by Deserialize;
      // ValidateStaged rejects a checkpoint student of another architecture.
      staged.student = std::make_unique<StudentModel>(
          config_.student_hidden1, config_.student_hidden2, /*seed=*/0);
      DACE_RETURN_IF_ERROR(load(kSectionStudent, staged.student.get(),
                                "student"));
    }
  }
  if (!r->AtEnd()) {
    // Optional trailing lineage section (always after the student when both
    // are present): the payload is the raw provenance string.
    ByteReader payload;
    DACE_RETURN_IF_ERROR(r->EnterSection(kSectionLineage, &payload));
    staged.lineage.resize(payload.remaining());
    DACE_RETURN_IF_ERROR(
        payload.ReadBytes(staged.lineage.data(), staged.lineage.size()));
  }
  DACE_RETURN_IF_ERROR(r->ExpectEnd());
  DACE_RETURN_IF_ERROR(ValidateStaged(staged));
  CommitStaged(std::move(staged));
  return Status::OK();
}

Status DaceModel::ValidateStaged(const StagedWeights& staged) const {
  // Loading weights of another architecture would otherwise surface as a
  // DACE_CHECK abort deep inside the first matmul — or worse, as silently
  // garbage predictions if the shapes happen to line up.
  const auto dim_error = [](const char* what, size_t got, int want) {
    return Status::FailedPrecondition(
        std::string("checkpoint weights incompatible with this config: ") +
        what + " is " + std::to_string(got) + ", expected " +
        std::to_string(want));
  };
  const nn::TreeAttention& a = staged.attention;
  if (a.d_model() != static_cast<size_t>(config_.d_model)) {
    return dim_error("attention d_model", a.d_model(), config_.d_model);
  }
  if (a.d_k() != static_cast<size_t>(config_.d_k)) {
    return dim_error("attention d_k", a.d_k(), config_.d_k);
  }
  if (a.d_v() != static_cast<size_t>(config_.d_v)) {
    return dim_error("attention d_v", a.d_v(), config_.d_v);
  }
  const std::tuple<const nn::Linear*, const char*, int, int> layers[] = {
      {&staged.fc1, "fc1", config_.d_v, config_.hidden1},
      {&staged.fc2, "fc2", config_.hidden1, config_.hidden2},
      {&staged.fc3, "fc3", config_.hidden2, 1}};
  for (const auto& [layer, name, in, out] : layers) {
    if (layer->in_dim() != static_cast<size_t>(in)) {
      return dim_error((std::string(name) + " in_dim").c_str(),
                       layer->in_dim(), in);
    }
    if (layer->out_dim() != static_cast<size_t>(out)) {
      return dim_error((std::string(name) + " out_dim").c_str(),
                       layer->out_dim(), out);
    }
  }
  const bool has_lora = staged.fc1.has_lora();
  if (staged.fc2.has_lora() != has_lora ||
      staged.fc3.has_lora() != has_lora) {
    return Status::DataLoss(
        "LoRA adapters present on some MLP layers but not others");
  }
  if (has_lora) {
    const std::tuple<const nn::Linear*, const char*, int> ranks[] = {
        {&staged.fc1, "fc1", config_.lora_r1},
        {&staged.fc2, "fc2", config_.lora_r2},
        {&staged.fc3, "fc3", config_.lora_r3}};
    for (const auto& [layer, name, want] : ranks) {
      if (layer->lora_rank() != static_cast<size_t>(want)) {
        return dim_error((std::string(name) + " lora_rank").c_str(),
                         layer->lora_rank(), want);
      }
    }
  }
  if (staged.student != nullptr) {
    if (staged.student->hidden1() != config_.student_hidden1) {
      return dim_error("student hidden1",
                       static_cast<size_t>(staged.student->hidden1()),
                       config_.student_hidden1);
    }
    if (staged.student->hidden2() != config_.student_hidden2) {
      return dim_error("student hidden2",
                       static_cast<size_t>(staged.student->hidden2()),
                       config_.student_hidden2);
    }
  }
  return Status::OK();
}

void DaceModel::CommitStaged(StagedWeights&& staged) {
  attention_ = std::move(staged.attention);
  fc1_ = std::move(staged.fc1);
  fc2_ = std::move(staged.fc2);
  fc3_ = std::move(staged.fc3);
  lora_attached_ = fc1_.has_lora();
  // The student follows the teacher wholesale: a checkpoint without a
  // student section drops any live student (it answered for other weights).
  student_ = std::move(staged.student);
  // Lineage follows the same rule: it describes the weights being committed,
  // so a checkpoint without the section clears any stale tag.
  lineage_ = std::move(staged.lineage);
  ++weights_version_;  // loaded weights replace whatever was cached against
}

// --------------------------------------------------------- DaceEstimator --

DaceEstimator::DaceEstimator(const DaceConfig& config)
    : config_(config), model_(config) {}

featurize::FeaturizerConfig DaceEstimator::FeatConfig() const {
  featurize::FeaturizerConfig fc;
  fc.alpha = config_.alpha;
  fc.tree_attention = config_.tree_attention;
  fc.use_actual_cardinality = config_.use_actual_cardinality;
  return fc;
}

void DaceEstimator::set_thread_pool(ThreadPool* pool) {
  pool_ = pool;
  model_.set_thread_pool(pool);
  // Worker scratch is re-sized for the new pool on the next batch call.
  batch_scratch_.clear();
  pack_scratch_.clear();
}

std::vector<featurize::PlanFeatures> DaceEstimator::FeaturizeAll(
    const std::vector<plan::QueryPlan>& plans) const {
  // Featurize the whole corpus once, up front and in parallel; slot i
  // depends only on plan i, so the result is pool-size independent.
  std::vector<featurize::PlanFeatures> data(plans.size());
  const featurize::FeaturizerConfig fc = FeatConfig();
  model_.thread_pool()->ParallelFor(0, plans.size(), [&](size_t i) {
    data[i] = featurizer_.Featurize(plans[i], fc);
  });
  return data;
}

void DaceEstimator::Train(const std::vector<plan::QueryPlan>& plans) {
  DACE_CHECK(!plans.empty());
  featurizer_.Fit(plans);
  last_train_stats_ = model_.Train(FeaturizeAll(plans));
}

TrainStats DaceEstimator::FineTune(const std::vector<plan::QueryPlan>& plans) {
  DACE_CHECK(featurizer_.fitted()) << "FineTune requires a pre-trained model";
  last_train_stats_ = model_.FineTuneLora(FeaturizeAll(plans));
  return last_train_stats_;
}

TrainStats DaceEstimator::FineTune(const std::vector<plan::QueryPlan>& plans,
                                   uint64_t seed) {
  DACE_CHECK(featurizer_.fitted()) << "FineTune requires a pre-trained model";
  last_train_stats_ = model_.FineTuneLora(FeaturizeAll(plans), seed);
  return last_train_stats_;
}

StudentTrainStats DaceEstimator::Distill(
    const std::vector<plan::QueryPlan>& plans) {
  DACE_CHECK(featurizer_.fitted())
      << "Distill requires a trained teacher: call Train() first";
  DACE_CHECK(!plans.empty());
  const std::vector<featurize::PlanFeatures> data = FeaturizeAll(plans);
  const featurize::FeaturizerConfig fc = FeatConfig();
  // Student inputs are the float serving features widened to double: the
  // trainer sees bit-for-bit what StudentFeaturizeInto will produce at serve
  // time (floats widen exactly).
  nn::Matrix inputs(plans.size(),
                    static_cast<size_t>(featurize::kStudentFeatureDim));
  model_.thread_pool()->ParallelFor(0, plans.size(), [&](size_t i) {
    float row[featurize::kStudentFeatureDim];
    featurizer_.StudentFeaturizeInto(plans[i], fc, row);
    double* dst = inputs.RowPtr(i);
    for (int j = 0; j < featurize::kStudentFeatureDim; ++j) {
      dst[j] = static_cast<double>(row[j]);
    }
  });
  const StudentTrainStats stats = model_.DistillStudent(data, inputs);
  TierGateThresholdGauge()->Set(model_.student()->gate_threshold());
  TierGateQBoundGauge()->Set(model_.student()->gate_q_bound());
  return stats;
}

uint64_t DaceEstimator::CacheEpoch() const {
  return (model_.weights_version() << 5) |
         (static_cast<uint64_t>(nn::kernel::ActivePrecision()) << 3) |
         (static_cast<uint64_t>(tier_mode_) << 1) |
         static_cast<uint64_t>(packed_mode_);
}

double DaceEstimator::PredictMs(const plan::QueryPlan& plan) const {
  DACE_CHECK(featurizer_.fitted())
      << "DaceEstimator::PredictMs called before the estimator was trained: "
         "call Train() or LoadFromFile() first";
  DACE_TRACE_SPAN("predict");
  const uint64_t t0_us = LatencyNowUs();
  const featurize::FeaturizerConfig fc = FeatConfig();
  const uint64_t epoch = CacheEpoch();
  // The batch path may store student or packed f32 answers under the same
  // epoch; this teacher-only f64 path touches the cache only where it cannot.
  const bool use_cache =
      nn::kernel::ActivePrecision() == nn::kernel::Precision::kF64 &&
      (tier_mode_ == TierMode::kTeacherOnly || model_.student() == nullptr);
  uint64_t fp = 0;
  double ms = 0.0;
  if (use_cache) {
    fp = featurizer_.Fingerprint(plan, fc);
    if (prediction_cache_->Lookup(epoch, fp, &ms)) {
      PredictionsCounter()->Add(1);
      PredictLatencyUsHistogram()->Observe(
          static_cast<double>(LatencyNowUs() - t0_us));
      return ms;
    }
  }
  featurize::PlanFeatures f;
  {
    DACE_TRACE_SPAN("predict.featurize");
    f = featurizer_.Featurize(plan, fc);
  }
  double scaled = 0.0;
  {
    DACE_TRACE_SPAN("predict.forward");
    scaled = model_.PredictRoot(f);
  }
  {
    DACE_TRACE_SPAN("predict.inverse_transform");
    ms = featurizer_.InverseTransformTime(scaled);
  }
  if (use_cache) prediction_cache_->Insert(epoch, fp, ms);
  PredictionsCounter()->Add(1);
  PredictLatencyUsHistogram()->Observe(
      static_cast<double>(LatencyNowUs() - t0_us));
  return ms;
}

std::vector<double> DaceEstimator::PredictBatchMs(
    std::span<const plan::QueryPlan> plans) const {
  std::vector<const plan::QueryPlan*>& ptrs = call_scratch_.ptrs;
  ptrs.clear();
  ptrs.reserve(plans.size());
  for (const plan::QueryPlan& plan : plans) ptrs.push_back(&plan);
  std::vector<double> out;
  PredictBatchMsInto(ptrs, &out);
  return out;
}

std::vector<double> DaceEstimator::PredictBatchMs(
    std::span<const plan::QueryPlan* const> plans) const {
  std::vector<double> out;
  PredictBatchMsInto(plans, &out);
  return out;
}

void DaceEstimator::ServeStudentTier(
    std::span<const plan::QueryPlan* const> plans, const StudentModel& student,
    uint64_t epoch, const featurize::FeaturizerConfig& fc, bool cache_on,
    std::vector<double>* out) const {
  CallScratch& cs = call_scratch_;
  ThreadPool* pool = model_.thread_pool();
  const size_t m = cs.misses.size();
  TierRequestsCounter()->Add(m);
  cs.served.assign(m, 0);
  const bool keep_all = tier_mode_ == TierMode::kStudentOnly;
  const double tau = student.gate_threshold();
  const double q_bound = student.gate_q_bound();
  const bool i8 =
      nn::kernel::ActivePrecision() == nn::kernel::Precision::kI8;
  pool->ParallelForWorker(0, m, [&](int slot, size_t mi) {
    const size_t i = cs.misses[mi];
    const uint64_t t0_us = LatencyNowUs();
    BatchScratch& s = batch_scratch_[static_cast<size_t>(slot)];
    featurizer_.StudentFeaturizeInto(*plans[i], fc, s.student_input);
    double y = 0.0, r = 0.0;
    if (i8) {
      float yf = 0.0f, rf = 0.0f;
      student.PredictI8(s.student_input, &s.i8, &yf, &rf);
      y = static_cast<double>(yf);
      r = static_cast<double>(rf);
    } else {
      student.PredictF64(s.student_input, &y, &r);
    }
    // Agreement gate: keep the student's answer only when its own predicted
    // residual plus the quantization bound stays inside the calibrated
    // threshold. The decision reads nothing thread- or ISA-dependent (the
    // i8 forward is bit-identical across ISAs), so the escalated set is
    // deterministic.
    if (keep_all || r + q_bound <= tau) {
      const double ms = featurizer_.InverseTransformTime(y);
      (*out)[i] = ms;
      // With the cache off Insert is a no-op behind a mutex — skip the lock
      // entirely on this microsecond-scale path.
      if (cache_on) prediction_cache_->Insert(epoch, cs.fps[i], ms);
      cs.served[mi] = 1;
      PredictionsCounter()->Add(1);
      const double elapsed = static_cast<double>(LatencyNowUs() - t0_us);
      PredictLatencyUsHistogram()->Observe(elapsed);
      TierStudentLatencyHistogram()->Observe(elapsed);
    }
  });
  cs.escalated.clear();
  for (size_t mi = 0; mi < m; ++mi) {
    if (cs.served[mi] == 0) cs.escalated.push_back(cs.misses[mi]);
  }
  TierStudentCounter()->Add(m - cs.escalated.size());
  TierEscalatedCounter()->Add(cs.escalated.size());
  if (m > 0) {
    TierEscalatedFractionHistogram()->Observe(
        static_cast<double>(cs.escalated.size()) / static_cast<double>(m));
  }
}

void DaceEstimator::PredictBatchMsInto(
    std::span<const plan::QueryPlan* const> plans,
    std::vector<double>* out) const {
  out->resize(plans.size());
  if (plans.empty()) return;
  DACE_CHECK(featurizer_.fitted())
      << "DaceEstimator::PredictBatchMs called before the estimator was "
         "trained: call Train() or LoadFromFile() first";
  ThreadPool* pool = model_.thread_pool();
  if (batch_scratch_.size() < static_cast<size_t>(pool->num_threads())) {
    batch_scratch_.resize(static_cast<size_t>(pool->num_threads()));
  }
  DACE_TRACE_SPAN("predict.batch");
  CallScratch& cs = call_scratch_;
  const featurize::FeaturizerConfig fc = FeatConfig();
  const uint64_t epoch = CacheEpoch();
  // out[i] depends only on plan i and the weights, so results are identical
  // for every pool size; worker slots only select which scratch to reuse.
  // The prediction cache preserves that: a hit returns the exact double a
  // cold run would have produced under the same weights.
  //
  // Pass 1 — fingerprint every plan and resolve cache hits. With the cache
  // disabled (capacity 0) every Lookup would miss and every Insert is a
  // no-op, so the fingerprint pass is skipped entirely — that removes the
  // whole hashing walk from cache-less serving tiers and benches.
  const bool cache_on = prediction_cache_->GetStats().capacity > 0;
  cs.fps.assign(plans.size(), 0);
  cs.hit.assign(plans.size(), 0);
  if (cache_on) {
    pool->ParallelForWorker(0, plans.size(), [&](int slot, size_t i) {
      const uint64_t t0_us = LatencyNowUs();
      BatchScratch& s = batch_scratch_[static_cast<size_t>(slot)];
      cs.fps[i] = featurizer_.Fingerprint(*plans[i], fc, &s.fscratch);
      double ms = 0.0;
      if (prediction_cache_->Lookup(epoch, cs.fps[i], &ms)) {
        (*out)[i] = ms;
        cs.hit[i] = 1;
        PredictionsCounter()->Add(1);
        PredictLatencyUsHistogram()->Observe(
            static_cast<double>(LatencyNowUs() - t0_us));
      }
    });
  }
  cs.misses.clear();
  for (size_t i = 0; i < plans.size(); ++i) {
    if (cs.hit[i] == 0) cs.misses.push_back(i);
  }
  if (!cs.misses.empty()) {
    // Tier dispatch: the student answers misses first when eligible; plans
    // its agreement gate rejects escalate to the packed teacher.
    const StudentModel* student =
        tier_mode_ == TierMode::kTeacherOnly ? nullptr : model_.student();
    const std::vector<size_t>* to_teacher = &cs.misses;
    if (student != nullptr) {
      ServeStudentTier(plans, *student, epoch, fc, cache_on, out);
      to_teacher = &cs.escalated;
    } else {
      TierTeacherCounter()->Add(cs.misses.size());
    }
    if (!to_teacher->empty()) {
      const uint64_t tier_t0_us = LatencyNowUs();
      // Packing is a property of single precision: kF64 always prices per
      // plan through the bit-exact reference; kF32/kI8 pack multi-miss
      // batches (kI8 is a student-tier precision — the teacher serves its
      // folded f32 image there).
      const bool use_packed =
          nn::kernel::ActivePrecision() != nn::kernel::Precision::kF64 &&
          packed_mode_ == PackedMode::kAuto && to_teacher->size() >= 2;
      if (use_packed) {
        PredictPackedBatch(plans, *to_teacher, cs.fps, epoch, fc, out);
      } else {
        pool->ParallelForWorker(0, to_teacher->size(), [&](int slot,
                                                           size_t mi) {
          const size_t i = (*to_teacher)[mi];
          const uint64_t t0_us = LatencyNowUs();
          BatchScratch& s = batch_scratch_[static_cast<size_t>(slot)];
          {
            DACE_TRACE_SPAN("predict.featurize");
            featurizer_.FeaturizeInto(*plans[i], fc, &s.feats, &s.fscratch);
          }
          {
            DACE_TRACE_SPAN("predict.forward");
            // s.ws is governed scratch (GovernScratch): keeping its largest
            // shapes makes the warm per-plan forward allocation-free.
            nn::ScopedCapacityReuse reuse;
            model_.PredictAllInto(s.feats, &s.ws, &s.preds);
          }
          {
            DACE_TRACE_SPAN("predict.inverse_transform");
            (*out)[i] = featurizer_.InverseTransformTime(s.preds[0]);
          }
          prediction_cache_->Insert(epoch, cs.fps[i], (*out)[i]);
          const size_t n = plans[i]->size();
          s.used_nodes = std::max(s.used_nodes, n);
          s.alloc_nodes = std::max(s.alloc_nodes, n);
          PredictionsCounter()->Add(1);
          PredictLatencyUsHistogram()->Observe(
              static_cast<double>(LatencyNowUs() - t0_us));
        });
      }
      if (student != nullptr) {
        // Escalated plans experienced the whole teacher phase on top of
        // their student pass.
        const double elapsed =
            static_cast<double>(LatencyNowUs() - tier_t0_us);
        for (size_t j = 0; j < to_teacher->size(); ++j) {
          TierEscalatedLatencyHistogram()->Observe(elapsed);
        }
      }
    }
  }
  GovernScratch();
}

void DaceEstimator::PredictPackedBatch(
    std::span<const plan::QueryPlan* const> plans,
    const std::vector<size_t>& misses, const std::vector<uint64_t>& fps,
    uint64_t epoch, const featurize::FeaturizerConfig& fc,
    std::vector<double>* out) const {
  ThreadPool* pool = model_.thread_pool();
  if (pack_scratch_.size() < static_cast<size_t>(pool->num_threads())) {
    pack_scratch_.resize(static_cast<size_t>(pool->num_threads()));
  }
  // Fold once on the coordinator; the packs only read the image.
  model_.EnsureF32Weights();
  // Sort misses by descending node count so each pack holds similarly sized
  // plans: the score tiles are column-padded to the pack's max_nodes, so
  // mixing one deep plan with many shallow ones is what craters occupancy.
  // Plain sort with an index tie-break — same order a stable_sort would
  // produce, without stable_sort's temporary buffer allocation.
  std::vector<size_t>& order = call_scratch_.order;
  order.assign(misses.begin(), misses.end());
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const size_t na = plans[a]->size();
    const size_t nb = plans[b]->size();
    if (na != nb) return na > nb;
    return a < b;
  });
  const size_t num_packs = (order.size() + kPackMaxPlans - 1) / kPackMaxPlans;
  pool->ParallelForWorker(0, num_packs, [&](int slot, size_t p) {
    DACE_TRACE_SPAN("predict.pack");
    const uint64_t t0_us = LatencyNowUs();
    PackScratch& s = pack_scratch_[static_cast<size_t>(slot)];
    const size_t lo = p * kPackMaxPlans;
    const size_t hi = std::min(lo + kPackMaxPlans, order.size());
    const size_t count = hi - lo;
    if (s.feats.size() < count) s.feats.resize(count);
    s.feat_ptrs.clear();
    {
      DACE_TRACE_SPAN("predict.featurize");
      for (size_t j = 0; j < count; ++j) {
        featurizer_.FeaturizeInto(*plans[order[lo + j]], fc, &s.feats[j],
                                  &s.fscratch);
        s.feat_ptrs.push_back(&s.feats[j]);
      }
    }
    {
      DACE_TRACE_SPAN("predict.forward");
      model_.PredictPackedInto(s.feat_ptrs, &s.ws, &s.roots);
    }
    for (size_t j = 0; j < count; ++j) {
      const size_t idx = order[lo + j];
      const double ms = featurizer_.InverseTransformTime(s.roots[j]);
      (*out)[idx] = ms;
      prediction_cache_->Insert(epoch, fps[idx], ms);
    }
    const nn::PackLayout& layout = s.ws.layout;
    s.used_nodes = std::max(s.used_nodes, layout.max_nodes);
    s.alloc_nodes = std::max(s.alloc_nodes, layout.max_nodes);
    PackPacksCounter()->Add(1);
    PackPlansCounter()->Add(count);
    PackRowsValidCounter()->Add(layout.total_rows);
    const size_t cells = count * layout.max_nodes;
    PackRowsPaddedCounter()->Add(cells - layout.total_rows);
    PackOccupancyHistogram()->Observe(
        cells > 0 ? static_cast<double>(layout.total_rows) /
                        static_cast<double>(cells)
                  : 1.0);
    // Per-plan latency on the packed path is the pack's wall time: that is
    // what each caller of the coalesced batch experienced for its plan.
    const double elapsed = static_cast<double>(LatencyNowUs() - t0_us);
    PredictionsCounter()->Add(count);
    for (size_t j = 0; j < count; ++j) {
      PredictLatencyUsHistogram()->Observe(elapsed);
    }
  });
}

void DaceEstimator::GovernScratch() const {
  for (BatchScratch& s : batch_scratch_) {
    if (s.governor.Observe(s.used_nodes, s.alloc_nodes)) {
      // Drop the whole scratch: the monotone buffers (featurization
      // matrices, workspace activation tiles, cached copies) re-warm to the
      // current workload's sizes on the next miss.
      s.feats = featurize::PlanFeatures();
      s.ws = DaceModel::Workspace();
      s.preds = std::vector<double>();
      s.alloc_nodes = 0;
      ScratchShrinksCounter()->Add(1);
    }
    s.used_nodes = 0;
  }
  for (PackScratch& s : pack_scratch_) {
    if (s.governor.Observe(s.used_nodes, s.alloc_nodes)) {
      s.feats = std::vector<featurize::PlanFeatures>();
      s.feat_ptrs = std::vector<const featurize::PlanFeatures*>();
      s.ws = DaceModel::PackedWorkspace();
      s.roots = std::vector<double>();
      s.alloc_nodes = 0;
      ScratchShrinksCounter()->Add(1);
    }
    s.used_nodes = 0;
  }
}

size_t DaceEstimator::InferenceScratchPeakNodes() const {
  size_t peak = 0;
  for (const BatchScratch& s : batch_scratch_) {
    peak = std::max(peak, s.alloc_nodes);
  }
  for (const PackScratch& s : pack_scratch_) {
    peak = std::max(peak, s.alloc_nodes);
  }
  return peak;
}

std::vector<double> DaceEstimator::PredictSubPlansMs(
    const plan::QueryPlan& plan) const {
  DACE_CHECK(featurizer_.fitted())
      << "DaceEstimator::PredictSubPlansMs called before the estimator was "
         "trained: call Train() or LoadFromFile() first";
  const featurize::PlanFeatures f = featurizer_.Featurize(plan, FeatConfig());
  std::vector<double> scaled = model_.PredictAll(f);
  for (double& v : scaled) v = featurizer_.InverseTransformTime(v);
  return scaled;
}

std::vector<double> DaceEstimator::Encode(const plan::QueryPlan& plan) const {
  DACE_CHECK(featurizer_.fitted())
      << "DaceEstimator::Encode called before the estimator was trained: "
         "call Train() or LoadFromFile() first";
  const featurize::PlanFeatures f = featurizer_.Featurize(plan, FeatConfig());
  return model_.EncodeRoot(f);
}

std::string DaceEstimator::SerializeToString() const {
  CheckpointWriter writer(config_);
  writer.BeginSection(kSectionFeaturizer);
  featurizer_.Serialize(writer.bytes());
  writer.EndSection();
  model_.AppendSections(&writer);
  return std::move(writer).Finalize();
}

Status DaceEstimator::SaveToFile(const std::string& path) const {
  // The whole artifact is built in memory (headers, framed sections, CRC
  // trailer) and hits the filesystem exactly once, via temp-file + rename:
  // a reader of `path` can never observe a torn checkpoint, and a failed
  // write never clobbers the previous one.
  return WriteFileAtomic(path, SerializeToString());
}

Status DaceEstimator::LoadFromFile(const std::string& path) {
  std::string blob;
  DACE_RETURN_IF_ERROR(ReadFileToString(path, &blob));
  return LoadFromString(blob);
}

Status DaceEstimator::LoadFromString(std::string_view blob) {
  featurize::Featurizer staged_featurizer;
  CheckpointReader reader;
  DACE_RETURN_IF_ERROR(reader.Init(blob));  // magic/version/endian/checksum
  DACE_RETURN_IF_ERROR(reader.MatchesConfig(config_));
  ByteReader section;
  DACE_RETURN_IF_ERROR(reader.EnterSection(kSectionFeaturizer, &section));
  DACE_RETURN_IF_ERROR(staged_featurizer.Deserialize(&section));
  if (section.remaining() != 0) {
    return Status::DataLoss("featurizer section has trailing bytes");
  }
  // Commits the model weights only if every remaining section parses,
  // validates against config_ and exhausts the file.
  DACE_RETURN_IF_ERROR(model_.LoadSections(&reader));
  // Past this point nothing can fail: the model already committed (bumping
  // weights_version_, which invalidates the prediction cache), so the
  // featurizer must commit too.
  featurizer_ = std::move(staged_featurizer);
  if (model_.has_student()) {
    TierGateThresholdGauge()->Set(model_.student()->gate_threshold());
    TierGateQBoundGauge()->Set(model_.student()->gate_q_bound());
  }
  return Status::OK();
}

std::unique_ptr<DaceEstimator> DaceEstimator::Clone() const {
  auto clone = std::make_unique<DaceEstimator>(config_);
  // The round-trip goes through the same validated checkpoint image as
  // save/load, so the clone's predictions are bit-identical to the
  // original's by the established serialization contract — while its RNG,
  // scratch, caches and counters are all fresh.
  const Status loaded = clone->LoadFromString(SerializeToString());
  DACE_CHECK(loaded.ok()) << "self-serialized checkpoint failed to load: "
                          << loaded.ToString();
  clone->set_name(name_);
  clone->set_prediction_cache_capacity(prediction_cache_->GetStats().capacity);
  return clone;
}

}  // namespace dace::core
