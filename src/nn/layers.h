#ifndef DACE_NN_LAYERS_H_
#define DACE_NN_LAYERS_H_

#include <string>
#include <vector>

#include "nn/matrix.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"

namespace dace::nn {

// A trainable tensor: value plus accumulated gradient. Layers own their
// parameters; optimizers hold raw pointers collected via CollectParameters.
struct Parameter {
  Matrix value;
  Matrix grad;

  void ResetGrad() {
    if (!grad.SameShape(value)) grad = Matrix(value.rows(), value.cols());
    grad.SetZero();
  }
  size_t size() const { return value.size(); }
};

// Row layout of a pack: N featurized plans laid out back-to-back in one
// tile set, plan b occupying rows [offset[b], offset[b] + n[b]) of every
// packed activation matrix. Rows are packed TIGHTLY (total_rows = Σ n[b], no
// padding rows — dense GEMMs cannot skip padding, so row padding would burn
// the throughput the pack exists to win); only the per-plan score/probs
// tiles are column-padded to a shared max_nodes stride so every block's
// softmax rows start at a fixed pitch. See DESIGN.md §13.
struct PackLayout {
  std::vector<size_t> n;       // valid rows (plan nodes) per block
  std::vector<size_t> offset;  // first packed row of each block
  size_t total_rows = 0;       // Σ n[b]
  size_t max_nodes = 0;        // max n[b]; column stride of score tiles

  void Clear() {
    n.clear();
    offset.clear();
    total_rows = 0;
    max_nodes = 0;
  }
  // Appends a block of `nodes` rows and returns its row offset.
  size_t Add(size_t nodes) {
    const size_t off = total_rows;
    n.push_back(nodes);
    offset.push_back(off);
    total_rows += nodes;
    if (nodes > max_nodes) max_nodes = nodes;
    return off;
  }
  size_t num_plans() const { return n.size(); }
};

// Fully connected layer y = x W + b with an optional LoRA adapter
// y += (x A) B * (lora_alpha / rank). Training can address either the base
// weights (pre-training) or only the adapter (fine-tuning), reproducing the
// paper's Eq. (8): base W frozen, low-rank dW = B·A updated.
class Linear {
 public:
  // Creates an uninitialized layer; call Init or Deserialize before use.
  Linear() = default;

  // Xavier-initialized weights, zero bias. lora_rank == 0 disables LoRA.
  void Init(size_t in_dim, size_t out_dim, Rng* rng, size_t lora_rank = 0);

  // Enables a LoRA adapter after the fact (A gaussian, B zero so the adapter
  // starts as the identity perturbation).
  void AttachLora(size_t rank, Rng* rng);

  // The layer holds only its parameters: every activation a backward pass
  // needs lives in the caller's ExternalCache, one per application site
  // (models that apply the same layer at many tree positions within one
  // forward pass keep one cache per position). Forward is const on the
  // layer, so any number of workers can share one set of weights. All
  // matrices inside the cache are reused across calls — after the first
  // call with a given shape the path allocates nothing.
  struct ExternalCache {
    Matrix x;
    Matrix xa;   // x · A when LoRA is attached (needed for backward)
    Matrix xab;  // (x · A) · B scratch
  };
  // y = x W + b (+ LoRA). x: (n × in_dim) → y: (n × out_dim).
  void ForwardCached(const Matrix& x, ExternalCache* cache, Matrix* y) const;
  // Fused forward + ReLU: z = x W + b (+ LoRA), h = relu(z). Without LoRA the
  // ReLU runs in the matmul epilogue while each output tile is cache-hot;
  // with LoRA it runs after the adapter contribution lands in z. Both z and h
  // are needed by callers (z for the ReLU-mask backward, h as the next
  // layer's input), which is why this lives here rather than a fused layer.
  void ForwardReluCached(const Matrix& x, ExternalCache* cache, Matrix* z,
                         Matrix* h) const;

  // Caller-owned gradient sink, one per concurrent worker: BackwardCached
  // accumulates here instead of the layer's Parameter::grad, and
  // AccumulateGradients folds the sink into Parameter::grad (then zeroes the
  // sink) on the coordinating thread. Reducing sinks in a fixed order makes
  // data-parallel training bit-deterministic for any pool size. A
  // single-threaded trainer folds its sink right after each BackwardCached.
  // LoRA sink entries are pre-scale; AccumulateGradients applies lora_scale.
  struct Gradients {
    Matrix dw, db;    // base
    Matrix dla, dlb;  // LoRA (present iff attached)
    Matrix s1, s2;    // backward scratch (dy·Bᵀ and its products)
  };
  // Shapes and zeroes `g` to match this layer's parameters.
  void InitGradients(Gradients* g) const;
  // Const backward: reads activations from `cache`, accumulates parameter
  // gradients into `g` (respecting train_base/train_lora), writes d/dx.
  void BackwardCached(const ExternalCache& cache, const Matrix& dy,
                      Gradients* g, Matrix* dx) const;
  // grad += g (LoRA entries scaled by lora_scale), then zeroes g. Callers
  // must serialize calls; invoke per sink in a fixed order for determinism.
  void AccumulateGradients(Gradients* g);

  // Selects which parameter groups receive gradients and are exposed to
  // optimizers via CollectParameters.
  void SetTrainBase(bool train) { train_base_ = train; }
  void SetTrainLora(bool train) { train_lora_ = train; }

  void CollectParameters(std::vector<Parameter*>* out);

  // All parameters regardless of trainability (for size accounting / IO).
  void CollectAllParameters(std::vector<Parameter*>* out);

  size_t in_dim() const { return w_.value.rows(); }
  size_t out_dim() const { return w_.value.cols(); }
  bool has_lora() const { return lora_rank_ > 0; }
  size_t lora_rank() const { return lora_rank_; }

  // Read-only weight access for precision-converted inference tables (the
  // f32 path folds W + scale·A·B into a flat float image once per weights
  // version; see core/dace_model.cc).
  const Matrix& weight() const { return w_.value; }
  const Matrix& bias() const { return b_.value; }
  const Matrix& lora_a() const { return lora_a_.value; }
  const Matrix& lora_b() const { return lora_b_.value; }
  double lora_scale() const { return lora_scale_; }

  size_t ParameterCount() const;
  size_t LoraParameterCount() const;

  // Wire layout: u64 lora_rank, W, b, then (iff rank > 0) lora A and B.
  void Serialize(ByteWriter* w) const;
  // Transactional: parses into staging matrices, validates every shape
  // against the others (b is (1 × out), A is (in × rank), B is (rank × out))
  // and only then commits — a failure part-way leaves the layer exactly as
  // it was, including its LoRA state.
  Status Deserialize(ByteReader* r);

 private:
  Parameter w_;     // (in × out)
  Parameter b_;     // (1 × out)
  Parameter lora_a_;  // (in × r)
  Parameter lora_b_;  // (r × out)
  size_t lora_rank_ = 0;
  double lora_scale_ = 1.0;
  bool train_base_ = true;
  bool train_lora_ = false;
};

// Single-head scaled-dot-product attention with an additive mask — the
// tree-structured attention of DACE Eq. (5). The mask encodes the partial
// order of the plan: entry (i, j) is 0 if node j is in the sub-plan rooted at
// node i (including i itself) and -inf otherwise, so each node's hidden state
// aggregates exactly its own sub-plan, mirroring execution order.
class TreeAttention {
 public:
  void Init(size_t d_model, size_t d_k, size_t d_v, Rng* rng);

  // Same idiom as Linear: the layer holds only Wq/Wk/Wv, every intermediate
  // lives in the caller's cache and gradient sink, so concurrent workers can
  // share one attention layer and the path allocates nothing once shapes
  // warm up.
  struct Cache {
    Matrix s;            // input (needed for weight gradients)
    Matrix q, k, v;      // projections
    Matrix scores;       // pre-softmax logits scratch
    Matrix probs;        // post-softmax attention
  };
  struct Gradients {
    Matrix dwq, dwk, dwv;                  // parameter sinks
    Matrix d_probs, d_scores, dq, dk, dv;  // backward scratch
    Matrix tmp;
  };
  // s: (n × d_model), mask: (n × n) additive → out: (n × d_v).
  void ForwardCached(const Matrix& s, const Matrix& mask, Cache* cache,
                     Matrix* out) const;
  void InitGradients(Gradients* g) const;
  // dy: (n × d_v) → ds: (n × d_model); accumulates Wq/Wk/Wv gradients
  // into g.
  void BackwardCached(const Cache& cache, const Matrix& dy, Gradients* g,
                      Matrix* ds) const;
  // grad += g, then zeroes g; serialize calls, fixed order for determinism.
  void AccumulateGradients(Gradients* g);

  void SetTrainBase(bool train) { train_base_ = train; }
  void CollectParameters(std::vector<Parameter*>* out);
  void CollectAllParameters(std::vector<Parameter*>* out);
  size_t ParameterCount() const;

  size_t d_model() const { return wq_.value.rows(); }
  size_t d_k() const { return wq_.value.cols(); }
  size_t d_v() const { return wv_.value.cols(); }

  // Read-only weight access for precision-converted inference tables.
  const Matrix& wq() const { return wq_.value; }
  const Matrix& wk() const { return wk_.value; }
  const Matrix& wv() const { return wv_.value; }
  double inv_sqrt_dk() const { return inv_sqrt_dk_; }

  // Wire layout: Wq, Wk, Wv. Deserialize is transactional: it validates that
  // Wq/Wk share a shape and Wv shares their input dimension before any
  // member changes.
  void Serialize(ByteWriter* w) const;
  Status Deserialize(ByteReader* r);

 private:
  Parameter wq_, wk_, wv_;  // (d_model × d_k/d_k/d_v)
  double inv_sqrt_dk_ = 1.0;
  bool train_base_ = true;
};

// Adam optimizer over externally-owned parameters.
class Adam {
 public:
  explicit Adam(double lr = 1e-3, double beta1 = 0.9, double beta2 = 0.999,
                double epsilon = 1e-8)
      : lr_(lr), beta1_(beta1), beta2_(beta2), epsilon_(epsilon) {}

  // Replaces the tracked parameter set; moment state is reset.
  void Register(std::vector<Parameter*> params);

  // Applies one update using the gradients currently accumulated in the
  // parameters, then zeroes those gradients.
  void Step();

  void set_lr(double lr) { lr_ = lr; }
  double lr() const { return lr_; }

 private:
  double lr_, beta1_, beta2_, epsilon_;
  int64_t t_ = 0;
  std::vector<Parameter*> params_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace dace::nn

#endif  // DACE_NN_LAYERS_H_
