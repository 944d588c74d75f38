#ifndef DACE_CORE_DACE_MODEL_H_
#define DACE_CORE_DACE_MODEL_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/estimator.h"
#include "core/prediction_cache.h"
#include "core/student.h"
#include "featurize/featurize.h"
#include "nn/kernels_f32.h"
#include "nn/layers.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace dace::core {

class CheckpointReader;
class CheckpointWriter;

// Hyperparameters (paper Sec. V "Parameters Setting"). The defaults are the
// published configuration: a single encoder layer, single attention head,
// d = 18, d_k = d_v = 128, MLP 128→64→1 on top of the attention output,
// LoRA ranks 32/16/8, alpha = 0.5.
struct DaceConfig {
  int d_model = featurize::kFeatureDim;
  int d_k = 128;
  int d_v = 128;
  int hidden1 = 128;
  int hidden2 = 64;
  int lora_r1 = 32;
  int lora_r2 = 16;
  int lora_r3 = 8;

  // Featurization / ablation switches (Sec. V-E).
  double alpha = 0.5;               // loss-adjuster decay; 0 = w/o SP, 1 = w/o LA
  bool tree_attention = true;       // false = w/o TA
  bool use_actual_cardinality = false;  // DACE-A (Fig. 12)

  // Optimization.
  double learning_rate = 1e-3;
  // LoRA adapters tolerate (and benefit from) a hotter learning rate since
  // the frozen base anchors the function.
  double lora_learning_rate = 2e-3;
  int epochs = 12;
  // LoRA fine-tuning runs more epochs: the adapters are tiny, so each epoch
  // is ~2× cheaper than a pre-training epoch (Table II), and the fine-tune
  // corpus is typically smaller.
  int finetune_epochs = 40;
  int batch_size = 64;  // plans per Adam step
  uint64_t seed = 7;

  // Distilled student tier (DESIGN.md §14). The student is a small MLP
  // (kStudentFeatureDim → student_hidden1 → student_hidden2 → 2) trained on
  // the frozen teacher's predictions by Distill().
  int student_hidden1 = 32;
  int student_hidden2 = 16;
  int distill_epochs = 60;
  int distill_batch_size = 256;
  double distill_learning_rate = 2e-3;
  // Gate calibration: the escalation threshold τ is the
  // `escalation_quantile` quantile of (r̂ + q_bound) over the distillation
  // set, so roughly (1 - escalation_quantile) of in-distribution plans
  // escalate to the teacher.
  double escalation_quantile = 0.9;
};

// Summary of one training run.
struct TrainStats {
  double final_loss = 0.0;
  int epochs = 0;
  size_t num_plans = 0;
  double wall_ms = 0.0;
};

// The DACE network: tree-masked single-head attention over the node-feature
// sequence, then a three-layer MLP head predicting every sub-plan's cost in
// parallel (one output per DFS row). Works on PlanFeatures produced by a
// fitted Featurizer; see DaceEstimator below for the plan-level facade.
class DaceModel {
 public:
  explicit DaceModel(const DaceConfig& config);

  const DaceConfig& config() const { return config_; }

  // Pool used by the data-parallel paths; nullptr (default) means
  // ThreadPool::Default(). Training and batched inference are
  // bit-deterministic for ANY pool size: minibatch gradients accumulate into
  // per-chunk buffers keyed by batch position and reduce in chunk order, so
  // the arithmetic never depends on which thread ran what.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const {
    return pool_ != nullptr ? pool_ : ThreadPool::Default();
  }

  // Per-worker state for data-parallel training and allocation-free batched
  // inference: activation caches, gradient sinks and intermediates, all
  // reused across plans. After shapes warm up, a forward (or
  // forward/backward) pass through a Workspace performs no heap allocation.
  struct Workspace {
    nn::TreeAttention::Cache attn_c;
    nn::Linear::ExternalCache fc1_c, fc2_c, fc3_c;
    nn::TreeAttention::Gradients attn_g;
    nn::Linear::Gradients fc1_g, fc2_g, fc3_g;
    nn::Matrix attn, z1, h1, z2, h2, pred;                    // forward
    nn::Matrix dpred, dh2, dh2_pre, dh1, dh1_pre, dattn, ds;  // backward
    double loss = 0.0;  // per-chunk loss accumulator
  };

  // Pre-training: updates base weights (attention + MLP).
  TrainStats Train(const std::vector<featurize::PlanFeatures>& data);

  // LoRA fine-tuning (Eq. 8): attaches adapters on first call, freezes the
  // base weights, and updates only the adapters.
  TrainStats FineTuneLora(const std::vector<featurize::PlanFeatures>& data);

  // Seeded variant for background adaptation: reseeds the model RNG before
  // attaching adapters / shuffling, so the resulting weights are a pure
  // function of (current weights, data, seed) — bit-reproducible at any
  // thread count and independent of however many training runs advanced the
  // RNG before this call (the PR-1 chunked-reduction contract supplies the
  // thread-count half; the reseed supplies the history half).
  TrainStats FineTuneLora(const std::vector<featurize::PlanFeatures>& data,
                          uint64_t seed);

  // Distills the student tier (DESIGN.md §14): computes the frozen teacher's
  // root prediction for every plan of `data` in parallel, trains a fresh
  // StudentModel on (inputs row i → teacher prediction i), then calibrates
  // the serving gate — q_bound = max |ŷ_i8 − ŷ_f64| over the set, τ = the
  // config's escalation_quantile quantile of (r̂ + q_bound). `inputs` must
  // hold one StudentFeaturizeInto row per plan (floats widened to double, so
  // training sees bit-for-bit the serving input). Deterministic for any pool
  // size. Bumps weights_version(): the set of servable functions changed, so
  // cached predictions from before the student existed must not mix with
  // tiered ones.
  StudentTrainStats DistillStudent(
      const std::vector<featurize::PlanFeatures>& data,
      const nn::Matrix& inputs);

  // The distilled student, or nullptr before Distill / after any teacher
  // weight mutation (Train and FineTuneLora drop the student — its targets
  // went stale with the teacher).
  const StudentModel* student() const { return student_.get(); }
  bool has_student() const { return student_ != nullptr; }

  // Predicted scaled-log-time of the root (row 0).
  double PredictRoot(const featurize::PlanFeatures& features) const;

  // Predicted scaled-log-time of every DFS row (all sub-plans, in parallel).
  std::vector<double> PredictAll(const featurize::PlanFeatures& features) const;

  // Allocation-free variant: runs the forward pass through the caller's
  // workspace, writing one scaled-log-time per DFS row into *out. Const on
  // the weights — concurrent callers each bring their own workspace.
  void PredictAllInto(const featurize::PlanFeatures& features, Workspace* ws,
                      std::vector<double>* out) const;

  // Per-worker state for the packed multi-plan inference path: the pack
  // layout and the f32 packed activation tiles. Reused across packs; buffers
  // reallocate only when the pack shape grows past what the workspace has
  // seen.
  struct PackedWorkspace {
    using FloatBuffer = std::vector<float, nn::AlignedAllocator<float>>;
    nn::PackLayout layout;
    FloatBuffer s32, mask32, q32, k32, v32, scores32, probs32, attn32, z132,
        z232;
  };

  // Packed batched inference: prices every plan of `feats` in ONE forward
  // pass over a tightly packed tile set, writing each plan's root
  // scaled-log-time into (*roots)[b]. Packing is a property of single
  // precision: this runs the folded f32 weight image (EnsureF32Weights must
  // have been called since the last weight mutation) through the f32 kernel
  // table, within the documented q-error budget of the f64 per-plan
  // reference PredictAllInto (DESIGN §13). Const on the weights — concurrent
  // callers bring their own workspace.
  void PredictPackedInto(std::span<const featurize::PlanFeatures* const> feats,
                         PackedWorkspace* ws, std::vector<double>* roots) const;

  // Rebuilds the cached single-precision inference weights (LoRA adapters
  // folded into the base matrices, everything narrowed to float) if they are
  // stale with respect to weights_version(). NOT thread-safe: call on the
  // coordinating thread before fanning out f32 packed workers.
  void EnsureF32Weights() const;

  // Pre-trained-encoder API: the root row of the second hidden layer
  // (h2, 64-dim), the w_E of Eq. (9).
  std::vector<double> EncodeRoot(const featurize::PlanFeatures& features) const;
  int EncodingDim() const { return config_.hidden2; }

  size_t ParameterCount() const;      // base + adapters (if attached)
  size_t BaseParameterCount() const;  // excludes adapters
  size_t LoraParameterCount() const;
  bool lora_attached() const { return lora_attached_; }

  // Free-form provenance tag carried by format-1 checkpoints (optional
  // trailing kSectionLineage): who produced these weights and from what.
  // Never affects predictions, so setting it does not bump
  // weights_version(); it rides along through save/load and Clone.
  const std::string& lineage() const { return lineage_; }
  void set_lineage(std::string lineage) { lineage_ = std::move(lineage); }

  // Monotone counter identifying the current weights: bumped by every
  // mutation of the parameters (Train, FineTuneLora, LoadSections). Cached
  // predictions are valid exactly as long as this value is unchanged — the
  // prediction cache stores the version it was filled under and flushes on
  // mismatch.
  uint64_t weights_version() const { return weights_version_; }

  // The canonical flat weight image: attention, fc1, fc2, fc3 concatenated
  // with no framing (the payload bytes the checkpoint sections carry). The
  // determinism tests compare these bytes directly.
  void Serialize(ByteWriter* w) const;

  // Checkpoint sections: the Serialize payload bytes, one framed section per
  // component (plus, when the model is distilled, a trailing student
  // section). LoadSections is transactional: every layer is parsed into
  // staging, every shape is validated against this model's config
  // (including LoRA rank consistency), and the section table must end
  // exactly after fc3 — or after the optional trailing sections. Only then
  // are the weights swapped in and weights_version_ bumped; on any failure
  // the live weights, LoRA state and version are untouched, so cached
  // predictions stay exactly as valid as they were.
  void AppendSections(CheckpointWriter* w) const;
  Status LoadSections(CheckpointReader* r);

 private:
  // Attention and the two ReLU layers on one plan through `ws`, leaving the
  // hidden state of every DFS row in ws->h2. Const on the weights.
  void ForwardHidden(const featurize::PlanFeatures& f, Workspace* ws) const;

  // Forward + backward on one plan through `ws`: backpropagates the
  // loss-adjusted Huber loss on scaled log-time into the workspace's
  // gradient sinks. Const on the weights, so chunk workers run it
  // concurrently. Returns the plan's weighted loss.
  double ForwardBackward(const featurize::PlanFeatures& f, Workspace* ws) const;

  // Shapes and zeroes the gradient sinks of `ws` for the current layer set.
  void InitWorkspaceGradients(Workspace* ws) const;

  TrainStats RunTraining(const std::vector<featurize::PlanFeatures>& data,
                         bool lora_only);

  void SetTrainMode(bool train_base, bool train_lora);

  // Folded single-precision inference weights: W_eff = W + scale·A·B for the
  // MLP layers, raw narrowed projections for attention. `version` stamps the
  // weights_version_ the image was folded from; 0 = never built.
  struct F32Weights {
    using FloatBuffer = std::vector<float, nn::AlignedAllocator<float>>;
    uint64_t version = 0;
    FloatBuffer wq, wk, wv;          // (d_model × d_k/d_k/d_v)
    FloatBuffer w1, b1, w2, b2, w3, b3;  // LoRA-folded MLP
    float inv_sqrt_dk = 1.0f;
  };

  // f32 body behind PredictPackedInto, after the layout is assembled.
  void ForwardPackedF32(
      std::span<const featurize::PlanFeatures* const> feats,
      PackedWorkspace* ws, std::vector<double>* roots) const;

  // Fully-parsed weights awaiting validation; nothing in the live model
  // changes until CommitStaged.
  struct StagedWeights {
    nn::TreeAttention attention;
    nn::Linear fc1, fc2, fc3;
    std::unique_ptr<StudentModel> student;  // optional trailing section
    std::string lineage;                    // optional trailing section
  };
  Status ValidateStaged(const StagedWeights& staged) const;
  void CommitStaged(StagedWeights&& staged);

  DaceConfig config_;
  Rng rng_;
  nn::TreeAttention attention_;
  nn::Linear fc1_, fc2_, fc3_;
  bool lora_attached_ = false;
  uint64_t weights_version_ = 1;
  ThreadPool* pool_ = nullptr;
  mutable F32Weights f32_;  // rebuilt by EnsureF32Weights on version change
  std::unique_ptr<StudentModel> student_;  // distilled tier; often null
  std::string lineage_;  // provenance tag; empty = untagged
};

// Plan-level facade implementing the CostEstimator interface: owns the
// featurizer (fitted on the training corpus) and the model, and handles
// label/prediction transforms. This is the class the examples and benches
// instantiate.
class DaceEstimator : public CostEstimator {
 public:
  explicit DaceEstimator(const DaceConfig& config = DaceConfig());

  std::string Name() const override { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // Pre-trains on labelled plans (fits the featurizer first).
  void Train(const std::vector<plan::QueryPlan>& plans) override;

  // LoRA fine-tuning on a new workload (across-more / instance adaptation).
  // Reuses the already-fitted featurizer; requires Train first.
  TrainStats FineTune(const std::vector<plan::QueryPlan>& plans);

  // Seeded fine-tune for the background adaptation loop: the produced
  // weights are a pure function of (current weights, plans, seed) — bitwise
  // reproducible at any thread count, regardless of how much training
  // history advanced the model RNG beforehand.
  TrainStats FineTune(const std::vector<plan::QueryPlan>& plans,
                      uint64_t seed);

  // Distills the student serving tier from the current (frozen) teacher on
  // `plans` (typically the training or fine-tuning corpus) and calibrates
  // the escalation gate. Requires Train first. After this call the batched
  // serving path answers from the student whenever the gate allows (see
  // TierMode below).
  StudentTrainStats Distill(const std::vector<plan::QueryPlan>& plans);

  double PredictMs(const plan::QueryPlan& plan) const override;

  // Batched inference hot path: featurization + forward fan out across the
  // thread pool, and each worker reuses its scratch (featurization buffers
  // and forward matrices) so the per-plan forward allocates nothing after
  // warm-up. At the default f64 precision results are bit-identical to
  // per-plan PredictMs for any pool size. Not safe to call concurrently on
  // one estimator (the scratch is shared); use separate estimators or
  // external serialization.
  std::vector<double> PredictBatchMs(
      std::span<const plan::QueryPlan> plans) const override;

  // Scatter-gather variant of the batch hot path for the serving layer: the
  // plans of one coalesced micro-batch live on different callers' stacks, so
  // the batch is described by pointers instead of a contiguous array. Same
  // math, same cache, same determinism guarantees as the span-of-values
  // overload (which delegates here). Pointers must stay valid for the
  // duration of the call.
  //
  // One inference path per precision. At kF64 every cache miss is priced
  // per plan through PredictAllInto, the bit-exact reference, so results are
  // bit-identical to PredictMs. At kF32/kI8 (DACE_PRECISION=f32|i8) a batch
  // with two or more teacher misses runs the packed f32 path (see
  // PackedMode): misses are sorted by node count, packed into tile sets of
  // up to 64 plans, and each pack runs ONE forward pass within the DESIGN
  // §13 q-error budget of the f64 reference.
  std::vector<double> PredictBatchMs(
      std::span<const plan::QueryPlan* const> plans) const;

  // Allocation-free twin of the pointer-span overload: results land in *out
  // (resized to plans.size()). This is the actual implementation — both
  // returning overloads delegate here — and the zero-allocation serving
  // contract is measured against it: with a warm estimator, a batch whose
  // plan shapes have been seen before performs no heap allocation end to
  // end (asserted by BM_PredictBatch's allocs/plan counter).
  void PredictBatchMsInto(std::span<const plan::QueryPlan* const> plans,
                          std::vector<double>* out) const;

  // Serving-tier dispatch for batched cache misses:
  //   kAuto (default)  — if a distilled student exists, it answers first and
  //                      the agreement gate (r̂ + q_bound ≤ τ) decides per
  //                      plan whether to keep the student's answer or
  //                      escalate to the packed teacher; without a student,
  //                      teacher-only.
  //   kTeacherOnly     — ignore the student (reference behaviour; benches
  //                      that measure the teacher pin this).
  //   kStudentOnly     — never escalate (gate forced open; tests/benches).
  // Every estimator starts at kAuto; this setter overrides per estimator.
  // PredictMs (the single-plan path) is always teacher-only: tier routing is
  // a property of the batched serving path.
  enum class TierMode { kAuto = 0, kTeacherOnly = 1, kStudentOnly = 2 };
  void set_tier_mode(TierMode mode) { tier_mode_ = mode; }
  TierMode tier_mode() const { return tier_mode_; }

  // Packed-path dispatch policy for PredictBatchMs teacher misses at
  // kF32/kI8 (kF64 always prices per plan):
  //   kAuto (default) — packed when a batch has >= 2 misses, per-plan
  //                     otherwise (a single miss gains nothing from packing);
  //   kOff            — always the per-plan reference path.
  enum class PackedMode { kAuto = 0, kOff = 1 };
  void set_packed_inference(PackedMode mode) { packed_mode_ = mode; }
  PackedMode packed_inference() const { return packed_mode_; }

  // Largest plan (node count) any live inference scratch buffer is currently
  // sized for — the observable the shrink-to-high-watermark policy governs
  // (see ScratchGovernor; asserted by packed_inference_test).
  size_t InferenceScratchPeakNodes() const;

  // Pool used for training featurization and PredictBatchMs; nullptr =
  // process default. Also forwarded to the model.
  void set_thread_pool(ThreadPool* pool);

  // Prediction-cache control: the serving paths (PredictMs/PredictBatchMs)
  // memoize final predictions keyed by (CacheEpoch(), plan fingerprint).
  // PredictMs uses the cache only where both paths store the same f64
  // teacher answer (kF64, and kTeacherOnly or no student). Capacity 0
  // disables caching entirely; resizing resets entries and counters.
  // Default capacity is kDefaultPredictionCacheCapacity.
  void set_prediction_cache_capacity(size_t capacity) {
    prediction_cache_->Reset(capacity);
  }
  PredictionCache::Stats prediction_cache_stats() const {
    return prediction_cache_->GetStats();
  }

  static constexpr size_t kDefaultPredictionCacheCapacity = 4096;

  // Per-sub-plan predictions in ms, DFS order (index 0 = whole plan).
  std::vector<double> PredictSubPlansMs(const plan::QueryPlan& plan) const;

  // Pre-trained-encoder hook for WDM knowledge integration.
  std::vector<double> Encode(const plan::QueryPlan& plan) const;
  int EncodingDim() const { return model_.EncodingDim(); }

  size_t ParameterCount() const override { return model_.ParameterCount(); }
  size_t LoraParameterCount() const { return model_.LoraParameterCount(); }

  const DaceModel& model() const { return model_; }
  DaceModel& mutable_model() { return model_; }
  const featurize::Featurizer& featurizer() const { return featurizer_; }
  const TrainStats& last_train_stats() const { return last_train_stats_; }

  // Checkpoint provenance tag (forwarded to the model; see
  // DaceModel::lineage). Serialized as the optional kSectionLineage.
  const std::string& lineage() const { return model_.lineage(); }
  void set_lineage(std::string lineage) {
    mutable_model().set_lineage(std::move(lineage));
  }

  Status SaveToFile(const std::string& path) const;
  Status LoadFromFile(const std::string& path);

  // The complete format-1 checkpoint image (what SaveToFile writes) and its
  // transactional inverse. LoadFromString has exactly the LoadFromFile
  // contract: on any failure the live featurizer, weights, version and
  // cached predictions are untouched.
  std::string SerializeToString() const;
  Status LoadFromString(std::string_view blob);

  // Deep copy via an in-memory checkpoint round-trip: a fresh estimator with
  // this one's config, featurizer, weights (bit-identical predictions),
  // student, and lineage — and its OWN scratch, cache and RNG (reseeded from
  // config.seed), so the clone can fine-tune on a background thread while
  // the original keeps serving. Name and cache capacity carry over; thread
  // pool and tier/packed modes are left at the clone's defaults (kAuto), so
  // at kF64 the clone prices misses per plan like any estimator and at
  // kF32/kI8 packs multi-miss batches.
  std::unique_ptr<DaceEstimator> Clone() const;

 private:
  featurize::FeaturizerConfig FeatConfig() const;

  // Shrink-to-high-watermark policy for per-worker inference scratch. The
  // reusable buffers are sized for the largest plan a worker ever touched;
  // without a release valve one pathological deep plan pins megabytes per
  // worker for the process lifetime. The governor watches one scratch: when
  // the allocated watermark is >= kMinShrinkNodes AND at least kSlackFactor×
  // the recent peak use for kPatience consecutive batch calls, the scratch
  // is dropped back to empty (it re-warms to the CURRENT workload's sizes on
  // the next miss). Ordinary scratches (< kMinShrinkNodes) never shrink, so
  // the steady-state zero-allocation property is untouched.
  struct ScratchGovernor {
    static constexpr size_t kMinShrinkNodes = 256;
    static constexpr size_t kSlackFactor = 4;
    static constexpr int kPatience = 16;
    int oversized_streak = 0;
    bool Observe(size_t used_nodes, size_t allocated_nodes) {
      if (allocated_nodes >= kMinShrinkNodes &&
          allocated_nodes / kSlackFactor >= std::max<size_t>(used_nodes, 1)) {
        if (++oversized_streak >= kPatience) {
          oversized_streak = 0;
          return true;
        }
      } else {
        oversized_streak = 0;
      }
      return false;
    }
  };

  // One per pool worker, lazily sized; reused across PredictBatchMs calls so
  // the steady-state batch path performs no per-plan allocation.
  // `used_nodes` tracks the peak plan size since the governor last looked,
  // `alloc_nodes` the high-watermark the buffers are sized for.
  struct BatchScratch {
    featurize::PlanFeatures feats;
    featurize::FeatureScratch fscratch;
    DaceModel::Workspace ws;
    std::vector<double> preds;
    // Student-tier scratch: the pooled input row and the i8 activation
    // buffers (tiny, so never governed).
    float student_input[featurize::kStudentFeatureDim] = {};
    StudentModel::I8Scratch i8;
    size_t used_nodes = 0;
    size_t alloc_nodes = 0;
    ScratchGovernor governor;
  };

  // Per-worker scratch of the packed path: up to kPackMaxPlans featurized
  // plans plus the packed workspace. Same governor policy as BatchScratch.
  struct PackScratch {
    std::vector<featurize::PlanFeatures> feats;
    featurize::FeatureScratch fscratch;
    std::vector<const featurize::PlanFeatures*> feat_ptrs;
    DaceModel::PackedWorkspace ws;
    std::vector<double> roots;
    size_t used_nodes = 0;
    size_t alloc_nodes = 0;
    ScratchGovernor governor;
  };

  // Per-call index/flag buffers of the batch path, reused across calls so a
  // warm PredictBatchMsInto allocates nothing. Not per-worker: only the
  // coordinating thread touches these.
  struct CallScratch {
    std::vector<const plan::QueryPlan*> ptrs;  // span-of-values adapter
    std::vector<uint64_t> fps;                 // per-plan fingerprints
    std::vector<uint8_t> hit;                  // cache-hit flags
    std::vector<size_t> misses;                // indices needing inference
    std::vector<uint8_t> served;               // student kept flags (per miss)
    std::vector<size_t> escalated;             // tier-escalated subset
    std::vector<size_t> order;                 // packed-path sort buffer
  };

  // Prices `misses` (indices into `plans`) through the packed path, writing
  // results/cache inserts exactly as the per-plan path would.
  void PredictPackedBatch(std::span<const plan::QueryPlan* const> plans,
                          const std::vector<size_t>& misses,
                          const std::vector<uint64_t>& fps, uint64_t epoch,
                          const featurize::FeaturizerConfig& fc,
                          std::vector<double>* out) const;

  // The key the prediction cache is filled under: the weights version plus
  // every setting that shapes a served answer (precision, tier mode, packed
  // mode). Changing any of them flushes the cache just as a weight update
  // does, so an answer is only ever returned under the settings that
  // produced it.
  uint64_t CacheEpoch() const;

  // Runs the governor over every worker scratch after a batch call.
  void GovernScratch() const;

  std::vector<featurize::PlanFeatures> FeaturizeAll(
      const std::vector<plan::QueryPlan>& plans) const;

  // Student-first pass of the tiered miss flow: serves every gate-passing
  // miss, marks it in call_scratch_.served, and fills `escalated` with the
  // rest. Updates the predict.tier.* counters and serve.tier.* metrics.
  void ServeStudentTier(std::span<const plan::QueryPlan* const> plans,
                        const StudentModel& student, uint64_t epoch,
                        const featurize::FeaturizerConfig& fc, bool cache_on,
                        std::vector<double>* out) const;

  std::string name_ = "DACE";
  DaceConfig config_;
  featurize::Featurizer featurizer_;
  DaceModel model_;
  TrainStats last_train_stats_;
  ThreadPool* pool_ = nullptr;
  PackedMode packed_mode_ = PackedMode::kAuto;
  TierMode tier_mode_ = TierMode::kAuto;
  mutable std::vector<BatchScratch> batch_scratch_;
  mutable std::vector<PackScratch> pack_scratch_;
  mutable CallScratch call_scratch_;
  // unique_ptr keeps the estimator movable (the cache holds a mutex).
  mutable std::unique_ptr<PredictionCache> prediction_cache_ =
      std::make_unique<PredictionCache>(kDefaultPredictionCacheCapacity);
};

}  // namespace dace::core

#endif  // DACE_CORE_DACE_MODEL_H_
