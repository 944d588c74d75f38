#include "baselines/queryformer.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace dace::baselines {

namespace {
using nn::Matrix;
}  // namespace

QueryFormer::QueryFormer() : QueryFormer(Config()) {}

QueryFormer::QueryFormer(const Config& config,
                         const core::DaceEstimator* encoder)
    : config_(config), encoder_(encoder), rng_(config.train.seed) {
  const size_t d = static_cast<size_t>(config_.d_model);
  embed_.Init(kInDim, d, &rng_);
  layers_.reserve(static_cast<size_t>(config_.num_layers));
  for (int l = 0; l < config_.num_layers; ++l) {
    auto layer = std::make_unique<EncoderLayer>();
    layer->attention.Init(d, d, d, &rng_);
    layer->ffn1.Init(d, static_cast<size_t>(config_.ffn_hidden), &rng_);
    layer->ffn2.Init(static_cast<size_t>(config_.ffn_hidden), d, &rng_);
    layers_.push_back(std::move(layer));
  }
  const size_t enc_dim =
      encoder_ ? static_cast<size_t>(encoder_->EncodingDim()) : 0;
  head1_.Init(d + enc_dim, d, &rng_);
  head2_.Init(d, 1, &rng_);
}

Matrix QueryFormer::BuildInput(const plan::QueryPlan& plan) const {
  const std::vector<int32_t> dfs = plan.DfsOrder();
  const std::vector<int32_t> heights = plan.Heights();
  const size_t n = dfs.size();
  Matrix input(n + 1, kInDim);
  input(0, 0) = 1.0;  // super node flag
  for (size_t i = 0; i < n; ++i) {
    const plan::PlanNode& node = plan.node(dfs[i]);
    double* row = input.RowPtr(i + 1);
    WriteOneHot(row + 1, plan::kNumOperatorTypes, static_cast<int>(node.type));
    row[1 + plan::kNumOperatorTypes] = scalers_.card.Transform(node.est_cardinality);
    row[1 + plan::kNumOperatorTypes + 1] = scalers_.cost.Transform(node.est_cost);
    const int h = std::min<int>(heights[static_cast<size_t>(dfs[i])],
                                kMaxHeightBucket);
    WriteOneHot(row + 1 + plan::kNumOperatorTypes + 2, kMaxHeightBucket + 1, h);
    WriteOneHot(row + 1 + plan::kNumOperatorTypes + 2 + kMaxHeightBucket + 1,
                kMaxTables, node.annotation.table_id);
  }
  return input;
}

Matrix QueryFormer::BuildMask(const plan::QueryPlan& plan) const {
  const size_t n = plan.DfsOrder().size();
  const std::vector<uint8_t> closure = plan.AncestorClosure();
  Matrix mask(n + 1, n + 1);
  for (size_t i = 0; i <= n; ++i) {
    for (size_t j = 0; j <= n; ++j) {
      bool allowed;
      if (i == 0 || j == 0) {
        allowed = true;  // the super node sees and is seen by everything
      } else {
        // Structure-restricted: along ancestor/descendant lines only.
        allowed = closure[(i - 1) * n + (j - 1)] != 0 ||
                  closure[(j - 1) * n + (i - 1)] != 0;
      }
      mask(i, j) = allowed ? 0.0 : nn::kMaskNegInf;
    }
  }
  return mask;
}

Matrix QueryFormer::ForwardBody(const Matrix& input, const Matrix& mask,
                                PlanCache* cache) const {
  cache->layers.resize(layers_.size());
  Matrix h, a, r, f;
  embed_.ForwardCached(input, &cache->embed, &h);
  for (size_t l = 0; l < layers_.size(); ++l) {
    const EncoderLayer& layer = *layers_[l];
    PlanCache::Layer& c = cache->layers[l];
    layer.attention.ForwardCached(h, mask, &c.attention, &a);
    h.AddScaled(a, 1.0);
    layer.ffn1.ForwardReluCached(h, &c.ffn1, &c.z1, &r);
    layer.ffn2.ForwardCached(r, &c.ffn2, &f);
    h.AddScaled(f, 1.0);
  }
  Matrix super(1, h.cols());
  for (size_t j = 0; j < h.cols(); ++j) super(0, j) = h(0, j);
  return super;
}

double QueryFormer::ForwardHead(const Matrix& super,
                                const std::vector<double>& encoding,
                                PlanCache* cache) const {
  const size_t d = super.cols();
  Matrix concat(1, d + encoding.size());
  for (size_t j = 0; j < d; ++j) concat(0, j) = super(0, j);
  for (size_t j = 0; j < encoding.size(); ++j) concat(0, d + j) = encoding[j];
  head1_.ForwardReluCached(concat, &cache->head1, &cache->head_z,
                           &cache->head_h);
  head2_.ForwardCached(cache->head_h, &cache->head2, &cache->out);
  return cache->out(0, 0);
}

std::vector<nn::Parameter*> QueryFormer::Parameters() {
  std::vector<nn::Parameter*> params;
  embed_.CollectParameters(&params);
  for (auto& layer : layers_) {
    layer->attention.CollectParameters(&params);
    layer->ffn1.CollectParameters(&params);
    layer->ffn2.CollectParameters(&params);
  }
  head1_.CollectParameters(&params);
  head2_.CollectParameters(&params);
  return params;
}

void QueryFormer::Train(const std::vector<plan::QueryPlan>& plans) {
  DACE_CHECK(!plans.empty());
  scalers_.Fit(plans);
  const size_t d = static_cast<size_t>(config_.d_model);

  // Pre-extract inputs, masks, encodings, labels.
  std::vector<Matrix> inputs, masks;
  std::vector<std::vector<double>> encodings;
  std::vector<double> labels;
  for (const plan::QueryPlan& plan : plans) {
    inputs.push_back(BuildInput(plan));
    masks.push_back(BuildMask(plan));
    encodings.push_back(encoder_ ? encoder_->Encode(plan)
                                 : std::vector<double>());
    labels.push_back(
        scalers_.time.Transform(plan.node(plan.root()).actual_time_ms));
  }

  RunAdamTraining(config_.train, plans.size(), Parameters(), [&](size_t idx) {
    PlanCache cache;
    const Matrix super = ForwardBody(inputs[idx], masks[idx], &cache);
    const double residual =
        ForwardHead(super, encodings[idx], &cache) - labels[idx];

    // Head backward.
    Matrix dout(1, 1), dr, dconcat;
    dout(0, 0) = HuberGrad(residual);
    BackwardAndAccumulate(&head2_, cache.head2, dout, &dr);
    nn::ReluBackwardInto(cache.head_z, dr, &dr);
    BackwardAndAccumulate(&head1_, cache.head1, dr, &dconcat);

    // Body backward: gradient only flows through the super-node row.
    const size_t rows = inputs[idx].rows();
    Matrix dh(rows, d);
    for (size_t j = 0; j < d; ++j) dh(0, j) = dconcat(0, j);
    for (size_t l = layers_.size(); l-- > 0;) {
      EncoderLayer& layer = *layers_[l];
      const PlanCache::Layer& c = cache.layers[l];
      // out = h1 + ffn(h1): dh1 = dh + d(ffn path).
      Matrix df2, df1;
      BackwardAndAccumulate(&layer.ffn2, c.ffn2, dh, &df2);
      nn::ReluBackwardInto(c.z1, df2, &df2);
      BackwardAndAccumulate(&layer.ffn1, c.ffn1, df2, &df1);
      dh.AddScaled(df1, 1.0);
      // h1 = hin + attn(hin): dhin = dh1 + d(attn path).
      Matrix dattn;
      BackwardAndAccumulate(&layer.attention, c.attention, dh, &dattn);
      dh.AddScaled(dattn, 1.0);
    }
    Matrix dinput;
    BackwardAndAccumulate(&embed_, cache.embed, dh, &dinput);
    return HuberLoss(residual);
  });
}

double QueryFormer::PredictMs(const plan::QueryPlan& plan) const {
  PlanCache cache;
  const Matrix super = ForwardBody(BuildInput(plan), BuildMask(plan), &cache);
  const std::vector<double> encoding =
      encoder_ ? encoder_->Encode(plan) : std::vector<double>();
  const double pred = ForwardHead(super, encoding, &cache);
  return ClampPredictionMs(scalers_.time.InverseTransform(pred));
}

size_t QueryFormer::ParameterCount() const {
  size_t total = embed_.ParameterCount() + head1_.ParameterCount() +
                 head2_.ParameterCount();
  for (const auto& layer : layers_) {
    total += layer->attention.ParameterCount();
    total += layer->ffn1.ParameterCount();
    total += layer->ffn2.ParameterCount();
  }
  return total;
}

}  // namespace dace::baselines
