#include "baselines/mscn.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace dace::baselines {

namespace {
using nn::Linear;
using nn::Matrix;
}  // namespace

// Caches of one forward pass, enough to backpropagate.
struct Mscn::ForwardState {
  // Per set: caches, pre-activations (z) and activations (h) of the two
  // layers.
  struct SetState {
    bool present = false;
    Linear::ExternalCache c1, c2;
    Matrix z1, h1, z2, h2;
  };
  SetState tables, joins, predicates;
  Linear::ExternalCache out_c1, out_c2;
  Matrix out_z1, out_h1, out;
};

Mscn::Mscn() : Mscn(Config()) {}

Mscn::Mscn(const Config& config, const core::DaceEstimator* encoder)
    : config_(config), encoder_(encoder), rng_(config.train.seed) {
  const size_t h = static_cast<size_t>(config_.hidden);
  table_fc1_.Init(kTableDim, h, &rng_);
  table_fc2_.Init(h, h, &rng_);
  join_fc1_.Init(kJoinDim, h, &rng_);
  join_fc2_.Init(h, h, &rng_);
  pred_fc1_.Init(kPredDim, h, &rng_);
  pred_fc2_.Init(h, h, &rng_);
  const size_t enc_dim =
      encoder_ ? static_cast<size_t>(encoder_->EncodingDim()) : 0;
  out_fc1_.Init(3 * h + enc_dim, h, &rng_);
  out_fc2_.Init(h, 1, &rng_);
}

Mscn::SetFeatures Mscn::Extract(const plan::QueryPlan& plan) const {
  std::vector<std::vector<double>> tables, joins, preds;
  for (const plan::PlanNode& node : plan.nodes()) {
    const plan::NodeAnnotation& a = node.annotation;
    if (plan::IsScan(node.type) && a.table_id >= 0) {
      std::vector<double> row(kTableDim, 0.0);
      WriteOneHot(row.data(), kMaxTables, a.table_id);
      row[kMaxTables] = scalers_.card.Transform(node.est_cardinality);
      tables.push_back(std::move(row));
      for (const plan::FilterPredicate& f : a.filters) {
        std::vector<double> prow(kPredDim, 0.0);
        WriteOneHot(prow.data(), kMaxTables, a.table_id);
        WriteOneHot(prow.data() + kMaxTables, kMaxColumns, f.column_id);
        WriteOneHot(prow.data() + kMaxTables + kMaxColumns, kNumCompareOps,
                    static_cast<int>(f.op));
        prow[kPredDim - 2] = scalers_.literal.Transform(std::fabs(f.literal));
        prow[kPredDim - 1] = f.est_selectivity;
        preds.push_back(std::move(prow));
      }
    } else if (plan::IsJoin(node.type) && a.left_table >= 0) {
      std::vector<double> row(kJoinDim, 0.0);
      WriteOneHot(row.data(), kMaxTables, a.left_table);
      WriteOneHot(row.data() + kMaxTables, kMaxTables, a.right_table);
      joins.push_back(std::move(row));
    }
  }
  const auto to_matrix = [](const std::vector<std::vector<double>>& rows,
                            int dim) {
    Matrix m(rows.size(), static_cast<size_t>(dim));
    for (size_t i = 0; i < rows.size(); ++i) {
      for (size_t j = 0; j < rows[i].size(); ++j) m(i, j) = rows[i][j];
    }
    return m;
  };
  SetFeatures f;
  f.tables = to_matrix(tables, kTableDim);
  f.joins = to_matrix(joins, kJoinDim);
  f.predicates = to_matrix(preds, kPredDim);
  return f;
}

double Mscn::Forward(const SetFeatures& f, const std::vector<double>& encoding,
                     ForwardState* state) const {
  const size_t h = static_cast<size_t>(config_.hidden);

  // Encodes one set; writes the mean-pooled vector into concat[offset..].
  const auto encode_set = [&](const Matrix& set, const Linear& fc1,
                              const Linear& fc2,
                              ForwardState::SetState* ss, double* pooled) {
    std::fill(pooled, pooled + h, 0.0);
    ss->present = set.rows() > 0;
    if (!ss->present) return;
    fc1.ForwardReluCached(set, &ss->c1, &ss->z1, &ss->h1);
    fc2.ForwardReluCached(ss->h1, &ss->c2, &ss->z2, &ss->h2);
    for (size_t i = 0; i < ss->h2.rows(); ++i) {
      const double* row = ss->h2.RowPtr(i);
      for (size_t j = 0; j < h; ++j) pooled[j] += row[j];
    }
    const double inv = 1.0 / static_cast<double>(ss->h2.rows());
    for (size_t j = 0; j < h; ++j) pooled[j] *= inv;
  };

  const size_t enc_dim = encoding.size();
  Matrix concat(1, 3 * h + enc_dim);
  encode_set(f.tables, table_fc1_, table_fc2_, &state->tables,
             concat.RowPtr(0));
  encode_set(f.joins, join_fc1_, join_fc2_, &state->joins,
             concat.RowPtr(0) + h);
  encode_set(f.predicates, pred_fc1_, pred_fc2_, &state->predicates,
             concat.RowPtr(0) + 2 * h);
  for (size_t j = 0; j < enc_dim; ++j) concat(0, 3 * h + j) = encoding[j];

  out_fc1_.ForwardReluCached(concat, &state->out_c1, &state->out_z1,
                             &state->out_h1);
  out_fc2_.ForwardCached(state->out_h1, &state->out_c2, &state->out);
  return state->out(0, 0);
}

void Mscn::Backward(const ForwardState& state, double dloss) {
  const size_t h = static_cast<size_t>(config_.hidden);
  Matrix dout(1, 1);
  dout(0, 0) = dloss;
  Matrix dh1, dconcat;
  BackwardAndAccumulate(&out_fc2_, state.out_c2, dout, &dh1);
  nn::ReluBackwardInto(state.out_z1, dh1, &dh1);
  BackwardAndAccumulate(&out_fc1_, state.out_c1, dh1, &dconcat);

  const auto set_backward = [&](const ForwardState::SetState& ss, Linear* fc1,
                                Linear* fc2, const double* dpooled) {
    if (!ss.present) return;
    // Mean-pool backward: broadcast dpooled / rows to every row.
    const size_t rows = ss.h2.rows();
    Matrix dh2(rows, h);
    const double inv = 1.0 / static_cast<double>(rows);
    for (size_t i = 0; i < rows; ++i) {
      double* row = dh2.RowPtr(i);
      for (size_t j = 0; j < h; ++j) row[j] = dpooled[j] * inv;
    }
    Matrix dh1_set, dinput;
    nn::ReluBackwardInto(ss.z2, dh2, &dh2);
    BackwardAndAccumulate(fc2, ss.c2, dh2, &dh1_set);
    nn::ReluBackwardInto(ss.z1, dh1_set, &dh1_set);
    BackwardAndAccumulate(fc1, ss.c1, dh1_set, &dinput);
  };
  set_backward(state.tables, &table_fc1_, &table_fc2_, dconcat.RowPtr(0));
  set_backward(state.joins, &join_fc1_, &join_fc2_, dconcat.RowPtr(0) + h);
  set_backward(state.predicates, &pred_fc1_, &pred_fc2_,
               dconcat.RowPtr(0) + 2 * h);
}

std::vector<nn::Parameter*> Mscn::Parameters() {
  std::vector<nn::Parameter*> params;
  for (Linear* layer : {&table_fc1_, &table_fc2_, &join_fc1_, &join_fc2_,
                        &pred_fc1_, &pred_fc2_, &out_fc1_, &out_fc2_}) {
    layer->CollectParameters(&params);
  }
  return params;
}

void Mscn::Train(const std::vector<plan::QueryPlan>& plans) {
  DACE_CHECK(!plans.empty());
  scalers_.Fit(plans);
  // Pre-extract features and labels once.
  std::vector<SetFeatures> features;
  std::vector<std::vector<double>> encodings;
  std::vector<double> labels;
  features.reserve(plans.size());
  labels.reserve(plans.size());
  for (const plan::QueryPlan& plan : plans) {
    features.push_back(Extract(plan));
    encodings.push_back(encoder_ ? encoder_->Encode(plan)
                                 : std::vector<double>());
    labels.push_back(
        scalers_.time.Transform(plan.node(plan.root()).actual_time_ms));
  }
  RunAdamTraining(config_.train, plans.size(), Parameters(), [&](size_t idx) {
    ForwardState state;
    const double pred = Forward(features[idx], encodings[idx], &state);
    const double residual = pred - labels[idx];
    Backward(state, HuberGrad(residual));
    return HuberLoss(residual);
  });
}

double Mscn::PredictMs(const plan::QueryPlan& plan) const {
  const SetFeatures f = Extract(plan);
  const std::vector<double> encoding =
      encoder_ ? encoder_->Encode(plan) : std::vector<double>();
  ForwardState state;
  const double pred = Forward(f, encoding, &state);
  return ClampPredictionMs(scalers_.time.InverseTransform(pred));
}

size_t Mscn::ParameterCount() const {
  size_t total = 0;
  for (const Linear* layer :
       {&table_fc1_, &table_fc2_, &join_fc1_, &join_fc2_, &pred_fc1_,
        &pred_fc2_, &out_fc1_, &out_fc2_}) {
    total += layer->ParameterCount();
  }
  return total;
}

}  // namespace dace::baselines
