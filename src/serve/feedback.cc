#include "serve/feedback.h"

#include <bit>

#include "util/logging.h"

namespace dace::serve {

// -------------------------------------------------------- FeedbackLedger ----

namespace {

size_t RoundUpPow2(size_t n) {
  if (n < 2) return 2;
  return std::bit_ceil(n);
}

}  // namespace

FeedbackLedger::FeedbackLedger(size_t capacity)
    : mask_(RoundUpPow2(capacity) - 1),
      slots_(new Slot[RoundUpPow2(capacity)]) {}

uint64_t FeedbackLedger::RecordPrediction(double predicted_ms) {
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[id & mask_];
  // Seqlock write: retire the slot's id before its value changes. The value
  // store releases the retirement, so a joiner that claimed the record this
  // write laps and then acquires the new value also sees the retired id and
  // fails its re-validation.
  slot.id.store(kEmpty, std::memory_order_relaxed);
  slot.predicted_bits.store(std::bit_cast<uint64_t>(predicted_ms),
                            std::memory_order_release);
  // Release-publish: a joiner that acquires this id also sees the value
  // store above. This plain store is also what laps (evicts) the record
  // `capacity` ids older sharing the slot — no reclamation step needed.
  slot.id.store(id, std::memory_order_release);
  return id;
}

Status FeedbackLedger::Join(uint64_t request_id, double* predicted_ms) {
  if (request_id & kJoinedBit) {
    return Status::InvalidArgument("request id out of range");
  }
  const uint64_t issued_now = next_id_.load(std::memory_order_relaxed);
  if (request_id >= issued_now) {
    return Status::NotFound("request id was never issued");
  }
  if (issued_now - request_id > mask_) {
    return Status::NotFound("prediction record evicted (actual arrived late)");
  }
  Slot& slot = slots_[request_id & mask_];
  uint64_t cur = slot.id.load(std::memory_order_acquire);
  if (cur != request_id) {
    // Lapped by a newer prediction, or already joined (id | kJoinedBit).
    return Status::NotFound(cur == (request_id | kJoinedBit)
                                ? "prediction already joined"
                                : "prediction record evicted (slot reused)");
  }
  // Claim: exactly one joiner wins the CAS; a concurrent duplicate loses and
  // reads the joined bit above on retry.
  if (!slot.id.compare_exchange_strong(cur, request_id | kJoinedBit,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
    return Status::NotFound("prediction already joined");
  }
  const double value =
      std::bit_cast<double>(slot.predicted_bits.load(std::memory_order_acquire));
  // Seqlock-style validation: a writer lapping the ring retires the id
  // before it releases a new value, so if the value load acquired that
  // store, the retired id is visible here. If the id no longer carries our
  // claim, the value may belong to a newer record — report eviction rather
  // than returning it.
  if (slot.id.load(std::memory_order_acquire) != (request_id | kJoinedBit)) {
    return Status::NotFound("prediction record evicted during join");
  }
  *predicted_ms = value;
  return Status::OK();
}

// -------------------------------------------------------- TenantFeedback ----

TenantFeedback::TenantFeedback(const std::string& tenant,
                               const FeedbackConfig& config,
                               obs::MetricsRegistry* registry)
    : ledger_(config.ledger_capacity),
      monitor_(tenant, config.monitor, registry),
      predictions_(registry->GetCounter("serve.feedback.predictions")),
      joined_(registry->GetCounter("serve.feedback.joined")),
      late_(registry->GetCounter("serve.feedback.late")),
      retained_total_(registry->GetCounter("serve.feedback.retained")),
      retain_capacity_(config.retain_capacity) {}

Status TenantFeedback::ReportActual(uint64_t request_id, double actual_ms) {
  double predicted_ms = 0.0;
  const Status status = ledger_.Join(request_id, &predicted_ms);
  if (!status.ok()) {
    if (status.code() == StatusCode::kNotFound) late_->Add(1);
    return status;
  }
  joined_->Add(1);
  monitor_.ObserveQError(predicted_ms, actual_ms);
  return Status::OK();
}

Status TenantFeedback::ReportExecuted(uint64_t request_id,
                                      const plan::QueryPlan& executed_plan) {
  if (executed_plan.root() < 0) {
    return Status::InvalidArgument("executed plan has no root");
  }
  const double actual_ms = executed_plan.node(executed_plan.root()).actual_time_ms;
  DACE_RETURN_IF_ERROR(ReportActual(request_id, actual_ms));
  // Retention rides on a successful join only: a late or duplicate actual
  // must not enter the fine-tune corpus twice.
  if (retain_capacity_ == 0) return Status::OK();
  {
    std::lock_guard<std::mutex> lock(retain_mu_);
    if (retained_.size() == retain_capacity_) retained_.pop_front();
    retained_.push_back(executed_plan);
  }
  retained_total_->Add(1);
  return Status::OK();
}

std::vector<plan::QueryPlan> TenantFeedback::RetainedPlans() const {
  std::lock_guard<std::mutex> lock(retain_mu_);
  return std::vector<plan::QueryPlan>(retained_.begin(), retained_.end());
}

size_t TenantFeedback::retained_count() const {
  std::lock_guard<std::mutex> lock(retain_mu_);
  return retained_.size();
}

}  // namespace dace::serve
