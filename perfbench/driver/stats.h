#ifndef PERFBENCH_DRIVER_STATS_H_
#define PERFBENCH_DRIVER_STATS_H_

// The benchmark's own arithmetic: percentiles with their sample counts,
// open-loop due-time latency, outcome accounting, q-error, regret and the
// precision contract the correctness check applies. Header-only so the
// driver and tests/stats_test.cc compile the same definitions.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Nearest-rank percentile of a sample: the value at 1-based rank
// ceil(q * n) of the sorted sample, plus how many samples lie strictly
// beyond that rank. A percentile with fewer than kMinBeyond samples beyond
// it rests on too few observations to be reported.
struct Percentile {
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};

inline constexpr size_t kMinBeyond = 10;

// `sorted` must be ascending; q in (0, 1].
inline Percentile PercentileOfSorted(const std::vector<double>& sorted,
                                     double q) {
  Percentile p;
  p.samples = sorted.size();
  if (sorted.empty()) return p;
  // The epsilon keeps q * n from rounding up past an exact rank
  // (0.9 * 100 is 90.00000000000001 in binary floating point).
  double rank_f = std::ceil(q * static_cast<double>(sorted.size()) - 1e-9);
  rank_f = std::clamp(rank_f, 1.0, static_cast<double>(sorted.size()));
  const size_t rank = static_cast<size_t>(rank_f);
  p.value = sorted[rank - 1];
  p.beyond = sorted.size() - rank;
  return p;
}

inline Percentile PercentileOf(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return PercentileOfSorted(values, q);
}

// Robust per-run figures: the pass is cut into `windows` slices of equal
// wall time over [start_ns, end_ns], each answered request falls into the
// slice its answer arrived in, and every figure is the median over slices
// of that slice's value. A host stall of a few milliseconds (common on a
// shared VM) then spoils one slice instead of the run's tail percentile.
struct WindowMedians {
  double throughput = 0.0;  // answers per second
  double p50 = 0.0;
  double p90 = 0.0;
  size_t min_beyond_p90 = 0;  // fewest samples beyond any slice's p90
  std::vector<double> rates, p50s, p90s;  // per slice
};

inline double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// `done_ns[i]` and `latency_us[i]` describe answered request i.
inline WindowMedians MediansOverWindows(const std::vector<int64_t>& done_ns,
                                        const std::vector<double>& latency_us,
                                        int64_t start_ns, int64_t end_ns,
                                        int windows) {
  WindowMedians m;
  if (windows < 1 || end_ns <= start_ns) return m;
  const double slice_ns =
      static_cast<double>(end_ns - start_ns) / static_cast<double>(windows);
  std::vector<std::vector<double>> slices(static_cast<size_t>(windows));
  for (size_t i = 0; i < done_ns.size(); ++i) {
    const double k = std::floor(static_cast<double>(done_ns[i] - start_ns) /
                                slice_ns);
    const size_t w = static_cast<size_t>(
        std::clamp(k, 0.0, static_cast<double>(windows - 1)));
    slices[w].push_back(latency_us[i]);
  }
  m.min_beyond_p90 = done_ns.size();
  for (std::vector<double>& s : slices) {
    std::sort(s.begin(), s.end());
    m.rates.push_back(static_cast<double>(s.size()) / (slice_ns / 1e9));
    m.p50s.push_back(PercentileOfSorted(s, 0.5).value);
    const Percentile p90 = PercentileOfSorted(s, 0.9);
    m.p90s.push_back(p90.value);
    m.min_beyond_p90 = std::min(m.min_beyond_p90, p90.beyond);
  }
  m.throughput = MedianOf(m.rates);
  m.p50 = MedianOf(m.p50s);
  m.p90 = MedianOf(m.p90s);
  return m;
}

// One open-loop request: `due_ns` is when the schedule said to send it,
// `sent_ns` when a sender actually did, `done_ns` when the answer arrived.
// Latency counts from the due time, so a late generator (or a stall that
// delays later sends) shows up in every request it delays; lag is how late
// the generator ran for this request.
struct DueTiming {
  double latency_us = 0.0;
  double lag_us = 0.0;
};

inline DueTiming DueTimeLatency(int64_t due_ns, int64_t sent_ns,
                                int64_t done_ns) {
  DueTiming t;
  t.latency_us = static_cast<double>(done_ns - due_ns) / 1000.0;
  t.lag_us = static_cast<double>(std::max<int64_t>(sent_ns - due_ns, 0)) /
             1000.0;
  return t;
}

// How one attempted request (or ChoosePlan call) ended.
enum class Outcome {
  kCorrect,         // answered, and the answer passed the correctness check
  kMismatch,        // answered, but the answer failed the correctness check
  kRefused,         // admission refused (backpressure, shutdown, no tenant)
  kDeadlineMissed,  // the request's deadline elapsed
};

// Outcome books for a run. A refused, late or wrong answer counts against
// both shares; goodput additionally needs the answer within the workload's
// latency limit.
struct Accounting {
  uint64_t attempted = 0;
  uint64_t correct = 0;
  uint64_t within_limit = 0;  // correct AND latency <= limit
  uint64_t mismatched = 0;
  uint64_t refused = 0;
  uint64_t deadline_missed = 0;

  void Add(Outcome outcome, double latency_us, double limit_us) {
    ++attempted;
    switch (outcome) {
      case Outcome::kCorrect:
        ++correct;
        if (latency_us <= limit_us) ++within_limit;
        break;
      case Outcome::kMismatch:
        ++mismatched;
        break;
      case Outcome::kRefused:
        ++refused;
        break;
      case Outcome::kDeadlineMissed:
        ++deadline_missed;
        break;
    }
  }
  uint64_t failed() const { return attempted - correct; }
  double OkShare() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(correct) /
                                static_cast<double>(attempted);
  }
  double GoodputShare() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(within_limit) /
                                static_cast<double>(attempted);
  }
};

// max(pred/actual, actual/pred); both must be positive.
inline double QError(double predicted, double actual) {
  return std::max(predicted / actual, actual / predicted);
}

// Geometric mean over queries of chosen runtime / best-candidate runtime.
// `chosen[i]` and `best[i]` belong to query i; every best[i] > 0 and
// chosen[i] >= best[i]. Returns 1 for an empty list (no choice, no regret).
inline double GeometricMeanRegret(const std::vector<double>& chosen,
                                  const std::vector<double>& best) {
  if (chosen.empty()) return 1.0;
  double log_sum = 0.0;
  for (size_t i = 0; i < chosen.size(); ++i) {
    log_sum += std::log(chosen[i] / best[i]);
  }
  return std::exp(log_sum / static_cast<double>(chosen.size()));
}

// Index of the first finite minimum, the tie-break Optimizer::ChoosePlan
// applies to scores.
inline size_t ArgminScore(const std::vector<double>& scores) {
  size_t best = 0;
  for (size_t i = 1; i < scores.size(); ++i) {
    if (std::isfinite(scores[i]) &&
        (!std::isfinite(scores[best]) || scores[i] < scores[best])) {
      best = i;
    }
  }
  return best;
}

// The q-error budget the packed f32 teacher keeps against the f64 per-plan
// teacher (packed_inference_test.cc asserts 1.001).
inline constexpr double kF32TeacherBudget = 1.001;

// Whether a served answer honours the serving precision's contract.
// `tiered_ref` is the offline reference through the same tiered path with
// packing off, `teacher_ref` the offline f64 per-plan teacher. When the two
// differ the student answered the plan, and student answers are
// deterministic per plan, so the served value must match bit for bit. When
// they agree the plan escalated to the teacher: bit-identical at f64, within
// kF32TeacherBudget when the teacher ran its packed f32 image.
inline bool WithinContract(double served, double tiered_ref,
                           double teacher_ref, bool f64_teacher) {
  if (tiered_ref != teacher_ref) return served == tiered_ref;
  if (f64_teacher) return served == teacher_ref;
  return served > 0.0 && QError(served, teacher_ref) < kF32TeacherBudget;
}

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_STATS_H_
