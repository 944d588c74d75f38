// perfbench driver: runs one workload against the DACE serving stack, checks
// every answer, and prints the run's metrics. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench_driver --workload=serve_closed_hot|serve_closed_miss|
//                    plan_choice|serve_open_miss
//                    --seed=N --seconds=S --trace=0|1 --out-dir=DIR
//
// serve_open_miss is a diagnostic open-loop workload, not part of
// BENCHMARK.json (see README.md for why).
//
// --trace=0 measures the end-to-end metrics with tracing off. --trace=1 runs
// the same pass untraced, then once more with the benchmark's spans and the
// program's TraceCollector on, and reports the per-layer metrics, the part
// of client latency no span covers, and the tracing overhead. DIR receives
// the checkpoint and trace.json.
//
// Exit codes: 0 ok; 1 a wrong answer or a failed call (the result line says
// "correct": false when one was printed); 2 bad arguments; 3 the run is void
// (a validity check failed; nothing is printed on stdout).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "nn/kernels_f32.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spans.h"
#include "stats.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace obs = dace::obs;

struct Options {
  Workload workload = Workload::kServeClosedHot;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string out_dir;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver "
               "--workload=serve_closed_hot|serve_closed_miss|plan_choice|"
               "serve_open_miss --seed=N --seconds=S --trace=0|1 "
               "--out-dir=DIR\n",
               why.c_str());
  std::exit(2);
}

int64_t ParseInt(const std::string& key, const std::string& value,
                 int64_t lo, int64_t hi) {
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || v < lo || v > hi) {
    Usage("bad value for --" + key + ": '" + value + "'");
  }
  return v;
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Usage("malformed argument '" + arg + "'");
    }
    kv[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "out-dir"}) {
    if (kv.count(required) == 0) Usage(std::string("missing --") + required);
  }
  if (kv.size() != 5) Usage("unknown argument");
  const std::string& w = kv["workload"];
  if (w == "serve_closed_hot") {
    o.workload = Workload::kServeClosedHot;
  } else if (w == "serve_closed_miss") {
    o.workload = Workload::kServeClosedMiss;
  } else if (w == "serve_open_miss") {
    o.workload = Workload::kServeOpenMiss;
  } else if (w == "plan_choice") {
    o.workload = Workload::kPlanChoice;
  } else {
    Usage("unknown workload '" + w + "'");
  }
  o.seed = static_cast<uint64_t>(
      ParseInt("seed", kv["seed"], 0, int64_t{1} << 40));
  o.seconds = static_cast<int>(ParseInt("seconds", kv["seconds"], 1, 60));
  o.trace = ParseInt("trace", kv["trace"], 0, 1) == 1;
  o.out_dir = kv["out-dir"];
  return o;
}

double Median(std::vector<double> v) {
  return v.empty() ? 0.0 : PercentileOf(std::move(v), 0.5).value;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

// One reported metric; `samples` is what the figure rests on.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit,
                        samples});
  }
  void PrintTable(const char* title) const {
    std::printf("%s\n", title);
    for (const Metric& m : metrics_) {
      std::printf("  %-28s %16.6f %-6s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
  }
  std::string Json() const {
    std::string out = "{";
    char buf[256];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                    metrics_[i].value, metrics_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

// Everything one timed pass produced.
struct PassReport {
  PassResult pass;
  Quality quality;
  Accounting accounting;
  std::vector<double> answered_us;  // latency of answered requests, sorted
  WindowMedians windows;            // over Shape::kWindows slices of the pass
};

double LimitUs(Workload w) {
  switch (w) {
    case Workload::kServeClosedHot:
    case Workload::kServeClosedMiss:
      return Shape::kClosedLimitUs;
    case Workload::kServeOpenMiss:
      return Shape::kOpenLimitUs;
    case Workload::kPlanChoice:
      return Shape::kChoiceLimitUs;
  }
  return 0.0;
}

// The pool every timed pass pins: one thread, so senders + drainers + pool
// workers stay within the CPUs and nothing in the pass oversubscribes.
constexpr int kPassPoolThreads = 1;

class Bench {
 public:
  explicit Bench(const Options& o) : o_(o), nproc_(HardwareThreads()) {}

  int Run();

 private:
  void GenerateInputs();
  void SetUp();
  PassReport TimedPass(bool traced);
  std::optional<std::string> VoidReason(const PassReport& r) const;
  void AddEndToEnd(const PassReport& r, Report* report) const;
  void AddPerLayer(const PassReport& traced, const PassReport& plain,
                   Report* report);

  const Options o_;
  const int nproc_;
  World world_;
  Traffic traffic_;
  std::vector<Query> choice_queries_;
  std::vector<SetupTimes> setups_;
  Deployment deployment_;
  std::string checkpoint_;
  std::vector<Span> setup_spans_;
};

void Bench::GenerateInputs() {
  // The load generator's inputs, built before set-up and outside every
  // timed figure: the program only ever receives the generated plans.
  switch (o_.workload) {
    case Workload::kServeClosedHot:
      traffic_ = GenerateTraffic(world_, Shape::kHotQueries, 0);
      break;
    case Workload::kServeClosedMiss:
      traffic_ = GenerateTraffic(world_, static_cast<int>(Shape::kMissPlans),
                                 Shape::kMissPlans);
      ShuffleTraffic(o_.seed, &traffic_);
      break;
    case Workload::kServeOpenMiss: {
      const size_t n = static_cast<size_t>(Shape::kOpenRate * o_.seconds);
      traffic_ = GenerateTraffic(world_, static_cast<int>(n), n);
      ShuffleTraffic(o_.seed, &traffic_);
      break;
    }
    case Workload::kPlanChoice:
      choice_queries_ =
          GenerateQueries(world_, Shape::kChoicePerSecond * o_.seconds);
      ShuffleQueries(o_.seed, &choice_queries_);
      break;
  }
}

void Bench::SetUp() {
  // Set up several times and report the median, so set-up time is a steady
  // figure and work moved into set-up shows. Every repeat is identical
  // (training is bit-deterministic); the last one serves.
  SpanLog::SetEnabled(o_.trace);
  dace::ThreadPool::SetDefaultThreads(Shape::kSetupPoolThreads);
  for (int k = 0; k < Shape::kSetupRepeats; ++k) {
    const int64_t t0 = NowNs();
    SetupTimes times = TrainAndSave(world_, checkpoint_);
    deployment_ = Deploy(o_.workload, checkpoint_);
    times.total_s = static_cast<double>(NowNs() - t0) / 1e9;
    setups_.push_back(times);
  }
  dace::ThreadPool::SetDefaultThreads(nproc_);
  SpanLog::SetEnabled(false);
  setup_spans_ = SpanLog::Collect();
  SpanLog::Clear();
}

PassReport Bench::TimedPass(bool traced) {
  PassReport r;
  dace::ThreadPool::SetDefaultThreads(kPassPoolThreads);
  obs::MetricsRegistry::Default()
      ->GetGauge("serve.queue.depth.high_water")
      ->Reset();
  if (traced) {
    obs::TraceCollector::Default()->Clear();
    obs::TraceCollector::SetEnabled(true);
  }
  SpanLog::SetEnabled(traced);
  switch (o_.workload) {
    case Workload::kServeClosedHot:
    case Workload::kServeClosedMiss:
      r.pass = RunClosed(traffic_, deployment_,
                         o_.workload == Workload::kServeClosedHot, o_.seed,
                         o_.seconds);
      break;
    case Workload::kServeOpenMiss:
      r.pass = RunOpenMiss(traffic_, deployment_, o_.seed);
      break;
    case Workload::kPlanChoice:
      r.pass = RunPlanChoice(world_, choice_queries_, deployment_);
      break;
  }
  obs::TraceCollector::SetEnabled(false);
  dace::ThreadPool::SetDefaultThreads(nproc_);
  // Correctness check on offline clones of the served checkpoint. Only the
  // plan_choice check records spans: its EnumerateCandidates calls.
  if (o_.workload == Workload::kPlanChoice) {
    r.quality = CheckPlanChoice(world_, choice_queries_,
                                *deployment_.estimator, &r.pass);
  } else {
    SpanLog::SetEnabled(false);
    r.quality = CheckServe(
        traffic_, **deployment_.registry->Get(deployment_.tenants[0]),
        &r.pass);
  }
  SpanLog::SetEnabled(false);
  const double limit = LimitUs(o_.workload);
  std::vector<int64_t> answered_done;
  for (size_t i = 0; i < r.pass.outcome.size(); ++i) {
    const Outcome outcome = r.pass.outcome[i];
    r.accounting.Add(outcome, r.pass.latency_us[i], limit);
    if (outcome == Outcome::kCorrect || outcome == Outcome::kMismatch) {
      r.answered_us.push_back(r.pass.latency_us[i]);
      answered_done.push_back(r.pass.done_ns[i]);
    }
  }
  r.windows = MediansOverWindows(answered_done, r.answered_us,
                                 r.pass.start_ns, r.pass.end_ns(),
                                 Shape::kWindows);
  std::sort(r.answered_us.begin(), r.answered_us.end());
  return r;
}

std::optional<std::string> Bench::VoidReason(const PassReport& r) const {
  char buf[256];
  if (r.pass.threads_planned > nproc_ || r.pass.threads_live > nproc_) {
    std::snprintf(buf, sizeof(buf),
                  "%d benchmark threads planned, %d live, on %d CPUs",
                  r.pass.threads_planned, r.pass.threads_live, nproc_);
    return buf;
  }
  // Every reported percentile needs at least kMinBeyond samples beyond it:
  // the p90 of every slice, and the run's p99 that the traced run reports.
  if (r.windows.min_beyond_p90 < kMinBeyond) {
    std::snprintf(buf, sizeof(buf),
                  "a slice's latency p90 rests on %zu samples beyond it "
                  "(< %zu)",
                  r.windows.min_beyond_p90, kMinBeyond);
    return buf;
  }
  if (o_.trace &&
      PercentileOfSorted(r.answered_us, 0.99).beyond < kMinBeyond) {
    return std::string("latency p99 rests on fewer than 10 samples beyond it");
  }
  if (o_.workload == Workload::kServeOpenMiss) {
    const Percentile lag = PercentileOf(r.pass.lag_us, 0.9);
    if (lag.value > Shape::kMaxLagP90Us) {
      std::snprintf(buf, sizeof(buf),
                    "generator lateness p90 %.0f us over the %.0f us limit",
                    lag.value, Shape::kMaxLagP90Us);
      return buf;
    }
    if (r.pass.backlog_at_end > Shape::kMaxBacklog) {
      std::snprintf(buf, sizeof(buf),
                    "%zu requests still unsent when the schedule ended "
                    "(limit %zu)",
                    r.pass.backlog_at_end, Shape::kMaxBacklog);
      return buf;
    }
  }
  return std::nullopt;
}

void Bench::AddEndToEnd(const PassReport& r, Report* report) const {
  std::vector<double> setup_s;
  for (const SetupTimes& s : setups_) setup_s.push_back(s.total_s);
  const size_t answered = r.answered_us.size();
  report->Add("setup_s", Median(setup_s), "s", setup_s.size());
  report->Add("latency_p50_us", r.windows.p50, "us", answered);
  report->Add("goodput_share", r.accounting.GoodputShare(), "ratio",
              r.accounting.attempted);
  report->Add("ok_share", r.accounting.OkShare(), "ratio",
              r.accounting.attempted);
  report->Add("qerror_p50", PercentileOf(r.quality.qerrors, 0.5).value,
              "ratio", r.quality.qerrors.size());
  report->Add("qerror_p95", PercentileOf(r.quality.qerrors, 0.95).value,
              "ratio", r.quality.qerrors.size());
  report->Add("regret_gmean",
              GeometricMeanRegret(r.quality.chosen_ms, r.quality.best_ms),
              "ratio", r.quality.chosen_ms.size());
  report->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
}

// Sum of the durations of the program's `name` spans, scaled up on threads
// whose ring wrapped: a wrapped ring holds only its newest spans, which
// cover [oldest retained begin, pass end] of the pass.
double ProgramSpanUs(const std::vector<obs::TraceEvent>& events,
                     const char* name, int64_t epoch_ns, int64_t begin_ns,
                     int64_t end_ns) {
  std::map<uint32_t, std::pair<size_t, int64_t>> per_thread;  // count, oldest
  for (const obs::TraceEvent& e : events) {
    auto [it, fresh] = per_thread.try_emplace(e.tid, 0, INT64_MAX);
    ++it->second.first;
    it->second.second = std::min(
        it->second.second, epoch_ns + static_cast<int64_t>(e.ts_us) * 1000);
  }
  double total = 0.0;
  for (const obs::TraceEvent& e : events) {
    if (std::string_view(e.name) != name) continue;
    const auto& [count, oldest] = per_thread[e.tid];
    double scale = 1.0;
    if (count >= obs::TraceBuffer::kCapacity && end_ns > oldest) {
      scale = static_cast<double>(end_ns - begin_ns) /
              static_cast<double>(end_ns - std::max(oldest, begin_ns));
    }
    total += static_cast<double>(e.dur_us) * scale;
  }
  return total;
}

void Bench::AddPerLayer(const PassReport& traced, const PassReport& plain,
                        Report* report) {
  const PassResult& p = traced.pass;
  const RegistryDelta& reg = p.registry;
  const bool serve = o_.workload != Workload::kPlanChoice;
  const std::vector<Span> spans = SpanLog::Collect();
  const std::vector<obs::TraceEvent> events =
      obs::TraceCollector::Default()->SnapshotEvents();
  const int64_t epoch_ns =
      NowNs() - static_cast<int64_t>(obs::internal::TraceNowUs()) * 1000;
  const std::vector<int64_t> self_ns = SelfTimesNs(spans);

  // The benchmark's own spans: durations and self time per layer.
  std::map<std::string, std::vector<double>> dur_us, self_us;
  for (size_t i = 0; i < spans.size(); ++i) {
    dur_us[spans[i].name].push_back(
        static_cast<double>(spans[i].end_ns - spans[i].begin_ns) / 1000.0);
    self_us[spans[i].name].push_back(static_cast<double>(self_ns[i]) / 1000.0);
  }
  std::printf("self time per layer (benchmark spans, traced pass):\n");
  for (const auto& [name, v] : self_us) {
    std::printf("  %-28s n=%-8zu self p50 %10.2f us  total %10.1f ms\n",
                name.c_str(), v.size(), Median(v),
                std::accumulate(v.begin(), v.end(), 0.0) / 1000.0);
  }
  std::map<std::string, std::pair<size_t, double>> program;
  for (const obs::TraceEvent& e : events) {
    auto& [n, total] = program[e.name];
    ++n;
    total += static_cast<double>(e.dur_us);
  }
  std::printf("program spans retained (a sample: the ring keeps the newest "
              "%zu spans per thread; %zu retained of %llu recorded):\n",
              obs::TraceBuffer::kCapacity, events.size(),
              static_cast<unsigned long long>(
                  obs::TraceCollector::Default()->TotalRecorded()));
  for (const auto& [name, nt] : program) {
    std::printf("  %-28s n=%-8zu total %10.1f ms\n", name.c_str(), nt.first,
                nt.second / 1000.0);
  }

  // Client latency no span covers. Serve: the EstimateTracked interval (from
  // the due time in the open loop) minus the wait for a sender and the
  // program's serve.batch span that answered it: admission, queueing, the
  // coalescing timer and the drainer handoff. plan_choice: ChoosePlan minus
  // ScorePlans, i.e. candidate enumeration.
  std::vector<double> unattributed;
  double unattributed_sum = 0.0, latency_sum = 0.0;
  if (serve) {
    std::vector<std::pair<int64_t, int64_t>> batches;  // (end, begin)
    for (const obs::TraceEvent& e : events) {
      if (std::string_view(e.name) != "serve.batch") continue;
      const int64_t b = epoch_ns + static_cast<int64_t>(e.ts_us) * 1000;
      batches.emplace_back(b + static_cast<int64_t>(e.dur_us) * 1000, b);
    }
    std::sort(batches.begin(), batches.end());
    int64_t oldest = INT64_MAX;
    for (const auto& [e, b] : batches) oldest = std::min(oldest, b);
    std::map<uint64_t, const Span*> waits;
    for (const Span& s : spans) {
      if (std::string_view(s.name) == "client.wait_sender") {
        waits[s.request] = &s;
      }
    }
    for (const Span& s : spans) {
      if (std::string_view(s.name) != "serve.EstimateTracked" ||
          s.begin_ns < oldest) {
        continue;
      }
      auto it = std::upper_bound(batches.begin(), batches.end(),
                                 std::make_pair(s.end_ns, INT64_MAX));
      const std::pair<int64_t, int64_t>* answer = nullptr;
      while (it != batches.begin()) {
        --it;
        if (it->first <= s.begin_ns) break;
        if (it->second >= s.begin_ns) {
          answer = &*it;
          break;
        }
      }
      if (answer == nullptr) continue;
      int64_t latency = s.end_ns - s.begin_ns;
      int64_t covered = answer->first - answer->second;
      if (auto w = waits.find(s.request); w != waits.end()) {
        latency = s.end_ns - w->second->begin_ns;
        covered += w->second->end_ns - w->second->begin_ns;
      }
      const double u = static_cast<double>(latency - covered) / 1000.0;
      unattributed.push_back(u);
      unattributed_sum += u;
      latency_sum += static_cast<double>(latency) / 1000.0;
    }
  } else {
    for (size_t i = 0; i < spans.size(); ++i) {
      if (std::string_view(spans[i].name) != "engine.ChoosePlan") continue;
      const double u = static_cast<double>(self_ns[i]) / 1000.0;
      unattributed.push_back(u);
      unattributed_sum += u;
      latency_sum +=
          static_cast<double>(spans[i].end_ns - spans[i].begin_ns) / 1000.0;
    }
  }

  const auto share = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto hist_p50 = [&](const char* name) {
    const obs::Histogram::Snapshot h = reg.Histogram(name);
    return h.count == 0 ? 0.0 : h.Quantile(0.5);
  };
  const auto median_of = [&](const char* name) {
    auto it = dur_us.find(name);
    return it == dur_us.end() ? 0.0 : Median(it->second);
  };
  std::vector<double> train_s, distill_s, label_s, busy, train_rate;
  for (const SetupTimes& s : setups_) {
    train_rate.push_back(s.train_plans_per_s);
    train_s.push_back(s.train_s);
    distill_s.push_back(s.distill_s);
    label_s.push_back(s.label_s);
    busy.push_back(s.pool_busy_share);
  }
  const size_t answered = traced.answered_us.size();
  const uint64_t joined = reg.Counter("serve.feedback.joined");
  const uint64_t teacher_plans = reg.Counter("predict.tier.escalated") +
                                 reg.Counter("predict.tier.teacher");
  const uint64_t rows_valid = reg.Counter("predict.pack.rows.valid");
  const uint64_t rows_padded = reg.Counter("predict.pack.rows.padded");
  const obs::Histogram::Snapshot batch_size =
      reg.Histogram("serve.batch.size");
  const double estimate_p50 = median_of("serve.EstimateTracked");
  const double client_p50 = traced.windows.p50;
  const double plain_p50 = plain.windows.p50;

  report->Add("serve.queue_wait_us_p50",
              serve ? estimate_p50 - hist_p50("serve.batch.latency_us") : 0.0,
              "us", serve ? answered : 0);
  report->Add("serve.batch_us_p50", hist_p50("serve.batch.latency_us"), "us",
              reg.Histogram("serve.batch.latency_us").count);
  report->Add("serve.batch_size_mean", batch_size.Mean(), "count",
              batch_size.count);
  report->Add("serve.batches",
              static_cast<double>(reg.Counter("serve.batches")), "count", 1);
  report->Add("serve.queue_depth_hw",
              reg.Gauge("serve.queue.depth.high_water"), "count", 1);
  report->Add("serve.feedback_us_p50", Median(p.feedback_us), "us",
              p.feedback_us.size());
  report->Add("serve.feedback_join_share",
              serve ? share(static_cast<double>(joined),
                            static_cast<double>(answered))
                    : 0.0,
              "ratio", serve ? answered : 0);
  report->Add("serve.swap_us", Mean(p.swap_us), "us", p.swap_us.size());
  report->Add("serve.rejected",
              static_cast<double>(reg.Counter("serve.admission.rejected")),
              "count", 1);
  report->Add("serve.deadline_missed",
              static_cast<double>(reg.Counter("serve.deadline.missed")),
              "count", 1);
  const double lookups = static_cast<double>(p.cache.hits + p.cache.misses);
  report->Add("core.cache_hit_share",
              share(static_cast<double>(p.cache.hits), lookups), "ratio",
              static_cast<size_t>(lookups));
  report->Add("core.cache_evictions", static_cast<double>(p.cache.evictions),
              "count", 1);
  report->Add("core.tier_student_share",
              share(static_cast<double>(reg.Counter("predict.tier.student")),
                    static_cast<double>(reg.Counter("predict.tier.requests"))),
              "ratio", reg.Counter("predict.tier.requests"));
  report->Add("core.pack_fill_share",
              share(static_cast<double>(rows_valid),
                    static_cast<double>(rows_valid + rows_padded)),
              "ratio", rows_valid + rows_padded);
  report->Add("core.score_us_p50", median_of("core.ScorePlans"), "us",
              dur_us["core.ScorePlans"].size());
  report->Add("core.train_s", Median(train_s), "s", train_s.size());
  report->Add("core.distill_s", Median(distill_s), "s", distill_s.size());
  report->Add("core.train_plans_per_s", Median(train_rate), "1/s",
              train_rate.size());
  // predict.featurize / predict.forward are leaf spans: self time is their
  // duration. Divided by the plans the teacher priced (student answers run
  // no such span). The sample is the retained spans, so misses that cluster
  // outside the retained window (serve_closed_hot's post-swap refills) can
  // read 0.
  const auto per_teacher_plan = [&](const char* span, const char* metric) {
    const size_t retained = static_cast<size_t>(
        std::count_if(events.begin(), events.end(), [&](const auto& e) {
          return std::string_view(e.name) == span;
        }));
    report->Add(metric,
                share(ProgramSpanUs(events, span, epoch_ns, p.start_ns,
                                    p.end_ns()),
                      static_cast<double>(teacher_plans)),
                "us", retained);
  };
  per_teacher_plan("predict.featurize", "featurize.us_per_plan");
  per_teacher_plan("predict.forward", "nn.forward_us_per_plan");
  report->Add("engine.enumerate_us_p50", Median(traced.quality.enumerate_us),
              "us", traced.quality.enumerate_us.size());
  report->Add("engine.candidates_per_query", Mean(traced.quality.candidates),
              "count", traced.quality.candidates.size());
  report->Add("engine.label_s", Median(label_s), "s", label_s.size());
  report->Add("obs.drift_alarms_per_10k",
              share(1e4 * static_cast<double>(reg.Counter("drift.alarms")),
                    static_cast<double>(joined)),
              "count", joined);
  report->Add("util.pool_busy_share", Median(busy), "ratio", busy.size());
  // Throughput and p90 come from the untraced pass. They are per-layer, not
  // end-to-end: host wake-up stalls move them by up to 2x between minutes
  // (see README.md).
  report->Add("client.throughput_rps", plain.windows.throughput, "1/s",
              plain.answered_us.size());
  report->Add("client.latency_p90_us", plain.windows.p90, "us",
              plain.answered_us.size());
  report->Add("client.latency_p99_us",
              PercentileOfSorted(traced.answered_us, 0.99).value, "us",
              answered);
  report->Add("client.gen_lag_p99_us",
              serve && !p.lag_us.empty() ? PercentileOf(p.lag_us, 0.99).value
                                         : 0.0,
              "us", p.lag_us.size());
  report->Add("trace.unattributed_us_p50", Median(unattributed), "us",
              unattributed.size());
  report->Add("trace.unattributed_share", share(unattributed_sum, latency_sum),
              "ratio", unattributed.size());
  report->Add("trace.overhead_us", client_p50 - plain_p50, "us", answered);

  std::vector<Span> all = setup_spans_;
  all.insert(all.end(), spans.begin(), spans.end());
  const std::string path = o_.out_dir + "/trace.json";
  if (!WriteTraceJson(path, all, events, epoch_ns)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
  std::printf("trace written to %s (%zu benchmark spans, %zu program spans)\n",
              path.c_str(), all.size(), events.size());
}

int Bench::Run() {
  std::filesystem::create_directories(o_.out_dir);
  checkpoint_ = o_.out_dir + "/served.ckpt";
  // The default serving configuration: int8 student tier, escalation to
  // the packed f32 teacher.
  dace::nn::kernel::SetPrecision(dace::nn::kernel::Precision::kI8);
  dace::ThreadPool::SetDefaultThreads(nproc_);
  GenerateInputs();
  SetUp();

  std::vector<PassReport> passes;
  passes.push_back(TimedPass(false));
  if (o_.trace) {
    // A fresh deployment (cold caches, new service state) for the traced
    // pass, so it repeats the untraced pass exactly.
    deployment_ = Deploy(o_.workload, checkpoint_);
    passes.push_back(TimedPass(true));
  }

  Report end_to_end;
  AddEndToEnd(passes.front(), &end_to_end);
  end_to_end.PrintTable(o_.trace ? "end-to-end (untraced pass):"
                                 : "end-to-end:");
  Report per_layer;
  if (o_.trace) {
    AddPerLayer(passes.back(), passes.front(), &per_layer);
    per_layer.PrintTable("per-layer (traced pass):");
  }
  const WindowMedians& w = passes.front().windows;
  std::printf("ungated (median over slices): throughput %.1f /s, latency "
              "p90 %.1f us\n",
              w.throughput, w.p90);
  std::printf("per slice (%d of %.2f s): answers/s, latency p50 / p90 us\n",
              Shape::kWindows, passes.front().pass.wall_s / Shape::kWindows);
  for (size_t k = 0; k < w.rates.size(); ++k) {
    std::printf("  %2zu %10.1f %10.1f %10.1f\n", k, w.rates[k], w.p50s[k],
                w.p90s[k]);
  }
  if (o_.workload == Workload::kServeOpenMiss) {
    const PassResult& p = passes.front().pass;
    std::printf("open loop: %zu arrivals at %.0f/s, generator lag p50 %.1f "
                "us p99 %.1f us, backlog at schedule end %zu\n",
                p.outcome.size(), Shape::kOpenRate,
                PercentileOf(p.lag_us, 0.5).value,
                PercentileOf(p.lag_us, 0.99).value, p.backlog_at_end);
  }

  for (const PassReport& r : passes) {
    if (const auto why = VoidReason(r)) {
      std::fprintf(stderr, "perfbench: run void: %s\n", why->c_str());
      std::printf("run void: %s\n", why->c_str());
      return 3;
    }
  }

  uint64_t attempted = 0, failed = 0, mismatches = 0;
  for (const PassReport& r : passes) {
    attempted += r.accounting.attempted;
    failed += r.accounting.failed();
    mismatches += r.quality.mismatches;
  }
  const bool correct = failed == 0;
  std::printf("correctness: %llu attempted, %llu failed, %llu answers "
              "outside the precision contract\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(mismatches));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              (o_.trace ? per_layer : end_to_end).Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::ParseOptions(argc, argv);
  perfbench::Bench bench(options);
  return bench.Run();
}
