#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>

#include "core/plan_choice.h"
#include "engine/corpus.h"
#include "engine/dataset.h"
#include "engine/executor.h"
#include "engine/machine.h"
#include "nn/kernels_f32.h"
#include "serve/service.h"
#include "spans.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

using dace::Rng;
using dace::StatusCode;
using dace::ThreadPool;
namespace core = dace::core;
namespace engine = dace::engine;
namespace obs = dace::obs;
namespace plan = dace::plan;
namespace serve = dace::serve;

namespace {

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

double SecondsSince(int64_t t0_ns) {
  return static_cast<double>(NowNs() - t0_ns) / 1e9;
}

core::DaceConfig ModelConfig() {
  core::DaceConfig config;
  config.epochs = Shape::kEpochs;
  return config;
}

// Runtime noise seed of a population query: all candidates of one query see
// identical machine conditions, as in the selection bench.
uint64_t NoiseSeed(const Query& q) {
  return Shape::kPopulationSeed * 1000003 + q.id;
}

// Sleeps until shortly before `target_ns`, then yields until it passes, so
// an open-loop send leaves within a few microseconds of its due time.
void WaitUntil(int64_t target_ns) {
  constexpr int64_t kSpinNs = 100'000;
  const int64_t now = NowNs();
  if (target_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(target_ns - now - kSpinNs));
  }
  while (NowNs() < target_ns) std::this_thread::yield();
}

Outcome OutcomeOf(const dace::Status& status) {
  return status.code() == StatusCode::kDeadlineExceeded
             ? Outcome::kDeadlineMissed
             : Outcome::kRefused;
}

void AddCacheStats(const core::PredictionCache::Stats& s,
                   core::PredictionCache::Stats* sum) {
  sum->hits += s.hits;
  sum->misses += s.misses;
  sum->evictions += s.evictions;
}

// Scorer handed to Optimizer::ChoosePlan: the EstimatorPlanChoice adapter,
// with a span around each ScorePlans call.
class SpannedScorer final : public core::PlanChoiceEstimator {
 public:
  explicit SpannedScorer(const core::CostEstimator* estimator)
      : inner_(estimator) {}
  std::string Name() const override { return inner_.Name(); }
  double ScorePlan(const plan::QueryPlan& p) const override {
    return inner_.ScorePlan(p);
  }
  std::vector<double> ScorePlans(
      std::span<const plan::QueryPlan> plans) const override {
    SpanScope span("core.ScorePlans");
    return inner_.ScorePlans(plans);
  }
  bool ScoresAreMilliseconds() const override { return true; }

 private:
  core::EstimatorPlanChoice inner_;
};

// Offline re-pricing of plans on clones of the served checkpoint: the same
// tiered path with packing off, and the f64 per-plan teacher alone.
struct References {
  std::unique_ptr<core::DaceEstimator> tiered, teacher;
  bool f64_teacher = false;
};

References MakeReferences(const core::DaceEstimator& served) {
  References r;
  r.tiered = served.Clone();
  r.teacher = served.Clone();
  for (core::DaceEstimator* e : {r.tiered.get(), r.teacher.get()}) {
    e->set_packed_inference(core::DaceEstimator::PackedMode::kOff);
    e->set_prediction_cache_capacity(0);
  }
  r.tiered->set_tier_mode(core::DaceEstimator::TierMode::kAuto);
  r.teacher->set_tier_mode(core::DaceEstimator::TierMode::kTeacherOnly);
  r.f64_teacher = dace::nn::kernel::ActivePrecision() ==
                  dace::nn::kernel::Precision::kF64;
  return r;
}

}  // namespace

World::World() {
  dbs.push_back(engine::BuildTpchLike(42));
  dbs.push_back(engine::BuildImdbLike(43));
  for (const engine::Database& db : dbs) {
    optimizers.push_back(std::make_unique<engine::Optimizer>(&db));
  }
}

double ActualMs(const plan::QueryPlan& p) {
  return p.node(p.root()).actual_time_ms;
}

std::vector<Query> GenerateQueries(const World& world, int count) {
  Rng rng(Shape::kPopulationSeed * 7919 + 17);
  std::vector<Query> queries(static_cast<size_t>(count));
  for (size_t i = 0; i < queries.size(); ++i) {
    Query& q = queries[i];
    q.id = static_cast<uint32_t>(i);
    q.db = static_cast<int>(
        rng.UniformInt(0, static_cast<int64_t>(world.dbs.size()) - 1));
    q.spec = engine::GenerateQuery(world.dbs[static_cast<size_t>(q.db)],
                                   engine::WorkloadKind::kComplex, &rng);
  }
  return queries;
}

Traffic GenerateTraffic(const World& world, int queries, size_t min_plans) {
  Traffic t;
  t.queries = GenerateQueries(world, queries);
  std::vector<std::vector<plan::QueryPlan>> per_query(t.queries.size());
  // Chunks of queries until the candidate sets reach min_plans; the spec
  // list is fixed, so the kept prefix is too.
  constexpr size_t kChunk = 256;
  size_t kept = 0, plans = 0;
  while (kept < t.queries.size() && (min_plans == 0 || plans < min_plans)) {
    const size_t hi = std::min(kept + kChunk, t.queries.size());
    ThreadPool::Default()->ParallelFor(kept, hi, [&](size_t q) {
      const Query& query = t.queries[q];
      const engine::Database& db = world.dbs[static_cast<size_t>(query.db)];
      per_query[q] = world.optimizers[static_cast<size_t>(query.db)]
                         ->EnumerateCandidates(query.spec);
      for (plan::QueryPlan& p : per_query[q]) {
        engine::SimulateExecution(db, engine::MachineM1(), NoiseSeed(query),
                                  &p);
      }
    });
    for (; kept < hi && (min_plans == 0 || plans < min_plans); ++kept) {
      t.queries[kept].num_plans = per_query[kept].size();
      plans += per_query[kept].size();
    }
  }
  t.queries.resize(kept);
  t.plans.reserve(plans);
  for (size_t q = 0; q < kept; ++q) {
    t.queries[q].first_plan = t.plans.size();
    for (plan::QueryPlan& p : per_query[q]) t.plans.push_back(std::move(p));
  }
  return t;
}

void ShuffleQueries(uint64_t seed, std::vector<Query>* queries) {
  Rng rng(seed * 2654435761ULL + 3);
  rng.Shuffle(queries);
}

void ShuffleTraffic(uint64_t seed, Traffic* traffic) {
  ShuffleQueries(seed, &traffic->queries);
  std::vector<plan::QueryPlan> plans;
  plans.reserve(traffic->plans.size());
  for (Query& q : traffic->queries) {
    const size_t first = plans.size();
    for (size_t k = 0; k < q.num_plans; ++k) {
      plans.push_back(std::move(traffic->plans[q.first_plan + k]));
    }
    q.first_plan = first;
  }
  traffic->plans = std::move(plans);
}

SetupTimes TrainAndSave(const World& world, const std::string& checkpoint) {
  SetupTimes times;
  int64_t t0 = NowNs();
  std::vector<plan::QueryPlan> corpus;
  for (size_t d = 0; d < world.dbs.size(); ++d) {
    std::vector<plan::QueryPlan> plans = engine::GenerateLabeledPlans(
        world.dbs[d], engine::MachineM1(), engine::WorkloadKind::kComplex,
        Shape::kTrainPlansPerDb, Shape::kModelSeed * 104729 + d);
    for (plan::QueryPlan& p : plans) corpus.push_back(std::move(p));
  }
  times.label_s = SecondsSince(t0);

  core::DaceEstimator estimator(ModelConfig());
  estimator.set_name("perfbench");
  obs::Counter* busy =
      obs::MetricsRegistry::Default()->GetCounter("threadpool.busy_us");
  const uint64_t busy0 = busy->Value();
  t0 = NowNs();
  {
    SpanScope span("core.Train", 0);
    estimator.Train(corpus);
  }
  times.train_s = SecondsSince(t0);
  const double busy_us = static_cast<double>(busy->Value() - busy0);
  times.train_plans_per_s =
      static_cast<double>(corpus.size()) * Shape::kEpochs / times.train_s;
  times.pool_busy_share =
      busy_us / (times.train_s * 1e6 * ThreadPool::Default()->num_threads());

  t0 = NowNs();
  {
    SpanScope span("core.Distill", 0);
    estimator.Distill(corpus);
  }
  times.distill_s = SecondsSince(t0);
  if (const dace::Status s = estimator.SaveToFile(checkpoint); !s.ok()) {
    Die("cannot write checkpoint: " + s.ToString());
  }
  return times;
}

Deployment Deploy(Workload workload, const std::string& checkpoint) {
  const auto load = [&] {
    auto estimator = std::make_unique<core::DaceEstimator>(ModelConfig());
    estimator->set_name("perfbench");
    if (const dace::Status s = estimator->LoadFromFile(checkpoint); !s.ok()) {
      Die("cannot load checkpoint: " + s.ToString());
    }
    return estimator;
  };
  Deployment d;
  d.checkpoint = checkpoint;
  if (workload == Workload::kPlanChoice) {
    d.estimator = load();
    return d;
  }
  const int tenants =
      workload == Workload::kServeOpenMiss ? Shape::kOpenTenants : 1;
  d.registry = std::make_unique<serve::ModelRegistry>();
  for (int t = 0; t < tenants; ++t) {
    d.tenants.push_back("tenant-" + std::to_string(t));
    if (const dace::Status s = d.registry->Register(d.tenants.back(), load());
        !s.ok()) {
      Die("cannot register tenant: " + s.ToString());
    }
  }
  return d;
}

RegistryDelta::RegistryDelta()
    : before_(obs::MetricsRegistry::Default()->TakeSnapshot()) {}

void RegistryDelta::Finish() {
  after_ = obs::MetricsRegistry::Default()->TakeSnapshot();
}

uint64_t RegistryDelta::Counter(const char* name) const {
  const auto find = [&](const obs::MetricsRegistry::Snapshot& s) -> uint64_t {
    for (const auto& c : s.counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  };
  return find(after_) - find(before_);
}

double RegistryDelta::Gauge(const char* name) const {
  for (const auto& g : after_.gauges) {
    if (g.name == name) return g.value;
  }
  return 0.0;
}

obs::Histogram::Snapshot RegistryDelta::Histogram(const char* name) const {
  const auto find = [&](const obs::MetricsRegistry::Snapshot& s)
      -> const obs::Histogram::Snapshot* {
    for (const auto& h : s.histograms) {
      if (h.name == name) return &h.hist;
    }
    return nullptr;
  };
  obs::Histogram::Snapshot delta;
  const obs::Histogram::Snapshot* after = find(after_);
  if (after == nullptr) return delta;
  delta = *after;
  if (const obs::Histogram::Snapshot* before = find(before_)) {
    for (size_t i = 0; i < delta.counts.size(); ++i) {
      delta.counts[i] -= before->counts[i];
    }
    delta.count -= before->count;
    delta.sum -= before->sum;
  }
  return delta;
}

namespace {

// Shared per-request books of the two serve passes.
void SizeServeRecords(size_t n, PassResult* r) {
  r->plan.assign(n, 0);
  r->tenant.assign(n, 0);
  r->outcome.assign(n, Outcome::kCorrect);
  r->served_ms.assign(n, 0.0);
  r->latency_us.assign(n, 0.0);
  r->done_ns.assign(n, 0);
  r->feedback_us.assign(n, 0.0);
}

}  // namespace

std::vector<uint8_t> TenantOfPlan(const Traffic& traffic, size_t tenants) {
  std::vector<uint8_t> tenant(traffic.plans.size(), 0);
  for (size_t q = 0; q < traffic.queries.size(); ++q) {
    const Query& query = traffic.queries[q];
    for (size_t k = 0; k < query.num_plans; ++k) {
      tenant[query.first_plan + k] = static_cast<uint8_t>(q % tenants);
    }
  }
  return tenant;
}

PassResult RunClosed(const Traffic& traffic, const Deployment& deployment,
                     bool hot, uint64_t seed, int seconds) {
  constexpr int kClients = Shape::kClosedClients;
  const size_t per_client =
      static_cast<size_t>(Shape::kClosedPerSecond) * seconds / kClients;
  const size_t n = traffic.plans.size();
  PassResult r;
  SizeServeRecords(per_client * kClients, &r);
  const std::vector<uint8_t> tenant_of =
      TenantOfPlan(traffic, deployment.tenants.size());
  for (int c = 0; c < kClients; ++c) {
    Rng rng(seed * 6151 + static_cast<uint64_t>(c) + 1);
    for (size_t j = 0; j < per_client; ++j) {
      const size_t i = c * per_client + j;
      // Hot: a seeded mix over the hot set. Miss: the clients walk the
      // (seed-ordered) population in turn, cycling through more plans than
      // each tenant's cache holds.
      r.plan[i] = static_cast<uint32_t>(
          hot ? rng.UniformInt(0, static_cast<int64_t>(n) - 1)
              : (j * kClients + static_cast<size_t>(c)) % n);
      r.tenant[i] = tenant_of[r.plan[i]];
    }
  }
  // Hot: client 0 swaps the tenant's checkpoint at fixed request counts.
  std::vector<size_t> swap_at;
  for (int k = 1; hot && k <= Shape::kSwaps; ++k) {
    swap_at.push_back(per_client * k / (Shape::kSwaps + 1));
  }
  r.threads_planned = kClients + static_cast<int>(deployment.tenants.size()) +
                      (ThreadPool::Default()->num_threads() - 1);
  serve::ModelRegistry* registry = deployment.registry.get();
  serve::EstimatorService service(registry);

  r.registry = RegistryDelta();
  const int64_t start = NowNs();
  r.start_ns = start;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      size_t next_swap = 0;
      for (size_t j = 0; j < per_client; ++j) {
        const size_t i = c * per_client + j;
        const plan::QueryPlan& p = traffic.plans[r.plan[i]];
        const std::string& tenant = deployment.tenants[r.tenant[i]];
        SpanScope request("client.request", i);
        const int64_t t0 = NowNs();
        auto answer = [&] {
          SpanScope span("serve.EstimateTracked");
          return service.EstimateTracked(tenant, p);
        }();
        const int64_t t1 = NowNs();
        r.latency_us[i] = static_cast<double>(t1 - t0) / 1000.0;
        r.done_ns[i] = t1;
        if (answer.ok()) {
          r.served_ms[i] = answer->ms;
          if (hot) {
            SpanScope span("serve.ReportActual");
            (void)service.ReportActual(tenant, answer->request_id,
                                       ActualMs(p));
          } else {
            SpanScope span("serve.ReportExecuted");
            (void)service.ReportExecuted(tenant, answer->request_id, p);
          }
          r.feedback_us[i] = static_cast<double>(NowNs() - t1) / 1000.0;
        } else {
          r.outcome[i] = OutcomeOf(answer.status());
        }
        if (c == 0 && j == per_client / 2) r.threads_live = LiveThreads() - 1;
        if (c == 0 && next_swap < swap_at.size() && j == swap_at[next_swap]) {
          ++next_swap;
          const auto old = registry->Get(tenant);
          const int64_t s0 = NowNs();
          {
            SpanScope span("serve.SwapFromFile");
            if (const dace::Status s =
                    registry->SwapFromFile(tenant, deployment.checkpoint);
                !s.ok()) {
              Die("hot swap failed: " + s.ToString());
            }
            service.NotifySwap(tenant);
          }
          r.swap_us.push_back(static_cast<double>(NowNs() - s0) / 1000.0);
          if (old.ok()) {
            AddCacheStats((*old)->prediction_cache_stats(), &r.cache);
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  r.wall_s = SecondsSince(start);
  r.registry.Finish();
  for (const std::string& tenant : deployment.tenants) {
    AddCacheStats((*registry->Get(tenant))->prediction_cache_stats(),
                  &r.cache);
  }
  return r;
}

PassResult RunOpenMiss(const Traffic& traffic, const Deployment& deployment,
                       uint64_t seed) {
  // One arrival per plan: the traffic was sized from --seconds.
  const size_t n = traffic.plans.size();
  PassResult r;
  SizeServeRecords(n, &r);
  r.lag_us.assign(n, 0.0);
  // Poisson schedule: exponential inter-arrival gaps at the offered rate.
  std::vector<int64_t> due(n);
  Rng rng(seed * 3571 + 5);
  double t_s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    t_s += -std::log(1.0 - rng.NextDouble()) / Shape::kOpenRate;
    due[i] = static_cast<int64_t>(t_s * 1e9);
  }
  r.tenant = TenantOfPlan(traffic, deployment.tenants.size());
  for (size_t i = 0; i < n; ++i) r.plan[i] = static_cast<uint32_t>(i);
  r.threads_planned = Shape::kOpenSenders +
                      static_cast<int>(deployment.tenants.size()) +
                      (ThreadPool::Default()->num_threads() - 1);
  serve::EstimatorService service(deployment.registry.get());

  r.registry = RegistryDelta();
  // Senders share one precomputed schedule: the next free sender takes the
  // next due slot, and every request is timed from its due time.
  std::atomic<size_t> next{0};
  const int64_t start = NowNs() + 1'000'000;
  r.start_ns = start;
  std::vector<std::thread> senders;
  for (int s = 0; s < Shape::kOpenSenders; ++s) {
    senders.emplace_back([&, s] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        const int64_t due_ns = start + due[i];
        WaitUntil(due_ns);
        const int64_t sent = NowNs();
        SpanLog::Record("client.wait_sender", i, 0, due_ns, sent);
        const std::string& tenant = deployment.tenants[r.tenant[i]];
        const plan::QueryPlan& p = traffic.plans[i];
        SpanScope request("client.request", i);
        auto answer = [&] {
          SpanScope span("serve.EstimateTracked");
          return service.EstimateTracked(tenant, p);
        }();
        const int64_t done = NowNs();
        const DueTiming timing = DueTimeLatency(due_ns, sent, done);
        r.latency_us[i] = timing.latency_us;
        r.lag_us[i] = timing.lag_us;
        r.done_ns[i] = done;
        if (answer.ok()) {
          r.served_ms[i] = answer->ms;
          SpanScope span("serve.ReportExecuted");
          (void)service.ReportExecuted(tenant, answer->request_id, p);
          r.feedback_us[i] = static_cast<double>(NowNs() - done) / 1000.0;
        } else {
          r.outcome[i] = OutcomeOf(answer.status());
        }
        if (s == 0 && r.threads_live == 0 && i >= n / 2) {
          r.threads_live = LiveThreads() - 1;
        }
      }
    });
  }
  for (std::thread& t : senders) t.join();
  r.wall_s = SecondsSince(start);
  r.registry.Finish();
  // Requests still unsent when the last slot fell due: the backlog the
  // schedule left behind.
  for (size_t i = 0; i < n; ++i) {
    if (due[i] + static_cast<int64_t>(r.lag_us[i] * 1000.0) > due[n - 1]) {
      ++r.backlog_at_end;
    }
  }
  for (const std::string& tenant : deployment.tenants) {
    const auto snapshot = deployment.registry->Get(tenant);
    AddCacheStats((*snapshot)->prediction_cache_stats(), &r.cache);
  }
  return r;
}

PassResult RunPlanChoice(const World& world, const std::vector<Query>& queries,
                         const Deployment& deployment) {
  PassResult r;
  const size_t n = queries.size();
  r.outcome.assign(n, Outcome::kCorrect);
  r.latency_us.assign(n, 0.0);
  r.done_ns.assign(n, 0);
  r.chosen.assign(n, 0);
  r.scores.resize(n);
  r.threads_planned = ThreadPool::Default()->num_threads();
  const SpannedScorer scorer(deployment.estimator.get());

  r.registry = RegistryDelta();
  const int64_t start = NowNs();
  r.start_ns = start;
  for (size_t q = 0; q < n; ++q) {
    SpanScope span("engine.ChoosePlan", q);
    const int64_t t0 = NowNs();
    engine::PlanChoice choice =
        world.optimizers[static_cast<size_t>(queries[q].db)]->ChoosePlan(
            queries[q].spec, scorer);
    r.done_ns[q] = NowNs();
    r.latency_us[q] = static_cast<double>(r.done_ns[q] - t0) / 1000.0;
    r.chosen[q] = static_cast<uint32_t>(choice.index);
    r.scores[q] = std::move(choice.scores);
    if (q == n / 2) r.threads_live = LiveThreads() - 1;
  }
  r.wall_s = SecondsSince(start);
  r.registry.Finish();
  r.cache = deployment.estimator->prediction_cache_stats();
  return r;
}

Quality CheckServe(const Traffic& traffic, const core::DaceEstimator& served,
                   PassResult* pass) {
  const References refs = MakeReferences(served);
  std::vector<const plan::QueryPlan*> ptrs;
  ptrs.reserve(traffic.plans.size());
  for (const plan::QueryPlan& p : traffic.plans) ptrs.push_back(&p);
  const std::vector<double> tiered = refs.tiered->PredictBatchMs(ptrs);
  const std::vector<double> teacher = refs.teacher->PredictBatchMs(ptrs);

  Quality quality;
  std::vector<uint8_t> answered(traffic.plans.size(), 0);
  for (size_t i = 0; i < pass->outcome.size(); ++i) {
    if (pass->outcome[i] != Outcome::kCorrect) continue;  // not answered
    const size_t p = pass->plan[i];
    answered[p] = 1;
    if (!WithinContract(pass->served_ms[i], tiered[p], teacher[p],
                        refs.f64_teacher)) {
      pass->outcome[i] = Outcome::kMismatch;
      ++quality.mismatches;
    }
  }
  // Each answered plan once, however often it was requested, so the figure
  // does not move with the seeded request mix.
  for (size_t p = 0; p < traffic.plans.size(); ++p) {
    if (answered[p] != 0) {
      quality.qerrors.push_back(QError(tiered[p], ActualMs(traffic.plans[p])));
    }
  }
  // Regret of the choice the served estimates imply for each query's
  // candidate set (the reference values, so the figure is reproducible),
  // summed in population order so it is bit-identical for every seed.
  std::vector<const Query*> by_id;
  for (const Query& q : traffic.queries) by_id.push_back(&q);
  std::sort(by_id.begin(), by_id.end(),
            [](const Query* a, const Query* b) { return a->id < b->id; });
  for (const Query* q : by_id) {
    std::vector<double> scores(tiered.begin() + q->first_plan,
                               tiered.begin() + q->first_plan + q->num_plans);
    double best = std::numeric_limits<double>::infinity();
    for (size_t k = 0; k < q->num_plans; ++k) {
      best = std::min(best, ActualMs(traffic.plans[q->first_plan + k]));
    }
    quality.chosen_ms.push_back(
        ActualMs(traffic.plans[q->first_plan + ArgminScore(scores)]));
    quality.best_ms.push_back(best);
    quality.candidates.push_back(static_cast<double>(q->num_plans));
  }
  return quality;
}

Quality CheckPlanChoice(const World& world, const std::vector<Query>& queries,
                        const core::DaceEstimator& served, PassResult* pass) {
  const References refs = MakeReferences(served);
  Quality quality;
  quality.enumerate_us.assign(queries.size(), 0.0);
  std::vector<double> chosen_by_id(queries.size(), 0.0);
  std::vector<double> best_by_id(queries.size(), 0.0);
  constexpr size_t kChunk = 256;
  std::vector<std::vector<plan::QueryPlan>> candidates;
  for (size_t lo = 0; lo < queries.size(); lo += kChunk) {
    const size_t hi = std::min(lo + kChunk, queries.size());
    candidates.assign(hi - lo, {});
    // The candidate sets again (enumeration is deterministic), executed on
    // the simulated machine for their runtimes.
    ThreadPool::Default()->ParallelFor(lo, hi, [&](size_t q) {
      const engine::Database& db =
          world.dbs[static_cast<size_t>(queries[q].db)];
      std::vector<plan::QueryPlan>& cands = candidates[q - lo];
      {
        SpanScope span("engine.EnumerateCandidates", q);
        const int64_t t0 = NowNs();
        cands = world.optimizers[static_cast<size_t>(queries[q].db)]
                    ->EnumerateCandidates(queries[q].spec);
        quality.enumerate_us[q] = static_cast<double>(NowNs() - t0) / 1000.0;
      }
      for (plan::QueryPlan& p : cands) {
        engine::SimulateExecution(db, engine::MachineM1(),
                                  NoiseSeed(queries[q]), &p);
      }
    });
    std::vector<const plan::QueryPlan*> ptrs;
    for (const auto& cands : candidates) {
      for (const plan::QueryPlan& p : cands) ptrs.push_back(&p);
    }
    const std::vector<double> tiered = refs.tiered->PredictBatchMs(ptrs);
    const std::vector<double> teacher = refs.teacher->PredictBatchMs(ptrs);
    size_t offset = 0;
    for (size_t q = lo; q < hi; ++q) {
      const std::vector<plan::QueryPlan>& cands = candidates[q - lo];
      const std::vector<double>& scores = pass->scores[q];
      bool ok = scores.size() == cands.size() &&
                pass->chosen[q] == ArgminScore(scores);
      double best = std::numeric_limits<double>::infinity();
      for (size_t k = 0; k < cands.size(); ++k) {
        const double actual = ActualMs(cands[k]);
        best = std::min(best, actual);
        quality.qerrors.push_back(QError(tiered[offset + k], actual));
        if (ok) {
          ok = WithinContract(scores[k], tiered[offset + k],
                              teacher[offset + k], refs.f64_teacher);
        }
      }
      if (!ok) {
        pass->outcome[q] = Outcome::kMismatch;
        ++quality.mismatches;
      }
      // Indexed by population id, so the regret sum runs in the same order
      // for every seed and repeats bit for bit.
      const uint32_t id = queries[q].id;
      if (pass->chosen[q] < cands.size()) {
        chosen_by_id[id] = ActualMs(cands[pass->chosen[q]]);
        best_by_id[id] = best;
      }
      quality.candidates.push_back(static_cast<double>(cands.size()));
      offset += cands.size();
    }
  }
  for (size_t id = 0; id < chosen_by_id.size(); ++id) {
    if (best_by_id[id] > 0.0) {
      quality.chosen_ms.push_back(chosen_by_id[id]);
      quality.best_ms.push_back(best_by_id[id]);
    }
  }
  return quality;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

int LiveThreads() {
  int n = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

int HardwareThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace perfbench
