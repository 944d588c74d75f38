#ifndef PERFBENCH_DRIVER_WORKLOADS_H_
#define PERFBENCH_DRIVER_WORKLOADS_H_

// Inputs, set-up and timed passes of the three workloads. Everything here
// drives the program only through its public APIs (serve::EstimatorService,
// serve::ModelRegistry, core::DaceEstimator, engine::Optimizer) and the obs
// registry it publishes.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dace_model.h"
#include "engine/catalog.h"
#include "engine/optimizer.h"
#include "engine/workload.h"
#include "obs/metrics.h"
#include "plan/plan.h"
#include "serve/model_registry.h"
#include "stats.h"

namespace perfbench {

// serve_open_miss is a diagnostic workload outside BENCHMARK.json: its
// tail latency swings with the host's wake-up latency (see README.md).
enum class Workload {
  kServeClosedHot,
  kServeClosedMiss,
  kPlanChoice,
  kServeOpenMiss,
};

// Fixed shape of every workload; only the seed and --seconds change the
// inputs. Work is a fixed, seed-generated amount sized from --seconds, never
// "as much as fits": a duration-bounded loop would measure a different mix
// of cheap and expensive requests on every run.
struct Shape {
  // The served model and each workload's plan population (queries, their
  // candidate plans and simulated runtimes) are fixed: they belong to the
  // system under test. --seed draws what a client controls: the order of
  // the queries, the request mix over the hot set, the arrival times. So
  // q-error and regret are properties of the program, identical for every
  // seed, and a change to them shows exactly.
  static constexpr uint64_t kModelSeed = 1;
  static constexpr uint64_t kPopulationSeed = 7;

  // Set-up: the training corpus (labelled plans per database) and epochs,
  // trained on kSetupPoolThreads threads: on a shared host a multi-threaded
  // epoch waits for its slowest thread, and its rate swings twofold.
  static constexpr int kTrainPlansPerDb = 500;
  static constexpr int kEpochs = 6;
  static constexpr int kSetupRepeats = 3;
  static constexpr int kSetupPoolThreads = 1;

  // Closed loops: kClosedClients clients send kClosedPerSecond requests
  // per second of --seconds between them.
  // serve_closed_hot: 1 tenant, the candidate sets of kHotQueries queries
  // as the hot set, kSwaps hot swaps at fixed request counts.
  // serve_closed_miss: 1 tenant; the clients cycle through kMissPlans
  // distinct plans, more than the tenant's prediction cache holds, so
  // nearly every request misses.
  static constexpr int kClosedClients = 2;
  static constexpr int kClosedPerSecond = 6000;
  static constexpr int kHotQueries = 48;
  static constexpr int kSwaps = 4;
  static constexpr size_t kMissPlans = 12000;

  // serve_open_miss (diagnostic): Poisson arrivals at kOpenRate requests
  // per second for --seconds, kOpenSenders sender threads, kOpenTenants
  // tenants, every plan distinct.
  static constexpr int kOpenSenders = 2;
  static constexpr int kOpenTenants = 2;
  static constexpr double kOpenRate = 2000.0;

  // plan_choice: kChoicePerSecond ChoosePlan calls per second of --seconds.
  static constexpr int kChoicePerSecond = 500;

  // Latency limits for goodput, in microseconds.
  static constexpr double kClosedLimitUs = 2000.0;
  static constexpr double kOpenLimitUs = 5000.0;
  static constexpr double kChoiceLimitUs = 25000.0;

  // Validity limits of the open loop: generator lateness at p90, and the
  // number of scheduled requests still unsent when the schedule ended.
  static constexpr double kMaxLagP90Us = 2000.0;
  static constexpr size_t kMaxBacklog = 64;

  // Every pass is cut into kWindows slices of equal wall time; throughput
  // and latency percentiles are medians over the slices.
  static constexpr int kWindows = 10;
};

// The fixed databases every workload plans against, with one optimizer per
// database.
struct World {
  World();
  std::vector<dace::engine::Database> dbs;
  std::vector<std::unique_ptr<dace::engine::Optimizer>> optimizers;
};

// A seed-generated query and its enumerated candidate plans, executed on
// the simulated machine (every node carries actual_time_ms).
struct Query {
  uint32_t id = 0;  // index in the fixed population
  int db = 0;
  dace::engine::QuerySpec spec;
  size_t first_plan = 0;  // index into Traffic::plans
  size_t num_plans = 0;
};

struct Traffic {
  std::vector<Query> queries;
  std::vector<dace::plan::QueryPlan> plans;  // query-major candidate sets
};

// The fixed population: queries (specs only) for plan_choice, or with
// executed candidates for the serve workloads: the first `queries` queries,
// or with min_plans > 0 the shortest prefix of them whose candidate sets
// hold min_plans plans. Identical at any pool size.
std::vector<Query> GenerateQueries(const World& world, int count);
Traffic GenerateTraffic(const World& world, int queries, size_t min_plans);

// Tenant index of every plan: its query's position modulo `tenants`.
std::vector<uint8_t> TenantOfPlan(const Traffic& traffic, size_t tenants);

// Seeded order of the queries (and of their candidate sets).
void ShuffleQueries(uint64_t seed, std::vector<Query>* queries);
void ShuffleTraffic(uint64_t seed, Traffic* traffic);

// Root actual time of an executed plan, in ms.
double ActualMs(const dace::plan::QueryPlan& plan);

// One set-up of the served model: label the training corpus, train, distill,
// write the checkpoint. Timings per step.
struct SetupTimes {
  double total_s = 0.0;  // filled by the caller (includes registration)
  double label_s = 0.0;
  double train_s = 0.0;
  double distill_s = 0.0;
  double train_plans_per_s = 0.0;
  double pool_busy_share = 0.0;
};
SetupTimes TrainAndSave(const World& world, const std::string& checkpoint);

// The served model as one workload sees it: tenants of a registry for the
// serve workloads, a loaded estimator for plan_choice.
struct Deployment {
  std::unique_ptr<dace::serve::ModelRegistry> registry;
  std::unique_ptr<dace::core::DaceEstimator> estimator;
  std::vector<std::string> tenants;
  std::string checkpoint;  // what hot swaps reload
};
Deployment Deploy(Workload workload, const std::string& checkpoint);

// Registry deltas around a timed pass.
class RegistryDelta {
 public:
  RegistryDelta();
  void Finish();
  uint64_t Counter(const char* name) const;
  double Gauge(const char* name) const;  // value at Finish
  dace::obs::Histogram::Snapshot Histogram(const char* name) const;

 private:
  dace::obs::MetricsRegistry::Snapshot before_, after_;
};

// What a timed pass observed, before the correctness check.
struct PassResult {
  int64_t start_ns = 0;  // first send (the schedule's origin in the open loop)
  double wall_s = 0.0;
  int64_t end_ns() const {
    return start_ns + static_cast<int64_t>(wall_s * 1e9);
  }
  // Per attempted request / call, indexed by request.
  std::vector<uint32_t> plan;      // serve: index into Traffic::plans
  std::vector<uint8_t> tenant;     // serve
  std::vector<Outcome> outcome;    // kCorrect until the check says otherwise
  std::vector<double> served_ms;   // serve: the answer
  std::vector<double> latency_us;  // client-observed
  std::vector<int64_t> done_ns;    // when the answer arrived
  std::vector<double> lag_us;      // open loop: generator lateness
  std::vector<double> feedback_us;
  std::vector<double> swap_us;
  // plan_choice: chosen candidate and its served scores, per query.
  std::vector<uint32_t> chosen;
  std::vector<std::vector<double>> scores;
  // Prediction-cache books summed over every snapshot the pass used.
  dace::core::PredictionCache::Stats cache;
  size_t backlog_at_end = 0;  // open loop
  int threads_live = 0;       // threads besides main during the pass
  int threads_planned = 0;    // senders + drainers + pool workers
  RegistryDelta registry;
};

// Closed loop over the hot set (`hot`: ReportActual feedback, hot swaps) or
// cycling through a miss population (ReportExecuted feedback).
PassResult RunClosed(const Traffic& traffic, const Deployment& deployment,
                     bool hot, uint64_t seed, int seconds);
PassResult RunOpenMiss(const Traffic& traffic, const Deployment& deployment,
                       uint64_t seed);
PassResult RunPlanChoice(const World& world, const std::vector<Query>& queries,
                         const Deployment& deployment);

// Correctness check and quality: answers re-priced on offline clones of the
// served checkpoint, q-error against executed runtimes, regret per query.
struct Quality {
  std::vector<double> qerrors;
  std::vector<double> chosen_ms, best_ms;  // per query, for regret
  std::vector<double> enumerate_us;        // plan_choice: per query
  std::vector<double> candidates;          // plan_choice: per query
  uint64_t mismatches = 0;
};
Quality CheckServe(const Traffic& traffic,
                   const dace::core::DaceEstimator& served, PassResult* pass);
Quality CheckPlanChoice(const World& world, const std::vector<Query>& queries,
                        const dace::core::DaceEstimator& served,
                        PassResult* pass);

// Process facts.
double PeakRssMb();
int LiveThreads();
int HardwareThreads();

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOADS_H_
