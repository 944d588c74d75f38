// Plan-selection quality (DESIGN.md §15): every estimator CHOOSES a plan
// from the optimizer's enumerated candidate set, the chosen plan is executed
// through the simulator on both machine profiles, and the report is the
// selection regret — chosen runtime / best-candidate runtime — next to the
// rank correlation and q-error of the scores over the same candidates. This
// is the "How Good are Learned Cost Models, Really?" experiment: point
// accuracy (q-error) and selection quality (regret, rho) can and do
// disagree, and regret is what a database user experiences.
//
//   ./bench_select [--select_queries=48] [--train_queries=400] [--epochs=4]
//       [--num_databases=6] [--queries_per_db=60] [--max_candidates=32]
//       [--max_join_orders=6] [--json=BENCH_select.json]
//
// An unknown flag (say, a misspelled --max_candidates) aborts naming it
// instead of silently running the default.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/mscn.h"
#include "baselines/postgres_cost.h"
#include "baselines/qppnet.h"
#include "bench/bench_util.h"
#include "core/dace_model.h"
#include "core/plan_choice.h"
#include "engine/dataset.h"
#include "engine/executor.h"
#include "engine/optimizer.h"
#include "eval/experiments.h"
#include "eval/metrics.h"
#include "obs/metrics.h"

namespace {

// Per (scorer, machine) accumulators over the replayed workload.
struct SelectionStats {
  std::vector<double> regrets;
  std::vector<double> rhos;
  std::vector<double> qerrors;  // empty when scores are not milliseconds
  int optimal = 0;
  int total = 0;
};

double MeanOf(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double PercentileOf(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

// First finite minimum, mirroring Optimizer::ChoosePlan's tie-breaking.
size_t ArgminScore(const std::vector<double>& scores) {
  size_t best = 0;
  for (size_t i = 1; i < scores.size(); ++i) {
    if (std::isfinite(scores[i]) &&
        (!std::isfinite(scores[best]) || scores[i] < scores[best])) {
      best = i;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dace;
  const Flags flags = bench::ParseFlagsOrDie(argc, argv);
  eval::ExperimentConfig config = eval::ExperimentConfig::FromFlags(flags);
  config.num_databases = static_cast<int>(flags.GetInt("num_databases", 6));
  config.queries_per_db = static_cast<int>(flags.GetInt("queries_per_db", 60));
  config.epochs = static_cast<int>(flags.GetInt("epochs", 4));
  const int n_select = static_cast<int>(flags.GetInt("select_queries", 48));
  const int train_queries =
      static_cast<int>(flags.GetInt("train_queries", 400));
  engine::CandidateOptions candidate_options;
  candidate_options.max_candidates =
      static_cast<int>(flags.GetInt("max_candidates", 32));
  candidate_options.max_join_orders =
      static_cast<int>(flags.GetInt("max_join_orders", 6));
  flags.DieOnUnreadKeys();

  bench::PrintHeader(
      "Plan-selection quality — regret of the chosen plan vs the best "
      "enumerated candidate",
      "closing the loop: estimators PICK plans, not just score them");

  eval::Workbench bench(config);
  const engine::Database& imdb = bench.corpus()[engine::kImdbIndex];
  bench::WallTimer timer;

  // Within-database training workload on IMDB; DACE never sees IMDB.
  const auto wdm_train =
      engine::GenerateLabeledPlans(imdb, bench.m1(), engine::WorkloadKind::kComplex,
                                   train_queries, 555);
  const auto adm_train = bench.TrainPlansExcluding(engine::kImdbIndex);

  baselines::TrainOptions wdm_opts;
  wdm_opts.epochs = config.epochs;
  std::vector<std::pair<std::string, std::unique_ptr<core::CostEstimator>>>
      models;
  models.emplace_back("PostgreSQL",
                      std::make_unique<baselines::PostgresLinear>());
  {
    baselines::Mscn::Config c;
    c.train = wdm_opts;
    models.emplace_back("MSCN", std::make_unique<baselines::Mscn>(c));
  }
  {
    baselines::QppNet::Config c;
    c.train = wdm_opts;
    models.emplace_back("QPPNet", std::make_unique<baselines::QppNet>(c));
  }
  for (auto& [name, model] : models) {
    model->Train(wdm_train);
    std::printf("  trained %s (%.0fs elapsed)\n", name.c_str(),
                timer.ElapsedMs() / 1000.0);
  }
  {
    core::DaceConfig dace_config;
    dace_config.epochs = config.epochs;
    auto dace = std::make_unique<core::DaceEstimator>(dace_config);
    dace->Train(adm_train);
    models.emplace_back("DACE", std::move(dace));
    std::printf("  trained DACE (%.0fs elapsed)\n",
                timer.ElapsedMs() / 1000.0);
  }

  // Scorer lineup: the native PG-style model plus every learned estimator
  // through the EstimatorPlanChoice adapter. The classic heuristic plan
  // (candidate 0, today's BuildPlan) rides along as the no-choice baseline.
  std::vector<core::EstimatorPlanChoice> adapters;
  adapters.reserve(models.size());
  for (auto& [name, model] : models) adapters.emplace_back(model.get());
  std::vector<std::pair<std::string, const core::PlanChoiceEstimator*>>
      scorers;
  scorers.emplace_back("native", &engine::Optimizer::NativeScorer());
  for (size_t m = 0; m < models.size(); ++m) {
    scorers.emplace_back(models[m].first, &adapters[m]);
  }

  const engine::Optimizer optimizer(&imdb);
  const std::vector<engine::QuerySpec> specs =
      engine::GenerateQueries(imdb, engine::WorkloadKind::kComplex, n_select,
                              9090);
  const std::vector<std::pair<std::string, engine::MachineProfile>> machines =
      {{"M1", bench.m1()}, {"M2", bench.m2()}};

  obs::Histogram* regret_hist = obs::MetricsRegistry::Default()->GetHistogram(
      "select.regret", obs::QErrorBuckets());

  // stats[scorer][machine]; the heuristic baseline rides in slot 0.
  std::vector<std::vector<SelectionStats>> stats(
      scorers.size() + 1, std::vector<SelectionStats>(machines.size()));
  size_t total_candidates = 0;

  for (size_t qi = 0; qi < specs.size(); ++qi) {
    const std::vector<plan::QueryPlan> candidates =
        optimizer.EnumerateCandidates(specs[qi], candidate_options);
    total_candidates += candidates.size();

    // Simulated runtime of EVERY candidate on both machines. One noise seed
    // per query: all candidates and estimators see identical conditions.
    std::vector<std::vector<double>> runtime(
        machines.size(), std::vector<double>(candidates.size(), 0.0));
    std::vector<double> best(machines.size(),
                             std::numeric_limits<double>::infinity());
    for (size_t m = 0; m < machines.size(); ++m) {
      for (size_t i = 0; i < candidates.size(); ++i) {
        plan::QueryPlan executed = candidates[i];
        engine::SimulateExecution(imdb, machines[m].second, 9000 + qi,
                                  &executed);
        runtime[m][i] = executed.node(executed.root()).actual_time_ms;
        best[m] = std::min(best[m], runtime[m][i]);
      }
    }

    const auto record = [&](SelectionStats* s, size_t m, size_t chosen) {
      const double regret = runtime[m][chosen] / best[m];
      s->regrets.push_back(regret);
      regret_hist->Observe(regret);
      s->optimal += runtime[m][chosen] <= best[m] * (1.0 + 1e-12) ? 1 : 0;
      s->total += 1;
    };

    // Heuristic baseline: always candidate 0 (the classic BuildPlan).
    for (size_t m = 0; m < machines.size(); ++m) record(&stats[0][m], m, 0);

    for (size_t si = 0; si < scorers.size(); ++si) {
      const std::vector<double> scores =
          scorers[si].second->ScorePlans(candidates);
      const size_t chosen = ArgminScore(scores);
      const bool in_ms = scorers[si].second->ScoresAreMilliseconds();
      for (size_t m = 0; m < machines.size(); ++m) {
        SelectionStats* s = &stats[si + 1][m];
        record(s, m, chosen);
        s->rhos.push_back(eval::SpearmanRho(scores, runtime[m]));
        if (in_ms) {
          for (size_t i = 0; i < candidates.size(); ++i) {
            s->qerrors.push_back(eval::Qerror(scores[i], runtime[m][i]));
          }
        }
      }
    }
  }

  const double mean_candidates =
      static_cast<double>(total_candidates) / static_cast<double>(specs.size());
  std::printf("\n%zu queries, %.1f candidates/query avg (%.0fs elapsed)\n",
              specs.size(), mean_candidates, timer.ElapsedMs() / 1000.0);

  const auto name_of = [&](size_t row) {
    return row == 0 ? std::string("heuristic") : scorers[row - 1].first;
  };
  for (size_t m = 0; m < machines.size(); ++m) {
    std::printf("\nmachine %s\n", machines[m].first.c_str());
    eval::TablePrinter table({"Model", "MeanRegret", "MedianRegret",
                              "P95Regret", "%Optimal", "MeanRho", "MedQerr"});
    for (size_t row = 0; row < stats.size(); ++row) {
      const SelectionStats& s = stats[row][m];
      const double pct_optimal =
          100.0 * static_cast<double>(s.optimal) /
          static_cast<double>(std::max(s.total, 1));
      const double median_qerror =
          s.qerrors.empty() ? -1.0 : PercentileOf(s.qerrors, 0.5);
      table.AddRow(
          {name_of(row), eval::FormatMetric(MeanOf(s.regrets)),
           eval::FormatMetric(PercentileOf(s.regrets, 0.5)),
           eval::FormatMetric(PercentileOf(s.regrets, 0.95)),
           eval::FormatMetric(pct_optimal),
           s.rhos.empty() ? "—" : eval::FormatMetric(MeanOf(s.rhos)),
           s.qerrors.empty() ? "—" : eval::FormatMetric(median_qerror)});
      bench::Json()
          .Add("select_row")
          .Str("machine", machines[m].first)
          .Str("model", name_of(row))
          .Num("mean_regret", MeanOf(s.regrets))
          .Num("median_regret", PercentileOf(s.regrets, 0.5))
          .Num("p95_regret", PercentileOf(s.regrets, 0.95))
          .Num("pct_optimal", pct_optimal)
          .Num("mean_rho", s.rhos.empty() ? -2.0 : MeanOf(s.rhos))
          .Num("median_qerror", median_qerror)
          .Num("queries", static_cast<double>(s.total));
    }
    table.Print();
  }
  bench::Json()
      .Add("select_config")
      .Num("select_queries", static_cast<double>(specs.size()))
      .Num("mean_candidates", mean_candidates)
      .Num("max_candidates",
           static_cast<double>(candidate_options.max_candidates))
      .Num("max_join_orders",
           static_cast<double>(candidate_options.max_join_orders));
  if (!bench::Json().WriteIfRequested()) return 1;
  std::printf(
      "\nexpected shape: native close to the heuristic (same cost model,\n"
      "wider search); regret and q-error NEED NOT agree — a model with\n"
      "mediocre q-error but good rank correlation still picks good plans.\n");
  return 0;
}
