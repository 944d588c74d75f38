// A tour of the DBMS substrate: build a database, generate a query, plan it,
// "execute" it on two machines, print the EXPLAIN ANALYZE-style plan text,
// round-trip it through the parser, and show where the optimizer's
// estimates diverge from the truth — the EDQO that DACE learns.
//
//   ./explain_workbench [--seed=42] [--queries=5]

#include <cstdio>

#include "engine/corpus.h"
#include "engine/executor.h"
#include "engine/machine.h"
#include "engine/optimizer.h"
#include "engine/workload.h"
#include "eval/metrics.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  auto flags_or = dace::Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n", flags_or.status().ToString().c_str());
    return 1;
  }
  const dace::Flags& flags = *flags_or;
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const int queries = static_cast<int>(flags.GetInt("queries", 5));
  flags.DieOnUnreadKeys();

  const dace::engine::Database db = dace::engine::BuildImdbLike(seed);
  std::printf("database '%s': %zu tables, %zu join edges, %lld rows total\n",
              db.name.c_str(), db.tables.size(), db.join_edges.size(),
              static_cast<long long>(db.TotalRows()));
  for (const auto& table : db.tables) {
    std::printf("  %-18s %9lld rows, %zu columns\n", table.name.c_str(),
                static_cast<long long>(table.row_count), table.columns.size());
  }

  const dace::engine::Optimizer optimizer(&db);
  const auto m1 = dace::engine::MachineM1();
  const auto m2 = dace::engine::MachineM2();
  dace::Rng rng(seed);

  for (int q = 0; q < queries; ++q) {
    const dace::engine::QuerySpec spec = dace::engine::GenerateQuery(
        db, dace::engine::WorkloadKind::kComplex, &rng);
    dace::plan::QueryPlan plan = optimizer.BuildPlan(spec);
    dace::engine::SimulateExecution(db, m1, seed + static_cast<uint64_t>(q),
                                    &plan);

    std::printf("\n=== query %d: %zu tables, %d joins ===\n", q + 1,
                spec.tables.size(), spec.NumJoins());
    std::printf("%s", plan.ToText().c_str());

    const auto& root = plan.node(plan.root());
    std::printf(
        "root: estimated %.0f rows vs actual %.0f rows "
        "(cardinality q-error %.1f)\n",
        root.est_cardinality, root.actual_cardinality,
        dace::eval::Qerror(root.est_cardinality, root.actual_cardinality));

    dace::plan::QueryPlan on_m2 = plan;
    dace::engine::SimulateExecution(db, m2, seed + static_cast<uint64_t>(q),
                                    &on_m2);
    std::printf("runtime: %.2f ms on %s, %.2f ms on %s\n",
                root.actual_time_ms, m1.name.c_str(),
                on_m2.node(on_m2.root()).actual_time_ms, m2.name.c_str());

    // The text form is a faithful serialization.
    auto parsed = dace::plan::ParsePlanText(plan.ToText());
    if (!parsed.ok() || !(parsed.value() == plan)) {
      std::fprintf(stderr, "plan text round-trip failed!\n");
      return 1;
    }
  }
  std::printf("\nall plans round-tripped through the EXPLAIN-style text form.\n");
  return 0;
}
