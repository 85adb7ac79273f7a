// Quickstart: the paper's introduction example, end to end.
//
// Builds a small employee database, simulates a user formulating
//   SELECT * FROM employee WHERE age < 30
// on the visual interface, and shows the speculation engine
// materializing the age predicate during think time so the final query
// runs against the (much smaller) speculative result.
#include <cstdio>

#include "common/rng.h"
#include "db/database.h"
#include "harness/replayer.h"
#include "sim/sim_server.h"
#include "speculation/engine.h"

using namespace sqp;

int main() {
  // --- a database with one relation: employee(name, age, salary) ---
  DatabaseOptions options;
  options.buffer_pool_pages = 64;  // small pool: scans hit "disk"
  Database db(options);

  Schema employee({{"name", TypeId::kString},
                   {"age", TypeId::kInt64},
                   {"salary", TypeId::kDouble}});
  if (!db.CreateTable("employee", employee).ok()) return 1;

  std::vector<Tuple> rows;
  Rng rng(7);
  for (int i = 0; i < 50000; i++) {
    rows.push_back(Tuple{Value("emp_" + std::to_string(i)),
                         Value(rng.NextInt(18, 65)),
                         Value(rng.NextDouble(30000, 150000))});
  }
  if (!db.BulkLoad("employee", rows).ok()) return 1;
  db.ColdStart();

  // --- the user starts formulating; the engine watches ---
  SimServer server;
  SpeculationEngineOptions engine_options;
  SpeculationEngine engine(&db, &server, engine_options);

  // t = 1s: the user places the predicate age < 30 (paper Figure 1, t1).
  TraceEvent add_pred;
  add_pred.type = TraceEventType::kAddSelection;
  add_pred.timestamp = 1.0;
  add_pred.selection = SelectionPred{"employee", "age", CompareOp::kLt,
                                     Value(int64_t{30})};
  server.AdvanceTo(1.0);
  if (!engine.OnUserEvent(add_pred, 1.0).ok()) return 1;
  std::printf("t=1s   user adds predicate: age < 30\n");
  std::printf("       engine issued %zu manipulation(s) asynchronously\n",
              engine.stats().manipulations_issued);

  // t = 20s: think time has passed; the user clicks GO.
  server.AdvanceTo(20.0);
  if (!engine.OnGo(20.0).ok()) return 1;
  std::printf("t=20s  GO — %zu manipulation(s) completed in time\n",
              engine.stats().manipulations_completed);

  // The final query: the query graph the user built.
  QueryGraph query;
  query.AddSelection(add_pred.selection);

  ExecuteOptions exec;
  exec.view_mode = engine.final_view_mode();  // speculative rewriting
  auto speculative = db.Execute(query, exec);
  if (!speculative.ok()) return 1;

  db.ColdStart();  // compare fairly: cold cache for the normal run too
  exec.view_mode = ViewMode::kNone;
  auto normal = db.Execute(query, exec);
  if (!normal.ok()) return 1;

  std::printf("\nfinal query: %s\n", query.ToSql().c_str());
  std::printf("  normal execution:      %6.3f s  (%llu rows)\n",
              normal->seconds,
              static_cast<unsigned long long>(normal->row_count));
  std::printf("  speculative execution: %6.3f s  (%llu rows)\n",
              speculative->seconds,
              static_cast<unsigned long long>(speculative->row_count));
  std::printf("  improvement:           %6.1f %%\n",
              100.0 * (1.0 - speculative->seconds / normal->seconds));
  std::printf("\nspeculative plan used views:");
  for (const auto& v : speculative->views_used) std::printf(" %s", v.c_str());
  std::printf("\n%s", speculative->plan_explain.c_str());
  return 0;
}
