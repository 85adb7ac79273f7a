// Doc-drift guard: the metrics registered at runtime and the catalogue
// in docs/METRICS.md must agree in both directions. A new metric
// without a doc row fails here, as does a doc row whose metric no
// longer exists in the code. Mirrors tests/fault_points_test.cc.
//
// The registry is find-or-create, so a metric "exists" only once some
// subsystem looks it up: the test drives one of everything — both
// storage shapes, a replay-grade speculation stack, recovery, repair,
// membership changes (including the joint-commit failure path) — so
// the registered set reflects a full multi-node deployment, lazy
// registrations included.
#include <fstream>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "common/metrics_registry.h"
#include "common/metrics_timeline.h"
#include "db/database.h"
#include "sim/sim_server.h"
#include "speculation/engine.h"
#include "test_util.h"

#ifndef SQP_METRICS_DOC
#error "build must define SQP_METRICS_DOC (path to docs/METRICS.md)"
#endif

namespace sqp {
namespace {

/// Concrete per-node names ("storage.node2.disk.reads") collapse onto
/// their documented template ("storage.node<k>.disk.reads"). The
/// digit-less "storage.node.*" router family is untouched.
std::string Normalize(const std::string& name) {
  static const std::regex node_re("node[0-9]+\\.");
  return std::regex_replace(name, node_re, "node<k>.");
}

/// Every backtick-quoted name in the *first cell* of each table row of
/// the "## Metrics" section. Other cells mention units and counters in
/// backticks, so only the name column is parsed.
std::set<std::string> DocumentedMetrics(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::set<std::string> names;
  std::string line;
  bool in_section = false;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) {
      in_section = line == "## Metrics";
      continue;
    }
    if (!in_section || line.empty() || line[0] != '|') continue;
    size_t cell_end = line.find('|', 1);
    if (cell_end == std::string::npos) continue;
    const std::string cell = line.substr(0, cell_end);
    size_t pos = 0;
    while ((pos = cell.find('`', pos)) != std::string::npos) {
      size_t close = cell.find('`', pos + 1);
      if (close == std::string::npos) break;
      std::string name = cell.substr(pos + 1, close - pos - 1);
      if (!name.empty() && name != "---") names.insert(name);
      pos = close + 1;
    }
  }
  return names;
}

std::string JoinSet(const std::set<std::string>& set) {
  std::ostringstream out;
  for (const auto& s : set) out << "  " << s << "\n";
  return out.str();
}

/// Touch every registration site, eager and lazy.
void RegisterEverything() {
  // Simulator + single-node storage stack (legacy "storage.disk.*").
  // The Database constructor registers the attr.* attribution family
  // eagerly; the timeline sampler registers telemetry.* and ticks once
  // so its self-metrics carry values.
  SimServer server;
  std::unique_ptr<Database> single(testutil::MakeTwoTableDb(100, 300));
  MetricsTimeline timeline;
  timeline.Flush(1.0);

  // Speculation stack: engine construction registers the engine,
  // speculator and flight-recorder families; a GO observation is the
  // learner's lazy path.
  SpeculationEngineOptions engine_options;
  SpeculationEngine engine(single.get(), &server, engine_options);
  ASSERT_TRUE(engine.RecoverAfterCrash(0.0).ok());  // views_recovered
  Learner learner;
  learner.ObserveGo({}, QueryGraph{}, nullptr, 1.0);

  // Multi-node stack: per-node disks, router, replicated manifest.
  DatabaseOptions options;
  options.buffer_pool_pages = 128;
  options.storage_nodes = 3;
  Database db(options);
  Schema schema({{"a_id", TypeId::kInt64}, {"a_pay", TypeId::kInt64}});
  ASSERT_TRUE(db.CreateTable("a", schema).ok());
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 200; i++) {
    rows.push_back(Tuple{Value(i), Value(i % 7)});
  }
  ASSERT_TRUE(db.BulkLoad("a", rows).ok());

  // EXPLAIN ANALYZE registers the batch-exec family, the plan q-error
  // histogram and the cross-shard transfer counter.
  QueryGraph q;
  q.AddSelection(
      testutil::Sel("a", "a_pay", CompareOp::kLt, Value(int64_t{3})));
  ExecuteOptions exec;
  exec.explain_analyze = true;
  ASSERT_TRUE(db.Execute(q, exec).ok());

  // Membership: a join (with rebalancing), a decommission, and the
  // joint-commit failure path behind an injected fault.
  auto added = db.AddNode();
  ASSERT_TRUE(added.ok());
  ASSERT_TRUE(db.DecommissionNode(*added).ok());
  FaultSpec jointcommit = FaultSpec::OneShot(1, StatusCode::kInternal);
  jointcommit.only_in_region = false;
  FaultInjector::Global().Arm("membership.jointcommit", jointcommit);
  EXPECT_FALSE(db.AddNode().ok());
  FaultInjector::Global().Reset();

  // Node loss, recovery and re-protection.
  db.KillNode(2);
  ASSERT_TRUE(db.Reopen().ok());
  ASSERT_TRUE(db.Repair().ok());
}

TEST(MetricsCatalogDriftTest, RegisteredMetricsMatchTheDocCatalogue) {
  RegisterEverything();

  std::set<std::string> registered;
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  for (const auto& [name, value] : snapshot.counters) {
    registered.insert(Normalize(name));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    registered.insert(Normalize(name));
  }
  for (const auto& [name, value] : snapshot.histograms) {
    registered.insert(Normalize(name));
  }
  std::set<std::string> documented = DocumentedMetrics(SQP_METRICS_DOC);

  std::set<std::string> undocumented;
  for (const auto& m : registered) {
    if (documented.count(m) == 0) undocumented.insert(m);
  }
  std::set<std::string> stale;
  for (const auto& m : documented) {
    if (registered.count(m) == 0) stale.insert(m);
  }
  EXPECT_TRUE(undocumented.empty())
      << "metrics registered in code but missing from docs/METRICS.md:\n"
      << JoinSet(undocumented);
  EXPECT_TRUE(stale.empty())
      << "metrics documented in docs/METRICS.md but never registered by "
         "the code:\n"
      << JoinSet(stale);
  // Belt and braces: the doc parser found a plausible table at all.
  EXPECT_GE(documented.size(), 60u);

  // The telemetry/attribution families this harness drives must be in
  // the registered set (and therefore, via the checks above, in the
  // docs): guards against RegisterEverything silently losing them.
  for (const char* name :
       {"attr.query.seconds", "attr.query.blocks", "attr.query.tuples",
        "attr.manipulation.seconds", "attr.maintenance.seconds",
        "attr.sessions", "telemetry.ticks", "telemetry.ticks_dropped",
        "telemetry.series", "spec.cache.views", "spec.cache.pages",
        "sim.active_jobs"}) {
    EXPECT_TRUE(registered.count(name) == 1) << "not registered: " << name;
  }
}

}  // namespace
}  // namespace sqp
