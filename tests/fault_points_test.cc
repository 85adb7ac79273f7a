// Doc-drift guard: the fault points registered at runtime and the
// catalogue in docs/FAULT_POINTS.md must agree in both directions. A
// new fault point without a doc row fails here, as does a doc row whose
// point no longer exists in the code.
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/cost_meter.h"
#include "common/fault_injector.h"
#include "db/replicated_manifest.h"
#include "storage/sharded_router.h"

#ifndef SQP_FAULT_POINTS_DOC
#error "build must define SQP_FAULT_POINTS_DOC (path to docs/FAULT_POINTS.md)"
#endif

namespace sqp {
namespace {

/// Concrete per-node names ("node3.disk.read") collapse onto their
/// documented template ("node<k>.disk.read").
std::string Normalize(const std::string& point) {
  static const std::regex node_re("^node[0-9]+\\.");
  return std::regex_replace(point, node_re, "node<k>.");
}

/// Every backtick-quoted name in the *first cell* of each table row of
/// the "## Fault points" section. Other cells mention status codes and
/// glob patterns in backticks, so only the name column is parsed.
std::set<std::string> DocumentedPoints(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::set<std::string> points;
  std::string line;
  bool in_section = false;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) {
      in_section = line == "## Fault points";
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
      if (!name.empty() && name != "---") points.insert(name);
      pos = close + 1;
    }
  }
  return points;
}

std::string JoinSet(const std::set<std::string>& set) {
  std::ostringstream out;
  for (const auto& s : set) out << "  " << s << "\n";
  return out.str();
}

TEST(FaultPointDriftTest, RegisteredPointsMatchTheDocCatalogue) {
  // Construct one of everything that registers fault points at runtime,
  // so the registered set reflects a real multi-node stack, not just
  // the canonical builtin list.
  CostMeter meter;
  ShardedStorageRouter single(&meter, 1);
  ShardedStorageRouter sharded(&meter, 3);
  ReplicatedManifest manifest(3);

  std::set<std::string> registered;
  for (const auto& point : FaultInjector::Global().RegisteredPoints()) {
    registered.insert(Normalize(point));
  }
  std::set<std::string> documented = DocumentedPoints(SQP_FAULT_POINTS_DOC);

  std::set<std::string> undocumented;
  for (const auto& p : registered) {
    if (documented.count(p) == 0) undocumented.insert(p);
  }
  std::set<std::string> stale;
  for (const auto& p : documented) {
    if (registered.count(p) == 0) stale.insert(p);
  }
  EXPECT_TRUE(undocumented.empty())
      << "fault points registered in code but missing from "
         "docs/FAULT_POINTS.md:\n"
      << JoinSet(undocumented);
  EXPECT_TRUE(stale.empty())
      << "fault points documented in docs/FAULT_POINTS.md but never "
         "registered by the code:\n"
      << JoinSet(stale);
  // Belt and braces: the doc parser found a plausible table at all.
  EXPECT_GE(documented.size(), 8u);
}

TEST(FaultInjectorTest, FiredFaultCarriesTheArmedCode) {
  const StatusCode codes[] = {
      StatusCode::kNotFound,          StatusCode::kInvalidArgument,
      StatusCode::kAlreadyExists,     StatusCode::kNotSupported,
      StatusCode::kInternal,          StatusCode::kCancelled,
      StatusCode::kResourceExhausted, StatusCode::kDataLoss,
      StatusCode::kFailedPrecondition,
  };
  for (StatusCode code : codes) {
    FaultInjector injector;
    FaultSpec spec = FaultSpec::EveryNth(1, code);
    spec.only_in_region = false;
    injector.Arm("test.point", spec);
    Status fired = injector.Check("test.point");
    EXPECT_EQ(fired.code(), code) << fired.ToString();
  }
}

}  // namespace
}  // namespace sqp
