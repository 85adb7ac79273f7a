// Benchmark driver: runs one workload against the sqp library and
// prints every metric by name and unit. The last line of stdout is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload single_user|multi_user|load_recover
//             --seed N --seconds S --trace 0|1
//
// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
// (--trace 1) report the per-layer split: wall-clock of the calls this
// driver makes into each module's public functions, and exact counts
// taken as deltas of MetricsRegistry::Global() snapshots. Nothing
// inside the library is instrumented. README.md in this directory maps
// every metric to the layer and workload it watches.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "harness/experiment.h"
#include "harness/metrics.h"
#include "sim/sim_server.h"
#include "speculation/engine.h"

using namespace sqp;

namespace {

// Workload sizes. One replay round of each replay workload takes about
// the default run length on a 4-core x86 host; load_recover always runs
// at least three rounds because its first bulk load is the warm-up.
constexpr size_t kSingleUsers = 6;
constexpr size_t kMultiUsers = 12;
constexpr size_t kGroupSize = 3;
constexpr size_t kLoadRecoverMinRounds = 3;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename F>
double Timed(F&& f) {
  double t0 = Now();
  f();
  return Now() - t0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

rusage Usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

double Pct(double part, double whole) {
  return whole > 0 ? 100.0 * part / whole : 0.0;
}

// ------------------------------------------------------- counter deltas

uint64_t Delta(const MetricsSnapshot& before, const MetricsSnapshot& after,
               const std::string& name) {
  return after.counter(name) - before.counter(name);
}

/// `storage.disk.<leaf>` plus every `storage.node<k>.disk.<leaf>`.
uint64_t DiskDelta(const MetricsSnapshot& before, const MetricsSnapshot& after,
                   const std::string& leaf) {
  uint64_t total = Delta(before, after, "storage.disk." + leaf);
  const std::string suffix = ".disk." + leaf;
  for (const auto& [name, value] : after.counters) {
    if (name.rfind("storage.node", 0) == 0 && name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += value - before.counter(name);
    }
  }
  return total;
}

// ---------------------------------------------------------------- rounds

/// Per-layer wall-clock, summed over the calls the driver makes.
using LayerSeconds = std::map<std::string, double>;

/// Times `f` into `(*layers)[name]` when tracing; only runs it otherwise.
template <typename F>
void Layer(LayerSeconds* layers, const char* name, F&& f) {
  if (layers == nullptr) {
    f();
    return;
  }
  (*layers)[name] += Timed(std::forward<F>(f));
}

/// Deterministic (simulated) outputs of one round. Every round of one
/// seed must produce an equal summary, traced or not.
struct SimSummary {
  std::vector<double> spec_query_seconds;
  double improvement = 0;
  double short_improvement = 0;
  double noncompletion = 0;
  double wasted_ratio = 0;
  double useful_ratio = 0;
  double recovery_seconds = 0;

  bool operator==(const SimSummary&) const = default;
};

struct Round {
  double wall_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  SimSummary sim;
  LayerSeconds layers;  // traced rounds only
  double load_s = 0;    // load_recover: this round's bulk load
  long load_faults = 0;  // and its minor page faults
};

/// Highest of a few fixed percentiles with at least ten samples beyond
/// it, by nearest rank. Returns {percentile, value}.
std::pair<double, double> TailPercentile(std::vector<double> v) {
  if (v.empty()) return {50, 0};
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  double p = 50;
  for (double candidate : {99.0, 95.0, 90.0, 75.0}) {
    if (n * (100.0 - candidate) / 100.0 >= 10.0) {
      p = candidate;
      break;
    }
  }
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  return {p, v[std::max<size_t>(rank, 1) - 1]};
}

void SummarizeReplays(const std::vector<QueryRecord>& normal,
                      const std::vector<QueryRecord>& spec,
                      const std::vector<EngineStats>& engine_stats,
                      const std::vector<OverlapStats>& overlap,
                      SimSummary* sim) {
  for (const auto& q : spec) sim->spec_query_seconds.push_back(q.seconds);
  sim->improvement = Improvement(normal, spec);
  sim->short_improvement = ImprovementInRange(normal, spec, 0.0, 1.0);
  EngineStats agg = AggregateEngineStats(engine_stats);
  size_t views_used = 0;
  for (const auto& q : spec) views_used += q.views_used.size();
  if (agg.manipulations_issued > 0) {
    sim->noncompletion = static_cast<double>(agg.cancelled_at_go) /
                         static_cast<double>(agg.manipulations_issued);
    sim->useful_ratio = static_cast<double>(views_used) /
                        static_cast<double>(agg.manipulations_issued);
  }
  sim->wasted_ratio = AggregateOverlap(overlap).wasted_ratio;
}

/// Each speculative final query must return its normal twin's row
/// count. Returns the number of queries that do not.
uint64_t RowCountMismatches(const std::vector<QueryRecord>& normal,
                            const std::vector<QueryRecord>& spec) {
  if (normal.size() != spec.size()) {
    return std::max(normal.size(), spec.size());
  }
  uint64_t bad = 0;
  for (size_t i = 0; i < normal.size(); i++) {
    if (normal[i].row_count != spec[i].row_count) bad++;
  }
  return bad;
}

/// Collects the replay results of a round and its correctness tally.
struct ReplayTally {
  std::vector<QueryRecord> normal, spec;
  std::vector<EngineStats> engine_stats;
  std::vector<OverlapStats> overlap;

  /// Checks and absorbs one (normal, speculative) replay of `queries`
  /// final queries; a failed replay fails all of them.
  template <typename R, typename Flatten>
  void Add(const Result<R>& n, const Result<R>& s, uint64_t queries,
           const std::string& what, Round* round, Flatten flat) {
    round->attempted += queries;
    if (!n.ok() || !s.ok()) {
      std::printf("replay of %s failed: %s\n", what.c_str(),
                  (!n.ok() ? n.status() : s.status()).ToString().c_str());
      round->failed += queries;
      return;
    }
    std::vector<QueryRecord> fn = flat(*n), fs = flat(*s);
    uint64_t bad = RowCountMismatches(fn, fs);
    if (bad > 0) {
      std::printf("%s: %llu speculative queries differ from normal\n",
                  what.c_str(), static_cast<unsigned long long>(bad));
    }
    round->failed += bad;
    normal.insert(normal.end(), fn.begin(), fn.end());
    spec.insert(spec.end(), fs.begin(), fs.end());
  }
};

std::vector<Trace> LeaveOneOut(const std::vector<Trace>& traces, size_t t) {
  std::vector<Trace> history;
  for (size_t o = 0; o < traces.size(); o++) {
    if (o != t) history.push_back(traces[o]);
  }
  return history;
}

/// Runs after each user or group of a replay round; its time is left
/// out of the round's.
using Pause = std::function<void()>;

/// fig4/E3 loop: every user replayed normal, then speculative with a
/// learner pretrained on the other users.
Round SingleUserRound(Database* db, const std::vector<Trace>& traces,
                      const SpeculationEngineOptions& engine, bool traced,
                      const Pause& pause) {
  Round round;
  LayerSeconds* layers = traced ? &round.layers : nullptr;
  ReplayTally tally;
  double paused = 0;
  double t0 = Now();
  for (size_t t = 0; t < traces.size(); t++) {
    const Trace& trace = traces[t];
    std::vector<Trace> history = LeaveOneOut(traces, t);
    ReplayOptions normal_opts;
    normal_opts.speculation = false;
    ReplayOptions spec_opts;
    spec_opts.speculation = true;
    spec_opts.engine = engine;
    spec_opts.pretrain_traces = &history;

    std::optional<Result<ReplayResult>> normal, spec;
    Layer(layers, "harness.replay_normal_s", [&] {
      normal.emplace(TraceReplayer(db, normal_opts).Replay(trace));
    });
    Layer(layers, "harness.replay_spec_s", [&] {
      spec.emplace(TraceReplayer(db, spec_opts).Replay(trace));
    });
    tally.Add(
        *normal, *spec, trace.QueryCount(),
        "user " + std::to_string(trace.user_id), &round,
        [](const ReplayResult& r) { return r.queries; });
    if (spec->ok()) {
      tally.engine_stats.push_back((*spec)->engine_stats);
      tally.overlap.push_back((*spec)->overlap);
    }
    paused += Timed(pause);
  }
  round.wall_s = Now() - t0 - paused;
  SummarizeReplays(tally.normal, tally.spec, tally.engine_stats,
                   tally.overlap, &round.sim);
  return round;
}

/// fig7/E7 loop: groups of kGroupSize users share one SimServer.
Round MultiUserRound(Database* db, const std::vector<Trace>& traces,
                     const SpeculationEngineOptions& engine, bool traced,
                     const Pause& pause) {
  Round round;
  LayerSeconds* layers = traced ? &round.layers : nullptr;
  ReplayTally tally;
  double paused = 0;
  double t0 = Now();
  for (size_t start = 0; start + kGroupSize <= traces.size();
       start += kGroupSize) {
    std::vector<Trace> group(traces.begin() + start,
                             traces.begin() + start + kGroupSize);
    MultiUserReplayOptions normal_opts;
    normal_opts.speculation = false;
    MultiUserReplayOptions spec_opts;
    spec_opts.speculation = true;
    spec_opts.engine = engine;

    std::optional<Result<MultiUserReplayResult>> normal, spec;
    Layer(layers, "harness.replay_normal_s", [&] {
      normal.emplace(MultiUserReplayer(db, normal_opts).Replay(group));
    });
    Layer(layers, "harness.replay_spec_s", [&] {
      spec.emplace(MultiUserReplayer(db, spec_opts).Replay(group));
    });
    uint64_t queries = 0;
    for (const Trace& trace : group) queries += trace.QueryCount();
    tally.Add(
        *normal, *spec, queries,
        "group " + std::to_string(start / kGroupSize), &round,
        [](const MultiUserReplayResult& r) { return r.Flatten(); });
    if (spec->ok()) {
      const MultiUserReplayResult& s = **spec;
      tally.engine_stats.insert(tally.engine_stats.end(),
                                s.engine_stats.begin(), s.engine_stats.end());
      tally.overlap.insert(tally.overlap.end(), s.overlap.begin(),
                           s.overlap.end());
    }
    paused += Timed(pause);
  }
  round.wall_s = Now() - t0 - paused;
  SummarizeReplays(tally.normal, tally.spec, tally.engine_stats,
                   tally.overlap, &round.sim);
  return round;
}

// ----------------------------------------------------------- load_recover

SelectionPred Sel(const char* table, const char* column, CompareOp op,
                  Value constant) {
  SelectionPred sel;
  sel.table = table;
  sel.column = column;
  sel.op = op;
  sel.constant = std::move(constant);
  return sel;
}

JoinPred Join(const char* lt, const char* lc, const char* rt,
              const char* rc) {
  JoinPred join;
  join.left_table = lt;
  join.left_column = lc;
  join.right_table = rt;
  join.right_column = rc;
  join.Canonicalize();
  return join;
}

/// Fixed verification set: every base table is read, every FK join
/// template appears, and results stay small enough to keep in memory.
std::vector<QueryGraph> VerificationQueries() {
  std::vector<QueryGraph> out;
  auto add = [&](std::vector<JoinPred> joins, SelectionPred sel) {
    QueryGraph q;
    for (const JoinPred& j : joins) q.AddJoin(j);
    q.AddSelection(sel);
    out.push_back(std::move(q));
  };
  add({Join("customer", "c_custkey", "orders", "o_custkey")},
      Sel("customer", "c_mktsegment", CompareOp::kEq, Value("MACHINERY")));
  add({Join("orders", "o_orderkey", "lineitem", "l_orderkey")},
      Sel("orders", "o_totalprice", CompareOp::kGt, Value(450000.0)));
  add({Join("part", "p_partkey", "lineitem", "l_partkey")},
      Sel("part", "p_size", CompareOp::kGt, Value(int64_t{45})));
  add({Join("supplier", "s_suppkey", "lineitem", "l_suppkey")},
      Sel("lineitem", "l_quantity", CompareOp::kGt, Value(int64_t{48})));
  add({Join("part", "p_partkey", "partsupp", "ps_partkey")},
      Sel("part", "p_retailprice", CompareOp::kGt, Value(2000.0)));
  add({Join("supplier", "s_suppkey", "partsupp", "ps_suppkey")},
      Sel("supplier", "s_acctbal", CompareOp::kLt, Value(0.0)));
  add({Join("lineitem", "l_partkey", "partsupp", "ps_partkey"),
       Join("lineitem", "l_suppkey", "partsupp", "ps_suppkey")},
      Sel("partsupp", "ps_availqty", CompareOp::kGt, Value(int64_t{9900})));
  add({}, Sel("customer", "c_acctbal", CompareOp::kGt, Value(9000.0)));
  return out;
}

/// Row count plus an order-independent digest (wrapping sum of row
/// hashes) of one query result.
struct Answer {
  uint64_t rows = 0;
  uint64_t digest = 0;
  bool operator==(const Answer&) const = default;
};

uint64_t RowHash(const Tuple& row) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a over value hashes
  for (const Value& v : row) {
    h ^= static_cast<uint64_t>(v.Hash());
    h *= 1099511628211ull;
  }
  return h;
}

/// Runs the verification set; nullopt (after printing why) when a
/// query fails.
std::optional<std::vector<Answer>> Verify(
    Database* db, const std::vector<QueryGraph>& queries) {
  std::vector<Answer> answers;
  ExecuteOptions exec;
  exec.keep_rows = true;
  for (const QueryGraph& q : queries) {
    auto result = db->Execute(q, exec);
    if (!result.ok()) {
      std::printf("verification query failed: %s\n",
                  result.status().ToString().c_str());
      return std::nullopt;
    }
    Answer a;
    a.rows = result->row_count;
    for (const Tuple& row : result->rows) a.digest += RowHash(row);
    answers.push_back(a);
  }
  return answers;
}

/// Bulk load (timed as set-up), then crash + Reopen, KillNode(1) +
/// Reopen, Repair; the verification set must give its pre-crash
/// answers after each step and every Reopen must pass the per-node
/// orphan audit.
Round LoadRecoverRound(const ExperimentConfig& cfg, bool traced) {
  Round round;
  LayerSeconds* layers = traced ? &round.layers : nullptr;
  const std::vector<QueryGraph> queries = VerificationQueries();
  // Verification queries at three checkpoints; two Reopen statuses and
  // their orphan audits; KillNode; Repair's status and completeness.
  round.attempted = 3 * queries.size() + 7;

  std::unique_ptr<Database> db;
  const long faults = Usage().ru_minflt;
  round.load_s = Timed([&] {
    auto built = BuildDatabase(cfg);
    if (built.ok()) db = std::move(*built);
  });
  round.load_faults = Usage().ru_minflt - faults;
  if (db == nullptr) {
    std::printf("bulk load failed\n");
    round.failed = round.attempted;
    return round;
  }

  // Every step runs even after an earlier one failed: the failure then
  // shows up in the checks that follow it.
  const double t0 = Now();
  std::optional<std::vector<Answer>> reference;
  Layer(layers, "db.verify_s", [&] { reference = Verify(db.get(), queries); });
  if (!reference) {
    round.failed = round.attempted;
    round.wall_s = Now() - t0;
    return round;
  }
  auto step_ok = [&](const std::string& what, const Status& status) {
    if (!status.ok()) {
      std::printf("%s failed: %s\n", what.c_str(), status.ToString().c_str());
      round.failed++;
    }
    return status.ok();
  };
  auto check = [&](const char* after) {
    std::optional<std::vector<Answer>> got;
    Layer(layers, "db.verify_s", [&] { got = Verify(db.get(), queries); });
    for (size_t i = 0; i < queries.size(); i++) {
      if (!got || !((*got)[i] == (*reference)[i])) {
        std::printf("verification query %zu wrong after %s\n", i, after);
        round.failed++;
      }
    }
  };
  auto reopen = [&](const char* after) {
    Status status = Status::OK();
    Layer(layers, "db.reopen_s", [&] { status = db->Reopen(); });
    const RecoveryStats& stats = db->last_recovery();
    if (step_ok(after, status)) {
      round.sim.recovery_seconds += stats.recovery_sim_seconds;
    }
    if (!status.ok() || stats.orphan_pages_per_node_audit != 0) {
      std::printf("orphan audit after %s: %zu pages\n", after,
                  stats.orphan_pages_per_node_audit);
      round.failed++;
    }
    check(after);
  };

  db->SimulateCrash();
  reopen("crash + Reopen");
  step_ok("KillNode(1)", db->KillNode(1));
  reopen("KillNode + Reopen");

  std::optional<Result<RepairStats>> repaired;
  Layer(layers, "db.repair_s", [&] { repaired.emplace(db->Repair()); });
  const bool repair_ok =
      step_ok("Repair", repaired->ok() ? Status::OK() : repaired->status());
  if (!repair_ok || !(*repaired)->complete) {
    std::printf("Repair did not restore full redundancy\n");
    round.failed++;
  }
  check("Repair");
  round.wall_s = Now() - t0;
  return round;
}

// ---------------------------------------------------------------- args

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

[[noreturn]] void UsageError(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "single_user|multi_user|load_recover --seed N --seconds S "
               "--trace 0|1\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    std::string flag = argv[i];
    if (i + 1 >= argc) UsageError("missing value for " + flag);
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && value[0] != '-' && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else {
      UsageError("unknown flag " + flag);
    }
  }
  if (args.workload != "single_user" && args.workload != "multi_user" &&
      args.workload != "load_recover") {
    UsageError("unknown or missing --workload");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    UsageError("--seed, --seconds and --trace need valid values");
  }
  return args;
}

// -------------------------------------------------------------- runner

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Runner {
 public:
  explicit Runner(Args args) : args_(std::move(args)) {}

  int Run() {
    std::printf("workload %s seed %llu seconds %g trace %d\n",
                args_.workload.c_str(),
                static_cast<unsigned long long>(args_.seed), args_.seconds,
                args_.trace ? 1 : 0);
    if (args_.workload == "load_recover") {
      RunLoadRecover();
    } else {
      RunReplays(args_.workload == "single_user");
    }
    Emit();
    return 0;
  }

 private:
  /// Runs `setup` then `round` until the next pair would overrun the
  /// run length, and at least `min_rounds` times. A traced run alternates
  /// untraced and traced rounds, so both medians come from one process.
  /// The counts are deltas over the first traced round, taken after its
  /// set-up.
  void Measure(const std::function<void()>& setup,
               const std::function<Round(bool traced)>& round,
               size_t min_rounds) {
    if (args_.trace) min_rounds = std::max<size_t>(min_rounds, 2);
    const double start = Now();
    for (size_t i = 0;; i++) {
      const bool traced = args_.trace && i % 2 == 1;
      setup();
      const bool counted = traced && !traced_once_;
      if (counted) counts_before_ = MetricsRegistry::Global().Snapshot();
      Round r = round(traced);
      if (counted) counts_after_ = MetricsRegistry::Global().Snapshot();
      Absorb(std::move(r), traced);
      const double elapsed = Now() - start;
      const double per_round = elapsed / static_cast<double>(i + 1);
      if (i + 1 >= min_rounds && elapsed + per_round > args_.seconds) break;
    }
  }

  void Absorb(Round r, bool traced) {
    attempted_ += r.attempted;
    failed_ += r.failed;
    if (!sim_) {
      sim_ = r.sim;
    } else if (!(r.sim == *sim_)) {
      std::printf("simulated outputs differ between rounds\n");
      failed_ += r.attempted;
    }
    (traced ? traced_walls_ : walls_).push_back(r.wall_s);
    if (traced && !traced_once_) {
      layers_.insert(r.layers.begin(), r.layers.end());
      if (r.load_s > 0) layers_["workload.load_s"] = r.load_s;
      traced_once_ = true;
    }
  }

  void RunReplays(bool single) {
    ExperimentConfig cfg;
    cfg.scale = tpch::Scale::kSmall;
    cfg.data_seed = args_.seed;
    cfg.trace_seed = args_.seed + 7;
    cfg.num_users = single ? kSingleUsers : kMultiUsers;
    cfg.buffer_pool_pages = single ? 180 : 540;
    // fig7 restricts the manipulation space to selections (§6.3).
    if (!single) cfg.engine.speculator.space.join_materializations = false;

    // A fresh process's first build pays page faults and allocator
    // growth that later builds do not: report it, and time set-up on
    // the builds after it.
    const rusage before = Usage();
    first_build_s_ = Timed([&] { (void)BuildDatabase(cfg); });
    minor_faults_ = static_cast<double>(Usage().ru_minflt - before.ru_minflt);

    // Every round replays on a freshly built database: a database's
    // cost meter accumulates, so later rounds on one database differ
    // from the first in the last bits of their simulated seconds.
    std::vector<double> load_s, generate_s;
    std::unique_ptr<Database> db;
    std::vector<Trace> traces;
    auto timed_setup = [&](std::unique_ptr<Database>* db_out,
                           std::vector<Trace>* traces_out) {
      const double t0 = Now();
      auto built = BuildDatabase(cfg);
      const double t1 = Now();
      *traces_out = BuildTraces(cfg);
      const double t2 = Now();
      setup_s_.push_back(t2 - t0);
      load_s.push_back(t1 - t0);
      generate_s.push_back(t2 - t1);
      attempted_++;
      if (built.ok()) {
        *db_out = std::move(*built);
      } else {
        std::printf("database build failed: %s\n",
                    built.status().ToString().c_str());
        failed_++;
      }
    };
    auto setup = [&] {
      db.reset();
      timed_setup(&db, &traces);
    };
    // Set-up samples taken only at the ends of the run come from one
    // short stretch of host load; these spread them over the run. A
    // traced round gets none, so they do not enter its counts.
    const Pause sample_setup = [&] {
      std::unique_ptr<Database> spare_db;
      std::vector<Trace> spare_traces;
      timed_setup(&spare_db, &spare_traces);
    };
    const Pause no_pause = [] {};

    Measure(setup,
            [&](bool traced) {
              if (db == nullptr) return Round();
              const Pause& pause = traced ? no_pause : sample_setup;
              return single ? SingleUserRound(db.get(), traces, cfg.engine,
                                              traced, pause)
                            : MultiUserRound(db.get(), traces, cfg.engine,
                                             traced, pause);
            },
            1);
    if (args_.trace && db != nullptr) {
      Probes(db.get(), traces, cfg.engine, single);
    }
    layers_["workload.load_s"] = Median(load_s);
    layers_["trace.generate_s"] = Median(generate_s);
  }

  /// Direct calls into single modules over every final query, after
  /// the counted round so they do not disturb its counts.
  void Probes(Database* db, const std::vector<Trace>& traces,
              const SpeculationEngineOptions& engine, bool single) {
    std::vector<std::vector<QueryGraph>> finals;
    size_t calls = 0;
    for (const Trace& t : traces) {
      finals.push_back(t.FinalQueries());
      calls += finals.back().size();
    }
    attempted_ += 2 * calls;
    layers_["optimizer.plan_s"] = Timed([&] {
      for (const auto& qs : finals) {
        for (const auto& q : qs) {
          if (!db->EstimateCost(q).ok()) failed_++;
        }
      }
    });
    const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
    for (const auto& qs : finals) {
      layers_["db.cold_start_s"] += Timed([&] {
        if (!db->ColdStart().ok()) failed_++;
      });
      layers_["db.execute_s"] += Timed([&] {
        for (const auto& q : qs) {
          if (!db->Execute(q).ok()) failed_++;
        }
      });
    }
    const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
    layers_["db.execute_calls"] = static_cast<double>(calls);
    layers_["exec.rows_per_query"] =
        calls > 0 ? static_cast<double>(Delta(before, after,
                                              "exec.batch.rows")) /
                        static_cast<double>(calls)
                  : 0;
    if (!single) return;  // only single-user replays pretrain a learner
    for (size_t t = 0; t < traces.size(); t++) {
      std::vector<Trace> history = LeaveOneOut(traces, t);
      SimServer server;
      SpeculationEngine spec(db, &server, engine);
      layers_["speculation.pretrain_s"] +=
          Timed([&] { spec.PretrainLearner(history); });
    }
  }

  void RunLoadRecover() {
    ExperimentConfig cfg;
    cfg.scale = tpch::Scale::kMedium;
    cfg.storage_nodes = 3;
    cfg.data_seed = args_.seed;
    // The first round's bulk load is the warm-up build: reported as
    // setup.first_build_s and left out of setup_s. The bulk load is part
    // of the round, so this workload's counts include it.
    bool first = true;
    Measure([] {},
            [&](bool traced) {
              Round r = LoadRecoverRound(cfg, traced);
              if (first) {
                first_build_s_ = r.load_s;
                minor_faults_ = static_cast<double>(r.load_faults);
                first = false;
              } else {
                setup_s_.push_back(r.load_s);
              }
              return r;
            },
            kLoadRecoverMinRounds);
  }

  /// Deterministic outputs, printed by both kinds of run so a traced
  /// run can be checked against an untraced one.
  std::vector<Metric> SimMetrics() const {
    const SimSummary sim = sim_.value_or(SimSummary());
    const auto tail = TailPercentile(sim.spec_query_seconds);
    return {
        {"sim_improvement_pct", 100.0 * sim.improvement, "%"},
        {"sim_short_query_improvement_pct", 100.0 * sim.short_improvement,
         "%"},
        {"sim_spec_query_p50_s", Median(sim.spec_query_seconds), "s"},
        {"sim_spec_query_tail_s", tail.second, "s"},
        {"sim_noncompletion_pct", 100.0 * sim.noncompletion, "%"},
        {"sim_wasted_ratio", sim.wasted_ratio, "ratio"},
        {"sim_recovery_s", sim.recovery_seconds, "s"},
        {"speculation.useful_ratio", sim.useful_ratio, "ratio"},
    };
  }

  std::vector<Metric> EndToEndMetrics() const {
    return {
        {"setup_s", Median(setup_s_), "s"},
        {"experiment_s", Median(walls_), "s"},
        {"peak_rss_mb", static_cast<double>(Usage().ru_maxrss) / 1024.0,
         "MB"},
    };
  }

  std::vector<Metric> LayerMetrics() const {
    const MetricsSnapshot& a = counts_before_;
    const MetricsSnapshot& b = counts_after_;
    auto layer = [&](const char* name) {
      auto it = layers_.find(name);
      return it == layers_.end() ? 0.0 : it->second;
    };
    auto count = [&](const char* name) {
      return static_cast<double>(Delta(a, b, name));
    };
    const double hits = count("bufferpool.hits");
    const double misses = count("bufferpool.misses");
    const double reads = static_cast<double>(DiskDelta(a, b, "reads"));
    const double writes = static_cast<double>(DiskDelta(a, b, "writes"));
    const double untraced_s = Median(walls_);
    std::vector<Metric> out = {
        {"workload.load_s", layer("workload.load_s"), "s"},
        {"trace.generate_s", layer("trace.generate_s"), "s"},
        {"setup.first_build_s", first_build_s_, "s"},
        {"setup.minor_faults", minor_faults_, "count"},
        {"speculation.pretrain_s", layer("speculation.pretrain_s"), "s"},
        {"harness.replay_normal_s", layer("harness.replay_normal_s"), "s"},
        {"harness.replay_spec_s", layer("harness.replay_spec_s"), "s"},
        {"speculation.overhead_s",
         layer("harness.replay_spec_s") - layer("harness.replay_normal_s"),
         "s"},
        {"optimizer.plan_s", layer("optimizer.plan_s"), "s"},
        {"db.execute_s", layer("db.execute_s"), "s"},
        {"db.execute_calls", layer("db.execute_calls"), "count"},
        {"db.cold_start_s", layer("db.cold_start_s"), "s"},
        {"db.reopen_s", layer("db.reopen_s"), "s"},
        {"db.repair_s", layer("db.repair_s"), "s"},
        {"db.verify_s", layer("db.verify_s"), "s"},
        {"bufferpool.hits", hits, "count"},
        {"bufferpool.misses", misses, "count"},
        {"bufferpool.hit_ratio",
         hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"},
        {"storage.disk.reads", reads, "count"},
        {"storage.disk.writes", writes, "count"},
        {"storage.disk.syncs",
         static_cast<double>(DiskDelta(a, b, "syncs")), "count"},
        {"storage.checksum_bytes", (reads + writes) * 4096.0, "bytes"},
        {"exec.batch.rows", count("exec.batch.rows"), "count"},
        {"exec.batch.pages_pinned", count("exec.batch.pages_pinned"),
         "count"},
        {"exec.rows_per_query", layer("exec.rows_per_query"), "rows"},
        {"engine.manipulations_issued", count("engine.manipulations_issued"),
         "count"},
        {"engine.manipulations_completed",
         count("engine.manipulations_completed"), "count"},
        {"engine.cancelled_at_go", count("engine.cancelled_at_go"), "count"},
        {"speculator.candidates_considered",
         count("speculator.candidates_considered"), "count"},
        {"sim.jobs_submitted", count("sim.jobs_submitted"), "count"},
        {"sim.jobs_cancelled", count("sim.jobs_cancelled"), "count"},
        {"manifest.replication.commits",
         count("manifest.replication.commits"), "count"},
        {"manifest.replication.catchup_entries",
         count("manifest.replication.catchup_entries"), "count"},
        {"repair.pages_reprotected", count("repair.pages_reprotected"),
         "count"},
        {"failed_ops_pct", FailedPct(), "%"},
        {"trace_overhead_pct",
         untraced_s > 0 ? Pct(Median(traced_walls_) - untraced_s, untraced_s)
                        : 0.0,
         "%"},
    };
    for (Metric& m : SimMetrics()) out.push_back(std::move(m));
    return out;
  }

  double FailedPct() const {
    return Pct(static_cast<double>(failed_), static_cast<double>(attempted_));
  }

  void Emit() const {
    const SimSummary sim = sim_.value_or(SimSummary());
    const auto tail = TailPercentile(sim.spec_query_seconds);
    const size_t n = sim.spec_query_seconds.size();
    std::printf("set-up samples (s):");
    for (double v : setup_s_) std::printf(" %.4f", v);
    std::printf("\nround samples (s):");
    for (double v : walls_) std::printf(" %.4f", v);
    std::printf("\ntraced round samples (s):");
    for (double v : traced_walls_) std::printf(" %.4f", v);
    std::printf("\n");
    std::printf("speculative final queries: %zu; tail is p%g (%zu beyond)\n",
                n, tail.first,
                static_cast<size_t>(static_cast<double>(n) *
                                    (100.0 - tail.first) / 100.0));
    std::printf("failed operations: %llu of %llu (%.6g %%)\n",
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_), FailedPct());
    const std::vector<Metric> metrics =
        args_.trace ? LayerMetrics() : EndToEndMetrics();
    if (!args_.trace) {
      for (const Metric& m : SimMetrics()) {
        std::printf("sim %s %.17g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      }
    }
    for (const Metric& m : metrics) {
      std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::string json = "{\"correct\": ";
    json += failed_ == 0 && attempted_ > 0 ? "true" : "false";
    json += ", \"attempted\": " +
            std::to_string(std::max<uint64_t>(attempted_, 1));
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); i++) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
      json += (i > 0 ? ", \"" : "\"") + metrics[i].name +
              "\": {\"value\": " + value + ", \"unit\": \"" +
              metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

  Args args_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::optional<SimSummary> sim_;
  std::vector<double> setup_s_;
  std::vector<double> walls_;
  std::vector<double> traced_walls_;
  double first_build_s_ = 0;
  double minor_faults_ = 0;
  bool traced_once_ = false;
  LayerSeconds layers_;
  MetricsSnapshot counts_before_;
  MetricsSnapshot counts_after_;
};

}  // namespace

int main(int argc, char** argv) {
  return Runner(ParseArgs(argc, argv)).Run();
}
