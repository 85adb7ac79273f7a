// Experiment drivers: the top half of each bench binary.
//
// Each driver loads a dataset, generates (or accepts) user traces,
// replays them under the configurations an experiment compares, and
// returns aligned per-query records that the metrics module buckets.
// DESIGN.md §4 maps each paper artifact to one of these drivers.
#pragma once

#include <vector>

#include "db/database.h"
#include "harness/metrics.h"
#include "harness/multi_user_replayer.h"
#include "harness/replayer.h"
#include "trace/trace_generator.h"
#include "workload/datagen.h"

namespace sqp {

struct ExperimentConfig {
  tpch::Scale scale = tpch::Scale::kSmall;
  size_t num_users = 15;
  uint64_t data_seed = 42;
  uint64_t trace_seed = 1234;
  /// "32 MB" equivalent: the small dataset is ~3x this (DESIGN.md §2).
  size_t buffer_pool_pages = 180;
  CostConfig cost;
  SpeculationEngineOptions engine;
  UserModelParams user_model;
  /// See tpch::LoadOptions::prepare_skewed_fields (ablation E8 sets
  /// false so histogram/index-creation manipulations have room to act).
  bool prepare_skewed_fields = true;
  /// Simulated storage nodes (DESIGN.md §12); 1 = single-node store.
  size_t storage_nodes = 1;
  /// Optional span tracer threaded through replays and recovery
  /// (DESIGN.md §9). Null = off.
  Tracer* tracer = nullptr;
  /// Optional telemetry sampler (DESIGN.md §16): BuildDatabase hands it
  /// the tracer, drivers attach it to their SimServers, and
  /// speculative replays feed it counter tracks. Null = off.
  MetricsTimeline* timeline = nullptr;
};

/// Build a database loaded with the configured dataset.
Result<std::unique_ptr<Database>> BuildDatabase(const ExperimentConfig& cfg);

/// Generate the configured trace set.
std::vector<Trace> BuildTraces(const ExperimentConfig& cfg);

struct SingleUserResult {
  std::vector<QueryRecord> normal;       // aligned with speculative
  std::vector<QueryRecord> speculative;
  std::vector<EngineStats> engine_stats;  // one per trace

  double overall_improvement = 0;
  double avg_materialization_seconds = 0;
  /// Fraction of issued manipulations still running at GO (cancelled by
  /// the conservative convention) — paper §6.1 reports 17/25/30 %.
  double noncompletion_rate = 0;
  /// Fraction cancelled earlier because an edit removed their benefit.
  double edit_cancellation_rate = 0;
  /// Fraction of speculative final queries whose plan used >=1 view.
  double rewritten_query_fraction = 0;

  size_t manipulations_issued = 0;
  size_t manipulations_completed = 0;

  /// Aggregated think-time-overlap story across the speculative replays
  /// (DESIGN.md §9).
  OverlapStats overlap;
};

/// E3/E4/E5: replay every trace twice (normal, speculative).
Result<SingleUserResult> RunSingleUserExperiment(const ExperimentConfig& cfg);

/// Materialize the join of every connected subset (>= 2 relations) of
/// the TPC-H subset schema, all attributes kept — Figure 6's extreme
/// pre-materialized-views configuration. Returns the view count.
Result<size_t> PrematerializeAllJoins(Database* db);

struct MatViewsResult {
  std::vector<QueryRecord> normal;      // no views, no speculation
  std::vector<QueryRecord> views_only;  // pre-materialized views
  std::vector<QueryRecord> spec_only;   // speculation, no views
  std::vector<QueryRecord> spec_views;  // both
};

/// E6 (Figure 6): four aligned runs per trace.
Result<MatViewsResult> RunMatViewsExperiment(const ExperimentConfig& cfg);

struct MultiUserResult {
  std::vector<QueryRecord> normal;
  std::vector<QueryRecord> speculative;
  std::vector<EngineStats> engine_stats;
  double overall_improvement = 0;
  /// Aggregated across all users and groups (DESIGN.md §9).
  OverlapStats overlap;
  /// Per-session attributed cost table over the whole experiment
  /// (Attribution::FormatTable — DESIGN.md §16): one row per session,
  /// plus "(unattributed)" and a "total" row equal to the meter.
  std::string attribution_table;
};

/// E7 (Figure 7): traces replayed in groups of `group_size` concurrent
/// users; speculative vs normal.
Result<MultiUserResult> RunMultiUserExperiment(const ExperimentConfig& cfg,
                                               size_t group_size = 3);

}  // namespace sqp
