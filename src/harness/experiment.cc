#include "harness/experiment.h"

#include <set>

#include "common/metrics_timeline.h"

namespace sqp {

Result<std::unique_ptr<Database>> BuildDatabase(const ExperimentConfig& cfg) {
  DatabaseOptions options;
  options.buffer_pool_pages = cfg.buffer_pool_pages;
  options.cost = cfg.cost;
  options.storage_nodes = cfg.storage_nodes;
  options.tracer = cfg.tracer;
  auto db = std::make_unique<Database>(options);
  if (cfg.timeline != nullptr) cfg.timeline->set_tracer(cfg.tracer);
  tpch::LoadOptions load;
  load.scale = cfg.scale;
  load.seed = cfg.data_seed;
  load.prepare_skewed_fields = cfg.prepare_skewed_fields;
  Status status = tpch::LoadTpch(db.get(), load);
  if (!status.ok()) return status;
  return db;
}

std::vector<Trace> BuildTraces(const ExperimentConfig& cfg) {
  TraceGeneratorOptions options;
  options.params = cfg.user_model;
  options.num_users = cfg.num_users;
  options.seed = cfg.trace_seed;
  return GenerateTraces(options);
}

Result<SingleUserResult> RunSingleUserExperiment(
    const ExperimentConfig& cfg) {
  auto db = BuildDatabase(cfg);
  if (!db.ok()) return db.status();
  std::vector<Trace> traces = BuildTraces(cfg);

  SingleUserResult result;
  std::vector<OverlapStats> per_replay_overlap;
  for (size_t t = 0; t < traces.size(); t++) {
    const Trace& trace = traces[t];
    ReplayOptions normal_opts;
    normal_opts.speculation = false;
    TraceReplayer normal_replayer(db->get(), normal_opts);
    auto normal = normal_replayer.Replay(trace);
    if (!normal.ok()) return normal.status();

    // Leave-one-out pretraining: the Learner has observed the *other*
    // users before this session starts.
    std::vector<Trace> history;
    history.reserve(traces.size() - 1);
    for (size_t o = 0; o < traces.size(); o++) {
      if (o != t) history.push_back(traces[o]);
    }
    ReplayOptions spec_opts;
    spec_opts.speculation = true;
    spec_opts.engine = cfg.engine;
    spec_opts.pretrain_traces = &history;
    TraceReplayer spec_replayer(db->get(), spec_opts);
    auto spec = spec_replayer.Replay(trace);
    if (!spec.ok()) return spec.status();

    result.normal.insert(result.normal.end(), normal->queries.begin(),
                         normal->queries.end());
    result.speculative.insert(result.speculative.end(),
                              spec->queries.begin(), spec->queries.end());
    result.engine_stats.push_back(spec->engine_stats);
    per_replay_overlap.push_back(spec->overlap);
  }
  result.overlap = AggregateOverlap(per_replay_overlap);

  result.overall_improvement = Improvement(result.normal, result.speculative);
  double mat_total = 0;
  size_t mat_count = 0, issued = 0, at_go = 0, by_edit = 0, completed = 0;
  for (const auto& stats : result.engine_stats) {
    for (double d : stats.completed_durations) {
      mat_total += d;
      mat_count++;
    }
    issued += stats.manipulations_issued;
    at_go += stats.cancelled_at_go;
    by_edit += stats.cancelled_by_edit;
    completed += stats.manipulations_completed;
  }
  if (mat_count > 0) result.avg_materialization_seconds = mat_total / mat_count;
  if (issued > 0) {
    result.noncompletion_rate = static_cast<double>(at_go) / issued;
    result.edit_cancellation_rate = static_cast<double>(by_edit) / issued;
  }
  result.manipulations_issued = issued;
  result.manipulations_completed = completed;
  size_t rewritten = 0;
  for (const auto& q : result.speculative) {
    if (!q.views_used.empty()) rewritten++;
  }
  if (!result.speculative.empty()) {
    result.rewritten_query_fraction =
        static_cast<double>(rewritten) / result.speculative.size();
  }
  return result;
}

Result<size_t> PrematerializeAllJoins(Database* db) {
  // Collect the single-edge adjacency (composite template counts as one
  // adjacency with both edges).
  const auto& templates = tpch::FkJoinTemplates();
  const auto& names = tpch::TableNames();
  const size_t n = names.size();

  auto rel_index = [&](const std::string& rel) -> size_t {
    for (size_t i = 0; i < n; i++) {
      if (names[i] == rel) return i;
    }
    return n;
  };

  size_t created = 0;
  // Every subset of >= 2 relations whose induced FK subgraph is
  // connected gets its join materialized with all attributes (§6.2).
  for (uint32_t mask = 1; mask < (1u << n); mask++) {
    if (__builtin_popcount(mask) < 2) continue;
    QueryGraph graph;
    for (const auto& tmpl : templates) {
      bool inside = true;
      for (const auto& edge : tmpl.edges) {
        if (((mask >> rel_index(edge.left_table)) & 1) == 0 ||
            ((mask >> rel_index(edge.right_table)) & 1) == 0) {
          inside = false;
          break;
        }
      }
      if (inside) {
        for (const auto& edge : tmpl.edges) graph.AddJoin(edge);
      }
    }
    if (graph.relations().size() !=
        static_cast<size_t>(__builtin_popcount(mask))) {
      continue;  // some relation has no incident FK edge in the subset
    }
    if (!graph.IsConnected()) continue;
    std::string name = "pre_mv_" + std::to_string(mask);
    auto mat = db->Materialize(graph, name);
    if (!mat.ok()) return mat.status();
    created++;
  }
  return created;
}

Result<MatViewsResult> RunMatViewsExperiment(const ExperimentConfig& cfg) {
  MatViewsResult result;

  // Runs without pre-materialized views.
  {
    auto db = BuildDatabase(cfg);
    if (!db.ok()) return db.status();
    std::vector<Trace> traces = BuildTraces(cfg);
    for (const Trace& trace : traces) {
      ReplayOptions normal_opts;
      normal_opts.speculation = false;
      // Baseline must not exploit any views.
      normal_opts.normal_view_mode = ViewMode::kNone;
      auto normal = TraceReplayer(db->get(), normal_opts).Replay(trace);
      if (!normal.ok()) return normal.status();

      ReplayOptions spec_opts;
      spec_opts.speculation = true;
      spec_opts.engine = cfg.engine;
      auto spec = TraceReplayer(db->get(), spec_opts).Replay(trace);
      if (!spec.ok()) return spec.status();

      result.normal.insert(result.normal.end(), normal->queries.begin(),
                           normal->queries.end());
      result.spec_only.insert(result.spec_only.end(), spec->queries.begin(),
                              spec->queries.end());
    }
  }

  // Runs on top of pre-materialized views (fresh database).
  {
    auto db = BuildDatabase(cfg);
    if (!db.ok()) return db.status();
    auto created = PrematerializeAllJoins(db->get());
    if (!created.ok()) return created.status();
    std::vector<Trace> traces = BuildTraces(cfg);
    for (const Trace& trace : traces) {
      ReplayOptions views_opts;
      views_opts.speculation = false;
      views_opts.normal_view_mode = ViewMode::kCostBased;
      auto views = TraceReplayer(db->get(), views_opts).Replay(trace);
      if (!views.ok()) return views.status();

      ReplayOptions both_opts;
      both_opts.speculation = true;
      both_opts.engine = cfg.engine;
      // The final query may combine speculative results with the
      // pre-materialized views (cost-based choice).
      both_opts.engine.final_query_view_mode = ViewMode::kCostBased;
      auto both = TraceReplayer(db->get(), both_opts).Replay(trace);
      if (!both.ok()) return both.status();

      result.views_only.insert(result.views_only.end(),
                               views->queries.begin(), views->queries.end());
      result.spec_views.insert(result.spec_views.end(),
                               both->queries.begin(), both->queries.end());
    }
  }
  return result;
}

Result<MultiUserResult> RunMultiUserExperiment(const ExperimentConfig& cfg,
                                               size_t group_size) {
  auto db = BuildDatabase(cfg);
  if (!db.ok()) return db.status();
  std::vector<Trace> traces = BuildTraces(cfg);

  MultiUserResult result;
  std::vector<OverlapStats> per_user_overlap;
  for (size_t start = 0; start + group_size <= traces.size();
       start += group_size) {
    std::vector<Trace> group(traces.begin() + start,
                             traces.begin() + start + group_size);

    MultiUserReplayOptions normal_opts;
    normal_opts.speculation = false;
    auto normal = MultiUserReplayer(db->get(), normal_opts).Replay(group);
    if (!normal.ok()) return normal.status();

    MultiUserReplayOptions spec_opts;
    spec_opts.speculation = true;
    spec_opts.engine = cfg.engine;
    spec_opts.tracer = cfg.tracer;
    spec_opts.timeline = cfg.timeline;
    // One epoch per group replay (each gets a fresh shared clock);
    // scale + group label keeps multi-scale dumps distinguishable.
    spec_opts.timeline_epoch = std::string(tpch::ScaleName(cfg.scale)) +
                               "/g" + std::to_string(start / group_size);
    auto spec = MultiUserReplayer(db->get(), spec_opts).Replay(group);
    if (!spec.ok()) return spec.status();

    auto flat_normal = normal->Flatten();
    auto flat_spec = spec->Flatten();
    result.normal.insert(result.normal.end(), flat_normal.begin(),
                         flat_normal.end());
    result.speculative.insert(result.speculative.end(), flat_spec.begin(),
                              flat_spec.end());
    result.engine_stats.insert(result.engine_stats.end(),
                               spec->engine_stats.begin(),
                               spec->engine_stats.end());
    per_user_overlap.insert(per_user_overlap.end(), spec->overlap.begin(),
                            spec->overlap.end());
  }
  result.overall_improvement = Improvement(result.normal, result.speculative);
  result.overlap = AggregateOverlap(per_user_overlap);
  result.attribution_table = (*db)->attribution().FormatTable();
  return result;
}

}  // namespace sqp
