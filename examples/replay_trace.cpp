// replay_trace: replay saved trace files against a freshly loaded
// TPC-H subset, normal vs speculative — the paper's §4.1 methodology
// as a standalone tool.
//
// Usage: replay_trace <trace-dir> [scale: small|medium|large]
//                     [--trace-json <file>] [--timeline] [--metrics]
//                     [--explain] [--decisions] [--metrics-prom <file>]
//                     [--timeline-series <file>] [--telemetry-interval s]
//
//   --trace-json <file>  export the speculative replays as Chrome
//                        trace_event JSON (open in chrome://tracing or
//                        https://ui.perfetto.dev) — DESIGN.md §9
//   --timeline           print the compact text timeline
//   --metrics            dump the unified metrics registry at the end
//   --explain            run final queries under EXPLAIN ANALYZE and
//                        print each annotated plan (est vs. actual
//                        rows, Q-error, batches, pages, simulated
//                        cost) — DESIGN.md §11
//   --decisions          dump the speculation flight recorder: every
//                        Speculator round with its Cost⊆ decomposition,
//                        chosen minimizer, terminal outcome, and the
//                        learner calibration report — DESIGN.md §11
//   --metrics-prom <f>   write the final registry snapshot in
//                        OpenMetrics text format (DESIGN.md §16)
//   --timeline-series <f> write the sampled time-series dump (CSV; .json
//                        extension switches to JSON). Deterministic:
//                        byte-identical across same-seed replays —
//                        DESIGN.md §16
//   --telemetry-interval <s>  simulated seconds between samples
//                        (default 1.0)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "common/metrics_registry.h"
#include "common/metrics_timeline.h"
#include "common/openmetrics.h"
#include "common/tracing.h"
#include "harness/experiment.h"
#include "speculation/flight_recorder.h"

using namespace sqp;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::printf(
        "usage: replay_trace <trace-dir> [small|medium|large]\n"
        "                    [--trace-json <file>] [--timeline] "
        "[--metrics]\n"
        "                    [--explain] [--decisions]\n"
        "                    [--metrics-prom <file>] "
        "[--timeline-series <file>]\n"
        "                    [--telemetry-interval <seconds>]\n");
    return 1;
  }
  tpch::Scale scale = tpch::Scale::kSmall;
  std::string trace_json;
  std::string metrics_prom;
  std::string timeline_series;
  double telemetry_interval = 1.0;
  bool print_timeline = false;
  bool print_metrics = false;
  bool print_explain = false;
  bool print_decisions = false;
  for (int i = 2; i < argc; i++) {
    if (std::strcmp(argv[i], "medium") == 0) scale = tpch::Scale::kMedium;
    if (std::strcmp(argv[i], "large") == 0) scale = tpch::Scale::kLarge;
    if (std::strcmp(argv[i], "--trace-json") == 0 && i + 1 < argc) {
      trace_json = argv[++i];
    }
    if (std::strcmp(argv[i], "--metrics-prom") == 0 && i + 1 < argc) {
      metrics_prom = argv[++i];
    }
    if (std::strcmp(argv[i], "--timeline-series") == 0 && i + 1 < argc) {
      timeline_series = argv[++i];
    }
    if (std::strcmp(argv[i], "--telemetry-interval") == 0 && i + 1 < argc) {
      telemetry_interval = std::atof(argv[++i]);
    }
    if (std::strcmp(argv[i], "--timeline") == 0) print_timeline = true;
    if (std::strcmp(argv[i], "--metrics") == 0) print_metrics = true;
    if (std::strcmp(argv[i], "--explain") == 0) print_explain = true;
    if (std::strcmp(argv[i], "--decisions") == 0) print_decisions = true;
  }

  auto traces = LoadTraces(argv[1]);
  if (!traces.ok()) {
    std::printf("error: %s\n", traces.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %zu traces; loading %s dataset...\n", traces->size(),
              tpch::ScaleName(scale));

  ExperimentConfig cfg;
  cfg.scale = scale;
  auto db = BuildDatabase(cfg);
  if (!db.ok()) {
    std::printf("error: %s\n", db.status().ToString().c_str());
    return 1;
  }

  // One tracer across all speculative replays: each user lands on its
  // own lane, so the export shows the sessions stacked (DESIGN.md §9).
  Tracer tracer;
  bool want_trace = !trace_json.empty() || print_timeline;

  // One sampler across all replays: each speculative replay is its own
  // epoch (its own simulated-clock zero), labelled by session so the
  // dump rows and counter tracks stay distinguishable (DESIGN.md §16).
  MetricsTimelineOptions timeline_options;
  timeline_options.interval = telemetry_interval > 0 ? telemetry_interval : 1.0;
  MetricsTimeline timeline(timeline_options);
  bool want_series = !timeline_series.empty();
  if (!trace_json.empty()) timeline.set_tracer(&tracer);

  std::printf("%-6s %8s %12s %12s %9s %9s %7s %7s\n", "user", "queries",
              "normal(s)", "spec(s)", "gain%", "manips", "cancel", "failed");
  double total_normal = 0, total_spec = 0;
  std::vector<EngineStats> all_stats;
  std::vector<OverlapStats> all_overlap;
  std::string explain_out;    // --explain: annotated plans, per user
  std::string decisions_out;  // --decisions: flight-recorder dumps
  for (const Trace& trace : *traces) {
    ReplayOptions normal_opts;
    normal_opts.speculation = false;
    auto normal = TraceReplayer(db->get(), normal_opts).Replay(trace);
    if (!normal.ok()) {
      std::printf("replay failed: %s\n",
                  normal.status().ToString().c_str());
      return 1;
    }
    ReplayOptions spec_opts;
    spec_opts.speculation = true;
    spec_opts.explain = print_explain;
    if (want_trace) {
      spec_opts.tracer = &tracer;
      spec_opts.trace_lane = "user" + std::to_string(trace.user_id);
    }
    if (want_series || !trace_json.empty()) spec_opts.timeline = &timeline;
    auto spec = TraceReplayer(db->get(), spec_opts).Replay(trace);
    if (!spec.ok()) {
      std::printf("replay failed: %s\n", spec.status().ToString().c_str());
      return 1;
    }
    if (print_explain) {
      for (const auto& record : spec->queries) {
        char head[128];
        std::snprintf(head, sizeof(head),
                      "user %llu query %zu: rows=%llu est=%.0f\n",
                      static_cast<unsigned long long>(trace.user_id),
                      record.index,
                      static_cast<unsigned long long>(record.row_count),
                      record.est_rows);
        explain_out += head;
        explain_out += record.plan_profile;
      }
    }
    if (print_decisions) {
      decisions_out +=
          "user " + std::to_string(trace.user_id) + " decision log:\n";
      for (const auto& record : spec->decisions) {
        decisions_out += FormatDecisionRecord(record);
      }
      decisions_out += spec->calibration.Format();
    }
    double gain = normal->total_exec_seconds > 0
                      ? 100 * (1 - spec->total_exec_seconds /
                                       normal->total_exec_seconds)
                      : 0;
    std::printf("%-6llu %8zu %12.1f %12.1f %8.1f%% %4zu/%zu %7zu %7zu\n",
                static_cast<unsigned long long>(trace.user_id),
                normal->queries.size(), normal->total_exec_seconds,
                spec->total_exec_seconds, gain,
                spec->engine_stats.manipulations_completed,
                spec->engine_stats.manipulations_issued,
                spec->engine_stats.cancelled(),
                spec->engine_stats.manipulations_failed);
    total_normal += normal->total_exec_seconds;
    total_spec += spec->total_exec_seconds;
    all_stats.push_back(spec->engine_stats);
    all_overlap.push_back(spec->overlap);
  }
  if (total_normal > 0) {
    std::printf("\noverall improvement: %.1f%%\n",
                100 * (1 - total_spec / total_normal));
  }
  std::printf("\nengine totals:\n%s",
              FormatEngineStats(AggregateEngineStats(all_stats)).c_str());
  std::printf("%s", FormatOverlapStats(AggregateOverlap(all_overlap)).c_str());

  if (print_explain) {
    std::printf("\nexplain analyze (speculative replays):\n%s",
                explain_out.c_str());
  }
  if (print_decisions) {
    std::printf("\nspeculation flight recorder:\n%s",
                decisions_out.c_str());
  }
  if (print_timeline) {
    std::printf("\ntimeline (speculative replays):\n%s",
                tracer.FormatTimeline().c_str());
  }
  if (!trace_json.empty()) {
    std::ofstream out(trace_json);
    if (!out) {
      std::printf("error: cannot write %s\n", trace_json.c_str());
      return 1;
    }
    out << tracer.ExportChromeTrace();
    std::printf("\nwrote Chrome trace (%zu records) to %s\n"
                "open it in chrome://tracing or https://ui.perfetto.dev\n",
                tracer.records().size(), trace_json.c_str());
  }
  if (print_metrics) {
    std::printf("\nmetrics registry:\n%s",
                MetricsRegistry::Global().Snapshot().Format().c_str());
  }
  if (want_series) {
    std::ofstream out(timeline_series);
    if (!out) {
      std::printf("error: cannot write %s\n", timeline_series.c_str());
      return 1;
    }
    bool json = timeline_series.size() >= 5 &&
                timeline_series.compare(timeline_series.size() - 5, 5,
                                        ".json") == 0;
    out << (json ? timeline.FormatJson() : timeline.FormatCsv());
    std::printf("\nwrote timeline series (%llu ticks) to %s\n",
                static_cast<unsigned long long>(timeline.tick_count()),
                timeline_series.c_str());
  }
  if (!metrics_prom.empty()) {
    std::ofstream out(metrics_prom);
    if (!out) {
      std::printf("error: cannot write %s\n", metrics_prom.c_str());
      return 1;
    }
    out << FormatOpenMetrics(MetricsRegistry::Global().Snapshot());
    std::printf("wrote OpenMetrics snapshot to %s\n", metrics_prom.c_str());
  }
  return 0;
}
