// Structured span tracing on the simulated clock (DESIGN.md §9).
//
// The paper's whole argument is temporal — manipulations must land
// inside the user's think time to pay off (§3.1, §6) — so the harness
// records every timed step of a session as a *span* on the simulated
// clock and can export the result as Chrome `trace_event` JSON, which
// opens directly in chrome://tracing or https://ui.perfetto.dev. A
// compact text timeline serves tests and terminal inspection.
//
// Span taxonomy (category → spans/instants):
//   session       one span per replayed user session
//   edit          instant per partial-query modification event
//   manipulation  span issue → complete/cancel/abandon; instants for
//                 failures, scheduled retries, circuit-breaker opens
//   go            instant at each GO (plus wait-at-GO arguments)
//   query         span per final-query execution (submit → results)
//   recovery      instant for crash recovery / engine re-adoption
//
// Timestamps are simulated seconds (see DESIGN.md §6); the Chrome
// exporter maps them to microseconds, so 1 s of think time reads as
// 1 s in Perfetto. Lanes (e.g. "user3") become named threads, so a
// multi-user replay shows each user's session, queries, and
// manipulations stacked on its own track — overlap with think time is
// visible at a glance.
//
// The tracer is a passive recorder: a null Tracer* anywhere in the
// stack means no recording and no cost. A pluggable TraceSink observes
// records as they complete (streaming exporters, test probes).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace sqp {

/// One sample of a Chrome counter track ("C"-phase event): a named
/// track holding one or more stacked sub-series at a simulated time.
/// Emitted by the MetricsTimeline at every telemetry tick so Perfetto
/// shows queue depths, hit rates, and per-node load as counter tracks
/// aligned under the session/query spans (DESIGN.md §16).
struct CounterSample {
  std::string track;  // Perfetto counter-track name
  double t = 0;       // simulated seconds
  /// Sub-series within the track (e.g. one per node); Perfetto
  /// stacks them. Keys must be stable across samples of one track.
  std::vector<std::pair<std::string, double>> values;
};

struct SpanRecord {
  enum class Kind { kSpan, kInstant };

  Kind kind = Kind::kSpan;
  std::string name;
  std::string category;
  /// Display track (Chrome thread): one per user/session, "main" else.
  std::string lane = "main";
  double start = 0;  // simulated seconds
  double end = 0;    // == start for instants
  /// Outcome: "ok", "completed", "cancelled@edit", "cancelled@go",
  /// "abandoned", "failed", ... — exported as an arg and shown in the
  /// text timeline.
  std::string status = "ok";
  std::vector<std::pair<std::string, std::string>> args;

  double duration() const { return end - start; }
};

/// Observer of completed records (spans on EndSpan, instants
/// immediately).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnRecord(const SpanRecord& record) = 0;
};

class Tracer {
 public:
  using SpanId = uint64_t;
  static constexpr SpanId kInvalidSpan = 0;

  /// Open a span at simulated time `start`. Returns a handle for
  /// EndSpan/SpanArg. Open spans are not exported until ended.
  SpanId BeginSpan(std::string name, std::string category, double start,
                   std::string lane = "main");

  /// Attach a key=value argument to an open span.
  void SpanArg(SpanId id, const std::string& key, const std::string& value);

  /// Close a span at `end` with an outcome status. Unknown ids are
  /// ignored (spans may be ended defensively on multiple paths).
  void EndSpan(SpanId id, double end, std::string status = "ok");

  /// Zero-duration event.
  void Instant(std::string name, std::string category, double t,
               std::string lane = "main",
               std::vector<std::pair<std::string, std::string>> args = {});

  /// Record one counter-track sample (exported as a Chrome "C"-phase
  /// event). Samples of the same track should share the same key set.
  void Counter(std::string track, double t,
               std::vector<std::pair<std::string, double>> values);

  const std::vector<SpanRecord>& records() const { return records_; }
  const std::vector<CounterSample>& counter_samples() const {
    return counter_samples_;
  }
  /// Distinct counter tracks recorded so far.
  size_t counter_track_count() const;
  size_t open_spans() const { return open_.size(); }

  /// Streaming observer of completed records (nullptr to detach).
  void set_sink(TraceSink* sink) { sink_ = sink; }

  /// Drop all completed records and open spans.
  void Clear();

  /// Chrome trace_event JSON ({"traceEvents":[...]} object format):
  /// every completed span as a ph:"X" complete event, instants as
  /// ph:"i", counter samples as ph:"C" counter tracks, lanes as named
  /// threads, timestamps in microseconds sorted monotonically. Every
  /// tid used (lanes and the counter track) gets process_name /
  /// thread_name / sort-index metadata records so Perfetto shows named
  /// tracks instead of bare tids. Open spans are omitted.
  std::string ExportChromeTrace() const;

  /// Compact text timeline for tests and terminals: one line per
  /// record, sorted by start time, indented by nesting depth within
  /// the same lane.
  std::string FormatTimeline() const;

 private:
  std::map<SpanId, SpanRecord> open_;
  std::vector<SpanRecord> records_;  // completion order
  std::vector<CounterSample> counter_samples_;  // emission order
  SpanId next_id_ = 1;
  TraceSink* sink_ = nullptr;
};

/// JSON string escaping (exposed for exporter tests).
std::string JsonEscape(const std::string& text);

}  // namespace sqp
