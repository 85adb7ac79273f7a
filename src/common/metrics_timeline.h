// Deterministic time-series telemetry (DESIGN.md §16).
//
// The registry (metrics_registry.h) answers "how much, in total?" —
// one cumulative snapshot at the end of a run. This sampler answers
// "when?": it snapshots the registry every `interval` *simulated*
// seconds into ring-buffered ticks (value + delta per series), so a
// replay shows the buffer pool thrashing, the speculative cache
// churning, or one storage node saturating while it happens.
//
// Determinism contract: ticks fire at fixed multiples of the sampling
// interval on the simulated clock, driven from the same clock-advance
// points (SimServer::AdvanceTo, replayer event loops) that drive the
// engine — never from wall time. Every series the engine charges
// through CostMeter/simulated I/O is therefore byte-identical across
// same-seed replays. The batch-shape family `exec.batch.*` (it counts
// how rows were grouped, which follows exec_batch_size, not the
// simulated charges) and the `telemetry.series` gauge (it counts every
// registered series, so it moves whenever a family registers) are
// sampled too but excluded from the deterministic dump by default;
// FormatCsv/FormatJson take an opt-in flag to include them.
//
// Epochs: serial harnesses (replay_trace over several single-user
// traces) restart the simulated clock at zero per replay. BeginEpoch()
// resets the tick phase so each replay gets its own clean time axis;
// the epoch label lands in the dump rows and prefixes the Perfetto
// counter-track names (empty label = no prefix, the common single-run
// case). Counter *deltas* stay valid across epochs because registry
// counters are cumulative for the process lifetime.
//
// Counter tracks: with a Tracer attached, every tick also emits Chrome
// "C"-phase samples (tracing.h) — buffer-pool hit rate, per-node
// storage read/write load, speculative-cache pages, simulator job
// occupancy, and cross-shard transfer pages — aligned under the
// session/query spans in Perfetto.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace sqp {

class MetricsRegistry;
class Tracer;

struct MetricsTimelineOptions {
  /// Simulated seconds between ticks (`telemetry_sample_interval`).
  double interval = 1.0;
  /// Max retained ticks (ring buffer): older ticks are dropped —
  /// counted in dropped_ticks() and `telemetry.ticks_dropped` — so a
  /// long soak cannot grow without bound.
  size_t capacity = 100000;
};

/// One sample of every registry series at a tick boundary.
struct TimelineTick {
  struct Point {
    std::string series;  // registry name (+ ".count"/".sum" for histos)
    double value = 0;    // cumulative value at the tick
    double delta = 0;    // change since the previous tick (any epoch)
  };

  std::string epoch;   // BeginEpoch label ("" until the first epoch)
  uint64_t index = 0;  // global tick number (monotone, counts drops)
  double t = 0;        // simulated seconds, epoch-local clock
  std::vector<Point> points;  // sorted by series name
};

class MetricsTimeline {
 public:
  /// `registry` defaults to MetricsRegistry::Global() when null.
  explicit MetricsTimeline(MetricsTimelineOptions options = {},
                           MetricsRegistry* registry = nullptr);

  /// Start a new epoch: resets the tick phase to simulated time zero
  /// and tags subsequent ticks (and counter tracks) with `label`.
  void BeginEpoch(std::string label);

  /// Advance the sampled clock to simulated time `t` (epoch-local),
  /// emitting one tick per interval multiple in (last, t]. Idempotent
  /// for non-advancing calls; the clock never moves backwards within
  /// an epoch.
  void AdvanceTo(double t);

  /// Force a final tick at exactly `t` (end-of-epoch state) if the
  /// last tick fired earlier. Call when a replay finishes so the final
  /// totals land in the series even when the run ends mid-interval.
  void Flush(double t);

  /// Attach a tracer: every tick emits Chrome counter-track samples.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  const std::deque<TimelineTick>& ticks() const { return ticks_; }
  /// Ticks emitted over the timeline's lifetime, including dropped.
  uint64_t tick_count() const { return tick_index_; }
  uint64_t dropped_ticks() const { return dropped_; }
  double interval() const { return options_.interval; }

  /// True when `series` belongs in the deterministic dump — i.e. it is
  /// neither `exec.batch.*` nor `telemetry.series` (see file comment).
  static bool IsDeterministicSeries(const std::string& series);

  /// CSV dump: header + one row per (tick, series):
  ///   epoch,tick,t,series,value,delta,rate
  /// with rate = delta / interval. Deterministic filter on by default.
  std::string FormatCsv(bool include_nondeterministic = false) const;

  /// JSON dump (same content, machine-shaped):
  ///   {"interval":..,"dropped":..,"ticks":[{"epoch":..,"tick":..,
  ///    "t":..,"series":{"name":[value,delta],..}},..]}
  std::string FormatJson(bool include_nondeterministic = false) const;

 private:
  /// Snapshot the registry into one tick
  /// at epoch-local time `t`, emit counter tracks, ring-buffer it.
  void EmitTick(double t);

  MetricsTimelineOptions options_;
  MetricsRegistry* registry_;  // never null after construction
  Tracer* tracer_ = nullptr;

  std::string epoch_;
  uint64_t next_multiple_ = 0;  // next interval multiple to fire
  double last_tick_t_ = -1;     // epoch-local time of the last tick
  uint64_t tick_index_ = 0;
  uint64_t dropped_ = 0;

  std::deque<TimelineTick> ticks_;
  /// Previous cumulative value per series (across epochs) for deltas.
  std::map<std::string, double> prev_;
};

}  // namespace sqp
