#include "common/metrics_timeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "common/metrics_registry.h"
#include "common/tracing.h"

namespace sqp {

namespace {

/// Deterministic compact number rendering for dumps: integers print
/// without a decimal point, everything else as %.10g (enough digits to
/// round-trip every value the simulator produces).
std::string FormatNum(double v) {
  if (!std::isfinite(v)) return "0";
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// storage.node<k>.disk.<leaf> → k (as string), or "" when not a
/// per-node disk series with that leaf.
std::string NodeIndex(const std::string& series, const std::string& leaf) {
  static const std::string kPrefix = "storage.node";
  if (series.compare(0, kPrefix.size(), kPrefix) != 0) return "";
  size_t i = kPrefix.size();
  size_t digits = 0;
  while (i + digits < series.size() &&
         series[i + digits] >= '0' && series[i + digits] <= '9') {
    digits++;
  }
  if (digits == 0) return "";
  if (series.compare(i + digits, std::string::npos, ".disk." + leaf) != 0) {
    return "";
  }
  return series.substr(i, digits);
}

}  // namespace

MetricsTimeline::MetricsTimeline(MetricsTimelineOptions options,
                                 MetricsRegistry* registry)
    : options_(options),
      registry_(registry != nullptr ? registry : &MetricsRegistry::Global()) {
  if (options_.interval <= 0) options_.interval = 1.0;
  if (options_.capacity == 0) options_.capacity = 1;
  // Register the self-metrics eagerly so the docs drift test sees the
  // telemetry family whenever a timeline exists.
  registry_->GetCounter("telemetry.ticks");
  registry_->GetCounter("telemetry.ticks_dropped");
  registry_->GetGauge("telemetry.series");
}

void MetricsTimeline::BeginEpoch(std::string label) {
  epoch_ = std::move(label);
  next_multiple_ = 0;
  last_tick_t_ = -1;
}

void MetricsTimeline::AdvanceTo(double t) {
  if (t < 0) return;
  // Fire every interval multiple in (last tick, t]. next_multiple_ is
  // the epoch-local phase: multiple 0 is the epoch's baseline sample.
  while (static_cast<double>(next_multiple_) * options_.interval <=
         t + 1e-12) {
    double tick_t = static_cast<double>(next_multiple_) * options_.interval;
    EmitTick(tick_t);
    next_multiple_++;
  }
}

void MetricsTimeline::Flush(double t) {
  AdvanceTo(t);
  if (t > last_tick_t_ + 1e-12) EmitTick(t);
}

bool MetricsTimeline::IsDeterministicSeries(const std::string& series) {
  // The batch counters follow the execution *shape* (the batch sizes
  // consumers ask for decide the batch boundaries), not the simulated
  // charges; telemetry.series counts every registered
  // series, so it shifts whenever any family first registers.
  if (series.rfind("exec.batch.", 0) == 0) return false;
  return series != "telemetry.series";
}

void MetricsTimeline::EmitTick(double t) {
  // Bump the tick counter *before* snapshotting so the tick sees its
  // own ordinal — the count is a pure function of simulated time, so
  // this stays deterministic.
  registry_->GetCounter("telemetry.ticks")->Increment();

  MetricsSnapshot snapshot = registry_->Snapshot();

  TimelineTick tick;
  tick.epoch = epoch_;
  tick.index = tick_index_++;
  tick.t = t;
  tick.points.reserve(snapshot.counters.size() + snapshot.gauges.size() +
                      2 * snapshot.histograms.size());
  auto add_point = [&](const std::string& series, double value) {
    TimelineTick::Point point;
    point.series = series;
    point.value = value;
    auto [it, inserted] = prev_.emplace(series, 0.0);
    point.delta = value - it->second;
    it->second = value;
    tick.points.push_back(std::move(point));
  };
  // std::map iteration is name-sorted, and histogram-derived series
  // sort adjacently, so one merged pass keeps points sorted by name.
  for (const auto& [name, value] : snapshot.counters) {
    add_point(name, static_cast<double>(value));
  }
  for (const auto& [name, value] : snapshot.gauges) add_point(name, value);
  for (const auto& [name, entry] : snapshot.histograms) {
    add_point(name + ".count", static_cast<double>(entry.count));
    add_point(name + ".sum", entry.sum);
  }
  std::sort(tick.points.begin(), tick.points.end(),
            [](const TimelineTick::Point& a, const TimelineTick::Point& b) {
              return a.series < b.series;
            });
  registry_->GetGauge("telemetry.series")
      ->Set(static_cast<double>(tick.points.size()));

  // Perfetto counter tracks, aligned under the spans at this tick.
  if (tracer_ != nullptr) {
    const std::string prefix = epoch_.empty() ? "" : epoch_ + "/";
    auto delta_of = [&](const std::string& series) {
      auto it = std::lower_bound(
          tick.points.begin(), tick.points.end(), series,
          [](const TimelineTick::Point& p, const std::string& name) {
            return p.series < name;
          });
      if (it == tick.points.end() || it->series != series) return 0.0;
      return it->delta;
    };
    auto value_of = [&](const std::string& series, bool* found) {
      auto it = std::lower_bound(
          tick.points.begin(), tick.points.end(), series,
          [](const TimelineTick::Point& p, const std::string& name) {
            return p.series < name;
          });
      *found = it != tick.points.end() && it->series == series;
      return *found ? it->value : 0.0;
    };

    double hits = delta_of("bufferpool.hits");
    double misses = delta_of("bufferpool.misses");
    double accesses = hits + misses;
    tracer_->Counter(prefix + "bufferpool.hit_rate", t,
                     {{"ratio", accesses > 0 ? hits / accesses : 0.0}});

    std::vector<std::pair<std::string, double>> node_reads;
    std::vector<std::pair<std::string, double>> node_writes;
    for (const auto& point : tick.points) {
      std::string node = NodeIndex(point.series, "reads");
      if (!node.empty()) node_reads.emplace_back("node" + node, point.delta);
      node = NodeIndex(point.series, "writes");
      if (!node.empty()) node_writes.emplace_back("node" + node, point.delta);
    }
    bool have_disk = false;
    double disk_reads = value_of("storage.disk.reads", &have_disk);
    if (have_disk) {
      (void)disk_reads;
      tracer_->Counter(prefix + "storage.disk.io", t,
                       {{"reads", delta_of("storage.disk.reads")},
                        {"writes", delta_of("storage.disk.writes")}});
    }
    if (!node_reads.empty()) {
      tracer_->Counter(prefix + "storage.node.reads", t,
                       std::move(node_reads));
    }
    if (!node_writes.empty()) {
      tracer_->Counter(prefix + "storage.node.writes", t,
                       std::move(node_writes));
    }

    bool have = false;
    double cache_pages = value_of("spec.cache.pages", &have);
    if (have) {
      bool have_views = false;
      double views = value_of("spec.cache.views", &have_views);
      std::vector<std::pair<std::string, double>> values{
          {"pages", cache_pages}};
      if (have_views) values.emplace_back("views", views);
      tracer_->Counter(prefix + "spec.cache.pages", t, std::move(values));
    }

    double active_jobs = value_of("sim.active_jobs", &have);
    if (have) {
      tracer_->Counter(prefix + "sim.jobs", t,
                       {{"active", active_jobs},
                        {"completed", delta_of("sim.jobs_completed")}});
    }

    double xshard = value_of("storage.node.cross_shard_pages", &have);
    if (have) {
      (void)xshard;
      tracer_->Counter(prefix + "storage.cross_shard_pages", t,
                       {{"pages",
                         delta_of("storage.node.cross_shard_pages")}});
    }
  }

  last_tick_t_ = t;
  ticks_.push_back(std::move(tick));
  while (ticks_.size() > options_.capacity) {
    ticks_.pop_front();
    dropped_++;
    registry_->GetCounter("telemetry.ticks_dropped")->Increment();
  }
}

std::string MetricsTimeline::FormatCsv(bool include_nondeterministic) const {
  std::ostringstream os;
  os << "epoch,tick,t,series,value,delta,rate\n";
  for (const TimelineTick& tick : ticks_) {
    for (const TimelineTick::Point& point : tick.points) {
      if (!include_nondeterministic &&
          !IsDeterministicSeries(point.series)) {
        continue;
      }
      os << tick.epoch << "," << tick.index << "," << FormatNum(tick.t)
         << "," << point.series << "," << FormatNum(point.value) << ","
         << FormatNum(point.delta) << ","
         << FormatNum(point.delta / options_.interval) << "\n";
    }
  }
  return os.str();
}

std::string MetricsTimeline::FormatJson(bool include_nondeterministic) const {
  std::ostringstream os;
  os << "{\"interval\":" << FormatNum(options_.interval)
     << ",\"dropped\":" << dropped_ << ",\"ticks\":[";
  bool first_tick = true;
  for (const TimelineTick& tick : ticks_) {
    if (!first_tick) os << ",";
    first_tick = false;
    os << "\n{\"epoch\":\"" << JsonEscape(tick.epoch)
       << "\",\"tick\":" << tick.index << ",\"t\":" << FormatNum(tick.t)
       << ",\"series\":{";
    bool first_point = true;
    for (const TimelineTick::Point& point : tick.points) {
      if (!include_nondeterministic &&
          !IsDeterministicSeries(point.series)) {
        continue;
      }
      if (!first_point) os << ",";
      first_point = false;
      os << "\"" << JsonEscape(point.series) << "\":["
         << FormatNum(point.value) << "," << FormatNum(point.delta) << "]";
    }
    os << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace sqp
