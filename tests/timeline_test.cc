// Time-series telemetry and per-session attribution (DESIGN.md §16):
// the MetricsTimeline sampler (tick phase, epochs, deltas, the
// deterministic-series filter, ring buffer, counter tracks), the
// Attribution exclusive-accounting invariant, the cached
// HistogramEntry::Percentile, and the OpenMetrics exporter.
#include "common/metrics_timeline.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/attribution.h"
#include "common/cost_meter.h"
#include "common/metrics_registry.h"
#include "common/openmetrics.h"
#include "common/tracing.h"

namespace sqp {
namespace {

TEST(MetricsTimelineTest, TicksFireAtIntervalMultiples) {
  MetricsRegistry registry;
  MetricsTimelineOptions options;
  options.interval = 2.0;
  MetricsTimeline timeline(options, &registry);

  timeline.AdvanceTo(5.0);
  ASSERT_EQ(timeline.ticks().size(), 3u);  // t = 0, 2, 4
  EXPECT_EQ(timeline.ticks()[0].t, 0.0);
  EXPECT_EQ(timeline.ticks()[1].t, 2.0);
  EXPECT_EQ(timeline.ticks()[2].t, 4.0);

  // Flush lands a final tick at the exact end time; a second Flush at
  // the same time is a no-op.
  timeline.Flush(5.0);
  ASSERT_EQ(timeline.ticks().size(), 4u);
  EXPECT_EQ(timeline.ticks()[3].t, 5.0);
  timeline.Flush(5.0);
  EXPECT_EQ(timeline.ticks().size(), 4u);

  // The tick counter is part of the sampled registry.
  EXPECT_EQ(registry.Snapshot().counter("telemetry.ticks"), 4u);
}

TEST(MetricsTimelineTest, EpochsResetThePhaseAndLabelTicks) {
  MetricsRegistry registry;
  MetricsTimeline timeline({}, &registry);

  timeline.BeginEpoch("u0/spec");
  timeline.AdvanceTo(2.0);
  timeline.BeginEpoch("u1/spec");
  timeline.AdvanceTo(1.0);

  ASSERT_EQ(timeline.ticks().size(), 5u);  // 0,1,2 then 0,1
  EXPECT_EQ(timeline.ticks()[2].epoch, "u0/spec");
  EXPECT_EQ(timeline.ticks()[2].t, 2.0);
  EXPECT_EQ(timeline.ticks()[3].epoch, "u1/spec");
  EXPECT_EQ(timeline.ticks()[3].t, 0.0);  // fresh epoch-local clock
  // Global tick index keeps counting across epochs.
  EXPECT_EQ(timeline.ticks()[3].index, 3u);
}

TEST(MetricsTimelineTest, DeltasStayValidAcrossEpochs) {
  MetricsRegistry registry;
  Counter* reads = registry.GetCounter("storage.disk.reads");
  MetricsTimeline timeline({}, &registry);

  timeline.BeginEpoch("a");
  reads->Increment(10);
  timeline.AdvanceTo(0.0);
  timeline.BeginEpoch("b");
  reads->Increment(7);
  timeline.AdvanceTo(0.0);

  auto find = [](const TimelineTick& tick, const std::string& series) {
    for (const auto& p : tick.points) {
      if (p.series == series) return p;
    }
    return TimelineTick::Point{};
  };
  // First epoch's baseline sees the full cumulative value as delta;
  // the next epoch's first tick sees only the increment since.
  EXPECT_EQ(find(timeline.ticks()[0], "storage.disk.reads").delta, 10.0);
  EXPECT_EQ(find(timeline.ticks()[1], "storage.disk.reads").value, 17.0);
  EXPECT_EQ(find(timeline.ticks()[1], "storage.disk.reads").delta, 7.0);
}

TEST(MetricsTimelineTest, DeterministicFilterExcludesWallClockFamilies) {
  EXPECT_TRUE(MetricsTimeline::IsDeterministicSeries("storage.disk.reads"));
  EXPECT_TRUE(MetricsTimeline::IsDeterministicSeries("telemetry.ticks"));
  // Batch boundaries follow the execution shape (batch sizes) and
  // the series gauge counts every registered family: excluded.
  EXPECT_FALSE(MetricsTimeline::IsDeterministicSeries("exec.batch.rows"));
  EXPECT_FALSE(MetricsTimeline::IsDeterministicSeries("telemetry.series"));

  MetricsRegistry registry;
  registry.GetCounter("exec.batch.rows")->Increment(3);
  registry.GetCounter("bufferpool.hits")->Increment(5);
  MetricsTimeline timeline({}, &registry);
  timeline.AdvanceTo(0.0);

  std::string csv = timeline.FormatCsv();
  EXPECT_NE(csv.find("bufferpool.hits"), std::string::npos);
  EXPECT_EQ(csv.find("exec.batch.rows"), std::string::npos);
  std::string all = timeline.FormatCsv(/*include_nondeterministic=*/true);
  EXPECT_NE(all.find("exec.batch.rows"), std::string::npos);

  std::string json = timeline.FormatJson();
  EXPECT_NE(json.find("\"bufferpool.hits\""), std::string::npos);
  EXPECT_EQ(json.find("\"exec.batch.rows\""), std::string::npos);
}

TEST(MetricsTimelineTest, RingBufferDropsOldestTicks) {
  MetricsRegistry registry;
  MetricsTimelineOptions options;
  options.capacity = 2;
  MetricsTimeline timeline(options, &registry);

  timeline.AdvanceTo(3.0);  // 4 ticks into a 2-slot ring
  ASSERT_EQ(timeline.ticks().size(), 2u);
  EXPECT_EQ(timeline.dropped_ticks(), 2u);
  EXPECT_EQ(timeline.tick_count(), 4u);
  EXPECT_EQ(timeline.ticks()[0].t, 2.0);  // oldest retained
  EXPECT_EQ(registry.Snapshot().counter("telemetry.ticks_dropped"), 2u);
}

TEST(MetricsTimelineTest, CounterTracksCarryTheEpochPrefix) {
  MetricsRegistry registry;
  registry.GetCounter("bufferpool.hits")->Increment(9);
  registry.GetCounter("bufferpool.misses")->Increment(1);
  registry.GetGauge("spec.cache.pages")->Set(12);
  registry.GetGauge("sim.active_jobs")->Set(2);
  Tracer tracer;
  MetricsTimeline timeline({}, &registry);
  timeline.set_tracer(&tracer);

  timeline.BeginEpoch("u3/spec");
  timeline.AdvanceTo(0.0);

  ASSERT_FALSE(tracer.counter_samples().empty());
  bool hit_rate = false, cache = false, jobs = false;
  for (const auto& sample : tracer.counter_samples()) {
    if (sample.track == "u3/spec/bufferpool.hit_rate") {
      hit_rate = true;
      ASSERT_EQ(sample.values.size(), 1u);
      EXPECT_DOUBLE_EQ(sample.values[0].second, 0.9);
    }
    if (sample.track == "u3/spec/spec.cache.pages") cache = true;
    if (sample.track == "u3/spec/sim.jobs") jobs = true;
  }
  EXPECT_TRUE(hit_rate);
  EXPECT_TRUE(cache);
  EXPECT_TRUE(jobs);
}

TEST(AttributionTest, ExclusiveAccountingNeverDoubleCounts) {
  CostMeter meter;
  MetricsRegistry registry;
  Attribution attribution(&meter, &registry);

  attribution.SetSession("u0");
  AttributionScope query(&attribution, Attribution::Kind::kQuery);
  meter.ChargeBlockRead(10);
  meter.ChargeTuples(100);
  {
    AttributionScope manip(&attribution, Attribution::Kind::kManipulation);
    meter.ChargeBlockWrite(4);
    meter.ChargeTuples(40);
    manip.Close();
    EXPECT_EQ(manip.inclusive().blocks, 4u);
    EXPECT_EQ(manip.exclusive().blocks, 4u);
  }
  meter.ChargeBlockRead(1);
  query.Close();

  // Inclusive spans the whole interval; exclusive subtracts the child.
  EXPECT_EQ(query.inclusive().blocks, 15u);
  EXPECT_EQ(query.inclusive().tuples, 140u);
  EXPECT_EQ(query.exclusive().blocks, 11u);
  EXPECT_EQ(query.exclusive().tuples, 100u);

  const auto& row = attribution.sessions().at("u0");
  EXPECT_EQ(row.query.blocks, 11u);
  EXPECT_EQ(row.manipulation.blocks, 4u);

  // The invariant: attributed + unattributed == meter totals, exactly.
  meter.ChargeTuples(5);  // no scope open: unattributed
  Attribution::Totals attributed = attribution.attributed();
  Attribution::Totals rest = attribution.unattributed();
  EXPECT_EQ(attributed.blocks + rest.blocks,
            meter.blocks_read() + meter.blocks_written());
  EXPECT_EQ(attributed.tuples + rest.tuples, meter.tuples_processed());
  EXPECT_EQ(rest.tuples, 5u);

  // Static aggregate metrics: histogram observed inclusive, counters
  // accumulated exclusive.
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counter("attr.query.blocks"), 11u);
  EXPECT_EQ(snapshot.counter("attr.manipulation.blocks"), 4u);
  EXPECT_EQ(snapshot.histograms.at("attr.query.seconds").count, 1u);
}

TEST(AttributionTest, SessionsInterleaveAsAmbientState) {
  CostMeter meter;
  MetricsRegistry registry;
  Attribution attribution(&meter, &registry);

  attribution.SetSession("alice");
  {
    AttributionScope scope(&attribution, Attribution::Kind::kQuery);
    meter.ChargeTuples(10);
  }
  attribution.SetSession("bob");
  {
    AttributionScope scope(&attribution, Attribution::Kind::kMaintenance);
    meter.ChargeBlockRead(3);
  }
  attribution.SetSession("");

  EXPECT_EQ(attribution.sessions().at("alice").query.tuples, 10u);
  EXPECT_EQ(attribution.sessions().at("bob").maintenance.blocks, 3u);

  std::string table = attribution.FormatTable();
  EXPECT_NE(table.find("alice"), std::string::npos);
  EXPECT_NE(table.find("bob"), std::string::npos);
  EXPECT_NE(table.find("(unattributed)"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
}

TEST(AttributionTest, NullAttributionScopeIsANoOp) {
  AttributionScope scope(nullptr, Attribution::Kind::kQuery);
  EXPECT_TRUE(scope.closed());
  scope.Close();  // idempotent, no crash
  EXPECT_EQ(scope.inclusive().blocks, 0u);
}

TEST(HistogramPercentileTest, PercentileMatchesQuantile) {
  MetricsRegistry registry;
  HistogramMetric* h =
      registry.GetHistogram("t.latency", {1.0, 2.0, 4.0, 8.0});
  for (double v : {0.5, 0.7, 1.5, 1.6, 3.0, 3.5, 5.0, 6.0, 7.0, 20.0}) {
    h->Observe(v);
  }
  MetricsSnapshot snapshot = registry.Snapshot();
  const auto& entry = snapshot.histograms.at("t.latency");
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(entry.Percentile(q), entry.Quantile(q)) << "q=" << q;
  }
  // Overflow observations pin to the last finite bound.
  EXPECT_DOUBLE_EQ(entry.Percentile(1.0), 8.0);

  MetricsSnapshot::HistogramEntry empty;
  EXPECT_EQ(empty.Percentile(0.5), 0.0);
}

TEST(OpenMetricsTest, ExportsCountersGaugesAndHistograms) {
  MetricsRegistry registry;
  registry.GetCounter("storage.disk.reads")->Increment(42);
  registry.GetGauge("spec.learner.brier")->Set(0.125);
  HistogramMetric* h = registry.GetHistogram("attr.query.seconds", {1, 10});
  h->Observe(0.5);
  h->Observe(5.0);
  h->Observe(100.0);

  std::string text = FormatOpenMetrics(registry.Snapshot());
  EXPECT_NE(text.find("storage_disk_reads_total 42"), std::string::npos);
  EXPECT_NE(text.find("spec_learner_brier 0.125"), std::string::npos);
  EXPECT_NE(text.find("attr_query_seconds_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("attr_query_seconds_bucket{le=\"10\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("attr_query_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("attr_query_seconds_count 3"), std::string::npos);
  // OpenMetrics requires the terminator.
  EXPECT_NE(text.find("# EOF"), std::string::npos);
}

}  // namespace
}  // namespace sqp
