// droute::obs — metrics registry, recorder/span layer and exporters.
//
// The determinism test at the bottom is the load-bearing one: it runs the
// same seeded campaign twice under fresh recorders and requires the metrics
// CSV to be byte-identical, which is what makes obs dumps diffable across
// replication runs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "measure/campaign.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "scenario/north_america.h"
#include "util/units.h"

namespace droute::obs {
namespace {

// --- Histogram ---------------------------------------------------------------

TEST(Histogram, BucketsByUpperEdgeWithOverflow) {
  Histogram h("test.values_s", {1.0, 2.0, 4.0});
  for (const double v : {0.5, 1.0, 1.5, 3.0, 100.0}) h.observe(v);

  const HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);  // 3 edges + overflow
  EXPECT_EQ(snap.counts[0], 2u);      // 0.5, 1.0 (edges are inclusive)
  EXPECT_EQ(snap.counts[1], 1u);      // 1.5
  EXPECT_EQ(snap.counts[2], 1u);      // 3.0
  EXPECT_EQ(snap.counts[3], 1u);      // 100.0 overflows
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 106.0);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 21.2);
}

TEST(Histogram, PercentilesInterpolateAndClampToExtremes) {
  Histogram h("test.uniform_s", {10.0, 20.0, 30.0});
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i % 30) + 1.0);

  const HistogramSnapshot snap = h.snapshot();
  // All mass sits in [1, 30]; percentiles may not escape the observed range.
  EXPECT_GE(snap.percentile(0.0), snap.min);
  EXPECT_LE(snap.percentile(100.0), snap.max);
  EXPECT_LE(snap.p50(), snap.p95());
  EXPECT_LE(snap.p95(), snap.p99());
}

TEST(Histogram, SingleObservationPinsEveryPercentile) {
  Histogram h("test.single_s", duration_bounds_s());
  h.observe(0.25);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_DOUBLE_EQ(snap.p50(), 0.25);
  EXPECT_DOUBLE_EQ(snap.p99(), 0.25);
}

TEST(Histogram, EmptySnapshotIsAllZero) {
  Histogram h("test.empty_s", {1.0});
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
}

// --- Registry ----------------------------------------------------------------

TEST(Registry, ReturnsStablePointersPerName) {
  Registry registry;
  Counter* c1 = registry.counter("a.hits_total");
  Counter* c2 = registry.counter("a.hits_total");
  EXPECT_EQ(c1, c2);
  c1->add(3);
  EXPECT_EQ(c2->value(), 3u);
  EXPECT_NE(registry.counter("a.misses_total"), c1);
}

TEST(Registry, EnumerationIsSortedByName) {
  Registry registry;
  registry.counter("z.last_total");
  registry.counter("a.first_total");
  registry.counter("m.middle_total");
  const auto counters = registry.counters();
  ASSERT_EQ(counters.size(), 3u);
  EXPECT_EQ(counters[0]->name(), "a.first_total");
  EXPECT_EQ(counters[1]->name(), "m.middle_total");
  EXPECT_EQ(counters[2]->name(), "z.last_total");
}

// --- Recorder / global installation ------------------------------------------

TEST(RecorderGlobal, DisabledPathIsANoOp) {
  ASSERT_EQ(recorder(), nullptr) << "another test leaked an installed recorder";
  EXPECT_FALSE(enabled());
  EXPECT_EQ(counter("x.y_total"), nullptr);
  EXPECT_EQ(gauge("x.y"), nullptr);
  EXPECT_EQ(histogram("x.y_s"), nullptr);
  add(nullptr);                         // must not crash
  set(nullptr, 1.0);
  observe(nullptr, 1.0);
  count("x.y_total");                   // swallowed
  emit_span("x.span", Clock::kSim, 0.0, 1.0);
  ScopedWallSpan span("x.wall_span");   // zero work when disabled
}

TEST(RecorderGlobal, ScopedRecorderInstallsAndRestores) {
  Recorder outer;
  ScopedRecorder install_outer(&outer);
  EXPECT_EQ(recorder(), &outer);
  {
    Recorder inner;
    ScopedRecorder install_inner(&inner);
    EXPECT_EQ(recorder(), &inner);
    count("scope.hits_total", 2);
    EXPECT_EQ(inner.metrics().counter("scope.hits_total")->value(), 2u);
  }
  EXPECT_EQ(recorder(), &outer);
  EXPECT_EQ(outer.metrics().counters().size(), 0u);
}

TEST(Recorder, SpansCarryTrackContextAndArgs) {
  Recorder rec;
  ScopedRecorder install(&rec);
  const std::uint32_t track = rec.new_track("cell A");
  {
    ScopedTrack scoped(track, 3);
    emit_span("test.run", Clock::kSim, 1.0, 2.5, {{"run", "3"}});
  }
  emit_span("test.outside", Clock::kWall, 0.0, 0.1);

  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "test.run");
  EXPECT_EQ(spans[0].track, track);
  EXPECT_EQ(spans[0].lane, 3u);
  EXPECT_DOUBLE_EQ(spans[0].duration_s(), 1.5);
  ASSERT_EQ(spans[0].args.size(), 1u);
  EXPECT_EQ(spans[0].args[0].first, "run");
  EXPECT_EQ(spans[1].track, 0u) << "context must restore after ScopedTrack";
  const auto tracks = rec.track_names();
  ASSERT_EQ(tracks.size(), 2u);
  EXPECT_EQ(tracks[0], "main");
  EXPECT_EQ(tracks[1], "cell A");
}

TEST(Recorder, WallSpansNestByContainment) {
  Recorder rec;
  ScopedRecorder install(&rec);
  {
    ScopedWallSpan outer("test.outer");
    { ScopedWallSpan inner("test.inner"); }
  }
  auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Inner destructs first, so it is recorded first.
  const Span& inner = spans[0];
  const Span& outer = spans[1];
  EXPECT_EQ(inner.name, "test.inner");
  EXPECT_EQ(outer.name, "test.outer");
  EXPECT_GE(inner.start_s, outer.start_s);
  EXPECT_LE(inner.end_s, outer.end_s);
  EXPECT_EQ(inner.clock, Clock::kWall);
}

TEST(Recorder, DropsSpansBeyondCapacityAndCountsThem) {
  Recorder rec(/*span_capacity=*/4);
  ScopedRecorder install(&rec);
  for (int i = 0; i < 10; ++i) {
    emit_span("test.burst", Clock::kSim, 0.0, 1.0);
  }
  EXPECT_EQ(rec.span_count(), 4u);
  EXPECT_EQ(rec.dropped_spans(), 6u);
}

// --- Exporters ----------------------------------------------------------------

TEST(Export, ChromeTraceContainsMetadataAndCompleteEvents) {
  Recorder rec;
  ScopedRecorder install(&rec);
  const std::uint32_t track = rec.new_track("route \"X\"");
  {
    ScopedTrack scoped(track, 1);
    emit_span("test.span", Clock::kSim, 0.001, 0.002, {{"k", "v"}});
  }
  const std::string json = chrome_trace_json(rec);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("route \\\"X\\\""), std::string::npos) << "JSON escaping";
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000.000"), std::string::npos) << "µs timestamps";
  EXPECT_NE(json.find("\"dur\":1000.000"), std::string::npos);
  EXPECT_NE(json.find("\"k\":\"v\""), std::string::npos);
}

TEST(Export, MetricsCsvListsEveryInstrumentKind) {
  Registry registry;
  registry.counter("a.events_total")->add(7);
  registry.gauge("a.depth")->set(2.5);
  registry.histogram("a.wait_s", {1.0, 2.0})->observe(0.5);

  const std::string csv = metrics_csv(registry);
  EXPECT_NE(csv.find("kind,name,field,value\n"), std::string::npos);
  EXPECT_NE(csv.find("counter,a.events_total,value,7\n"), std::string::npos);
  EXPECT_NE(csv.find("gauge,a.depth,value,2.5\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,a.wait_s,count,1\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,a.wait_s,bucket_le_1,1\n"), std::string::npos);
}

TEST(Export, PrometheusBucketsAreCumulative) {
  Registry registry;
  Histogram* h = registry.histogram("a.wait_s", {1.0, 2.0});
  h->observe(0.5);
  h->observe(1.5);
  h->observe(99.0);

  const std::string text = prometheus_text(registry);
  EXPECT_NE(text.find("# TYPE droute_a_wait_s histogram"), std::string::npos);
  EXPECT_NE(text.find("droute_a_wait_s_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("droute_a_wait_s_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("droute_a_wait_s_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("droute_a_wait_s_count 3\n"), std::string::npos);
}

TEST(Export, WriteFileRejectsUnwritablePath) {
  const auto status = write_file("/nonexistent-dir/trace.json", "x");
  EXPECT_FALSE(status.ok());
}

// --- Determinism ---------------------------------------------------------------

// The same seeded campaign, run sequentially under two fresh recorders, must
// produce byte-identical metrics CSVs. Guards both simulator determinism and
// exporter formatting (%.17g, sorted enumeration).
TEST(Determinism, SameSeedCampaignYieldsIdenticalMetricsCsv) {
  const auto run_once = [] {
    Recorder rec;
    ScopedRecorder install(&rec);
    measure::Campaign campaign(2016);
    campaign.add_route("direct",
                       scenario::make_transfer_fn(
                           scenario::Client::kUBC,
                           cloud::ProviderKind::kGoogleDrive,
                           scenario::RouteChoice::kDirect));
    measure::Protocol protocol;
    protocol.total_runs = 3;
    protocol.keep_last = 2;
    const auto grid = campaign.run_grid({10 * util::kMB}, protocol,
                                        /*pool=*/nullptr);
    EXPECT_EQ(grid.size(), 1u);
    return metrics_csv(rec.metrics());
  };

  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_NE(first.find("sim.events_executed_total"), std::string::npos);
  EXPECT_NE(first.find("net.flow_duration_s"), std::string::npos);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace droute::obs
