// Tests for the benchmark's own arithmetic (src/stats.h, src/report.h).
// Plain main() with checks that survive NDEBUG; exits non-zero on failure.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "report.h"
#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test.cpp:%d: FAILED %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::fmax(1.0, std::fabs(b)); }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentile_needs_ten_samples_beyond_it() {
  using perfbench::min_samples_for;
  using perfbench::percentile;
  EXPECT(min_samples_for(50.0) == 20);
  EXPECT(min_samples_for(90.0) == 100);
  EXPECT(min_samples_for(99.0) == 1000);

  EXPECT(!percentile(one_to(999), 99.0).has_value());
  EXPECT(percentile(one_to(1000), 99.0).value_or(0) == 990.0);
  EXPECT(!percentile(one_to(19), 50.0).has_value());
  EXPECT(percentile(one_to(20), 50.0).value_or(0) == 10.0);
  EXPECT(percentile(one_to(100), 90.0).value_or(0) == 90.0);
  EXPECT(!percentile(one_to(99), 90.0).has_value());
  EXPECT(!percentile({}, 50.0).has_value());
  // Nearest rank: the reported value is always one of the samples.
  EXPECT(percentile(one_to(1323), 99.0).value_or(0) == 1310.0);
}

void fail_ratio_accounting() {
  perfbench::OpTally tally;
  EXPECT(tally.fail_ratio() == 0.0);
  tally.add(147, 0);
  tally.add(147, 3);
  EXPECT(tally.attempted == 294 && tally.failed == 3);
  EXPECT(near(tally.fail_ratio(), 3.0 / 294.0));
  tally.add(10, 25);  // failures never exceed the ops they belong to
  EXPECT(tally.failed == 13 && tally.attempted == 304);

  using perfbench::group_failures;
  EXPECT(group_failures(147, 2, false) == 2);
  EXPECT(group_failures(147, 2, true) == 147);  // a failed check fails the group
  EXPECT(group_failures(147, 0, true) == 147);
  EXPECT(group_failures(5, 9, false) == 5);
}

void layer_ratios() {
  using perfbench::ratio;
  EXPECT(ratio(1.0, 0.0) == 0.0);  // a layer that did no work
  EXPECT(ratio(6.0, 3.0) == 2.0);
  EXPECT(perfbench::dead_entry_ratio(0, 0) == 0.0);
  EXPECT(near(perfbench::dead_entry_ratio(3, 1), 0.75));
  EXPECT(near(perfbench::megabytes_per_s(4000000, 2.0), 2.0));
  EXPECT(near(perfbench::mebibytes_per_s(8u << 20, 4.0), 2.0));

  perfbench::Tally tally;
  EXPECT(tally.mean_ms() == 0.0);
  tally.add(0.002);
  tally.add(0.004);
  EXPECT(tally.calls == 2);
  EXPECT(near(tally.mean_ms(), 3.0));
  EXPECT(near(tally.mean_us(), 3000.0));
}

void per_layer_reports_every_spec() {
  perfbench::Result result;
  perfbench::set_per_layer(result, {{"fabric.rounds_per_flow", 2.5}});
  EXPECT(result.metrics.size() == perfbench::layer_specs().size());
  EXPECT(result.metrics.at("fabric.rounds_per_flow").value == 2.5);
  EXPECT(result.metrics.at("wire.bytes_sent").value == 0.0);
  EXPECT(result.metrics.at("wire.bytes_sent").unit == "bytes");
}

void end_to_end_reports_the_best_chunk() {
  // Four chunks; the third ran under contention (slow and high-latency).
  perfbench::WindowFigures window;
  window.chunks = {
      {1.0, one_to(1000)},   // 1000 ops/s, p50 500, p99 990
      {1.25, one_to(1000)},  // 800 ops/s
      {2.0, one_to(1000)},   // 500 ops/s
      {0.5, one_to(1000)},   // 2000 ops/s
  };
  for (double& ms : window.chunks[2].op_ms) ms *= 3.0;
  window.peak_rss_mb = 12.5;
  perfbench::Result result;
  perfbench::set_end_to_end(result, one_to(31), window);
  EXPECT(result.metrics.at("setup_s").value == 8.0);  // lower quartile of 31
  EXPECT(result.metrics.at("ops_per_s").value == 2000.0);
  EXPECT(result.metrics.at("op_ms_p50").value == 500.0);  // not 1500
  EXPECT(result.metrics.at("op_ms_p99").value == 990.0);  // not 2970
  EXPECT(result.metrics.at("peak_rss_mb").value == 12.5);
  EXPECT(result.metrics.size() == 5);
  EXPECT(result.info.at("op_samples") == 4000.0);
  EXPECT(result.correct());
}

void end_to_end_refuses_thin_percentiles() {
  perfbench::WindowFigures window;
  window.chunks = {{1.0, one_to(500)}};
  perfbench::Result result;
  perfbench::set_end_to_end(result, one_to(31), window);
  EXPECT(result.check_failures.size() == 1);  // p99 of 500 samples is a max
  EXPECT(!result.correct());

  window.chunks = {{1.0, one_to(1000)}};
  perfbench::Result few_setups;
  perfbench::set_end_to_end(few_setups, one_to(9), window);
  EXPECT(few_setups.check_failures.size() == 1);  // its quartile is a min
  EXPECT(!few_setups.correct());

  perfbench::Result empty;
  perfbench::set_end_to_end(empty, one_to(31), perfbench::WindowFigures{});
  EXPECT(!empty.correct());
}

void window_closes_a_fixed_number_of_chunks() {
  // The chunk count follows from the run length alone.
  EXPECT(perfbench::window_chunks(20.0, 1.5) == 13);
  EXPECT(perfbench::window_chunks(20.0, 3.0) == 7);
  EXPECT(perfbench::window_chunks(1.0, 3.0) == perfbench::kMinWindowChunks);

  const std::size_t chunks = 5;
  perfbench::Window window(chunks, false);
  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    for (std::size_t i = 0; i + 1 < perfbench::kChunkOps; ++i) window.add_op(1.0);
    EXPECT(!window.boundary());  // one op short of a chunk
    window.add_op(1.0);
    EXPECT(window.boundary() == (chunk + 1 == chunks));
  }
  const perfbench::WindowFigures figures = window.figures();
  EXPECT(figures.chunks.size() == chunks);
  EXPECT(figures.chunks.back().op_ms.size() == perfbench::kChunkOps);
}

void digest_is_order_sensitive() {
  perfbench::Digest a;
  perfbench::Digest b;
  a.add(1.0);
  a.add(2.0);
  b.add(2.0);
  b.add(1.0);
  EXPECT(a.value != b.value);
}

}  // namespace

int main() {
  percentile_needs_ten_samples_beyond_it();
  fail_ratio_accounting();
  layer_ratios();
  per_layer_reports_every_spec();
  end_to_end_reports_the_best_chunk();
  end_to_end_refuses_thin_percentiles();
  window_closes_a_fixed_number_of_chunks();
  digest_is_order_sensitive();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
