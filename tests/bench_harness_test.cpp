#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness.h"

namespace droute::bench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> samples;
  for (int i = n; i >= 1; --i) samples.push_back(i);  // unsorted on purpose
  return samples;
}

/// Runs bench_main on `args` (argv[0] is supplied) and returns its status.
int run_main(std::vector<std::string> args) {
  args.insert(args.begin(), "bench_harness_test");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return bench_main(static_cast<int>(argv.size()), argv.data(),
                    "BENCH_unused.json");
}

TEST(BenchSummarize, EmptyInputIsAllZero) {
  const BenchStats stats = summarize({});
  EXPECT_TRUE(stats.samples_ms.empty());
  EXPECT_EQ(stats.median_ms, 0.0);
  EXPECT_EQ(stats.p95_ms, 0.0);
  EXPECT_EQ(stats.mean_ms, 0.0);
  EXPECT_EQ(stats.min_ms, 0.0);
  EXPECT_EQ(stats.max_ms, 0.0);
}

TEST(BenchSummarize, OddMedianIsMiddleSample) {
  const BenchStats stats = summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(stats.median_ms, 2.0);
  EXPECT_EQ(stats.mean_ms, 2.0);
  EXPECT_EQ(stats.min_ms, 1.0);
  EXPECT_EQ(stats.max_ms, 3.0);
  EXPECT_EQ(stats.samples_ms, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(BenchSummarize, EvenMedianAveragesMiddlePair) {
  EXPECT_EQ(summarize({4.0, 1.0, 3.0, 2.0}).median_ms, 2.5);
}

TEST(BenchSummarize, P95IsNearestRank) {
  EXPECT_EQ(summarize({7.0}).p95_ms, 7.0);
  EXPECT_EQ(summarize(one_to(20)).p95_ms, 19.0);  // rank ceil(19.00) = 19
  EXPECT_EQ(summarize(one_to(21)).p95_ms, 20.0);  // rank ceil(19.95) = 20
}

TEST(BenchMain, RejectsNumbersWithTrailingGarbage) {
  EXPECT_EQ(run_main({"--list", "--repeats", "3"}), 0);
  EXPECT_EQ(run_main({"--list", "--repeats", "3x"}), 2);
  EXPECT_EQ(run_main({"--list", "--warmup", "abc"}), 2);
  EXPECT_EQ(run_main({"--list", "--warmup", ""}), 2);
  EXPECT_EQ(run_main({"--list", "--repeats", "0"}), 2);
}

}  // namespace
}  // namespace droute::bench
