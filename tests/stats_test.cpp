#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/descriptive.h"
#include "stats/overlap.h"

namespace droute::stats {
namespace {

TEST(Descriptive, BasicMoments) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  // Sample stddev with n-1: variance = 32/7.
  EXPECT_NEAR(sample_stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Descriptive, EdgeCases) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(sample_stddev({}), 0.0);
  const std::vector<double> one{3.0};
  EXPECT_DOUBLE_EQ(sample_stddev(one), 0.0);
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
}

TEST(Descriptive, SummaryFields) {
  const std::vector<double> xs{5.0, 1.0, 3.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(summarize(even).median, 2.5);
}

TEST(Descriptive, KeepLastImplementsPaperProtocol) {
  // "mean of the last five runs among a total of seven runs" (Sec II):
  // the first two warm-up runs are dropped.
  const std::vector<double> runs{100.0, 90.0, 10.0, 10.0, 10.0, 10.0, 10.0};
  const Summary s = keep_last_summary(runs, 5);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 10.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  // Fewer samples than keep_last: keep everything.
  const Summary all = keep_last_summary(std::vector<double>{5.0, 7.0}, 5);
  EXPECT_EQ(all.count, 2u);
}

// ---------------------------------------------------------------- overlap ----

TEST(Overlap, PaperTableIVExample) {
  // Sec III-B worked example: Dropbox direct 177.89 +/- 36.03 vs detours
  // 237.78 +/- 56.1 and 226.43 +/- 50.48 — all overlapping.
  const Interval direct{177.89, 36.03};
  const Interval via_ua{237.78, 56.10};
  const Interval via_umich{226.43, 50.48};
  EXPECT_TRUE(error_bars_overlap(direct, via_ua));
  EXPECT_TRUE(error_bars_overlap(direct, via_umich));
  // Neither route clearly beats the other under the paper's verdict.
  EXPECT_EQ(judge_lower_better(via_ua, direct).significance,
            Significance::kBaselineBetter);
  EXPECT_EQ(judge_lower_better(direct, via_ua).significance,
            Significance::kIndistinguishable);
  EXPECT_FALSE(judge_lower_better(direct, via_umich).choose_candidate);
}

TEST(Overlap, ClearSeparation) {
  // Table II-style case: UBC direct 86.92 vs via UAlberta 35.79 with small
  // error bars — clearly separated.
  const Interval direct{86.92, 2.0};
  const Interval detour{35.79, 2.0};
  EXPECT_FALSE(error_bars_overlap(direct, detour));
  EXPECT_EQ(judge_lower_better(detour, direct).significance,
            Significance::kCandidateBetter);
  EXPECT_EQ(judge_lower_better(direct, detour).significance,
            Significance::kBaselineBetter);
}

TEST(Overlap, TouchingBarsCountAsOverlap) {
  const Interval a{10.0, 2.0};
  const Interval b{14.0, 2.0};  // a.high == b.low == 12
  EXPECT_TRUE(error_bars_overlap(a, b));
}

TEST(Judge, LowerBetterPicksClearWinnerAndKeepsBaselineOnOverlap) {
  // Transfer times: the detour finishes in 36 s vs 87 s direct, bars clear.
  const SignificanceDecision clear =
      judge_lower_better({35.79, 2.0}, {86.92, 2.0});
  EXPECT_EQ(clear.significance, Significance::kCandidateBetter);
  EXPECT_TRUE(clear.choose_candidate);
  EXPECT_FALSE(clear.overlap);
  EXPECT_GT(clear.gain, 0.5);
  // Overlapping bars: Sec III-B conservatism keeps the baseline even though
  // the candidate mean is better.
  const SignificanceDecision fuzzy =
      judge_lower_better({80.0, 10.0}, {86.92, 10.0});
  EXPECT_EQ(fuzzy.significance, Significance::kIndistinguishable);
  EXPECT_FALSE(fuzzy.choose_candidate);
  EXPECT_TRUE(fuzzy.overlap);
}

TEST(Judge, LowerBetterOverlapPreferenceIsConfigurable) {
  SignificanceOptions options;
  options.prefer_baseline_on_overlap = false;
  const SignificanceDecision verdict =
      judge_lower_better({80.0, 10.0}, {86.92, 10.0}, options);
  EXPECT_EQ(verdict.significance, Significance::kIndistinguishable);
  EXPECT_TRUE(verdict.choose_candidate);  // better mean wins when allowed
}

TEST(Judge, HigherBetterMirrorsForThroughput) {
  // Throughputs: candidate 100 Mbps vs baseline 20 Mbps, bars clear.
  const SignificanceDecision clear =
      judge_higher_better({100.0, 5.0}, {20.0, 5.0});
  EXPECT_EQ(clear.significance, Significance::kCandidateBetter);
  EXPECT_TRUE(clear.choose_candidate);
  EXPECT_NEAR(clear.gain, 4.0, 1e-9);  // (100 - 20) / 20
  // A worse candidate never wins regardless of options.
  const SignificanceDecision worse =
      judge_higher_better({10.0, 1.0}, {20.0, 1.0});
  EXPECT_EQ(worse.significance, Significance::kBaselineBetter);
  EXPECT_FALSE(worse.choose_candidate);
}

TEST(Judge, MinGainThresholdFiltersMarginalWins) {
  SignificanceOptions options;
  options.min_gain = 0.25;
  // 10% better and clear of overlap, but below the 25% gain floor.
  const SignificanceDecision verdict =
      judge_higher_better({110.0, 1.0}, {100.0, 1.0}, options);
  EXPECT_EQ(verdict.significance, Significance::kCandidateBetter);
  EXPECT_FALSE(verdict.choose_candidate);
}

}  // namespace
}  // namespace droute::stats
