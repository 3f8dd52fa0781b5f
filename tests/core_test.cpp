#include <gtest/gtest.h>

#include "core/advisor.h"
#include "core/tiv.h"

namespace droute::core {
namespace {

// -------------------------------------------------------------------- tiv ----

TEST(Tiv, DetectsPaperIntroViolation) {
  // The intro's numbers: UBC->GDrive 87 s, UBC->UAlberta 19 s,
  // UAlberta->GDrive 17 s => detour 36 s, speedup ~2.4.
  TimeMatrix matrix;
  matrix.set("UBC", "GDrive", 87.0);
  matrix.set("UBC", "UAlberta", 19.0);
  matrix.set("UAlberta", "GDrive", 17.0);
  const auto violations = find_violations(matrix);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].via, "UAlberta");
  EXPECT_NEAR(violations[0].speedup, 87.0 / 36.0, 1e-9);
}

TEST(Tiv, NoViolationWhenTriangleHolds) {
  TimeMatrix matrix;
  matrix.set("A", "C", 10.0);
  matrix.set("A", "B", 8.0);
  matrix.set("B", "C", 8.0);
  EXPECT_TRUE(find_violations(matrix).empty());
}

TEST(Tiv, OverheadShiftsDecision) {
  TimeMatrix matrix;
  matrix.set("A", "C", 20.0);
  matrix.set("A", "B", 9.0);
  matrix.set("B", "C", 9.0);
  EXPECT_EQ(find_violations(matrix, 1.0, 0.0).size(), 1u);
  // 3 s of hand-off overhead erases the 2 s advantage.
  EXPECT_TRUE(find_violations(matrix, 1.0, 3.0).empty());
}

TEST(Tiv, MinSpeedupFilters) {
  TimeMatrix matrix;
  matrix.set("A", "C", 100.0);
  matrix.set("A", "B", 30.0);
  matrix.set("B", "C", 30.0);  // speedup 1.67
  EXPECT_EQ(find_violations(matrix, 1.5).size(), 1u);
  EXPECT_TRUE(find_violations(matrix, 2.0).empty());
}

TEST(Tiv, SortedByStrength) {
  TimeMatrix matrix;
  matrix.set("A", "C", 100.0);
  matrix.set("A", "B", 30.0);
  matrix.set("B", "C", 30.0);   // via B: 60, speedup 1.67
  matrix.set("A", "D", 10.0);
  matrix.set("D", "C", 10.0);   // via D: 20, speedup 5
  const auto violations = find_violations(matrix);
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0].via, "D");
  EXPECT_EQ(violations[1].via, "B");
}

TEST(Tiv, MissingPairsIgnored) {
  TimeMatrix matrix;
  matrix.set("A", "C", 100.0);
  matrix.set("A", "B", 10.0);
  // no B->C measurement
  EXPECT_TRUE(find_violations(matrix).empty());
  EXPECT_FALSE(matrix.has("B", "C"));
}

// ---------------------------------------------------------------- advisor ----

RouteStats make_stats(const std::string& key, double mean, double sd,
                      bool direct = false) {
  RouteStats stats;
  stats.key = key;
  stats.summary.mean = mean;
  stats.summary.stddev = sd;
  stats.summary.count = 5;
  stats.is_direct = direct;
  return stats;
}

TEST(Advisor, PicksClearWinnerDetour) {
  // Table II shape: detour clearly faster.
  const RouteAdvisor advisor;
  const Recommendation decision = advisor.recommend({
      make_stats("Direct", 86.92, 1.5, true),
      make_stats("via UAlberta", 35.79, 1.2),
      make_stats("via UMich", 132.17, 2.0),
  });
  EXPECT_EQ(decision.route_key, "via UAlberta");
  EXPECT_EQ(decision.confidence, Confidence::kClear);
}

TEST(Advisor, FallsBackToDirectOnOverlap) {
  // Table IV shape: detour mean lower but error bars overlap => direct.
  const RouteAdvisor advisor;
  const Recommendation decision = advisor.recommend({
      make_stats("Direct", 179.44, 51.49, true),
      make_stats("via UAlberta", 145.93, 50.12),
  });
  EXPECT_EQ(decision.route_key, "Direct");
  EXPECT_EQ(decision.confidence, Confidence::kOverlapping);
}

TEST(Advisor, OverlapToleranceCanBeDisabled) {
  RouteAdvisor::Options options;
  options.prefer_direct_on_overlap = false;
  const RouteAdvisor advisor(options);
  const Recommendation decision = advisor.recommend({
      make_stats("Direct", 179.44, 51.49, true),
      make_stats("via UAlberta", 145.93, 50.12),
  });
  EXPECT_EQ(decision.route_key, "via UAlberta");
  EXPECT_EQ(decision.confidence, Confidence::kOverlapping);
}

TEST(Advisor, MinGainThreshold) {
  RouteAdvisor::Options options;
  options.min_detour_gain = 0.30;
  const RouteAdvisor advisor(options);
  // Clear separation but only ~20% gain: below threshold => direct.
  const Recommendation decision = advisor.recommend({
      make_stats("Direct", 100.0, 1.0, true),
      make_stats("via X", 80.0, 1.0),
  });
  EXPECT_EQ(decision.route_key, "Direct");
}

TEST(Advisor, DirectWinnerIsAlwaysClear) {
  const RouteAdvisor advisor;
  const Recommendation decision = advisor.recommend({
      make_stats("Direct", 20.0, 5.0, true),
      make_stats("via X", 50.0, 30.0),
  });
  EXPECT_EQ(decision.route_key, "Direct");
  EXPECT_EQ(decision.confidence, Confidence::kClear);
}

TEST(Advisor, RequiresDirectCandidate) {
  const RouteAdvisor advisor;
  EXPECT_THROW(advisor.recommend({make_stats("via X", 10.0, 1.0)}),
               std::logic_error);
  EXPECT_THROW(advisor.recommend({}), std::logic_error);
}

TEST(SizeTable, DominantRouteAndExceptions) {
  SizeTable table;
  for (std::uint64_t mb : {10, 20, 30, 50, 100}) {
    Recommendation d;
    d.route_key = "Direct";
    table.by_size[mb * 1000000] = d;
  }
  Recommendation detour;
  detour.route_key = "via UAlberta";
  table.by_size[40 * 1000000] = detour;
  table.by_size[60 * 1000000] = detour;
  EXPECT_EQ(table.dominant_route(), "Direct");
  EXPECT_EQ(table.exceptions(),
            (std::vector<std::uint64_t>{40000000, 60000000}));
}

}  // namespace
}  // namespace droute::core
