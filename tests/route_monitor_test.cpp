#include <gtest/gtest.h>

#include "scenario/north_america.h"
#include "trace/route_monitor.h"

namespace droute::trace {
namespace {

class RouteMonitorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario::WorldConfig config;
    config.cross_traffic = false;
    world_ = scenario::World::create(config);
    monitor_ = std::make_unique<RouteMonitor>(&world_->tracer(),
                                              &world_->topology());
    src_ = world_->node("planetlab1.cs.ubc.ca");
    dst_ = world_->node("sea15s01-in-f138.1e100.net");
    monitor_->watch(src_, dst_);
  }

  std::unique_ptr<scenario::World> world_;
  std::unique_ptr<RouteMonitor> monitor_;
  net::NodeId src_{}, dst_{};
};

TEST_F(RouteMonitorTest, StableRouteProducesNoEvents) {
  EXPECT_TRUE(monitor_->snapshot().empty());  // first snapshot: baseline
  EXPECT_TRUE(monitor_->snapshot().empty());
  EXPECT_TRUE(monitor_->snapshot().empty());
  EXPECT_EQ(monitor_->snapshots_taken(), 3);
  EXPECT_TRUE(monitor_->history().empty());
}

TEST_F(RouteMonitorTest, DetectsRerouteAfterLinkFailure) {
  monitor_->snapshot();
  // Kill the PacificWave egress: UBC's Google traffic falls back to the
  // direct peering (the override link is disabled, so the override no
  // longer fires).
  const auto pwave_link =
      world_->topology().find_link(
          world_->node("vncv1rtr2.canarie.ca"),
          world_->node("google-1-lo-std-707.sttlwa.pacificwave.net"));
  ASSERT_TRUE(pwave_link.has_value());
  world_->fabric().fail_link(pwave_link.value());

  const auto changes = monitor_->snapshot();
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_FALSE(changes[0].became_unreachable);
  EXPECT_EQ(changes[0].src, src_);
  // The PacificWave hop left the path.
  const auto pwave_node =
      world_->node("google-1-lo-std-707.sttlwa.pacificwave.net");
  EXPECT_NE(std::find(changes[0].old_only.begin(), changes[0].old_only.end(),
                      pwave_node),
            changes[0].old_only.end());
  ASSERT_TRUE(changes[0].divergence_point.has_value());
  EXPECT_EQ(changes[0].divergence_point.value(),
            world_->node("vncv1rtr2.canarie.ca"));

  // And the new route is faster (the policer is gone) — the exact situation
  // RouteMonitor and the ctrl::Controller estimator exist to surface.
  EXPECT_TRUE(monitor_->snapshot().empty());  // stable again
  EXPECT_EQ(monitor_->history().size(), 1u);
}

TEST_F(RouteMonitorTest, DetectsUnreachabilityAndRecovery) {
  monitor_->snapshot();
  const auto uplink = world_->topology().find_link(
      src_, world_->node("cs-gw.net.ubc.ca"));
  ASSERT_TRUE(uplink.has_value());
  world_->fabric().fail_link(uplink.value());
  auto down = monitor_->snapshot();
  ASSERT_EQ(down.size(), 1u);
  EXPECT_TRUE(down[0].became_unreachable);

  world_->fabric().restore_link(uplink.value());
  auto up = monitor_->snapshot();
  ASSERT_EQ(up.size(), 1u);
  EXPECT_TRUE(up[0].became_reachable);
  EXPECT_EQ(monitor_->history().size(), 2u);
}

TEST_F(RouteMonitorTest, CurrentPathTracksLatest) {
  monitor_->snapshot();
  auto path = monitor_->current_path(src_, dst_);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->back(), dst_);
  EXPECT_FALSE(monitor_->current_path(dst_, src_).has_value());  // unwatched
}

TEST_F(RouteMonitorTest, RenderHistoryMentionsEvents) {
  monitor_->snapshot();
  const auto pwave_link =
      world_->topology().find_link(
          world_->node("vncv1rtr2.canarie.ca"),
          world_->node("google-1-lo-std-707.sttlwa.pacificwave.net"));
  world_->fabric().fail_link(pwave_link.value());
  monitor_->snapshot();
  const std::string text = monitor_->render_history();
  EXPECT_NE(text.find("re-routed"), std::string::npos);
  EXPECT_NE(text.find("vncv1rtr2.canarie.ca"), std::string::npos);
}

TEST_F(RouteMonitorTest, DuplicateWatchIsIdempotent) {
  monitor_->watch(src_, dst_);
  monitor_->watch(src_, dst_);
  monitor_->snapshot();
  EXPECT_TRUE(monitor_->snapshot().empty());
}

}  // namespace
}  // namespace droute::trace
