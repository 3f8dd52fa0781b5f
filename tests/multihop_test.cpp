#include <gtest/gtest.h>

#include "core/multihop.h"
#include "scenario/north_america.h"
#include "util/units.h"

namespace droute::core {
namespace {

TimeMatrix paper_matrix() {
  // The intro's measured numbers plus extra legs for chain tests.
  TimeMatrix m;
  m.set("UBC", "GDrive", 87.0);
  m.set("UBC", "UAlberta", 19.0);
  m.set("UAlberta", "GDrive", 17.0);
  m.set("UBC", "UMich", 120.0);
  m.set("UMich", "GDrive", 12.0);
  m.set("UAlberta", "UMich", 25.0);
  return m;
}

TEST(MultiHop, ZeroBudgetIsDirect) {
  MultiHopOptions options;
  options.max_extra_hops = 0;
  auto route = best_multihop_route(paper_matrix(), "UBC", "GDrive", options);
  ASSERT_TRUE(route.ok());
  EXPECT_TRUE(route.value().waypoints.empty());
  EXPECT_DOUBLE_EQ(route.value().total_s, 87.0);
}

TEST(MultiHop, OneHopFindsUAlberta) {
  MultiHopOptions options;
  options.max_extra_hops = 1;
  auto route = best_multihop_route(paper_matrix(), "UBC", "GDrive", options);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route.value().waypoints,
            std::vector<std::string>{"UAlberta"});
  EXPECT_DOUBLE_EQ(route.value().total_s, 36.0);
}

TEST(MultiHop, SecondHopWinsWhenLegsJustify) {
  // UBC -> UAlberta (19) -> UMich (25) -> GDrive (12) = 56 > 36, so two hops
  // lose here; craft a matrix where they win.
  TimeMatrix m;
  m.set("A", "D", 100.0);
  m.set("A", "B", 10.0);
  m.set("B", "D", 60.0);
  m.set("B", "C", 10.0);
  m.set("C", "D", 10.0);
  MultiHopOptions options;
  options.max_extra_hops = 2;
  auto route = best_multihop_route(m, "A", "D", options);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route.value().waypoints, (std::vector<std::string>{"B", "C"}));
  EXPECT_DOUBLE_EQ(route.value().total_s, 30.0);
}

TEST(MultiHop, PerHopOverheadDiscouragesChains) {
  TimeMatrix m;
  m.set("A", "D", 35.0);
  m.set("A", "B", 10.0);
  m.set("B", "C", 10.0);
  m.set("C", "D", 10.0);
  MultiHopOptions options;
  options.max_extra_hops = 2;
  options.per_hop_overhead_s = 0.0;
  EXPECT_EQ(best_multihop_route(m, "A", "D", options).value().hops(), 2);
  options.per_hop_overhead_s = 5.0;  // 30 + 10 overhead > 35 direct
  EXPECT_EQ(best_multihop_route(m, "A", "D", options).value().hops(), 0);
}

TEST(MultiHop, FrontierIsMonotoneEnvelope) {
  const auto frontier =
      multihop_frontier(paper_matrix(), "UBC", "GDrive",
                        MultiHopOptions{.max_extra_hops = 2,
                                        .per_hop_overhead_s = 0.0});
  ASSERT_FALSE(frontier.empty());
  // Each entry on the envelope is at least as good as the previous.
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_LE(frontier[i].total_s, frontier[i - 1].total_s + 1e-9);
  }
  EXPECT_DOUBLE_EQ(frontier.front().total_s, 87.0);  // direct
}

TEST(MultiHop, UnreachableIsError) {
  TimeMatrix m;
  m.set("A", "B", 1.0);
  m.set("C", "D", 1.0);
  EXPECT_FALSE(best_multihop_route(m, "A", "D").ok());
}

TEST(MultiHop, NoRelayThroughDestination) {
  // The destination cannot be an intermediate of itself.
  TimeMatrix m;
  m.set("A", "D", 10.0);
  m.set("D", "E", 1.0);
  m.set("E", "D", 1.0);
  auto route = best_multihop_route(m, "A", "D",
                                   MultiHopOptions{.max_extra_hops = 2,
                                                   .per_hop_overhead_s = 0.0});
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route.value().hops(), 0);
  EXPECT_DOUBLE_EQ(route.value().total_s, 10.0);
}

TEST(MultiHop, ScenarioSecondHopNeverBeatsPaperDetour) {
  // Build the scenario's time matrix for 50 MB and confirm the paper's
  // restriction to one hop loses nothing for UBC -> Google Drive: the best
  // 2-hop chain is no better than via-UAlberta alone.
  constexpr std::uint64_t kBytes = 50 * util::kMB;
  scenario::WorldConfig config;
  config.cross_traffic = false;
  TimeMatrix m;
  auto leg = [&](const std::string& from, const std::string& to) {
    auto world = scenario::World::create(config);
    return world->run_rsync(from, to, kBytes).value();
  };
  {
    auto world = scenario::World::create(config);
    m.set("UBC", "GDrive",
          world
              ->run_upload(scenario::Client::kUBC,
                           cloud::ProviderKind::kGoogleDrive,
                           scenario::RouteChoice::kDirect, kBytes)
              .value());
  }
  m.set("UBC", "UAlberta",
        leg("planetlab1.cs.ubc.ca", "cluster.cs.ualberta.ca"));
  m.set("UBC", "UMich",
        leg("planetlab1.cs.ubc.ca", "planetlab01.eecs.umich.edu"));
  m.set("UAlberta", "UMich",
        leg("cluster.cs.ualberta.ca", "planetlab01.eecs.umich.edu"));
  for (const auto& [name, node] :
       std::map<std::string, scenario::Intermediate>{
           {"UAlberta", scenario::Intermediate::kUAlberta},
           {"UMich", scenario::Intermediate::kUMich}}) {
    auto world = scenario::World::create(config);
    auto task = world->api_engine(cloud::ProviderKind::kGoogleDrive)
                    .upload_task(world->intermediate_node(node),
                                 transfer::make_file_mb(50, 1));
    world->simulator().run();
    ASSERT_TRUE(task.done());
    ASSERT_TRUE(task.result().ok());
    m.set(name, "GDrive", task.result().value().duration_s());
  }

  const auto one_hop = best_multihop_route(
      m, "UBC", "GDrive", MultiHopOptions{.max_extra_hops = 1,
                                          .per_hop_overhead_s = 0.5});
  const auto two_hop = best_multihop_route(
      m, "UBC", "GDrive", MultiHopOptions{.max_extra_hops = 2,
                                          .per_hop_overhead_s = 0.5});
  ASSERT_TRUE(one_hop.ok() && two_hop.ok());
  EXPECT_EQ(one_hop.value().waypoints,
            std::vector<std::string>{"UAlberta"});
  EXPECT_DOUBLE_EQ(two_hop.value().total_s, one_hop.value().total_s);
}

}  // namespace
}  // namespace droute::core
