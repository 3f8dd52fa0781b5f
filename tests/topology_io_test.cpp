#include <gtest/gtest.h>

#include "net/routing.h"
#include "net/topology_io.h"
#include "scenario/north_america.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.h"

namespace droute::net {
namespace {

constexpr const char* kSmallWorld = R"(
# a tiny campus-to-cloud world
as Campus
as Backbone
as Cloud
relate Backbone customer Campus
relate Backbone peer Cloud

node host.campus.edu host Campus 49.26 -123.25 city="Vancouver, BC" tag=planetlab
node r1.backbone.net router Backbone 49.0 -120.0 middlebox=44
node edge.cloud.com router Cloud 47.6 -122.3
node fe.cloud.com host Cloud 37.4 -122.0 city="Mountain View, CA"

link host.campus.edu r1.backbone.net cap=1000 delay_ms=0.5 duplex
link r1.backbone.net edge.cloud.com cap=100 delay_ms=8 policer=9.3 duplex
link edge.cloud.com fe.cloud.com cap=10000 delay_ms=5 loss=0.001 duplex
)";

TEST(TopologyIo, ParsesSmallWorld) {
  auto topo = parse_topology(kSmallWorld);
  ASSERT_TRUE(topo.ok()) << topo.error().message;
  EXPECT_EQ(topo.value().as_count(), 3u);
  EXPECT_EQ(topo.value().node_count(), 4u);
  EXPECT_EQ(topo.value().link_count(), 6u);

  const auto host = topo.value().find_node("host.campus.edu");
  ASSERT_TRUE(host.has_value());
  EXPECT_EQ(topo.value().node(*host).tag, "planetlab");
  EXPECT_EQ(topo.value().node(*host).kind, NodeKind::kHost);
  const auto r1 = topo.value().find_node("r1.backbone.net");
  EXPECT_DOUBLE_EQ(topo.value().node(*r1).middlebox_per_flow_mbps, 44.0);
  EXPECT_EQ(topo.value().registry().lookup("host.campus.edu")->city,
            "Vancouver, BC");
}

TEST(TopologyIo, ParsedWorldRoutes) {
  auto topo_result = parse_topology(kSmallWorld);
  ASSERT_TRUE(topo_result.ok());
  Topology topo = std::move(topo_result).value();
  RouteTable routes(&topo);
  const auto host = topo.find_node("host.campus.edu").value();
  const auto fe = topo.find_node("fe.cloud.com").value();
  auto route = routes.route(host, fe);
  ASSERT_TRUE(route.ok()) << route.error().message;
  EXPECT_EQ(route.value().nodes.size(), 4u);
  EXPECT_NEAR(routes.min_policer_mbps(route.value()), 9.3, 1e-9);
  EXPECT_NEAR(routes.path_loss(route.value()), 0.001, 1e-9);
}

TEST(TopologyIo, LineNumberedErrors) {
  const struct {
    const char* doc;
    const char* needle;
  } cases[] = {
      {"frobnicate x\n", "unknown directive"},
      {"as A\nas A\n", "duplicate AS"},
      {"as A\nrelate A friend A\n", "unknown relation"},
      {"relate A customer B\n", "undeclared AS"},
      {"as A\nnode n host A notanumber 0\n", "bad coordinates"},
      {"as A\nnode n host A 0 0 sparkle=yes\n", "unknown node option"},
      {"as A\nnode a host A 0 0\nnode b host A 0 0\n"
       "link a b cap=0 delay_ms=1\n", "cap>0"},
      {"as A\nnode a host A 0 0\nlink a ghost cap=1 delay_ms=1\n",
       "undeclared node"},
      {"as A\nnode a host A 0 0\nnode a host A 0 0\n", "duplicate node"},
  };
  for (const auto& test_case : cases) {
    auto result = parse_topology(test_case.doc);
    ASSERT_FALSE(result.ok()) << test_case.doc;
    EXPECT_NE(result.error().message.find(test_case.needle),
              std::string::npos)
        << result.error().message;
    EXPECT_NE(result.error().message.find("line"), std::string::npos);
  }
}

TEST(TopologyIo, ValidationErrorsSurface) {
  // Inter-AS link without a declared relationship passes parsing but fails
  // Topology::validate().
  const char* doc =
      "as A\nas B\n"
      "node a host A 0 0\nnode b host B 1 1\n"
      "link a b cap=10 delay_ms=1\n";
  auto result = parse_topology(doc);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("validation"), std::string::npos);
}

TEST(TopologyIo, SerializeParseRoundTrip) {
  auto original = parse_topology(kSmallWorld);
  ASSERT_TRUE(original.ok());
  const std::string dumped = serialize_topology(original.value());
  auto reparsed = parse_topology(dumped);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message << "\n" << dumped;
  EXPECT_EQ(reparsed.value().as_count(), original.value().as_count());
  EXPECT_EQ(reparsed.value().node_count(), original.value().node_count());
  EXPECT_EQ(reparsed.value().link_count(), original.value().link_count());
  // Serialization is idempotent after one round trip.
  EXPECT_EQ(serialize_topology(reparsed.value()), dumped);
}

TEST(TopologyIo, ScenarioTopologyRoundTrips) {
  // The full North-America world survives dump + parse with identical
  // structure: the format covers everything the scenario uses.
  scenario::WorldConfig config;
  config.cross_traffic = false;
  config.rate_jitter_cv = 0.0;
  auto world = scenario::World::create(config);
  const std::string dumped = serialize_topology(world->topology());
  auto reparsed = parse_topology(dumped);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
  EXPECT_EQ(reparsed.value().node_count(), world->topology().node_count());
  EXPECT_EQ(reparsed.value().link_count(), world->topology().link_count());
  EXPECT_EQ(reparsed.value().as_count(), world->topology().as_count());

  // Spot-check that routing over the reparsed world matches: UBC -> Google
  // front end crosses PacificWave only with the override installed — here we
  // check the plain BGP route exists and is identical in both worlds.
  Topology reparsed_topo = std::move(reparsed).value();
  RouteTable fresh_routes(&reparsed_topo);
  RouteTable orig_routes(&world->topology());
  const auto src = reparsed_topo.find_node("planetlab1.cs.ubc.ca").value();
  const auto dst =
      reparsed_topo.find_node("sea15s01-in-f138.1e100.net").value();
  auto fresh = fresh_routes.route(src, dst);
  auto orig = orig_routes.route(world->node("planetlab1.cs.ubc.ca"),
                                world->node("sea15s01-in-f138.1e100.net"));
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(orig.ok());
  // Without the scenario's overrides, both take the direct peering; compare
  // hop names (ids may differ across worlds).
  const auto hop_names = [](const Topology& topo, const Route& route) {
    std::vector<std::string> names;
    for (const NodeId node : route.nodes) names.push_back(topo.node(node).name);
    return names;
  };
  const auto fresh_hops = hop_names(reparsed_topo, fresh.value());
  EXPECT_GT(fresh_hops.size(), 2u);
  EXPECT_EQ(fresh_hops, hop_names(world->topology(), orig.value()));
}

TEST(TopologyIo, CommentsAndBlankLinesIgnored) {
  auto topo = parse_topology("# nothing\n\n   \n# more\n");
  ASSERT_TRUE(topo.ok());
  EXPECT_EQ(topo.value().node_count(), 0u);
}

}  // namespace
}  // namespace droute::net

namespace droute::net {
namespace {

TEST(TopologyIo, GoldenScenarioFileParses) {
  // data/north_america.topo is the committed serialization of the scenario
  // (jitter disabled). It must parse and match the live topology's shape —
  // a drift alarm between the code and the documented artifact.
  std::ifstream file(std::string(DROUTE_SOURCE_DIR) +
                     "/data/north_america.topo");
  ASSERT_TRUE(file) << "golden file missing: data/north_america.topo";
  std::ostringstream buffer;
  buffer << file.rdbuf();
  auto parsed = parse_topology(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;

  scenario::WorldConfig config;
  config.cross_traffic = false;
  config.rate_jitter_cv = 0.0;
  auto world = scenario::World::create(config);
  EXPECT_EQ(parsed.value().node_count(), world->topology().node_count());
  EXPECT_EQ(parsed.value().link_count(), world->topology().link_count());
  EXPECT_EQ(parsed.value().as_count(), world->topology().as_count());
  EXPECT_EQ(serialize_topology(parsed.value()),
            serialize_topology(world->topology()));
}

TEST(TopologyIo, FuzzRandomLinesNeverCrash) {
  util::Rng rng(404);
  const char* directives[] = {"as", "relate", "node", "link", "bogus", ""};
  const char* tokens[] = {"A",     "B",    "host",  "router",   "peer",
                          "1.5",   "-3",   "x=y",   "cap=10",   "\"q",
                          "dup",   "#c",   "node",  "delay_ms=1", "loss=2"};
  for (int doc = 0; doc < 200; ++doc) {
    std::string text;
    const int lines = static_cast<int>(rng.uniform_int(1, 12));
    for (int line = 0; line < lines; ++line) {
      text += directives[rng.uniform_int(0, 5)];
      const int n = static_cast<int>(rng.uniform_int(0, 6));
      for (int t = 0; t < n; ++t) {
        text += " ";
        text += tokens[rng.uniform_int(0, 14)];
      }
      text += "\n";
    }
    (void)parse_topology(text);  // must not crash or hang
  }
  SUCCEED();
}

}  // namespace
}  // namespace droute::net
