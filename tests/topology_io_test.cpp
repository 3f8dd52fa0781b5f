#include <gtest/gtest.h>

#include "net/routing.h"
#include "net/topology_io.h"
#include "scenario/north_america.h"

#include <bit>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/contract.h"
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
      {"as A\nnode a host A 0 0\nnode b host A 0 0\n"
       "link a b cap=1 delay_ms=1e\n", "bad delay_ms"},
      {"as A\nnode a host A 0 0\nnode b host A 0 0\n"
       "link a b cap=1 delay_ms=1e+-2\n", "bad delay_ms"},
      {"as A\nnode a host A 0 0\noverride ghost dst_as=A via=a\n",
       "undeclared node"},
      {"as A\nnode a host A 0 0\nnode b host A 0 0\n"
       "link a b cap=1 delay_ms=1\noverride a dst_as=Z via=b\n",
       "undeclared AS"},
      {"as A\nnode a host A 0 0\nnode b host A 0 0\n"
       "link a b cap=1 delay_ms=1\noverride a dst_as=A via=ghost\n",
       "undeclared node"},
      {"as A\nnode a host A 0 0\nnode b host A 0 0\n"
       "link a b cap=1 delay_ms=1\noverride b dst_as=A via=a\n",
       "not a link out of"},
      {"as A\nnode a host A 0 0\nnode b host A 0 0\n"
       "link a b cap=1 delay_ms=1\noverride a src_tag=x dst_as=A\n",
       "needs src_tag=, dst_as= and via="},
      {"as A\nnode a host A 0 0\nnode b host A 0 0\n"
       "link a b cap=1 delay_ms=1\noverride a dst_as=A via=b\n",
       "needs src_tag="},
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
  const std::string doc = std::string(kSmallWorld) +
                          "override r1.backbone.net src_tag=planetlab "
                          "dst_as=Cloud via=edge.cloud.com\n";
  auto original = parse_topology(doc);
  ASSERT_TRUE(original.ok()) << original.error().message;
  const std::string dumped = serialize_topology(original.value());
  auto reparsed = parse_topology(dumped);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message << "\n" << dumped;
  EXPECT_EQ(reparsed.value().as_count(), original.value().as_count());
  EXPECT_EQ(reparsed.value().node_count(), original.value().node_count());
  EXPECT_EQ(reparsed.value().link_count(), original.value().link_count());
  ASSERT_EQ(reparsed.value().overrides().size(), 1u);
  const EgressOverride& ov = reparsed.value().overrides()[0];
  EXPECT_EQ(ov.src_tag, "planetlab");
  EXPECT_EQ(ov.use_link, original.value().overrides()[0].use_link);
  // Serialization is idempotent after one round trip.
  EXPECT_EQ(serialize_topology(reparsed.value()), dumped);
}

TEST(TopologyIo, SerializeRefusesPrefixOverride) {
  // Prefix-matched overrides have no file syntax; writing one would drop it.
  // The override is tagged too, so only the prefix is at stake.
  Topology::Builder b;
  const AsId as = b.add_as("A");
  const NodeId x = b.add_router(as, "x", {0, 0});
  const NodeId y = b.add_router(as, "y", {0, 0});
  EgressOverride ov;
  ov.at = x;
  ov.src_tag = "planetlab";
  ov.src_prefix_bits = 8;
  ov.dst_as = as;
  ov.use_link = b.add_link(x, y, 1, 0.001);
  b.add_override(ov);
  const Topology with_prefix = std::move(b).build().value();
  EXPECT_THROW((void)serialize_topology(with_prefix), check::CheckError);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(TopologyIo, DelayExponentParsesExactly) {
  // An exponent in delay_ms is lowered by 3 in the text, so 1e2 ms reads as
  // the double nearest 0.1 s, exactly what "100" gives.
  const struct {
    const char* ms;
    double seconds;
  } cases[] = {{"1e2", 0.1},       {"1E+2", 0.1},     {"100", 0.1},
               {"2.5e-1", 0.00025}, {"12.5e1", 0.125}, {"0e0", 0.0}};
  for (const auto& test_case : cases) {
    auto topo = parse_topology(std::string("as A\nnode a host A 0 0\n"
                                           "node b host A 0 0\n"
                                           "link a b cap=1 delay_ms=") +
                               test_case.ms + "\n");
    ASSERT_TRUE(topo.ok()) << test_case.ms << ": " << topo.error().message;
    EXPECT_TRUE(same_bits(topo.value().link(0).prop_delay_s, test_case.seconds))
        << test_case.ms;
  }
}

TEST(TopologyIo, ScenarioRoundTripIsBitExact) {
  // Every number the World's topology holds survives serialize + parse
  // bit for bit, and so do its policy-routing overrides.
  scenario::WorldConfig config;
  config.cross_traffic = false;
  config.rate_jitter_cv = 0.0;
  auto world = scenario::World::create(config);
  const Topology& live = world->topology();
  auto reparsed = parse_topology(serialize_topology(live));
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
  const Topology& topo = reparsed.value();
  ASSERT_EQ(topo.node_count(), live.node_count());
  ASSERT_EQ(topo.link_count(), live.link_count());
  for (std::size_t i = 0; i < live.node_count(); ++i) {
    const Node& a = live.node(static_cast<NodeId>(i));
    const Node& b = topo.node(static_cast<NodeId>(i));
    EXPECT_TRUE(same_bits(a.middlebox_per_flow_mbps, b.middlebox_per_flow_mbps))
        << a.name;
    EXPECT_TRUE(same_bits(a.coord.lat_deg, b.coord.lat_deg)) << a.name;
    EXPECT_TRUE(same_bits(a.coord.lon_deg, b.coord.lon_deg)) << a.name;
    EXPECT_EQ(a.ip, b.ip) << a.name;
  }
  for (std::size_t i = 0; i < live.link_count(); ++i) {
    const Link& a = live.link(static_cast<LinkId>(i));
    const Link& b = topo.link(static_cast<LinkId>(i));
    EXPECT_TRUE(same_bits(a.prop_delay_s, b.prop_delay_s)) << "link " << i;
    EXPECT_TRUE(same_bits(a.capacity_mbps, b.capacity_mbps)) << "link " << i;
    EXPECT_TRUE(same_bits(a.policer_per_flow_mbps, b.policer_per_flow_mbps))
        << "link " << i;
    EXPECT_TRUE(same_bits(a.loss_rate, b.loss_rate)) << "link " << i;
  }
  ASSERT_EQ(topo.overrides().size(), 6u);
  ASSERT_EQ(topo.overrides().size(), live.overrides().size());
  for (std::size_t i = 0; i < live.overrides().size(); ++i) {
    EXPECT_EQ(topo.overrides()[i].at, live.overrides()[i].at);
    EXPECT_EQ(topo.overrides()[i].src_tag, live.overrides()[i].src_tag);
    EXPECT_EQ(topo.overrides()[i].dst_as, live.overrides()[i].dst_as);
    EXPECT_EQ(topo.overrides()[i].use_link, live.overrides()[i].use_link);
  }
}

TEST(TopologyIo, AnyDelayRoundTripsBitExact) {
  // Delays are written in milliseconds but held in seconds. Scaling by 1e3
  // and back would miss ~2% of doubles; moving the decimal point in the
  // text misses none.
  util::Rng rng(2016);
  for (int i = 0; i < 2000; ++i) {
    const double delay_s = rng.uniform() * 0.2;
    Topology::Builder b;
    const AsId as = b.add_as("A");
    const NodeId x = b.add_host(as, "x", {0, 0});
    const NodeId y = b.add_host(as, "y", {0, 0});
    b.add_link(x, y, 1, delay_s);
    const Topology topo = std::move(b).build().value();
    auto reparsed = parse_topology(serialize_topology(topo));
    ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
    ASSERT_TRUE(same_bits(reparsed.value().link(0).prop_delay_s, delay_s))
        << delay_s;
  }
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

  // Routing over the reparsed world matches: UBC -> Google front end takes
  // the same hops, overrides included.
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
  // Compare hop names: the PacificWave override fires in both worlds.
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
  // data/north_america.topo is the scenario network every World loads. It is
  // a fixed point of parse + serialize: the file is exactly what the
  // serializer writes for the topology it describes.
  std::ifstream file(std::string(DROUTE_SOURCE_DIR) +
                     "/data/north_america.topo");
  ASSERT_TRUE(file) << "golden file missing: data/north_america.topo";
  std::ostringstream buffer;
  buffer << file.rdbuf();
  auto parsed = parse_topology(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(serialize_topology(parsed.value()), buffer.str());
}

TEST(TopologyIo, FuzzRandomLinesNeverCrash) {
  util::Rng rng(404);
  const char* directives[] = {"as",    "relate", "node",    "link",
                              "bogus", "",       "override"};
  const char* tokens[] = {"A",        "B",         "host",        "router",
                          "peer",     "1.5",       "-3",          "x=y",
                          "cap=10",   "\"q",       "dup",         "#c",
                          "node",     "delay_ms=1", "loss=2",     "override",
                          "via=A",    "via=",      "src_tag=A",   "dst_as=A",
                          "dst_as=",  "delay_ms=1e2"};
  const auto pick = [&rng](const auto& list) {
    const auto last = static_cast<std::int64_t>(std::size(list)) - 1;
    return list[rng.uniform_int(0, last)];
  };
  for (int doc = 0; doc < 200; ++doc) {
    std::string text;
    const int lines = static_cast<int>(rng.uniform_int(1, 12));
    for (int line = 0; line < lines; ++line) {
      text += pick(directives);
      const int n = static_cast<int>(rng.uniform_int(0, 6));
      for (int t = 0; t < n; ++t) {
        text += " ";
        text += pick(tokens);
      }
      text += "\n";
    }
    (void)parse_topology(text);  // must not crash or hang
  }
  SUCCEED();
}

}  // namespace
}  // namespace droute::net
