#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/contract.h"
#include "check/valley_free.h"
#include "net/routing.h"
#include "net/topology.h"
#include "util/thread_pool.h"

namespace droute::net {
namespace {

geo::Coord at(double lat, double lon) { return {lat, lon}; }

/// Audits a BGP-selected AS path against Gao–Rexford. Every path the route
/// table selects must pass; only EgressOverride-shaped routes are exempt.
void expect_valley_free(const Topology& topo, const std::vector<AsId>& path) {
  if (!check::debug_checks_enabled()) return;
  const auto status = check::validate_as_path(topo, path);
  EXPECT_TRUE(status.ok()) << status.error().message;
}

/// A small policy world:
///
///   Campus1 -> RegionalA -> Backbone <-peer-> Cloud
///   Campus2 -> RegionalA
///   Campus3 -> TransitB (provider), TransitB <-peer-> Cloud, Backbone
///
struct PolicyWorld {
  Topology topo;
  AsId campus1, campus2, campus3, regional, backbone, transit, cloud;
  NodeId h1, h2, h3, r_reg, r_bb, r_tr, r_cloud, cloud_fe;

  static PolicyWorld build() {
    PolicyWorld w;
    Topology::Builder b;
    w.campus1 = b.add_as("Campus1");
    w.campus2 = b.add_as("Campus2");
    w.campus3 = b.add_as("Campus3");
    w.regional = b.add_as("RegionalA");
    w.backbone = b.add_as("Backbone");
    w.transit = b.add_as("TransitB");
    w.cloud = b.add_as("Cloud");

    b.relate(w.regional, w.campus1, AsRelation::kCustomer);
    b.relate(w.regional, w.campus2, AsRelation::kCustomer);
    b.relate(w.backbone, w.regional, AsRelation::kCustomer);
    b.relate(w.transit, w.campus3, AsRelation::kCustomer);
    b.relate(w.backbone, w.cloud, AsRelation::kPeer);
    b.relate(w.transit, w.cloud, AsRelation::kPeer);
    b.relate(w.transit, w.backbone, AsRelation::kPeer);

    w.h1 = b.add_host(w.campus1, "h1", at(50, -120));
    w.h2 = b.add_host(w.campus2, "h2", at(51, -114));
    w.h3 = b.add_host(w.campus3, "h3", at(34, -118));
    w.r_reg = b.add_router(w.regional, "r-reg", at(50, -119));
    w.r_bb = b.add_router(w.backbone, "r-bb", at(49, -117));
    w.r_tr = b.add_router(w.transit, "r-tr", at(36, -115));
    w.r_cloud = b.add_router(w.cloud, "r-cloud", at(47, -122));
    w.cloud_fe = b.add_host(w.cloud, "cloud-fe", at(37, -122));

    b.add_duplex(w.h1, w.r_reg, 1000, 0.001);
    b.add_duplex(w.h2, w.r_reg, 1000, 0.001);
    b.add_duplex(w.h3, w.r_tr, 1000, 0.002);
    b.add_duplex(w.r_reg, w.r_bb, 1000, 0.002);
    b.add_duplex(w.r_bb, w.r_cloud, 1000, 0.003);
    b.add_duplex(w.r_tr, w.r_cloud, 1000, 0.004);
    b.add_duplex(w.r_tr, w.r_bb, 1000, 0.005);
    b.add_duplex(w.r_cloud, w.cloud_fe, 1000, 0.001);

    auto built = std::move(b).build();
    EXPECT_TRUE(built.ok()) << (built.ok() ? "" : built.error().message);
    w.topo = std::move(built).value();
    return w;
  }
};

TEST(BgpLite, CustomerChainReachesDestination) {
  PolicyWorld w = PolicyWorld::build();
  RouteTable routes(&w.topo);
  auto path = routes.as_path(w.campus1, w.cloud);
  ASSERT_TRUE(path.ok()) << path.error().message;
  EXPECT_EQ(path.value(),
            (std::vector<AsId>{w.campus1, w.regional, w.backbone, w.cloud}));
  expect_valley_free(w.topo, path.value());
}

TEST(BgpLite, ValleyFreePreventsCampusTransit) {
  // Campus2 -> Campus1 must route through their shared provider, never
  // through another campus; and Campus1 -> Campus3 must climb to the peer
  // link between Backbone and TransitB.
  PolicyWorld w = PolicyWorld::build();
  RouteTable routes(&w.topo);
  auto path = routes.as_path(w.campus1, w.campus3);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path.value(), (std::vector<AsId>{w.campus1, w.regional,
                                             w.backbone, w.transit,
                                             w.campus3}));
  expect_valley_free(w.topo, path.value());
}

TEST(BgpLite, PeerRoutesNotExportedToPeers) {
  // Cloud's route to Campus3 exists via TransitB (customer chain at
  // TransitB exported to peer Cloud). But Backbone must NOT be used to reach
  // Campus3 from Cloud: Backbone's route to Campus3 is via peer TransitB and
  // peer routes are not exported to peers.
  PolicyWorld w = PolicyWorld::build();
  RouteTable routes(&w.topo);
  auto path = routes.as_path(w.cloud, w.campus3);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path.value(),
            (std::vector<AsId>{w.cloud, w.transit, w.campus3}));
  expect_valley_free(w.topo, path.value());
}

TEST(BgpLite, RouteOriginClassification) {
  PolicyWorld w = PolicyWorld::build();
  RouteTable routes(&w.topo);
  EXPECT_EQ(routes.route_origin(w.backbone, w.campus1).value(),
            RouteOrigin::kCustomer);
  EXPECT_EQ(routes.route_origin(w.backbone, w.cloud).value(),
            RouteOrigin::kPeer);
  EXPECT_EQ(routes.route_origin(w.campus1, w.cloud).value(),
            RouteOrigin::kProvider);
  EXPECT_EQ(routes.route_origin(w.cloud, w.cloud).value(), RouteOrigin::kSelf);
}

TEST(NodeRouting, ExpandsToConcreteLinks) {
  PolicyWorld w = PolicyWorld::build();
  RouteTable routes(&w.topo);
  auto route = routes.route(w.h1, w.cloud_fe);
  ASSERT_TRUE(route.ok()) << route.error().message;
  ASSERT_TRUE(route.value().valid());
  EXPECT_EQ(route.value().nodes.front(), w.h1);
  EXPECT_EQ(route.value().nodes.back(), w.cloud_fe);
  // h1 -> r-reg -> r-bb -> r-cloud -> cloud-fe
  EXPECT_EQ(route.value().nodes.size(), 5u);
  if (check::debug_checks_enabled()) {
    const auto status = check::validate_route(w.topo, route.value());
    EXPECT_TRUE(status.ok()) << status.error().message;
  }
}

TEST(NodeRouting, PathMetricsAccumulate) {
  PolicyWorld w = PolicyWorld::build();
  RouteTable routes(&w.topo);
  const Route route = routes.route(w.h1, w.cloud_fe).value();
  EXPECT_NEAR(routes.one_way_delay_s(route), 0.001 + 0.002 + 0.003 + 0.001,
              1e-12);
  EXPECT_DOUBLE_EQ(routes.path_loss(route), 0.0);
  EXPECT_DOUBLE_EQ(routes.min_policer_mbps(route), 0.0);
  EXPECT_DOUBLE_EQ(routes.bottleneck_capacity_mbps(route), 1000.0);
}

TEST(NodeRouting, ReroutesAroundDisabledLink) {
  PolicyWorld w = PolicyWorld::build();
  RouteTable routes(&w.topo);
  // Kill the backbone->cloud peering; campus1's cloud traffic must now fail
  // (no alternative valley-free path exists via regional).
  const auto link = w.topo.find_link(w.r_bb, w.r_cloud);
  ASSERT_TRUE(link.has_value());
  ASSERT_TRUE(w.topo.set_link_enabled(link.value(), false).ok());
  routes.invalidate();
  auto route = routes.route(w.h1, w.cloud_fe);
  // The AS path Backbone->Cloud still exists in policy but has no enabled
  // gateway; expansion must report an error, not loop.
  EXPECT_FALSE(route.ok());
}

TEST(RouteCache, GenerationCountsInvalidations) {
  PolicyWorld w = PolicyWorld::build();
  RouteTable routes(&w.topo);
  EXPECT_EQ(routes.generation(), 0u);
  (void)routes.route(w.h1, w.cloud_fe);
  EXPECT_EQ(routes.generation(), 0u);  // queries never move it
  routes.invalidate();
  EXPECT_EQ(routes.generation(), 1u);
  routes.invalidate();
  routes.invalidate();
  EXPECT_EQ(routes.generation(), 3u);
}

TEST(RouteCache, UnroutablePairReturnsTheSameCachedError) {
  PolicyWorld w = PolicyWorld::build();
  const auto link = w.topo.find_link(w.r_bb, w.r_cloud);
  ASSERT_TRUE(link.has_value());
  ASSERT_TRUE(w.topo.set_link_enabled(link.value(), false).ok());
  RouteTable routes(&w.topo);
  const auto& first = routes.route(w.h1, w.cloud_fe);
  ASSERT_FALSE(first.ok());
  const std::string message = first.error().message;
  EXPECT_FALSE(message.empty());
  const auto& again = routes.route(w.h1, w.cloud_fe);
  EXPECT_EQ(&first, &again);  // the cached entry, not a re-expansion
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().message, message);
}

TEST(RouteCache, PairRoutesAgainOnlyAfterRestoreAndInvalidate) {
  PolicyWorld w = PolicyWorld::build();
  const auto link = w.topo.find_link(w.r_bb, w.r_cloud);
  ASSERT_TRUE(link.has_value());
  RouteTable routes(&w.topo);
  ASSERT_TRUE(w.topo.set_link_enabled(link.value(), false).ok());
  routes.invalidate();
  EXPECT_FALSE(routes.route(w.h1, w.cloud_fe).ok());
  ASSERT_TRUE(w.topo.set_link_enabled(link.value(), true).ok());
  // The failure is cached until invalidate(), like a success would be.
  EXPECT_FALSE(routes.route(w.h1, w.cloud_fe).ok());
  routes.invalidate();
  const auto& route = routes.route(w.h1, w.cloud_fe);
  ASSERT_TRUE(route.ok()) << route.error().message;
  EXPECT_EQ(route.value().nodes.back(), w.cloud_fe);
}

TEST(RouteCache, ReferenceSurvivesQueriesOfOtherPairs) {
  PolicyWorld w = PolicyWorld::build();
  RouteTable routes(&w.topo);
  const auto& held = routes.route(w.h1, w.cloud_fe);
  ASSERT_TRUE(held.ok());
  const Route copy = held.value();
  // Fill the cache well past its first buckets, failures included.
  const auto n = static_cast<NodeId>(w.topo.node_count());
  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dst = 0; dst < n; ++dst) (void)routes.route(src, dst);
  }
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(held.value().nodes, copy.nodes);
  EXPECT_EQ(held.value().links, copy.links);
  EXPECT_EQ(&held, &routes.route(w.h1, w.cloud_fe));
}

TEST(NodeRouting, EgressOverrideDivertsTaggedSource) {
  // Tag h1 as "planetlab" and force its cloud-bound traffic through the
  // transit router instead of the default backbone->cloud peering.
  PolicyWorld w = PolicyWorld::build();

  // Rebuild with a tagged host (tags are set at construction).
  Topology::Builder b;
  const AsId campus = b.add_as("Campus");
  const AsId backbone = b.add_as("Backbone");
  const AsId pwave = b.add_as("PWave");
  const AsId cloud = b.add_as("Cloud");
  b.relate(backbone, campus, AsRelation::kCustomer);
  b.relate(backbone, cloud, AsRelation::kPeer);
  b.relate(backbone, pwave, AsRelation::kPeer);
  b.relate(pwave, cloud, AsRelation::kPeer);
  const NodeId tagged = b.add_host(campus, "pl.host", at(49, -123), "",
                                   "planetlab");
  const NodeId plain = b.add_host(campus, "plain.host", at(49, -123));
  const NodeId r_bb = b.add_router(backbone, "r-bb", at(49, -122));
  const NodeId r_pw = b.add_router(pwave, "r-pw", at(47, -122));
  const NodeId r_cl = b.add_router(cloud, "r-cl", at(47, -121));
  const NodeId fe = b.add_host(cloud, "fe", at(37, -122));
  b.add_duplex(tagged, r_bb, 1000, 0.001);
  b.add_duplex(plain, r_bb, 1000, 0.001);
  const LinkId to_pwave = b.add_duplex(r_bb, r_pw, 1000, 0.002);
  b.add_duplex(r_pw, r_cl, 1000, 0.002);
  b.add_duplex(r_bb, r_cl, 1000, 0.001);
  b.add_duplex(r_cl, fe, 1000, 0.001);
  EgressOverride ov;
  ov.at = r_bb;
  ov.src_tag = "planetlab";
  ov.dst_as = cloud;
  ov.use_link = to_pwave;
  b.add_override(ov);
  auto built = std::move(b).build();
  ASSERT_TRUE(built.ok()) << built.error().message;
  Topology topo = std::move(built).value();

  RouteTable routes(&topo);

  const Route tagged_route = routes.route(tagged, fe).value();
  const Route plain_route = routes.route(plain, fe).value();
  auto contains = [](const Route& r, NodeId n) {
    return std::find(r.nodes.begin(), r.nodes.end(), n) != r.nodes.end();
  };
  EXPECT_TRUE(contains(tagged_route, r_pw));   // diverted via PWave
  EXPECT_FALSE(contains(plain_route, r_pw));   // default peering
  EXPECT_TRUE(plain_route.nodes.size() < tagged_route.nodes.size());

  if (check::debug_checks_enabled()) {
    // The default route is valley-free; the override route is, by design,
    // NOT — it crosses two peer edges (backbone -> pwave -> cloud), which is
    // exactly the routing artifact the paper studies. The validator must
    // accept the former and reject the latter.
    const auto plain_status = check::validate_route(topo, plain_route);
    EXPECT_TRUE(plain_status.ok()) << plain_status.error().message;
    const auto tagged_status = check::validate_route(topo, tagged_route);
    EXPECT_FALSE(tagged_status.ok())
        << "override route unexpectedly valley-free";
  }
}

/// Two parallel peering links between Backbone and Cloud: killing the cheap
/// one re-routes (after invalidate()) onto the backup.
struct TwoPeerings {
  Topology topo;
  NodeId host, r_cl_a, r_cl_b, fe;
  LinkId cheap;

  static TwoPeerings build() {
    TwoPeerings w;
    Topology::Builder b;
    const AsId campus = b.add_as("Campus");
    const AsId backbone = b.add_as("Backbone");
    const AsId cloud = b.add_as("Cloud");
    b.relate(backbone, campus, AsRelation::kCustomer);
    b.relate(backbone, cloud, AsRelation::kPeer);
    w.host = b.add_host(campus, "host", at(50, -120));
    const NodeId r_bb = b.add_router(backbone, "r-bb", at(50, -119));
    w.r_cl_a = b.add_router(cloud, "r-cl-a", at(49, -118));
    w.r_cl_b = b.add_router(cloud, "r-cl-b", at(48, -118));
    w.fe = b.add_host(cloud, "fe", at(47, -117));
    b.add_duplex(w.host, r_bb, 1000, 0.001);
    w.cheap = b.add_duplex(r_bb, w.r_cl_a, 1000, 0.001);
    b.add_duplex(r_bb, w.r_cl_b, 1000, 0.005);  // backup, higher delay
    b.add_duplex(w.r_cl_a, w.fe, 1000, 0.001);
    b.add_duplex(w.r_cl_b, w.fe, 1000, 0.001);
    auto built = std::move(b).build();
    EXPECT_TRUE(built.ok()) << (built.ok() ? "" : built.error().message);
    w.topo = std::move(built).value();
    return w;
  }
};

TEST(NodeRouting, CacheInvalidationChangesRoutes) {
  TwoPeerings w = TwoPeerings::build();
  Topology& topo = w.topo;
  const NodeId host = w.host, fe = w.fe, r_cl_a = w.r_cl_a, r_cl_b = w.r_cl_b;
  const LinkId cheap = w.cheap;

  RouteTable routes(&topo);
  const Route before = routes.route(host, fe).value();
  EXPECT_NE(std::find(before.nodes.begin(), before.nodes.end(), r_cl_a),
            before.nodes.end());
  ASSERT_TRUE(topo.set_link_enabled(cheap, false).ok());
  routes.invalidate();
  const Route after = routes.route(host, fe).value();
  EXPECT_NE(before.nodes, after.nodes);
  EXPECT_NE(std::find(after.nodes.begin(), after.nodes.end(), r_cl_b),
            after.nodes.end());
}

TEST(NodeRouting, UnreachableDestinationIsError) {
  Topology::Builder b;
  const AsId a = b.add_as("A");
  const AsId z = b.add_as("Z");
  b.relate(a, z, AsRelation::kPeer);
  const NodeId h1 = b.add_host(a, "h1", at(0, 0));
  const NodeId h2 = b.add_host(z, "h2", at(1, 1));
  // No links at all between the ASes.
  (void)h2;
  auto built = std::move(b).build();
  ASSERT_TRUE(built.ok());
  Topology topo = std::move(built).value();
  RouteTable routes(&topo);
  EXPECT_FALSE(routes.route(h1, h2).ok());
  (void)h1;
}

}  // namespace
}  // namespace droute::net

namespace droute::net {
namespace {

TEST(NodeRouting, PrefixBasedOverrideMatchesSubnet) {
  // Same world as the tag-based override test, but match on the source's
  // 10.<as>.0.0/16 prefix instead of a tag — real policy routing matches
  // prefixes, not labels. Each case builds the world with one override.
  struct PrefixWorld {
    Topology topo;
    NodeId host, r_pw, fe;
  };
  const auto build = [](const std::string& prefix, int bits) {
    Topology::Builder b;
    const AsId campus = b.add_as("Campus");
    const AsId backbone = b.add_as("Backbone");
    const AsId pwave = b.add_as("PWave");
    const AsId cloud = b.add_as("Cloud");
    b.relate(backbone, campus, AsRelation::kCustomer);
    b.relate(backbone, cloud, AsRelation::kPeer);
    b.relate(backbone, pwave, AsRelation::kPeer);
    b.relate(pwave, cloud, AsRelation::kPeer);
    const NodeId host = b.add_host(campus, "pl.host", at(49, -123));
    const NodeId r_bb = b.add_router(backbone, "r-bb", at(49, -122));
    const NodeId r_pw = b.add_router(pwave, "r-pw", at(47, -122));
    const NodeId r_cl = b.add_router(cloud, "r-cl", at(47, -121));
    const NodeId fe = b.add_host(cloud, "fe", at(37, -122));
    b.add_duplex(host, r_bb, 1000, 0.001);
    const LinkId to_pwave = b.add_duplex(r_bb, r_pw, 1000, 0.002);
    b.add_duplex(r_pw, r_cl, 1000, 0.002);
    b.add_duplex(r_bb, r_cl, 1000, 0.001);
    b.add_duplex(r_cl, fe, 1000, 0.001);
    EgressOverride ov;
    ov.at = r_bb;
    ov.src_prefix = geo::Ipv4::parse(prefix).value();
    ov.src_prefix_bits = bits;
    ov.dst_as = cloud;
    ov.use_link = to_pwave;
    b.add_override(ov);
    return PrefixWorld{std::move(b).build().value(), host, r_pw, fe};
  };
  const auto diverted = [](const PrefixWorld& w) {
    RouteTable routes(&w.topo);
    const Route route = routes.route(w.host, w.fe).value();
    return std::find(route.nodes.begin(), route.nodes.end(), w.r_pw) !=
           route.nodes.end();
  };

  // The campus AS is the first declared (id 0), so its host is 10.0.0.1.
  ASSERT_EQ(build("10.0.0.0", 16).topo.node(0).ip.to_string(), "10.0.0.1");
  // Prefix covering the campus AS (10.<campus>.0.0/16): diverted.
  EXPECT_TRUE(diverted(build("10.0.0.0", 16)));
  // Prefix for a different /16: not diverted.
  EXPECT_FALSE(diverted(build("10.99.0.0", 16)));
  // /32 exact-host match.
  EXPECT_TRUE(diverted(build("10.0.0.1", 32)));
}

TEST(NodeRouting, OverrideMatcherSemantics) {
  Node source;
  source.tag = "planetlab";
  source.ip = geo::Ipv4::parse("10.3.0.7").value();

  EgressOverride by_tag;
  by_tag.src_tag = "planetlab";
  EXPECT_TRUE(by_tag.matches_source(source));
  by_tag.src_tag = "campus";
  EXPECT_FALSE(by_tag.matches_source(source));

  EgressOverride by_prefix;
  by_prefix.src_prefix = geo::Ipv4::parse("10.3.0.0").value();
  by_prefix.src_prefix_bits = 16;
  EXPECT_TRUE(by_prefix.matches_source(source));
  by_prefix.src_prefix_bits = 32;
  EXPECT_FALSE(by_prefix.matches_source(source));

  // Either matcher suffices.
  EgressOverride both;
  both.src_tag = "wrong";
  both.src_prefix = geo::Ipv4::parse("10.3.0.0").value();
  both.src_prefix_bits = 16;
  EXPECT_TRUE(both.matches_source(source));

  // Disabled matchers never match.
  EgressOverride none;
  EXPECT_FALSE(none.matches_source(source));
}

// ------------------------------------------------------- route snapshot ----

/// Every (src, dst) and AS-pair answer of `table` against `reference`.
void expect_same_answers(const Topology& topo, const RouteTable& table,
                         const RouteTable& reference) {
  const auto nodes = static_cast<NodeId>(topo.node_count());
  for (NodeId src = 0; src < nodes; ++src) {
    for (NodeId dst = 0; dst < nodes; ++dst) {
      const auto& got = table.route(src, dst);
      const auto& want = reference.route(src, dst);
      ASSERT_EQ(got.ok(), want.ok()) << src << " -> " << dst;
      if (got.ok()) {
        EXPECT_EQ(got.value().nodes, want.value().nodes);
        EXPECT_EQ(got.value().links, want.value().links);
      } else {
        EXPECT_EQ(got.error().message, want.error().message);
      }
    }
  }
  const auto ases = static_cast<AsId>(topo.as_count());
  for (AsId src = 0; src < ases; ++src) {
    for (AsId dst = 0; dst < ases; ++dst) {
      const auto got = table.as_path(src, dst);
      const auto want = reference.as_path(src, dst);
      ASSERT_EQ(got.ok(), want.ok()) << src << " -> " << dst;
      if (got.ok()) {
        EXPECT_EQ(got.value(), want.value());
      }
      const auto origin = table.route_origin(src, dst);
      const auto want_origin = reference.route_origin(src, dst);
      ASSERT_EQ(origin.ok(), want_origin.ok());
      if (origin.ok()) {
        EXPECT_EQ(origin.value(), want_origin.value());
      }
    }
  }
}

TEST(RouteSnapshot, TablesShareOneExpansionPerPair) {
  PolicyWorld w = PolicyWorld::build();
  const RouteSnapshot snapshot(&w.topo);
  constexpr int kTables = 5;
  std::vector<Topology> copies(kTables, w.topo);
  std::vector<RouteTable> tables;
  for (const Topology& copy : copies) tables.emplace_back(&copy, &snapshot);
  for (const RouteTable& table : tables) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      (void)table.route(w.h1, w.cloud_fe);
      (void)table.route(w.h3, w.cloud_fe);
      (void)table.route(w.cloud_fe, w.h2);
    }
    EXPECT_EQ(table.routes_expanded(), 0u);
  }
  // Three distinct pairs, whatever the number of tables and queries.
  EXPECT_EQ(snapshot.routes_expanded(), 3u);
  EXPECT_EQ(&tables[0].route(w.h1, w.cloud_fe),
            &tables[kTables - 1].route(w.h1, w.cloud_fe));
}

TEST(RouteSnapshot, RateOnlyCopyAnswersLikeItsOwnPrivateTable) {
  PolicyWorld w = PolicyWorld::build();
  const RouteSnapshot snapshot(&w.topo);
  Topology copy = w.topo;
  const auto link = copy.find_link(w.r_reg, w.r_bb);
  ASSERT_TRUE(link.has_value());
  ASSERT_TRUE(copy.set_link_capacity(link.value(), 10.0).ok());
  ASSERT_TRUE(copy.set_link_policer(link.value(), 5.0).ok());
  const RouteTable shared(&copy, &snapshot);
  const RouteTable own(&copy);
  expect_same_answers(copy, shared, own);
  EXPECT_EQ(shared.routes_expanded(), 0u);
  // Rate queries read the table's own topology, not the snapshot's.
  const Route& route = shared.route(w.h1, w.cloud_fe).value();
  EXPECT_DOUBLE_EQ(shared.bottleneck_capacity_mbps(route), 10.0);
  EXPECT_DOUBLE_EQ(shared.min_policer_mbps(route), 5.0);
}

TEST(RouteSnapshot, InvalidateForksOnlyThatTable) {
  TwoPeerings w = TwoPeerings::build();
  const RouteSnapshot snapshot(&w.topo);
  Topology failing = w.topo;
  Topology sibling = w.topo;
  RouteTable forked(&failing, &snapshot);
  const RouteTable kept(&sibling, &snapshot);

  const Route* before = &forked.route(w.host, w.fe).value();
  const Route held = *before;
  ASSERT_NE(std::find(held.links.begin(), held.links.end(), w.cheap),
            held.links.end());
  ASSERT_TRUE(failing.set_link_enabled(w.cheap, false).ok());
  forked.invalidate();

  const Route& after = forked.route(w.host, w.fe).value();
  EXPECT_EQ(std::find(after.links.begin(), after.links.end(), w.cheap),
            after.links.end());
  EXPECT_NE(std::find(after.nodes.begin(), after.nodes.end(), w.r_cl_b),
            after.nodes.end());
  EXPECT_EQ(forked.routes_expanded(), 1u);
  // The retired answer is still readable and unchanged.
  EXPECT_EQ(before->links, held.links);
  EXPECT_EQ(before->nodes, held.nodes);
  // The sibling and a fresh table keep the snapshot's route.
  EXPECT_EQ(&kept.route(w.host, w.fe).value(), before);
  const RouteTable fresh(&sibling, &snapshot);
  EXPECT_EQ(&fresh.route(w.host, w.fe).value(), before);
  EXPECT_EQ(snapshot.routes_expanded(), 1u);
}

TEST(RouteSnapshot, ConcurrentTablesMatchPrivateRouting) {
  PolicyWorld w = PolicyWorld::build();
  const RouteSnapshot snapshot(&w.topo);
  constexpr std::size_t kTables = 8;
  std::vector<Topology> copies(kTables, w.topo);
  std::vector<RouteTable> tables;
  for (const Topology& copy : copies) tables.emplace_back(&copy, &snapshot);
  // Every table starts cold on one cold snapshot, so the first queries of
  // each pair race on its lock.
  util::ThreadPool pool(4);
  pool.parallel_for(kTables, [&](std::size_t i) {
    const RouteTable own(&copies[i]);
    expect_same_answers(copies[i], tables[i], own);
  });
  const std::size_t n = w.topo.node_count();
  EXPECT_EQ(snapshot.routes_expanded(), n * n);
}

}  // namespace
}  // namespace droute::net
