#include <gtest/gtest.h>

#include <cmath>

#include "net/tcp_model.h"
#include "net/topology.h"
#include "util/units.h"

namespace droute::net {
namespace {

geo::Coord here() { return {50.0, -100.0}; }

TEST(TopologyBuilder, BuildsValidTwoAsWorld) {
  Topology::Builder b;
  const AsId a = b.add_as("A");
  const AsId g = b.add_as("G");
  b.relate(a, g, AsRelation::kPeer);
  const NodeId host = b.add_host(a, "host.a", here(), "Nowhere");
  const NodeId rtr = b.add_router(g, "rtr.g", here());
  b.add_duplex(host, rtr, 100.0, 0.001);
  auto topo = std::move(b).build();
  ASSERT_TRUE(topo.ok()) << topo.error().message;
  EXPECT_EQ(topo.value().node_count(), 2u);
  EXPECT_EQ(topo.value().link_count(), 2u);
  EXPECT_EQ(topo.value().as_count(), 2u);
}

TEST(TopologyBuilder, AssignsUniqueIps) {
  Topology::Builder b;
  const AsId a = b.add_as("A");
  const NodeId n1 = b.add_host(a, "h1", here());
  const NodeId n2 = b.add_host(a, "h2", here());
  auto topo = std::move(b).build();
  ASSERT_TRUE(topo.ok());
  EXPECT_NE(topo.value().node(n1).ip.value, topo.value().node(n2).ip.value);
  // Registry can resolve both names and IPs.
  EXPECT_TRUE(topo.value().registry().lookup("h1").has_value());
  EXPECT_TRUE(
      topo.value().registry().lookup_ip(topo.value().node(n2).ip).has_value());
}

TEST(TopologyBuilder, RejectsInterAsLinkWithoutRelation) {
  Topology::Builder b;
  const AsId a = b.add_as("A");
  const AsId c = b.add_as("C");
  const NodeId n1 = b.add_host(a, "h1", here());
  const NodeId n2 = b.add_host(c, "h2", here());
  b.add_duplex(n1, n2, 100.0, 0.001);
  EXPECT_FALSE(std::move(b).build().ok());
}

TEST(TopologyBuilder, RejectsDuplicateNames) {
  Topology::Builder b;
  const AsId a = b.add_as("A");
  b.add_host(a, "same", here());
  b.add_host(a, "same", here());
  EXPECT_FALSE(std::move(b).build().ok());
}

TEST(TopologyBuilder, RejectsBadLinkParams) {
  {
    Topology::Builder b;
    const AsId a = b.add_as("A");
    const NodeId n1 = b.add_host(a, "h1", here());
    const NodeId n2 = b.add_host(a, "h2", here());
    b.add_duplex(n1, n2, 0.0, 0.001);  // zero capacity
    EXPECT_FALSE(std::move(b).build().ok());
  }
  {
    Topology::Builder b;
    const AsId a = b.add_as("A");
    const NodeId n1 = b.add_host(a, "h1", here());
    const NodeId n2 = b.add_host(a, "h2", here());
    b.add_duplex(n1, n2, 10.0, 0.001, {.loss_rate = 1.5});  // loss >= 1
    EXPECT_FALSE(std::move(b).build().ok());
  }
}

TEST(TopologyBuilder, RejectsOverrideNotLeavingItsRouter) {
  for (const bool leaves : {true, false}) {
    Topology::Builder b;
    const AsId a = b.add_as("A");
    const NodeId n1 = b.add_host(a, "h1", here());
    const NodeId n2 = b.add_host(a, "h2", here());
    const LinkId forward = b.add_duplex(n1, n2, 10.0, 0.001);
    EgressOverride ov;
    ov.at = leaves ? n1 : n2;  // `forward` leaves n1 only
    ov.dst_as = a;
    ov.use_link = forward;
    b.add_override(ov);
    EXPECT_EQ(std::move(b).build().ok(), leaves);
  }
}

TEST(Topology, RelationConverseIsRecorded) {
  Topology::Builder b;
  const AsId cust = b.add_as("Campus");
  const AsId prov = b.add_as("Transit");
  b.relate(prov, cust, AsRelation::kCustomer);  // campus is transit's customer
  const NodeId n1 = b.add_host(cust, "h", here());
  const NodeId n2 = b.add_router(prov, "r", here());
  b.add_duplex(n1, n2, 10.0, 0.001);
  auto topo = std::move(b).build();
  ASSERT_TRUE(topo.ok());
  EXPECT_EQ(topo.value().relation(prov, cust), AsRelation::kCustomer);
  EXPECT_EQ(topo.value().relation(cust, prov), AsRelation::kProvider);
}

TEST(Topology, FindLinkHonorsEnabledFlag) {
  Topology::Builder b;
  const AsId a = b.add_as("A");
  const NodeId n1 = b.add_host(a, "h1", here());
  const NodeId n2 = b.add_host(a, "h2", here());
  const LinkId forward = b.add_duplex(n1, n2, 10.0, 0.001);
  auto built = std::move(b).build();
  ASSERT_TRUE(built.ok());
  Topology topo = std::move(built).value();
  EXPECT_TRUE(topo.find_link(n1, n2).has_value());
  ASSERT_TRUE(topo.set_link_enabled(forward, false).ok());
  EXPECT_FALSE(topo.find_link(n1, n2).has_value());
  EXPECT_FALSE(topo.set_link_enabled(999, false).ok());
}

// ------------------------------------------------------------- tcp model ----

TEST(TcpModel, WindowLimit) {
  TcpParams params;
  params.rwnd_bytes = 1e6;
  // 1 MB window at 100 ms RTT = 10 MB/s = 80 Mbps.
  EXPECT_NEAR(window_limit_mbps(0.1, params), 80.0, 1e-9);
}

TEST(TcpModel, MathisDecreasesWithLossAndRtt) {
  TcpParams params;
  const double fast = mathis_limit_mbps(0.02, 0.0001, params);
  const double lossy = mathis_limit_mbps(0.02, 0.01, params);
  const double far = mathis_limit_mbps(0.2, 0.0001, params);
  EXPECT_GT(fast, lossy);
  EXPECT_GT(fast, far);
  EXPECT_TRUE(std::isinf(mathis_limit_mbps(0.02, 0.0, params)));
}

TEST(TcpModel, FlowCapTakesMinimum) {
  TcpParams params;
  params.rwnd_bytes = 1e9;  // window not limiting
  const double cap = flow_cap_mbps(0.05, 0.0, 9.3, 0.0, params);
  EXPECT_NEAR(cap, 9.3, 1e-9);
  const double mb = flow_cap_mbps(0.05, 0.0, 9.3, 4.0, params);
  EXPECT_NEAR(mb, 4.0, 1e-9);
}

TEST(TcpModel, SlowStartDelayGrowsWithTarget) {
  TcpParams params;
  const double slow = slow_start_delay_s(0.05, 5.0, params);
  const double fast = slow_start_delay_s(0.05, 500.0, params);
  EXPECT_LT(slow, fast);
  EXPECT_DOUBLE_EQ(slow_start_delay_s(0.05, 0.0, params), 0.0);
  // Tiny target below the initial window: no ramp at all.
  EXPECT_DOUBLE_EQ(slow_start_delay_s(0.05, 0.1, params), 0.0);
}

}  // namespace
}  // namespace droute::net
