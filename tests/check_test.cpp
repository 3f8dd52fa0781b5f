#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/contract.h"
#include "check/fabric_audit.h"
#include "check/sim_audit.h"
#include "check/valley_free.h"
#include "net/fabric.h"
#include "net/routing.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "util/result.h"

namespace droute::check {
namespace {

// ------------------------------------------------------------ contract ----

TEST(Contract, CheckPassesSilently) {
  DROUTE_CHECK(1 + 1 == 2, "arithmetic still works");
}

TEST(Contract, CheckThrowsCheckError) {
  EXPECT_THROW({ DROUTE_CHECK(false, "boom"); }, CheckError);
  // CheckError IS-A logic_error: legacy assertions keep working.
  EXPECT_THROW({ DROUTE_CHECK(false, "boom"); }, std::logic_error);
}

TEST(Contract, MessageStreamsAllParts) {
  const int flows = 7;
  try {
    DROUTE_CHECK(false, "expected ", 3, " flows, saw ", flows);
    FAIL() << "check did not throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("expected 3 flows, saw 7"), std::string::npos) << what;
    EXPECT_NE(what.find("[false]"), std::string::npos) << what;
  }
}

TEST(Contract, MessagelessCheckStillNamesCondition) {
  try {
    DROUTE_CHECK(2 < 1);
    FAIL() << "check did not throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("[2 < 1]"), std::string::npos);
  }
}

// The handler is a plain function pointer (so it can live in an atomic);
// tests capture through a static.
Violation g_last_violation;  // NOLINT
int g_violation_count = 0;   // NOLINT

void recording_handler(const Violation& violation) {
  g_last_violation = violation;
  ++g_violation_count;
}

TEST(Contract, FailureHandlerObservesViolation) {
  g_violation_count = 0;
  {
    ScopedFailureHandler scoped(&recording_handler);
    EXPECT_THROW({ DROUTE_CHECK(false, "observed ", 42); }, CheckError);
  }
  EXPECT_EQ(g_violation_count, 1);
  EXPECT_EQ(g_last_violation.message, "observed 42");
  EXPECT_STREQ(g_last_violation.condition, "false");
  EXPECT_NE(std::string(g_last_violation.file).find("check_test.cpp"),
            std::string::npos);
  EXPECT_GT(g_last_violation.line, 0);
  // Restored on scope exit.
  EXPECT_EQ(failure_handler(), nullptr);
}

TEST(Contract, HandlerUninstalledOutsideScope) {
  g_violation_count = 0;
  EXPECT_THROW({ DROUTE_CHECK(false, "unobserved"); }, CheckError);
  EXPECT_EQ(g_violation_count, 0);
}

TEST(Contract, DcheckCompiledPerBuildMode) {
#if DROUTE_ENABLE_DCHECKS
  EXPECT_THROW({ DROUTE_DCHECK(false, "debug check fires"); }, CheckError);
#else
  DROUTE_DCHECK(false, "debug check compiled out");  // must not throw
#endif
}

TEST(Contract, DebugChecksToggleRoundTrips) {
  const bool initial = debug_checks_enabled();
  set_debug_checks(!initial);
  EXPECT_EQ(debug_checks_enabled(), !initial);
  set_debug_checks(initial);
  EXPECT_EQ(debug_checks_enabled(), initial);
}

// ----------------------------------------------------------- sim audit ----

TEST(SimAudit, CleanRunPassesQuiescenceAudit) {
  sim::Simulator simulator;
  SimAuditor auditor(&simulator);
  for (int i = 0; i < 10; ++i) {
    simulator.schedule_at(static_cast<double>(i) * 0.5, [] {});
  }
  simulator.run();
  EXPECT_EQ(auditor.observed_events(), 10u);
  const auto status = auditor.audit_quiescent();
  EXPECT_TRUE(status.ok()) << status.error().message;
}

TEST(SimAudit, DetectsLeakedPendingEvent) {
  sim::Simulator simulator;
  SimAuditor auditor(&simulator);
  simulator.schedule_at(1.0, [] {});
  simulator.schedule_at(100.0, [] {});  // never fires: leaked
  simulator.run_until(10.0);
  const auto status = auditor.audit_quiescent();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("leaked"), std::string::npos);
}

TEST(SimAudit, ObserverSeesMonotonicClock) {
  sim::Simulator simulator;
  SimAuditor auditor(&simulator);
  // Self-rescheduling chain: each event schedules the next.
  int remaining = 50;
  std::function<void()> chain = [&] {
    if (--remaining > 0) simulator.schedule_in(0.01, chain);
  };
  simulator.schedule_in(0.01, chain);
  simulator.run();
  EXPECT_EQ(auditor.observed_events(), 50u);
  EXPECT_TRUE(auditor.audit_quiescent().ok());
}

// -------------------------------------------------------- fabric audit ----

struct FabricWorld {
  net::Topology topo;
  net::NodeId src = net::kInvalidNode;
  net::NodeId dst = net::kInvalidNode;

  static FabricWorld build() {
    FabricWorld w;
    net::Topology::Builder b;
    const net::AsId as = b.add_as("A");
    w.src = b.add_host(as, "src", {0, 0});
    w.dst = b.add_host(as, "dst", {1, 1});
    b.add_duplex(w.src, w.dst, 100.0, 0.005);
    auto built = std::move(b).build();
    EXPECT_TRUE(built.ok());
    w.topo = std::move(built).value();
    return w;
  }
};

TEST(FabricAudit, LiveFabricPassesMidTransfer) {
  FabricWorld w = FabricWorld::build();
  sim::Simulator simulator;
  net::RouteTable routes(&w.topo);
  net::Fabric fabric(&simulator, &w.topo, &routes);

  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    auto flow = fabric.start_flow(w.src, w.dst, 10'000'000,
                                  [&](const net::FlowStats&) { ++completed; });
    ASSERT_TRUE(flow.ok());
  }
  // Audit while flows are in flight, several times as the sim advances.
  for (int i = 0; i < 5; ++i) {
    simulator.run_until(simulator.now() + 0.2);
    const auto status = audit_fabric(fabric);
    EXPECT_TRUE(status.ok()) << status.error().message;
  }
  simulator.run();
  EXPECT_EQ(completed, 4);
  const auto status = audit_fabric(fabric);
  EXPECT_TRUE(status.ok()) << status.error().message;
}

TEST(FabricAudit, RejectsInjectedOverCapacityLoad) {
  std::vector<net::Fabric::LinkLoad> loads(1);
  loads[0].link = 0;
  loads[0].capacity_mbps = 100.0;
  loads[0].allocated_mbps = 150.0;  // oversubscribed
  loads[0].flows = 3;
  const auto status = audit_link_loads(loads);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("capacity exceeded"),
            std::string::npos);
}

TEST(FabricAudit, ToleratesRoundingSlackButNotMore) {
  std::vector<net::Fabric::LinkLoad> loads(1);
  loads[0].link = 0;
  loads[0].capacity_mbps = 100.0;
  loads[0].flows = 1;
  loads[0].allocated_mbps = 100.0 * (1.0 + 0.5e-6);  // inside slack
  EXPECT_TRUE(audit_link_loads(loads).ok());
  loads[0].allocated_mbps = 100.0 * (1.0 + 5e-6);    // outside slack
  EXPECT_FALSE(audit_link_loads(loads).ok());
}

TEST(FabricAudit, RejectsMalformedLoadEntries) {
  std::vector<net::Fabric::LinkLoad> loads(1);
  loads[0].link = net::kInvalidLink;
  loads[0].capacity_mbps = 100.0;
  loads[0].flows = 1;
  EXPECT_FALSE(audit_link_loads(loads).ok());

  loads[0].link = 0;
  loads[0].flows = 0;  // loaded link with no flows
  loads[0].allocated_mbps = 1.0;
  EXPECT_FALSE(audit_link_loads(loads).ok());

  loads[0].flows = 1;
  loads[0].capacity_mbps = 0.0;  // zero-capacity link carrying traffic
  EXPECT_FALSE(audit_link_loads(loads).ok());
}

TEST(FabricAudit, ConservationHoldsThroughAbortAndFailure) {
  FabricWorld w = FabricWorld::build();
  sim::Simulator simulator;
  net::RouteTable routes(&w.topo);
  net::Fabric fabric(&simulator, &w.topo, &routes);

  auto f1 = fabric.start_flow(w.src, w.dst, 50'000'000,
                              [](const net::FlowStats&) {});
  auto f2 = fabric.start_flow(w.src, w.dst, 50'000'000,
                              [](const net::FlowStats&) {});
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  simulator.run_until(0.5);
  fabric.abort_flow(f1.value());
  EXPECT_TRUE(audit_flow_conservation(fabric).ok());
  simulator.run();
  const auto status = audit_flow_conservation(fabric);
  EXPECT_TRUE(status.ok()) << status.error().message;
  EXPECT_LE(fabric.delivered_bytes(), fabric.submitted_bytes());
}

TEST(FabricAudit, RejectsACorruptedFinishHead) {
  FabricWorld w = FabricWorld::build();
  sim::Simulator simulator;
  net::RouteTable routes(&w.topo);
  net::Fabric fabric(&simulator, &w.topo, &routes);
  // Two route classes (distinct app caps) of several members each, plus a
  // flow still in slow start.
  net::FlowOptions options;
  options.charge_slow_start = false;
  for (int i = 0; i < 6; ++i) {
    options.app_cap_mbps = i % 2 == 0 ? 5.0 : 8.0;
    ASSERT_TRUE(fabric
                    .start_flow(w.src, w.dst, 1'000'000 * (1 + i),
                                [](const net::FlowStats&) {}, options)
                    .ok());
  }
  ASSERT_TRUE(fabric
                  .start_flow(w.src, w.dst, 1'000'000,
                              [](const net::FlowStats&) {}, {})
                  .ok());
  const auto order = fabric.finish_order();
  ASSERT_EQ(order.size(), 3u);  // two classes, then the slow-start flows
  EXPECT_TRUE(order[0].queued);
  EXPECT_EQ(order[0].members.size(), 3u);
  EXPECT_FALSE(order[2].queued);
  EXPECT_EQ(order[2].members.size(), 1u);
  const auto clean = audit_finish_order(order);
  EXPECT_TRUE(clean.ok()) << clean.error().message;

  // A head keyed later than its earliest member would complete it late.
  auto late_head = order;
  late_head[1].head_finish_s += 1.0;
  const auto late = audit_finish_order(late_head);
  ASSERT_FALSE(late.ok());
  EXPECT_NE(late.error().message.find("queued class 1"), std::string::npos);

  // An unqueued flow with a finite finish would never complete.
  auto lost = order;
  lost[2].members[0].second = 1.0;
  const auto unqueued = audit_finish_order(lost);
  ASSERT_FALSE(unqueued.ok());
  EXPECT_NE(unqueued.error().message.find("unqueued class 2"),
            std::string::npos);

  simulator.run();
  const auto drained = audit_finish_order(fabric.finish_order());
  EXPECT_TRUE(drained.ok()) << drained.error().message;
  EXPECT_EQ(fabric.finish_order().size(), 1u);  // just the empty pending entry
}

// --------------------------------------------------------- valley-free ----

/// Stub + two tier-1 peers + stub: A -> P1 <-peer-> P2 -> B, plus a direct
/// peering between the stubs' providers and each other.
struct PolicyWorld {
  net::Topology topo;
  net::AsId a, p1, p2, b;
  net::NodeId ha, r1, r2, hb;

  static PolicyWorld build() {
    PolicyWorld w;
    net::Topology::Builder builder;
    w.a = builder.add_as("StubA");
    w.p1 = builder.add_as("Provider1");
    w.p2 = builder.add_as("Provider2");
    w.b = builder.add_as("StubB");
    builder.relate(w.p1, w.a, net::AsRelation::kCustomer);
    builder.relate(w.p2, w.b, net::AsRelation::kCustomer);
    builder.relate(w.p1, w.p2, net::AsRelation::kPeer);
    w.ha = builder.add_host(w.a, "ha", {0, 0});
    w.r1 = builder.add_router(w.p1, "r1", {1, 1});
    w.r2 = builder.add_router(w.p2, "r2", {2, 2});
    w.hb = builder.add_host(w.b, "hb", {3, 3});
    builder.add_duplex(w.ha, w.r1, 1000, 0.001);
    builder.add_duplex(w.r1, w.r2, 1000, 0.002);
    builder.add_duplex(w.r2, w.hb, 1000, 0.001);
    auto built = std::move(builder).build();
    EXPECT_TRUE(built.ok());
    w.topo = std::move(built).value();
    return w;
  }
};

TEST(ValleyFree, AcceptsUpPeerDownPath) {
  PolicyWorld w = PolicyWorld::build();
  const std::vector<net::AsId> path{w.a, w.p1, w.p2, w.b};
  const auto status = validate_as_path(w.topo, path);
  EXPECT_TRUE(status.ok()) << status.error().message;
}

TEST(ValleyFree, AcceptsPureUphillAndDownhill) {
  PolicyWorld w = PolicyWorld::build();
  EXPECT_TRUE(validate_as_path(w.topo, {w.a, w.p1}).ok());
  EXPECT_TRUE(validate_as_path(w.topo, {w.p1, w.a}).ok());
  EXPECT_TRUE(validate_as_path(w.topo, {w.a}).ok());
}

TEST(ValleyFree, RejectsValley) {
  // The canonical valley: a stub with two providers gives free transit
  // between them (down edge then up edge).
  net::Topology::Builder builder;
  const net::AsId c = builder.add_as("Customer");
  const net::AsId p = builder.add_as("ProviderLeft");
  const net::AsId q = builder.add_as("ProviderRight");
  builder.relate(p, c, net::AsRelation::kCustomer);
  builder.relate(q, c, net::AsRelation::kCustomer);
  builder.add_host(c, "hc", {0, 0});
  builder.add_router(p, "rp", {1, 1});
  builder.add_router(q, "rq", {2, 2});
  auto built = std::move(builder).build();
  ASSERT_TRUE(built.ok());
  const net::Topology topo = std::move(built).value();

  // ProviderLeft -> Customer -> ProviderRight: the customer would be giving
  // free transit between its two providers. Must be rejected.
  const auto status = validate_as_path(topo, {p, c, q});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("valley"), std::string::npos);
}

TEST(ValleyFree, RejectsSecondPeerEdge) {
  net::Topology::Builder builder;
  const net::AsId a = builder.add_as("A");
  const net::AsId b = builder.add_as("B");
  const net::AsId c = builder.add_as("C");
  builder.relate(a, b, net::AsRelation::kPeer);
  builder.relate(b, c, net::AsRelation::kPeer);
  builder.add_router(a, "ra", {0, 0});
  builder.add_router(b, "rb", {1, 1});
  builder.add_router(c, "rc", {2, 2});
  auto built = std::move(builder).build();
  ASSERT_TRUE(built.ok());
  const net::Topology topo = std::move(built).value();

  // Two consecutive peer edges: B exports a peer route to a peer.
  const auto status = validate_as_path(topo, {a, b, c});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("peer"), std::string::npos);
}

TEST(ValleyFree, RejectsLoopAndUndeclaredAdjacency) {
  PolicyWorld w = PolicyWorld::build();
  EXPECT_FALSE(validate_as_path(w.topo, {w.a, w.p1, w.a}).ok());
  // a and p2 have no declared relationship.
  const auto status = validate_as_path(w.topo, {w.a, w.p2});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("undeclared"), std::string::npos);
}

TEST(ValleyFree, ValidatesExpandedNodeRoute) {
  PolicyWorld w = PolicyWorld::build();
  net::RouteTable routes(&w.topo);
  auto route = routes.route(w.ha, w.hb);
  ASSERT_TRUE(route.ok()) << route.error().message;
  const auto status = validate_route(w.topo, route.value());
  EXPECT_TRUE(status.ok()) << status.error().message;
  EXPECT_EQ(as_path_of_route(w.topo, route.value()),
            (std::vector<net::AsId>{w.a, w.p1, w.p2, w.b}));
}

TEST(ValleyFree, RejectsMalformedRoute) {
  PolicyWorld w = PolicyWorld::build();
  net::Route route;  // empty: invalid shape
  EXPECT_FALSE(validate_route(w.topo, route).ok());
}

}  // namespace
}  // namespace droute::check
