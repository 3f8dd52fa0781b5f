#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/contract.h"
#include "ctrl/controller.h"
#include "ctrl/cost.h"
#include "ctrl/estimator.h"
#include "ctrl/policy.h"
#include "ctrl/steering.h"
#include "ctrl/trace.h"
#include "net/fabric.h"
#include "scenario/north_america.h"
#include "sim/simulator.h"
#include "transfer/batch.h"
#include "transfer/sim_transport.h"
#include "util/units.h"

namespace droute::ctrl {
namespace {

// ------------------------------------------------------------- PathSpec ----

TEST(PathSpec, LabelsAndOrdering) {
  EXPECT_EQ(PathSpec{}.label(), "direct");
  EXPECT_TRUE(PathSpec{}.direct());
  EXPECT_EQ(PathSpec{}.relay_hops(), 0);
  const PathSpec one{{4}};
  const PathSpec chain{{4, 7}};
  EXPECT_EQ(one.label(), "via 4");
  EXPECT_EQ(chain.label(), "via 4>7");
  EXPECT_EQ(chain.relay_hops(), 2);
  EXPECT_FALSE(one == chain);
  EXPECT_TRUE(PathSpec{} < one);
  EXPECT_TRUE(one < chain);
}

// ------------------------------------------------------------ estimator ----

TEST(Estimator, FirstSampleInitializesWithoutSmearing) {
  PathEstimator est;
  const PathSpec direct;
  EXPECT_EQ(est.lookup(1, 2, direct), nullptr);
  est.observe(1, 2, direct, 40.0, 2.5, 3);
  const PathStats* st = est.lookup(1, 2, direct);
  ASSERT_NE(st, nullptr);
  EXPECT_DOUBLE_EQ(st->mean_mbps, 40.0);
  EXPECT_DOUBLE_EQ(st->var_mbps2, 0.0);
  EXPECT_DOUBLE_EQ(st->mean_elapsed_s, 2.5);
  EXPECT_EQ(st->samples, 1u);
  EXPECT_EQ(st->last_epoch, 3u);
  EXPECT_EQ(est.tracked_paths(), 1u);
}

TEST(Estimator, EwRecurrenceMatchesHandComputation) {
  // West (1979) with alpha = 0.5:
  //   x=10 -> mean 10, var 0
  //   x=20 -> diff 10, incr 5, mean 15, var 0.5*(0 + 10*5) = 25
  //   x=30 -> diff 15, incr 7.5, mean 22.5, var 0.5*(25 + 15*7.5) = 68.75
  PathEstimator est(EstimatorConfig{0.5});
  const PathSpec path{{9}};
  est.observe(1, 2, path, 10.0, 1.0, 1);
  est.observe(1, 2, path, 20.0, 2.0, 2);
  est.observe(1, 2, path, 30.0, 3.0, 3);
  const PathStats* st = est.lookup(1, 2, path);
  ASSERT_NE(st, nullptr);
  EXPECT_DOUBLE_EQ(st->mean_mbps, 22.5);
  EXPECT_DOUBLE_EQ(st->var_mbps2, 68.75);
  // EWMA elapsed: 1 -> 1.5 -> 2.25.
  EXPECT_DOUBLE_EQ(st->mean_elapsed_s, 2.25);
  EXPECT_EQ(st->samples, 3u);
  EXPECT_EQ(st->last_epoch, 3u);
}

TEST(Estimator, FlagTivsRequiresClearSeparation) {
  PathEstimator est(EstimatorConfig{0.3});
  const PathSpec relay{{9}};
  // Direct 20 Mbps, relay 100 Mbps, both with tight bars: a throughput TIV.
  for (int i = 0; i < 4; ++i) {
    est.observe(1, 2, PathSpec{}, 20.0, 4.0, i + 1);
    est.observe(1, 2, relay, 100.0, 1.0, i + 1);
  }
  const auto flags = est.flag_tivs();
  ASSERT_EQ(flags.size(), 1u);
  EXPECT_EQ(flags[0].client, 1);
  EXPECT_EQ(flags[0].provider, 2);
  EXPECT_EQ(flags[0].path, relay);
  EXPECT_GT(flags[0].path_mbps, flags[0].direct_mbps);
}

TEST(Estimator, FlagTivsStaysQuietOnOverlapOrMissingDirect) {
  PathEstimator est(EstimatorConfig{0.5});
  const PathSpec relay{{9}};
  // Relay sampled but direct never measured: no baseline, no flag.
  est.observe(1, 2, relay, 100.0, 1.0, 1);
  EXPECT_TRUE(est.flag_tivs().empty());
  // Direct with bars wide enough to overlap the relay: Sec III-B says the
  // benefit is unsure, so no TIV either.
  est.observe(1, 2, PathSpec{}, 40.0, 2.0, 1);
  est.observe(1, 2, PathSpec{}, 160.0, 2.0, 2);  // huge spread
  EXPECT_TRUE(est.flag_tivs().empty());
}

// ----------------------------------------------------------- cost model ----

TEST(Cost, DirectPathCarriesNoPremium) {
  const CostModel model;
  EXPECT_DOUBLE_EQ(extra_path_cost_usd(model, 0, util::kGB, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(session_cost_usd(model, 0, util::kGB, 100.0),
                   model.egress_usd_per_gb);
}

TEST(Cost, PremiumScalesWithHopsBytesAndOccupancy) {
  CostModel model;
  model.relay_usd_per_gb = 0.02;
  model.relay_rental_usd_per_hour = 0.50;
  // 1 GB over one relay hop occupying the chain for one hour:
  // 0.02 * 1 * 1 + 0.50 * 1 * 1 = 0.52.
  EXPECT_DOUBLE_EQ(extra_path_cost_usd(model, 1, 1'000'000'000ull, 3600.0),
                   0.52);
  // Two hops double both terms.
  EXPECT_DOUBLE_EQ(extra_path_cost_usd(model, 2, 1'000'000'000ull, 3600.0),
                   1.04);
}

TEST(Cost, NetBenefitWeighsTimeSavedAgainstPremium) {
  CostModel model;
  model.relay_usd_per_gb = 0.02;
  model.relay_rental_usd_per_hour = 0.50;
  model.value_usd_per_hour_saved = 10.0;
  // Saving half an hour on 1 GB via one hop: 10*0.5 - (0.02 + 0.50*0.25) = 4.855.
  EXPECT_NEAR(net_benefit_usd(model, 1, 1'000'000'000ull, 2700.0, 900.0),
              4.855, 1e-12);
  // A slower detour has strictly negative benefit: you pay AND lose time.
  EXPECT_LT(net_benefit_usd(model, 1, 1'000'000'000ull, 900.0, 2700.0), 0.0);
  // Direct against itself scores zero.
  EXPECT_DOUBLE_EQ(net_benefit_usd(model, 0, util::kGB, 900.0, 900.0), 0.0);
}

// --------------------------------------------------------------- policy ----

PathStats make_stats(double mean_mbps, double var_mbps2) {
  PathStats st;
  st.mean_mbps = mean_mbps;
  st.var_mbps2 = var_mbps2;
  st.samples = 5;
  return st;
}

TEST(Policy, OverlapKeepsDirectEvenWithBetterRelayMean) {
  SteeringPolicy policy(PolicyConfig{}, CostModel{});
  const PathStats direct = make_stats(50.0, 100.0);  // 50 +/- 10
  const PathStats relay = make_stats(55.0, 100.0);   // 55 +/- 10: overlap
  const std::vector<SteeringPolicy::Candidate> candidates = {
      {PathSpec{}, true, &direct},
      {PathSpec{{9}}, true, &relay},
  };
  const Decision decision = policy.decide(1, 100 * util::kMB, candidates, 1, 0.0);
  EXPECT_TRUE(decision.path.direct());
  EXPECT_TRUE(decision.routable);
  EXPECT_DOUBLE_EQ(decision.benefit_usd, 0.0);
}

TEST(Policy, SignificantCostPositiveRelayAdoptedImmediatelyOnFirstDecision) {
  SteeringPolicy policy(PolicyConfig{}, CostModel{});
  const PathStats direct = make_stats(20.0, 1.0);
  const PathStats relay = make_stats(200.0, 1.0);
  const std::vector<SteeringPolicy::Candidate> candidates = {
      {PathSpec{}, true, &direct},
      {PathSpec{{9}}, true, &relay},
  };
  const Decision decision = policy.decide(1, util::kGB, candidates, 1, 2.0);
  EXPECT_EQ(decision.path, PathSpec{{9}});
  EXPECT_GT(decision.benefit_usd, 0.0);
  EXPECT_DOUBLE_EQ(decision.expected_mbps, 200.0);
  EXPECT_EQ(policy.incumbent(1), PathSpec{{9}});
  EXPECT_NE(decision.reason.find("first decision"), std::string::npos);
}

TEST(Policy, DwellThenMarginGateSwitches) {
  PolicyConfig config;
  config.min_dwell_epochs = 2;
  config.switch_margin = 0.10;
  SteeringPolicy policy(config, CostModel{});
  const PathStats direct = make_stats(20.0, 1.0);
  const PathStats slow_relay = make_stats(100.0, 1.0);
  const PathStats fast_relay = make_stats(105.0, 1.0);  // < 10% over slow
  const PathSpec a{{8}};
  const PathSpec b{{9}};
  // Epoch 1: only relay A is known; adopted.
  const std::vector<SteeringPolicy::Candidate> only_a = {
      {PathSpec{}, true, &direct},
      {a, true, &slow_relay},
  };
  EXPECT_EQ(policy.decide(1, util::kGB, only_a, 1, 0.0).path, a);
  // Epoch 2: B shows up with the best benefit, but the dwell holds A.
  const std::vector<SteeringPolicy::Candidate> both = {
      {PathSpec{}, true, &direct},
      {a, true, &slow_relay},
      {b, true, &fast_relay},
  };
  const Decision dwell = policy.decide(1, util::kGB, both, 2, 10.0);
  EXPECT_EQ(dwell.path, a);
  EXPECT_FALSE(dwell.switched);
  EXPECT_NE(dwell.reason.find("dwell"), std::string::npos);
  // Epoch 3: dwell expired, but B is only ~5% faster — under the 10%
  // margin, so the incumbent still holds (no thrash on noise).
  const Decision margin = policy.decide(1, util::kGB, both, 3, 20.0);
  EXPECT_EQ(margin.path, a);
  EXPECT_NE(margin.reason.find("margin"), std::string::npos);
  // A genuinely faster B clears the margin and takes over.
  const PathStats much_faster = make_stats(200.0, 1.0);
  const std::vector<SteeringPolicy::Candidate> upgraded = {
      {PathSpec{}, true, &direct},
      {a, true, &slow_relay},
      {b, true, &much_faster},
  };
  const Decision switched = policy.decide(1, util::kGB, upgraded, 4, 30.0);
  EXPECT_EQ(switched.path, b);
  EXPECT_TRUE(switched.switched);
}

TEST(Policy, RelayIncumbentReturnsToDirectWhenNoLongerJustified) {
  PolicyConfig config;
  config.min_dwell_epochs = 1;
  SteeringPolicy policy(config, CostModel{});
  const PathStats direct = make_stats(20.0, 1.0);
  const PathStats relay = make_stats(200.0, 1.0);
  const PathSpec a{{8}};
  const std::vector<SteeringPolicy::Candidate> tiv = {
      {PathSpec{}, true, &direct},
      {a, true, &relay},
  };
  EXPECT_EQ(policy.decide(1, util::kGB, tiv, 1, 0.0).path, a);
  // The relay collapses into the direct path's error bars: conservatism
  // sends the client back to direct once the dwell expires.
  const PathStats collapsed = make_stats(22.0, 100.0);
  const std::vector<SteeringPolicy::Candidate> faded = {
      {PathSpec{}, true, &direct},
      {a, true, &collapsed},
  };
  const Decision decision = policy.decide(1, util::kGB, faded, 3, 20.0);
  EXPECT_TRUE(decision.path.direct());
  EXPECT_TRUE(decision.switched);
  EXPECT_NE(decision.reason.find("returning to direct"), std::string::npos);
}

TEST(Policy, EmergencyRerouteSkipsSignificanceWhenDirectIsDead) {
  SteeringPolicy policy(PolicyConfig{}, CostModel{});
  const PathStats relay = make_stats(30.0, 400.0);  // noisy, never "significant"
  const std::vector<SteeringPolicy::Candidate> candidates = {
      {PathSpec{}, false, nullptr},  // direct unroutable
      {PathSpec{{9}}, true, &relay},
  };
  const Decision decision = policy.decide(1, util::kGB, candidates, 1, 0.0);
  EXPECT_EQ(decision.path, PathSpec{{9}});
  EXPECT_TRUE(decision.routable);
  EXPECT_NE(decision.reason.find("emergency"), std::string::npos);
}

TEST(Policy, UnroutableIncumbentIsReplacedImmediately) {
  PolicyConfig config;
  config.min_dwell_epochs = 100;  // dwell must NOT protect a dead path
  SteeringPolicy policy(config, CostModel{});
  const PathStats direct = make_stats(20.0, 1.0);
  const PathStats relay = make_stats(200.0, 1.0);
  const PathSpec a{{8}};
  const std::vector<SteeringPolicy::Candidate> tiv = {
      {PathSpec{}, true, &direct},
      {a, true, &relay},
  };
  EXPECT_EQ(policy.decide(1, util::kGB, tiv, 1, 0.0).path, a);
  const std::vector<SteeringPolicy::Candidate> relay_dead = {
      {PathSpec{}, true, &direct},
      {a, false, &relay},
  };
  const Decision decision = policy.decide(1, util::kGB, relay_dead, 2, 10.0);
  EXPECT_TRUE(decision.path.direct());
  EXPECT_TRUE(decision.switched);
  EXPECT_NE(decision.reason.find("incumbent unroutable"), std::string::npos);
}

TEST(Policy, NothingRoutableFallsBackToDirectUnroutable) {
  SteeringPolicy policy(PolicyConfig{}, CostModel{});
  const std::vector<SteeringPolicy::Candidate> candidates = {
      {PathSpec{}, false, nullptr},
      {PathSpec{{9}}, false, nullptr},
  };
  const Decision decision = policy.decide(1, util::kGB, candidates, 4, 1.5);
  EXPECT_FALSE(decision.routable);
  EXPECT_TRUE(decision.path.direct());
  EXPECT_EQ(decision.reason, "no live path; direct fallback");
}

TEST(Policy, ResetClientForgetsTheIncumbent) {
  SteeringPolicy policy(PolicyConfig{}, CostModel{});
  const PathStats direct = make_stats(20.0, 1.0);
  const PathStats relay = make_stats(200.0, 1.0);
  const std::vector<SteeringPolicy::Candidate> candidates = {
      {PathSpec{}, true, &direct},
      {PathSpec{{9}}, true, &relay},
  };
  policy.decide(1, util::kGB, candidates, 1, 0.0);
  EXPECT_EQ(policy.incumbent(1), PathSpec{{9}});
  policy.reset_client(1);
  EXPECT_EQ(policy.incumbent(1), PathSpec{});
}

// ---------------------------------------------------------------- trace ----

/// Reference 64-bit FNV-1a over a whole string.
std::uint64_t fnv1a_of(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// One note of every line kind DecisionTrace writes.
void fill_every_line_kind(DecisionTrace& trace) {
  trace.note_epoch(1, 0.0, 3, 786432);
  trace.note_probe(1, PathSpec{{9}}, true, 87.5, 0.125, 1);
  trace.note_tiv(
      DecisionTrace::tiv_line_prefix(1, 2, PathSpec{{9}}, 87.5, 20.0), 1);
  Decision decision;
  decision.path = PathSpec{{9}};
  decision.epoch = 1;
  decision.at_s = 2.5;
  decision.expected_mbps = 87.5;
  decision.benefit_usd = 0.25;
  decision.switched = true;
  decision.reason = "relay significant and cost-positive; first decision";
  trace.note_steer(1, 64 * util::kMB, decision);
  trace.note_session(1, PathSpec{{9}}, true, 80.0, 6.7);
  trace.note_event(3.25, "link_fail");
}

TEST(Trace, SerializesDeterministicallyAndDigestsByteIdentity) {
  DecisionTrace a;
  DecisionTrace b;
  fill_every_line_kind(a);
  fill_every_line_kind(b);
  EXPECT_EQ(a.lines(), 6u);
  EXPECT_EQ(a.serialize(), b.serialize());
  EXPECT_EQ(a.fnv1a(), b.fnv1a());
  const std::string text = a.serialize();
  EXPECT_NE(text.find("# droute ctrl trace v1"), std::string::npos);
  EXPECT_NE(text.find("path=via 9"), std::string::npos);
  EXPECT_NE(text.find("switched"), std::string::npos);
  // One diverging note changes the digest.
  b.note_event(4.0, "policer_rewrite");
  EXPECT_NE(a.fnv1a(), b.fnv1a());
}

TEST(Trace, DigestIsFnv1aOfSerializedText) {
  DecisionTrace trace;
  EXPECT_EQ(trace.fnv1a(), fnv1a_of(trace.serialize()));
  fill_every_line_kind(trace);
  EXPECT_EQ(trace.fnv1a(), fnv1a_of(trace.serialize()));
}

// ----------------------------------------------------------- controller ----

/// Triangle world: client and provider joined by a slow direct inter-router
/// link (20 Mbps) while a relay host hangs off a fast (1000 Mbps) two-leg
/// path — the classic throughput TIV the controller is supposed to find.
struct TriWorld {
  net::Topology topo;
  net::RouteTable routes{nullptr};
  sim::Simulator simulator;
  std::unique_ptr<net::Fabric> fabric;
  std::unique_ptr<transfer::SimTransport> transport;
  std::unique_ptr<transfer::TransferEngine> xfer;
  net::NodeId client, relay, relay2, provider, rc, rr, rp;
  net::LinkId direct_link, access;

  explicit TriWorld(double direct_mbps = 20.0) {
    net::Topology::Builder builder;
    const net::AsId as = builder.add_as("AS");
    rc = builder.add_router(as, "rc", {49, -123});
    rr = builder.add_router(as, "rr", {51, -114});
    rp = builder.add_router(as, "rp", {47, -122});
    client = builder.add_host(as, "client", {49, -123});
    relay = builder.add_host(as, "relay", {51, -114});
    relay2 = builder.add_host(as, "relay2", {51, -114});
    provider = builder.add_host(as, "provider", {47, -122});
    access = builder.add_duplex(client, rc, 10000, 0.0005);
    builder.add_duplex(relay, rr, 10000, 0.0005);
    builder.add_duplex(relay2, rr, 10000, 0.0005);
    builder.add_duplex(provider, rp, 10000, 0.0005);
    // Intra-AS routing is Dijkstra over delay: the direct link is the
    // latency-best route (so routing picks it) but throughput-poor, while
    // the relay detour rides two fast, higher-delay legs — the paper's
    // throughput TIV in miniature.
    direct_link = builder.add_duplex(rc, rp, direct_mbps, 0.004);
    builder.add_duplex(rc, rr, 1000, 0.01);
    builder.add_duplex(rr, rp, 1000, 0.01);
    auto built = std::move(builder).build();
    EXPECT_TRUE(built.ok());
    topo = std::move(built).value();
    routes = net::RouteTable(&topo);
    fabric = std::make_unique<net::Fabric>(&simulator, &topo, &routes);
    transport = std::make_unique<transfer::SimTransport>(fabric.get());
    xfer = std::make_unique<transfer::TransferEngine>(transport.get());
  }

  ControllerConfig fast_config() const {
    ControllerConfig config;
    config.epoch_s = 5.0;
    // Probes big enough that slow start does not drown the capacity signal
    // (a 256 KB probe over a 1000 Mbps leg measures mostly RTT).
    config.probe_bytes = 2 * util::kMB;
    config.probe_budget_bytes = 16 * util::kMB;
    return config;
  }
};

// Probe legs are single-request batches on the world's TransferEngine:
// stopping the controller mid-epoch settles every one of them.
TEST(Controller, StopSettlesInFlightProbeBatches) {
  scenario::WorldConfig config;
  config.cross_traffic = false;
  auto world = scenario::World::create(config);
  Controller& controller =
      world->make_controller(cloud::ProviderKind::kGoogleDrive);
  controller.start();
  while (world->fabric().active_flow_count() == 0 &&
         world->simulator().step()) {
  }
  ASSERT_GT(world->fabric().active_flow_count(), 0u);
  EXPECT_GT(world->transfer_engine().batches_inflight(), 0u);

  controller.stop();
  world->simulator().run();
  EXPECT_EQ(world->transfer_engine().batches_inflight(), 0u);
  EXPECT_EQ(world->fabric().active_flow_count(), 0u);
  EXPECT_EQ(world->simulator().pending(), 0u);
}

TEST(Controller, EnumeratesCandidatePathsDeterministically) {
  TriWorld world;
  Controller controller(world.simulator, *world.xfer, world.routes,
                        world.fast_config());
  controller.set_provider(world.provider);
  controller.add_client(world.client);
  controller.add_relay(world.relay);
  controller.add_relay(world.relay2);
  const auto paths = controller.candidate_paths(world.client);
  const std::vector<PathSpec> expected = {
      PathSpec{},
      PathSpec{{world.relay}},
      PathSpec{{world.relay2}},
      PathSpec{{world.relay, world.relay2}},
      PathSpec{{world.relay2, world.relay}},
  };
  EXPECT_EQ(paths, expected);
  EXPECT_TRUE(controller.path_routable(world.client, PathSpec{}));
  EXPECT_TRUE(
      controller.path_routable(world.client, PathSpec{{world.relay}}));
}

TEST(Controller, LearnsTheTivAndSteersOntoTheRelay) {
  TriWorld world;
  Controller controller(world.simulator, *world.xfer, world.routes,
                        world.fast_config());
  controller.set_provider(world.provider);
  controller.add_client(world.client);
  controller.add_relay(world.relay);
  controller.start();
  world.simulator.run_until(26.0);
  EXPECT_GE(controller.epoch(), 4u);

  // Estimates exist for both paths and the relay is flagged as a TIV.
  const PathStats* direct =
      controller.estimator().lookup(world.client, world.provider, PathSpec{});
  const PathStats* relayed = controller.estimator().lookup(
      world.client, world.provider, PathSpec{{world.relay}});
  ASSERT_NE(direct, nullptr);
  ASSERT_NE(relayed, nullptr);
  EXPECT_GT(relayed->mean_mbps, direct->mean_mbps);
  EXPECT_FALSE(controller.estimator().flag_tivs().empty());

  // A big session gets steered onto the relay with positive net benefit.
  const Decision decision = controller.steer(world.client, 200 * util::kMB);
  EXPECT_TRUE(decision.routable);
  EXPECT_EQ(decision.path, PathSpec{{world.relay}});
  EXPECT_GT(decision.benefit_usd, 0.0);
  EXPECT_GT(decision.expected_mbps, direct->mean_mbps);

  controller.stop();
  world.simulator.run();
}

TEST(Controller, NetworkEventForcesAnImmediateEpoch) {
  TriWorld world;
  Controller controller(world.simulator, *world.xfer, world.routes,
                        world.fast_config());
  controller.set_provider(world.provider);
  controller.add_client(world.client);
  controller.add_relay(world.relay);
  controller.start();
  world.simulator.run_until(1.0);
  const std::uint64_t before = controller.epoch();
  controller.on_network_event("link_fail");
  EXPECT_EQ(controller.epoch(), before + 1);
  EXPECT_NE(controller.trace().serialize().find("link_fail"),
            std::string::npos);
  controller.stop();
  world.simulator.run();
}

TEST(Controller, DeadAccessLinkYieldsUnroutableDecision) {
  TriWorld world;
  Controller controller(world.simulator, *world.xfer, world.routes,
                        world.fast_config());
  controller.set_provider(world.provider);
  controller.add_client(world.client);
  controller.add_relay(world.relay);
  controller.start();
  world.simulator.run_until(11.0);
  // Sever the client's only access link: every candidate dies at leg one.
  world.fabric->fail_link(world.access);
  EXPECT_FALSE(controller.path_routable(world.client, PathSpec{}));
  EXPECT_FALSE(
      controller.path_routable(world.client, PathSpec{{world.relay}}));
  const Decision decision = controller.steer(world.client, 64 * util::kMB);
  EXPECT_FALSE(decision.routable);
  EXPECT_TRUE(decision.path.direct());
  controller.stop();
  world.simulator.run();
}

TEST(Controller, SameSeedRunsProduceByteIdenticalTraces) {
  auto run_stack = []() {
    TriWorld world;
    Controller controller(world.simulator, *world.xfer, world.routes,
                          world.fast_config());
    controller.set_provider(world.provider);
    controller.add_client(world.client);
    controller.add_relay(world.relay);
    controller.add_relay(world.relay2);
    controller.start();
    world.simulator.run_until(16.0);
    const Decision first = controller.steer(world.client, 64 * util::kMB);
    controller.observe_session(world.client, first, 64 * util::kMB, 3.0,
                               true);
    world.simulator.run_until(27.0);
    controller.steer(world.client, 256 * util::kMB);
    controller.stop();
    world.simulator.run();
    return controller.trace().serialize();
  };
  const std::string first = run_stack();
  const std::string second = run_stack();
  EXPECT_GT(first.size(), 100u);
  EXPECT_EQ(first, second);  // byte-identical, the determinism contract
}

TEST(Controller, DecisionHookSeesEverySteerForDeadSteerAuditing) {
  TriWorld world;
  Controller controller(world.simulator, *world.xfer, world.routes,
                        world.fast_config());
  controller.set_provider(world.provider);
  controller.add_client(world.client);
  controller.add_relay(world.relay);
  std::size_t hooked = 0;
  controller.set_decision_hook(
      [&](net::NodeId client, const Decision& decision) {
        ++hooked;
        EXPECT_EQ(client, world.client);
        // The live re-validation the chaos harness performs: routable
        // decisions must name a path whose every leg still routes.
        if (decision.routable) {
          EXPECT_TRUE(controller.path_routable(client, decision.path));
        }
      });
  controller.start();
  world.simulator.run_until(11.0);
  controller.steer(world.client, 32 * util::kMB);
  controller.steer(world.client, 32 * util::kMB);
  EXPECT_EQ(hooked, 2u);
  controller.stop();
  world.simulator.run();
}

TEST(Controller, SilentBottleneckShiftMovesSteerOffTheRelay) {
  // A bottleneck appears on the relay's first leg with no network event:
  // only the controller's own probes can notice it. The config is
  // examples/online_detour's.
  scenario::WorldConfig world_config;
  world_config.cross_traffic = false;
  auto world = scenario::World::create(world_config);
  ControllerConfig config;
  config.epoch_s = 5.0;
  config.probe_budget_bytes = 8 * util::kMB;
  config.max_relay_hops = 1;
  Controller& controller =
      world->make_controller(cloud::ProviderKind::kGoogleDrive, config);
  const net::NodeId ubc = world->client_node(scenario::Client::kUBC);
  const PathSpec via_ualberta{
      {world->intermediate_node(scenario::Intermediate::kUAlberta)}};
  sim::Simulator& simulator = world->simulator();

  controller.start();
  simulator.run_until(simulator.now() + 12.0);
  ASSERT_EQ(controller.steer(ubc, 50 * util::kMB).path, via_ualberta);

  // Choke the UAlberta campus uplink both ways; on_network_event is not
  // called, so the estimator keeps its stale relay mean until re-probed.
  const net::NodeId gsb = world->node("gsb-asr-core1.backbone.ualberta.ca");
  const net::NodeId cybera = world->node("uofa-p-1-edm.cybera.ca");
  for (const auto& [from, to] :
       {std::pair{gsb, cybera}, std::pair{cybera, gsb}}) {
    const auto link = world->topology().find_link(from, to);
    ASSERT_TRUE(link.has_value());
    ASSERT_TRUE(world->topology().set_link_capacity(*link, 2.0).ok());
  }
  world->fabric().reallocate_now();
  const std::uint64_t fault_epoch = controller.epoch();

  // Back to direct within three epochs, and it stays there.
  std::optional<std::uint64_t> direct_at;
  for (int step = 0; step < 12; ++step) {
    simulator.run_until(simulator.now() + config.epoch_s);
    const Decision decision = controller.steer(ubc, 50 * util::kMB);
    if (direct_at.has_value()) {
      EXPECT_TRUE(decision.path.direct()) << "flapped back at epoch "
                                          << decision.epoch;
    } else if (decision.path.direct()) {
      direct_at = decision.epoch;
    }
  }
  ASSERT_TRUE(direct_at.has_value());
  EXPECT_LE(*direct_at, fault_epoch + 3);
  controller.stop();
}

/// The trace's lines, header dropped.
std::vector<std::string> trace_lines(const DecisionTrace& trace) {
  std::vector<std::string> lines;
  const std::string text = trace.serialize();
  std::size_t start = text.find('\n') + 1;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

TEST(Controller, CachedEpochsMatchTheUncachedReference) {
  // Route churn the controller is never told about (a link fail/restore
  // through the fabric, then a route withdraw/announce straight on the
  // topology), checked epoch by epoch against a reference rebuilt from the
  // public oracles: candidate_paths(), path_routable() and the estimator's
  // keyed lookup()/flag_tivs().
  TriWorld world;
  const ControllerConfig config = world.fast_config();
  Controller controller(world.simulator, *world.xfer, world.routes, config);
  controller.set_provider(world.provider);
  controller.add_client(world.client);
  controller.add_relay(world.relay);
  controller.add_relay(world.relay2);
  const auto relay_uplink = world.topo.find_link(world.relay, world.rr);
  ASSERT_TRUE(relay_uplink.has_value());

  struct Expected {
    std::vector<std::string> probes;  // labels, stalest-first launch order
    std::uint64_t spent = 0;
    std::vector<std::string> tivs;    // tiv lines, in order
  };
  const auto reference = [&](std::uint64_t epoch) {
    Expected out;
    std::vector<std::pair<PathSpec, std::uint64_t>> work;
    for (const PathSpec& path : controller.candidate_paths(world.client)) {
      if (!controller.path_routable(world.client, path)) continue;
      const PathStats* stats =
          controller.estimator().lookup(world.client, world.provider, path);
      work.emplace_back(path, stats == nullptr ? 0 : stats->last_epoch);
    }
    std::stable_sort(work.begin(), work.end(),
                     [](const auto& a, const auto& b) {
                       return a.second < b.second;
                     });
    for (const auto& [path, last_epoch] : work) {
      (void)last_epoch;
      const std::uint64_t cost =
          config.probe_bytes *
          static_cast<std::uint64_t>(path.relay_hops() + 1);
      if (out.spent + cost > config.probe_budget_bytes) break;
      out.spent += cost;
      out.probes.push_back(path.label());
    }
    for (const TivFlag& flag :
         controller.estimator().flag_tivs(config.policy.significance)) {
      out.tivs.push_back(DecisionTrace::tiv_line_prefix(
                             flag.client, flag.provider, flag.path,
                             flag.path_mbps, flag.direct_mbps) +
                         std::to_string(epoch));
    }
    return out;
  };

  constexpr std::uint64_t kEpochs = 12;
  std::vector<Expected> expected;
  std::size_t unroutable_epochs = 0;
  for (std::uint64_t epoch = 1; epoch <= kEpochs; ++epoch) {
    const double at = static_cast<double>(epoch - 1) * config.epoch_s;
    if (epoch > 1) {
      // Churn half an epoch before the tick, with no on_network_event.
      world.simulator.run_until(at - 0.5 * config.epoch_s);
      if (epoch == 4) world.fabric->fail_link(world.access);
      if (epoch == 6) world.fabric->restore_link(world.access);
      if (epoch == 8 || epoch == 10) {
        ASSERT_TRUE(
            world.topo.set_link_enabled(*relay_uplink, epoch == 10).ok());
        world.routes.invalidate();
      }
      world.simulator.run_until(at - 0.1);
    }
    ASSERT_EQ(controller.epoch(), epoch - 1);
    expected.push_back(reference(epoch));
    if (expected.back().probes.empty()) ++unroutable_epochs;
    if (epoch == 1) controller.start();  // epoch 1 runs at t = 0
    world.simulator.run_until(at + 0.1);
    ASSERT_EQ(controller.epoch(), epoch);
  }
  // Let the last epoch's probes land before the probe lines are compared.
  world.simulator.run_until(static_cast<double>(kEpochs) * config.epoch_s -
                            0.1);
  controller.stop();
  world.simulator.run();
  EXPECT_GE(unroutable_epochs, 2u);

  const std::vector<std::string> lines = trace_lines(controller.trace());
  std::size_t tiv_lines = 0;
  for (std::uint64_t epoch = 1; epoch <= kEpochs; ++epoch) {
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    const Expected& want = expected[epoch - 1];
    const std::string suffix = " epoch=" + std::to_string(epoch);
    const std::string epoch_head = "epoch " + std::to_string(epoch) + " ";
    std::vector<std::string> probes;
    std::vector<std::string> tivs;
    std::string epoch_line;
    for (const std::string& line : lines) {
      if (line.rfind(epoch_head, 0) == 0) epoch_line = line;
      if (!ends_with(line, suffix)) continue;
      if (line.rfind("tiv ", 0) == 0) tivs.push_back(line);
      if (line.rfind("probe ", 0) == 0) {
        const std::size_t from = line.find(" path=") + 6;
        const std::size_t to = line.find(line.find(" ok ", from) ==
                                                  std::string::npos
                                              ? " fail "
                                              : " ok ",
                                          from);
        probes.push_back(line.substr(from, to - from));
      }
    }
    EXPECT_EQ(tivs, want.tivs);
    tiv_lines += tivs.size();
    EXPECT_NE(epoch_line.find(" probes=" + std::to_string(want.probes.size()) +
                              " budget_spent=" + std::to_string(want.spent)),
              std::string::npos)
        << epoch_line;
    // Probe lines land at completion; compare them as a multiset.
    std::vector<std::string> launched = want.probes;
    std::sort(launched.begin(), launched.end());
    std::sort(probes.begin(), probes.end());
    EXPECT_EQ(probes, launched);
  }
  EXPECT_GT(tiv_lines, 0u);
}

TEST(Controller, SteerForAnUnregisteredClientFailsItsCheck) {
  TriWorld world;
  Controller controller(world.simulator, *world.xfer, world.routes,
                        world.fast_config());
  controller.set_provider(world.provider);
  controller.add_client(world.client);
  controller.add_relay(world.relay);
  controller.start();
  EXPECT_THROW((void)controller.steer(world.relay, util::kMB),
               check::CheckError);
  // Clients and relays are fixed once the candidate table is built.
  EXPECT_THROW(controller.add_client(world.relay2), check::CheckError);
  EXPECT_THROW(controller.add_relay(world.relay2), check::CheckError);
  EXPECT_TRUE(controller.steer(world.client, util::kMB).routable);
  controller.stop();
  world.simulator.run();
}

TEST(StaticSteering, PinsItsPath) {
  StaticSteering direct;
  EXPECT_TRUE(direct.steer(1, util::kMB).path.direct());
  StaticSteering pinned(PathSpec{{7}});
  const Decision decision = pinned.steer(1, util::kMB);
  EXPECT_EQ(decision.path, PathSpec{{7}});
  EXPECT_EQ(decision.reason, "static");
}

}  // namespace
}  // namespace droute::ctrl
