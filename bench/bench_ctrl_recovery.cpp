// bench_ctrl_recovery: does the online control plane earn its keep when the
// network misbehaves? Four arms replay the SAME seeded chaos storm — a
// direct-link flap, a policer rewrite on one relay leg, diurnal cross
// traffic on the other — against an identical session schedule:
//
//   static-direct   every session pinned to the direct path (the paper's
//                   default-route baseline),
//   static-via-R1 / static-via-R2
//                   every session pinned to one DTN relay,
//   controller      ctrl::Controller probing, flagging TIVs and steering
//                   online.
//
// The omniscient oracle takes, per session, the best static arm — the
// throughput a scheduler with perfect foresight (but the same path menu)
// would have achieved. The acceptance gate, checked in-binary: controller
// mean throughput >= 70% of the oracle's, while static-direct lands
// materially lower. Emits BENCH_ctrl.json (droute-bench-v1), tracked
// against bench/baselines/BENCH_ctrl.json in nightly CI.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "chaos/injector.h"
#include "chaos/plan.h"
#include "ctrl/controller.h"
#include "ctrl/steering.h"
#include "harness.h"
#include "net/fabric.h"
#include "net/routing.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "transfer/batch.h"
#include "transfer/sim_transport.h"
#include "util/units.h"

namespace droute::bench {
namespace {

constexpr int kSessions = 24;
constexpr double kSessionSpacingS = 10.0;
constexpr double kFirstSessionS = 5.0;
constexpr std::uint64_t kSessionBytes = 32 * util::kMB;
constexpr double kHorizonS = 400.0;

/// Diamond world: the direct inter-router link is latency-best (so Dijkstra
/// routes onto it) but slow; two DTN relays each ride an independent pair
/// of fast, higher-delay legs. The miniature of the paper's throughput TIV.
struct RecoveryWorld {
  net::Topology topo;
  net::RouteTable routes{nullptr};
  sim::Simulator simulator;
  std::unique_ptr<net::Fabric> fabric;
  std::unique_ptr<transfer::SimTransport> transport;
  std::unique_ptr<transfer::TransferEngine> xfer;
  net::NodeId client, relay_a, relay_b, provider;
  net::LinkId direct_link, relay_a_leg, relay_b_leg;

  RecoveryWorld() {
    net::Topology::Builder builder;
    const net::AsId as = builder.add_as("AS");
    const net::NodeId rc = builder.add_router(as, "rc", {49, -123});
    const net::NodeId r1 = builder.add_router(as, "r1", {51, -114});
    const net::NodeId r2 = builder.add_router(as, "r2", {42, -83});
    const net::NodeId rp = builder.add_router(as, "rp", {47, -122});
    client = builder.add_host(as, "client", {49, -123});
    relay_a = builder.add_host(as, "relayA", {51, -114});
    relay_b = builder.add_host(as, "relayB", {42, -83});
    provider = builder.add_host(as, "provider", {47, -122});
    builder.add_duplex(client, rc, 10000, 0.0005);
    builder.add_duplex(relay_a, r1, 10000, 0.0005);
    builder.add_duplex(relay_b, r2, 10000, 0.0005);
    builder.add_duplex(provider, rp, 10000, 0.0005);
    direct_link = builder.add_duplex(rc, rp, 25, 0.004);
    builder.add_duplex(rc, r1, 1000, 0.01);
    relay_a_leg = builder.add_duplex(r1, rp, 1000, 0.01);
    builder.add_duplex(rc, r2, 1000, 0.012);
    relay_b_leg = builder.add_duplex(r2, rp, 1000, 0.012);
    auto built = std::move(builder).build();
    if (!built.ok()) {
      std::fprintf(stderr, "recovery topology failed: %s\n",
                   built.error().message.c_str());
      std::exit(1);
    }
    topo = std::move(built).value();
    routes = net::RouteTable(&topo);
    fabric = std::make_unique<net::Fabric>(&simulator, &topo, &routes);
    transport = std::make_unique<transfer::SimTransport>(fabric.get());
    xfer = std::make_unique<transfer::TransferEngine>(transport.get());
  }
};

/// The seeded storm every arm replays: flap the direct link, police relay
/// A's egress leg, run diurnal cross traffic over relay B's.
chaos::Plan storm(const RecoveryWorld& world) {
  chaos::Plan plan;
  plan.seed = 2016;
  plan.events = {
      {40.0, chaos::EventKind::kLinkFail, world.direct_link, 0.0},
      {60.0, chaos::EventKind::kDiurnalTraffic, world.relay_b_leg, 0.5},
      {80.0, chaos::EventKind::kLinkRestore, world.direct_link, 0.0},
      {100.0, chaos::EventKind::kPolicerRewrite, world.relay_a_leg, 15.0},
      {160.0, chaos::EventKind::kPolicerRewrite, world.relay_a_leg, 0.0},
  };
  return plan;
}

/// One upload session: ask the steering source for a path at start_s, run
/// the legs store-and-forward, record end-to-end goodput (0 on any failed
/// leg) and feed the outcome back.
sim::Task<void> session(sim::Simulator& simulator,
                        transfer::TransferEngine& xfer,
                        ctrl::Steering& steering, net::NodeId client,
                        net::NodeId provider, double start_s,
                        double* out_mbps) {
  auto wake = sim::delay_until(simulator, start_s);
  if (!co_await wake) co_return;
  const ctrl::Decision decision = steering.steer(client, kSessionBytes);
  const double start = simulator.now();
  std::vector<net::NodeId> hops;
  hops.push_back(client);
  hops.insert(hops.end(), decision.path.relays.begin(),
              decision.path.relays.end());
  hops.push_back(provider);
  bool ok = decision.routable;
  for (std::size_t i = 0; ok && i + 1 < hops.size(); ++i) {
    transfer::TransferRequest request;
    request.source_node = hops[i];
    request.target_id = xfer.ensure_node_segment(hops[i + 1]);
    request.length = kSessionBytes;
    request.label = "bench.ctrl_session";
    auto leg = xfer.submit(std::move(request));
    if (!co_await leg) ok = false;
  }
  const double elapsed = simulator.now() - start;
  *out_mbps = ok && elapsed > 0.0
                  ? static_cast<double>(kSessionBytes) * 8e-6 / elapsed
                  : 0.0;
  steering.observe_session(client, decision, kSessionBytes, elapsed, ok);
  co_return;
}

enum class Arm { kStaticDirect, kStaticViaA, kStaticViaB, kController };

std::vector<double> run_arm(Arm arm) {
  RecoveryWorld world;
  chaos::Injector injector({&world.simulator, world.fabric.get(), &world.topo,
                            &world.routes, {}});

  std::unique_ptr<ctrl::Controller> controller;
  std::unique_ptr<ctrl::StaticSteering> fixed;
  ctrl::Steering* steering = nullptr;
  switch (arm) {
    case Arm::kStaticDirect:
      fixed = std::make_unique<ctrl::StaticSteering>();
      break;
    case Arm::kStaticViaA:
      fixed = std::make_unique<ctrl::StaticSteering>(
          ctrl::PathSpec{{world.relay_a}});
      break;
    case Arm::kStaticViaB:
      fixed = std::make_unique<ctrl::StaticSteering>(
          ctrl::PathSpec{{world.relay_b}});
      break;
    case Arm::kController: {
      ctrl::ControllerConfig config;
      config.epoch_s = 5.0;
      config.probe_bytes = 2 * util::kMB;
      config.probe_budget_bytes = 16 * util::kMB;
      config.max_relay_hops = 1;
      controller = std::make_unique<ctrl::Controller>(
          world.simulator, *world.xfer, world.routes, config);
      controller->set_provider(world.provider);
      controller->add_client(world.client);
      controller->add_relay(world.relay_a);
      controller->add_relay(world.relay_b);
      injector.set_post_apply([&controller](const chaos::Event& event) {
        controller->on_network_event(chaos::event_kind_name(event.kind));
      });
      controller->start();
      break;
    }
  }
  steering = controller != nullptr
                 ? static_cast<ctrl::Steering*>(controller.get())
                 : fixed.get();

  injector.arm(storm(world));

  std::vector<double> mbps(kSessions, 0.0);
  std::vector<sim::Task<void>> sessions;
  sessions.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(session(world.simulator, *world.xfer, *steering,
                               world.client, world.provider,
                               kFirstSessionS + kSessionSpacingS * i,
                               &mbps[static_cast<std::size_t>(i)]));
  }
  world.simulator.run_until(kHorizonS);
  if (controller != nullptr) controller->stop();
  if (controller != nullptr &&
      std::getenv("DROUTE_BENCH_CTRL_DEBUG") != nullptr) {
    std::fprintf(stderr, "%s", controller->trace().serialize().c_str());
  }
  for (auto& task : sessions) {
    if (!task.done()) task.cancel();
  }
  world.simulator.run();
  return mbps;
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

DROUTE_BENCH(recovery_storm, "ms") {
  ctx.set_events(kSessions * 4);  // four arms replay the session schedule
  ctx.set_work([&ctx] {
    const std::vector<double> direct = run_arm(Arm::kStaticDirect);
    const std::vector<double> via_a = run_arm(Arm::kStaticViaA);
    const std::vector<double> via_b = run_arm(Arm::kStaticViaB);
    const std::vector<double> steered = run_arm(Arm::kController);

    // The omniscient oracle: per session, the best static arm.
    std::vector<double> oracle(kSessions, 0.0);
    for (int i = 0; i < kSessions; ++i) {
      const auto slot = static_cast<std::size_t>(i);
      oracle[slot] =
          std::max({direct[slot], via_a[slot], via_b[slot]});
    }

    if (std::getenv("DROUTE_BENCH_CTRL_DEBUG") != nullptr) {
      for (int i = 0; i < kSessions; ++i) {
        const auto slot = static_cast<std::size_t>(i);
        std::fprintf(stderr,
                     "session %2d t=%5.1f direct=%7.2f viaA=%7.2f "
                     "viaB=%7.2f ctrl=%7.2f\n",
                     i, kFirstSessionS + kSessionSpacingS * i, direct[slot],
                     via_a[slot], via_b[slot], steered[slot]);
      }
    }
    const double oracle_mean = mean(oracle);
    const double ctrl_ratio = mean(steered) / oracle_mean;
    const double direct_ratio = mean(direct) / oracle_mean;
    ctx.extra("sessions", kSessions);
    ctx.extra("oracle_mean_mbps", oracle_mean);
    ctx.extra("ctrl_mean_mbps", mean(steered));
    ctx.extra("direct_mean_mbps", mean(direct));
    ctx.extra("ctrl_vs_oracle_ratio", ctrl_ratio);
    ctx.extra("direct_vs_oracle_ratio", direct_ratio);

    // The acceptance gate: steering must recover >= 70% of what perfect
    // foresight gets, and the static default must be materially worse —
    // otherwise the whole control plane is dead weight.
    if (ctrl_ratio < 0.70) {
      std::fprintf(stderr,
                   "controller recovered only %.1f%% of oracle throughput "
                   "(gate: 70%%)\n",
                   100.0 * ctrl_ratio);
      std::exit(1);
    }
    if (direct_ratio > 0.60) {
      std::fprintf(stderr,
                   "static-direct at %.1f%% of oracle — the storm is not "
                   "punishing the default route (gate: <= 60%%)\n",
                   100.0 * direct_ratio);
      std::exit(1);
    }
  });
}

}  // namespace
}  // namespace droute::bench

int main(int argc, char** argv) {
  return droute::bench::bench_main(argc, argv, "BENCH_ctrl.json");
}
