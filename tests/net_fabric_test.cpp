#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <optional>

#include "check/contract.h"
#include "check/fabric_audit.h"
#include "check/sim_audit.h"
#include "net/cross_traffic.h"
#include "net/fabric.h"
#include "util/rng.h"
#include "util/units.h"

namespace droute::net {
namespace {

/// Dumbbell: a1,a2,a3 -- left -- (shared 100 Mbps) -- right -- b1,b2,b3.
struct Dumbbell {
  Topology topo;
  RouteTable routes{nullptr};
  sim::Simulator simulator;
  std::unique_ptr<Fabric> fabric;
  // Watches the clock on every event when debug checks are on (the default;
  // DROUTE_DEBUG_CHECKS=0 disables for profiling runs).
  std::optional<check::SimAuditor> auditor;
  NodeId a[3], b[3], left, right;
  LinkId shared;

  /// Asserts the fabric conservation laws (capacity + byte ledger).
  void audit() const {
    if (!check::debug_checks_enabled()) return;
    const auto status = check::audit_fabric(*fabric);
    EXPECT_TRUE(status.ok()) << status.error().message;
  }

  /// Asserts the simulator drained without leaking events.
  void audit_drained() const {
    if (!check::debug_checks_enabled() || !auditor.has_value()) return;
    const auto status = auditor->audit_quiescent();
    EXPECT_TRUE(status.ok()) << status.error().message;
  }

  Dumbbell(double shared_mbps = 100.0, double loss = 0.0) {
    Topology::Builder builder;
    const AsId as = builder.add_as("AS");
    left = builder.add_router(as, "left", {50, -100});
    right = builder.add_router(as, "right", {50, -99});
    for (int i = 0; i < 3; ++i) {
      a[i] = builder.add_host(as, "a" + std::to_string(i), {50, -100});
      b[i] = builder.add_host(as, "b" + std::to_string(i), {50, -99});
      builder.add_duplex(a[i], left, 10000, 0.0005);
      builder.add_duplex(right, b[i], 10000, 0.0005);
    }
    shared = builder.add_duplex(left, right, shared_mbps, 0.005,
                                {.loss_rate = loss});
    auto built = std::move(builder).build();
    EXPECT_TRUE(built.ok());
    topo = std::move(built).value();
    routes = RouteTable(&topo);
    fabric = std::make_unique<Fabric>(&simulator, &topo, &routes);
    if (check::debug_checks_enabled()) auditor.emplace(&simulator);
  }
};

TEST(Fabric, SingleFlowGetsBottleneckRate) {
  Dumbbell world(100.0);
  FlowStats finished;
  FlowOptions options;
  options.charge_slow_start = false;
  auto flow = world.fabric->start_flow(
      world.a[0], world.b[0], 100 * util::kMB,
      [&](const FlowStats& stats) { finished = stats; }, options);
  ASSERT_TRUE(flow.ok());
  world.simulator.run();
  EXPECT_EQ(finished.outcome, FlowOutcome::kCompleted);
  // 100 MB at 100 Mbps = 8 s.
  EXPECT_NEAR(finished.duration_s(), 8.0, 0.05);
  EXPECT_NEAR(finished.achieved_mbps(), 100.0, 1.0);
  world.audit();
  world.audit_drained();
}

TEST(Fabric, TwoFlowsShareFairly) {
  Dumbbell world(100.0);
  std::map<FlowId, FlowStats> done;
  FlowOptions options;
  options.charge_slow_start = false;
  for (int i = 0; i < 2; ++i) {
    auto flow = world.fabric->start_flow(
        world.a[i], world.b[i], 50 * util::kMB,
        [&](const FlowStats& stats) { done[stats.id] = stats; }, options);
    ASSERT_TRUE(flow.ok());
  }
  world.simulator.run();
  ASSERT_EQ(done.size(), 2u);
  // Two equal flows at 50 Mbps each: both finish ~8 s.
  for (const auto& [id, stats] : done) {
    EXPECT_NEAR(stats.duration_s(), 8.0, 0.1);
  }
  world.audit();
  world.audit_drained();
}

TEST(Fabric, ShortFlowDepartureSpeedsUpSurvivor) {
  Dumbbell world(100.0);
  FlowStats long_flow{}, short_flow{};
  FlowOptions options;
  options.charge_slow_start = false;
  ASSERT_TRUE(world.fabric
                  ->start_flow(world.a[0], world.b[0], 100 * util::kMB,
                               [&](const FlowStats& s) { long_flow = s; },
                               options)
                  .ok());
  ASSERT_TRUE(world.fabric
                  ->start_flow(world.a[1], world.b[1], 25 * util::kMB,
                               [&](const FlowStats& s) { short_flow = s; },
                               options)
                  .ok());
  world.simulator.run();
  // Short: 25 MB at 50 Mbps = 4 s. Long: 4 s at 50 + remaining 75 MB at
  // 100 Mbps = 4 + 6 = 10 s.
  EXPECT_NEAR(short_flow.duration_s(), 4.0, 0.1);
  EXPECT_NEAR(long_flow.duration_s(), 10.0, 0.1);
}

TEST(Fabric, PerFlowCapLeavesHeadroomForOthers) {
  Dumbbell world(100.0);
  // Flow 0 is app-capped at 20 Mbps; flow 1 should get the remaining 80.
  FlowOptions capped;
  capped.charge_slow_start = false;
  capped.app_cap_mbps = 20.0;
  FlowOptions open;
  open.charge_slow_start = false;
  FlowStats f0{}, f1{};
  ASSERT_TRUE(world.fabric
                  ->start_flow(world.a[0], world.b[0], 10 * util::kMB,
                               [&](const FlowStats& s) { f0 = s; }, capped)
                  .ok());
  ASSERT_TRUE(world.fabric
                  ->start_flow(world.a[1], world.b[1], 40 * util::kMB,
                               [&](const FlowStats& s) { f1 = s; }, open)
                  .ok());
  world.simulator.run();
  EXPECT_NEAR(f0.duration_s(), 4.0, 0.1);   // 10 MB at 20 Mbps
  EXPECT_NEAR(f1.duration_s(), 4.0, 0.1);   // 40 MB at 80 Mbps
}

TEST(Fabric, MaxMinWaterFillingInvariants) {
  // Three concurrent flows with caps 10/50/uncapped on a 90 Mbps link:
  // allocation must be 10 / 40 / 40 (water level 40).
  Dumbbell world(90.0);
  FlowOptions o1, o2, o3;
  o1.charge_slow_start = o2.charge_slow_start = o3.charge_slow_start = false;
  o1.app_cap_mbps = 10.0;
  o2.app_cap_mbps = 50.0;
  auto f1 = world.fabric->start_flow(world.a[0], world.b[0],
                                     1000 * util::kMB, nullptr, o1);
  auto f2 = world.fabric->start_flow(world.a[1], world.b[1],
                                     1000 * util::kMB, nullptr, o2);
  auto f3 = world.fabric->start_flow(world.a[2], world.b[2],
                                     1000 * util::kMB, nullptr, o3);
  ASSERT_TRUE(f1.ok() && f2.ok() && f3.ok());
  EXPECT_NEAR(world.fabric->current_rate_mbps(f1.value()), 10.0, 0.01);
  EXPECT_NEAR(world.fabric->current_rate_mbps(f2.value()), 40.0, 0.01);
  EXPECT_NEAR(world.fabric->current_rate_mbps(f3.value()), 40.0, 0.01);
  world.audit();  // live allocation must respect the capacity law
}

TEST(Fabric, LossyLinkCapsThroughputViaMathis) {
  Dumbbell lossless(10000.0, 0.0);
  Dumbbell lossy(10000.0, 0.01);
  FlowOptions options;
  options.charge_slow_start = false;
  FlowStats clean{}, degraded{};
  ASSERT_TRUE(lossless.fabric
                  ->start_flow(lossless.a[0], lossless.b[0], 10 * util::kMB,
                               [&](const FlowStats& s) { clean = s; }, options)
                  .ok());
  ASSERT_TRUE(lossy.fabric
                  ->start_flow(lossy.a[0], lossy.b[0], 10 * util::kMB,
                               [&](const FlowStats& s) { degraded = s; },
                               options)
                  .ok());
  lossless.simulator.run();
  lossy.simulator.run();
  EXPECT_GT(degraded.duration_s(), clean.duration_s() * 2);
}

TEST(Fabric, SlowStartChargesRampTime) {
  Dumbbell world(100.0);
  FlowOptions with_ss, without_ss;
  with_ss.charge_slow_start = true;
  without_ss.charge_slow_start = false;
  FlowStats ramped{}, instant{};
  ASSERT_TRUE(world.fabric
                  ->start_flow(world.a[0], world.b[0], util::kMB,
                               [&](const FlowStats& s) { ramped = s; },
                               with_ss)
                  .ok());
  world.simulator.run();
  ASSERT_TRUE(world.fabric
                  ->start_flow(world.a[1], world.b[1], util::kMB,
                               [&](const FlowStats& s) { instant = s; },
                               without_ss)
                  .ok());
  world.simulator.run();
  EXPECT_GT(ramped.duration_s(), instant.duration_s());
}

TEST(Fabric, AbortFiresCallbackOnce) {
  Dumbbell world(100.0);
  int calls = 0;
  FlowOutcome outcome = FlowOutcome::kCompleted;
  auto flow = world.fabric->start_flow(world.a[0], world.b[0], 100 * util::kMB,
                                       [&](const FlowStats& s) {
                                         ++calls;
                                         outcome = s.outcome;
                                       });
  ASSERT_TRUE(flow.ok());
  world.simulator.schedule_in(1.0,
                              [&] { world.fabric->abort_flow(flow.value()); });
  world.simulator.run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(outcome, FlowOutcome::kAborted);
  EXPECT_EQ(world.fabric->active_flow_count(), 0u);
}

TEST(Fabric, LinkFailureKillsFlowsAndReroutes) {
  Dumbbell world(100.0);
  FlowOutcome outcome = FlowOutcome::kCompleted;
  auto flow = world.fabric->start_flow(
      world.a[0], world.b[0], 100 * util::kMB,
      [&](const FlowStats& s) { outcome = s.outcome; });
  ASSERT_TRUE(flow.ok());
  world.simulator.schedule_in(0.5,
                              [&] { world.fabric->fail_link(world.shared); });
  world.simulator.run();
  EXPECT_EQ(outcome, FlowOutcome::kLinkFailed);
  // With the only shared link down, a new flow is unroutable.
  EXPECT_FALSE(world.fabric
                   ->start_flow(world.a[0], world.b[0], util::kMB, nullptr)
                   .ok());
  world.fabric->restore_link(world.shared);
  EXPECT_TRUE(world.fabric
                  ->start_flow(world.a[0], world.b[0], util::kMB, nullptr)
                  .ok());
}

TEST(Fabric, ByteConservation) {
  Dumbbell world(100.0);
  constexpr std::uint64_t kBytes = 10 * util::kMB;
  int completions = 0;
  FlowOptions options;
  options.charge_slow_start = false;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(world.fabric
                    ->start_flow(world.a[i], world.b[i], kBytes,
                                 [&](const FlowStats&) { ++completions; },
                                 options)
                    .ok());
  }
  world.simulator.run();
  EXPECT_EQ(completions, 3);
  EXPECT_EQ(world.fabric->delivered_bytes(), 3 * kBytes);
  EXPECT_NEAR(world.fabric->moved_bytes(), 3.0 * kBytes, 3.0);
  world.audit();
  world.audit_drained();
}

TEST(Fabric, RttAccountsBothDirections) {
  Dumbbell world(100.0);
  auto rtt = world.fabric->rtt_s(world.a[0], world.b[0]);
  ASSERT_TRUE(rtt.ok());
  // 2 * (0.0005 + 0.005 + 0.0005) + base 0.003.
  EXPECT_NEAR(rtt.value(), 0.012 + 0.003, 1e-9);
}

TEST(Fabric, RejectsZeroByteFlow) {
  Dumbbell world(100.0);
  EXPECT_FALSE(
      world.fabric->start_flow(world.a[0], world.b[0], 0, nullptr).ok());
}

TEST(CrossTraffic, GeneratesAndDrainsFlows) {
  Dumbbell world(100.0);
  CrossTrafficProfile profile;
  profile.mean_interarrival_s = 0.5;
  profile.min_bytes = 100 * util::kKB;
  profile.max_bytes = util::kMB;
  CrossTrafficSource source(world.fabric.get(), world.a[0], world.b[0],
                            profile, util::Rng(7));
  source.start();
  world.simulator.run_until(30.0);
  source.stop();
  world.simulator.run();  // drain in-flight flows
  EXPECT_GT(source.flows_started(), 20u);
  EXPECT_EQ(source.flows_started(), source.flows_completed());
  world.audit();
  world.audit_drained();
}

TEST(CrossTraffic, DeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    Dumbbell world(100.0);
    CrossTrafficProfile profile;
    profile.mean_interarrival_s = 0.5;
    CrossTrafficSource source(world.fabric.get(), world.a[0], world.b[0],
                              profile, util::Rng(seed));
    source.start();
    world.simulator.run_until(20.0);
    source.stop();
    world.simulator.run();
    return std::make_pair(source.flows_started(),
                          world.fabric->delivered_bytes());
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));
}

TEST(CrossTraffic, SlowsForegroundFlow) {
  Dumbbell quiet(50.0);
  Dumbbell busy(50.0);
  CrossTrafficProfile profile;
  profile.mean_interarrival_s = 0.4;
  profile.min_bytes = util::kMB;
  profile.max_bytes = 8 * util::kMB;
  CrossTrafficSource source(busy.fabric.get(), busy.a[1], busy.b[1], profile,
                            util::Rng(3));
  source.start();
  busy.simulator.run_until(10.0);

  FlowOptions options;
  options.charge_slow_start = false;
  FlowStats quiet_stats{}, busy_stats{};
  ASSERT_TRUE(quiet.fabric
                  ->start_flow(quiet.a[0], quiet.b[0], 20 * util::kMB,
                               [&](const FlowStats& s) { quiet_stats = s; },
                               options)
                  .ok());
  quiet.simulator.run();
  ASSERT_TRUE(busy.fabric
                  ->start_flow(busy.a[0], busy.b[0], 20 * util::kMB,
                               [&](const FlowStats& s) { busy_stats = s; },
                               options)
                  .ok());
  while (busy_stats.bytes == 0 && busy.simulator.step()) {
  }
  source.stop();
  EXPECT_GT(busy_stats.duration_s(), quiet_stats.duration_s() * 1.2);
}

}  // namespace
}  // namespace droute::net

namespace droute::net {
namespace {

TEST(Fabric, LinkLoadsReportAllocationAndUtilization) {
  Dumbbell world(100.0);
  FlowOptions options;
  options.charge_slow_start = false;
  ASSERT_TRUE(world.fabric
                  ->start_flow(world.a[0], world.b[0], 1000 * util::kMB,
                               nullptr, options)
                  .ok());
  ASSERT_TRUE(world.fabric
                  ->start_flow(world.a[1], world.b[1], 1000 * util::kMB,
                               nullptr, options)
                  .ok());
  const auto loads = world.fabric->link_loads();
  ASSERT_FALSE(loads.empty());
  bool found_shared = false;
  for (const auto& load : loads) {
    EXPECT_LE(load.allocated_mbps, load.capacity_mbps + 1e-6);
    if (load.flows == 2) {
      found_shared = true;
      EXPECT_NEAR(load.allocated_mbps, 100.0, 0.1);
      EXPECT_NEAR(load.utilization(), 1.0, 0.01);
    }
  }
  EXPECT_TRUE(found_shared);
}

TEST(Fabric, LinkLoadsEmptyWhenIdle) {
  Dumbbell world(100.0);
  EXPECT_TRUE(world.fabric->link_loads().empty());
}

// --- fault-hook edges (chaos::Injector leans on these being total) ---------

TEST(Fabric, FailLinkWithZeroActiveFlowsIsSafe) {
  Dumbbell world(100.0);
  world.fabric->fail_link(world.shared);  // nothing riding it
  EXPECT_EQ(world.fabric->active_flow_count(), 0u);
  EXPECT_FALSE(world.fabric
                   ->start_flow(world.a[0], world.b[0], util::kMB, nullptr)
                   .ok());
  world.fabric->restore_link(world.shared);
  FlowOutcome outcome = FlowOutcome::kAborted;
  ASSERT_TRUE(world.fabric
                  ->start_flow(world.a[0], world.b[0], util::kMB,
                               [&](const FlowStats& s) { outcome = s.outcome; })
                  .ok());
  world.simulator.run();
  EXPECT_EQ(outcome, FlowOutcome::kCompleted);
  world.audit();
  world.audit_drained();
}

TEST(Fabric, DoubleAbortFiresCallbackOnce) {
  Dumbbell world(100.0);
  int calls = 0;
  auto flow = world.fabric->start_flow(
      world.a[0], world.b[0], 100 * util::kMB,
      [&](const FlowStats& s) {
        ++calls;
        EXPECT_EQ(s.outcome, FlowOutcome::kAborted);
      });
  ASSERT_TRUE(flow.ok());
  world.simulator.run_until(1.0);
  world.fabric->abort_flow(flow.value());
  world.fabric->abort_flow(flow.value());  // finished flow: documented no-op
  world.fabric->abort_flow(99999);         // unknown id: also a no-op
  world.simulator.run();
  EXPECT_EQ(calls, 1);
  world.audit();
  world.audit_drained();
}

TEST(Fabric, RestoreBeforeFailIsANoOp) {
  Dumbbell world(100.0);
  world.fabric->restore_link(world.shared);  // never failed
  FlowOutcome outcome = FlowOutcome::kAborted;
  ASSERT_TRUE(world.fabric
                  ->start_flow(world.a[0], world.b[0], util::kMB,
                               [&](const FlowStats& s) { outcome = s.outcome; })
                  .ok());
  world.simulator.run();
  EXPECT_EQ(outcome, FlowOutcome::kCompleted);
  world.audit();
  world.audit_drained();
}

TEST(Fabric, ReallocateNowOnIdleFabricIsSkipped) {
  Dumbbell world(100.0);
  EXPECT_EQ(world.fabric->realloc_skipped(), 0u);
  // Capacity/policer rewrite hooks fire between campaign runs when nothing
  // is in flight; the recompute must early-out instead of walking state.
  world.fabric->reallocate_now();
  world.fabric->reallocate_now();
  EXPECT_EQ(world.fabric->realloc_skipped(), 2u);

  // With a flow in flight the recompute is real again.
  FlowOutcome outcome = FlowOutcome::kAborted;
  ASSERT_TRUE(world.fabric
                  ->start_flow(world.a[0], world.b[0], util::kMB,
                               [&](const FlowStats& s) { outcome = s.outcome; })
                  .ok());
  world.fabric->reallocate_now();
  EXPECT_EQ(world.fabric->realloc_skipped(), 2u);
  world.simulator.run();
  EXPECT_EQ(outcome, FlowOutcome::kCompleted);

  // Idle again after the flow drains: back to skipping.
  world.fabric->reallocate_now();
  EXPECT_EQ(world.fabric->realloc_skipped(), 3u);
  world.audit();
  world.audit_drained();
}

TEST(Fabric, FullRecomputeModeMatchesIncrementalRates) {
  // Two independent dumbbells driven by the same event script, one per
  // allocation mode: every observable rate must match bit-for-bit (the
  // broad version of this check lives in fabric_equivalence_test.cpp).
  Dumbbell inc(100.0), full(100.0);
  full.fabric->set_alloc_mode(Fabric::AllocMode::kFullRecompute);
  // The default is incremental unless the DROUTE_SHARD_WORKERS env override
  // picked sharded (the sharded CI leg) — either way, not full recompute,
  // and either way bit-identical to it.
  EXPECT_NE(inc.fabric->alloc_mode(), Fabric::AllocMode::kFullRecompute);
  if (std::getenv("DROUTE_SHARD_WORKERS") == nullptr) {
    EXPECT_EQ(inc.fabric->alloc_mode(), Fabric::AllocMode::kIncremental);
  }

  FlowOptions options;
  options.charge_slow_start = false;
  std::vector<FlowId> inc_ids, full_ids;
  for (Dumbbell* world : {&inc, &full}) {
    auto& ids = world == &inc ? inc_ids : full_ids;
    for (int i = 0; i < 3; ++i) {
      auto flow = world->fabric->start_flow(world->a[i], world->b[i],
                                            50 * util::kMB, {}, options);
      ASSERT_TRUE(flow.ok());
      ids.push_back(flow.value());
    }
    world->simulator.run_until(1.0);
  }
  for (std::size_t i = 0; i < inc_ids.size(); ++i) {
    EXPECT_EQ(inc.fabric->current_rate_mbps(inc_ids[i]),
              full.fabric->current_rate_mbps(full_ids[i]));
  }
  inc.fabric->abort_flow(inc_ids[0]);
  full.fabric->abort_flow(full_ids[0]);
  for (std::size_t i = 1; i < inc_ids.size(); ++i) {
    EXPECT_EQ(inc.fabric->current_rate_mbps(inc_ids[i]),
              full.fabric->current_rate_mbps(full_ids[i]));
  }
  inc.audit();
  full.audit();
}

TEST(Fabric, CapacityRewriteMidFlowConverges) {
  Dumbbell world(100.0);
  FlowStats finished;
  FlowOptions options;
  options.charge_slow_start = false;
  auto flow = world.fabric->start_flow(
      world.a[0], world.b[0], 100 * util::kMB,
      [&](const FlowStats& s) { finished = s; }, options);
  ASSERT_TRUE(flow.ok());
  world.simulator.run_until(4.0);  // halfway through the 8 s transfer
  const auto status = world.topo.set_link_capacity(world.shared, 50.0);
  ASSERT_TRUE(status.ok());
  world.fabric->reallocate_now();
  EXPECT_NEAR(world.fabric->current_rate_mbps(flow.value()), 50.0, 0.5);
  world.simulator.run();
  // First half at 100 Mbps (4 s in), remaining 50 MB at 50 Mbps = 8 s.
  EXPECT_EQ(finished.outcome, FlowOutcome::kCompleted);
  EXPECT_NEAR(finished.duration_s(), 12.0, 0.1);
  world.audit();
  world.audit_drained();
}

TEST(Fabric, FinishHeapBoundedByLiveFlowsUnderChurn) {
  // Closed-loop churn on one shared link: every completion re-rates all
  // survivors, and each completion callback starts a replacement. The
  // finish heap holds one entry per live flow at most, however many
  // re-keys the churn performs.
  Dumbbell world(100.0);
  constexpr int kConcurrent = 24;
  constexpr int kTotal = 600;
  int started = 0;
  int completed = 0;
  std::size_t peak_heap = 0;
  std::function<void()> start_one = [&] {
    const int i = started++;
    FlowOptions options;
    options.charge_slow_start = i % 4 == 0;  // some live flows sit unqueued
    options.app_cap_mbps = i % 3 == 0 ? 7.5 : 0.0;
    const auto flow = world.fabric->start_flow(
        world.a[i % 3], world.b[(i / 3) % 3],
        static_cast<std::uint64_t>(1 + i % 7) * util::kMB,
        [&](const FlowStats& stats) {
          EXPECT_EQ(stats.outcome, FlowOutcome::kCompleted);
          ++completed;
          peak_heap = std::max(peak_heap, world.fabric->finish_heap_size());
          EXPECT_LE(world.fabric->finish_heap_size(),
                    world.fabric->active_flow_count());
          if (started < kTotal) start_one();
        },
        options);
    ASSERT_TRUE(flow.ok());
  };
  for (int i = 0; i < kConcurrent; ++i) start_one();
  world.simulator.run();
  EXPECT_EQ(completed, kTotal);
  EXPECT_GT(peak_heap, 0u);
  EXPECT_EQ(world.fabric->finish_heap_size(), 0u);
  world.audit();
  world.audit_drained();
}

// Independent oracle for the fabric's single-level fill: plain per-flow
// progressive filling, where each unfrozen flow carries its own rate and
// re-checks its cap and every link of its route each round. The two must
// agree bit for bit. It fills one sharing component at a time, as the
// fabric does (a global fill would take different delta steps).
struct OracleFlow {
  std::vector<LinkId> links;
  double cap_bps = 0.0;
  double rate_bps = 0.0;
};

void oracle_fill_component(const Topology& topo,
                           const std::vector<OracleFlow*>& flows) {
  std::map<LinkId, double> remaining;
  std::map<LinkId, int> active;
  for (const OracleFlow* flow : flows) {
    for (const LinkId lid : flow->links) {
      remaining[lid] = util::mbps_to_bytes_per_sec(topo.link(lid).capacity_mbps);
      ++active[lid];
    }
  }
  std::vector<OracleFlow*> unfrozen = flows;
  for (OracleFlow* flow : unfrozen) flow->rate_bps = 0.0;
  while (!unfrozen.empty()) {
    double delta = std::numeric_limits<double>::infinity();
    for (const OracleFlow* flow : unfrozen) {
      delta = std::min(delta, flow->cap_bps - flow->rate_bps);
    }
    for (const auto& [lid, count] : active) {
      if (count > 0) delta = std::min(delta, remaining[lid] / count);
    }
    delta = std::max(delta, 0.0);
    for (OracleFlow* flow : unfrozen) flow->rate_bps += delta;
    for (auto& [lid, left] : remaining) left -= delta * active[lid];
    std::vector<OracleFlow*> still_unfrozen;
    for (OracleFlow* flow : unfrozen) {
      bool frozen = flow->rate_bps >= flow->cap_bps - 1e-6;
      for (const LinkId lid : flow->links) frozen |= remaining[lid] <= 1e-6;
      if (frozen) {
        for (const LinkId lid : flow->links) --active[lid];
      } else {
        still_unfrozen.push_back(flow);
      }
    }
    ASSERT_TRUE(still_unfrozen.size() < unfrozen.size() || delta > 0.0);
    unfrozen = std::move(still_unfrozen);
  }
}

// Splits `live` into sharing components (flows linked through common links)
// and fills each with the oracle.
void oracle_fill(const Topology& topo, const std::vector<OracleFlow*>& live) {
  std::vector<std::size_t> parent(live.size());
  for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  const auto root = [&](std::size_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  std::map<LinkId, std::size_t> first_on_link;
  for (std::size_t i = 0; i < live.size(); ++i) {
    for (const LinkId lid : live[i]->links) {
      const auto [it, fresh] = first_on_link.emplace(lid, i);
      if (!fresh) parent[root(i)] = root(it->second);
    }
  }
  std::map<std::size_t, std::vector<OracleFlow*>> components;
  for (std::size_t i = 0; i < live.size(); ++i) {
    components[root(i)].push_back(live[i]);
  }
  for (auto& [r, members] : components) oracle_fill_component(topo, members);
}

TEST(Fabric, LevelFillMatchesPerFlowWaterFillOracle) {
  // Random single-AS meshes with capacities drawn partly from a small set
  // (so several links saturate, and caps bind, in the same round) and
  // random per-flow app caps. After every start and abort, every live
  // flow's rate must equal the oracle's bit for bit.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    const auto capacity = [&rng](double lo, double hi) {
      static constexpr double kSteps[] = {10.0, 20.0, 40.0, 100.0};
      return rng.uniform() < 0.5 ? kSteps[rng.uniform_int(0, 3)]
                                 : rng.uniform(lo, hi);
    };
    Topology::Builder builder;
    const AsId as = builder.add_as("AS");
    const int router_count = static_cast<int>(rng.uniform_int(3, 9));
    std::vector<NodeId> routers;
    for (int r = 0; r < router_count; ++r) {
      routers.push_back(
          builder.add_router(as, "r" + std::to_string(r), {40, -100}));
      if (r > 0) {
        const auto peer = routers[static_cast<std::size_t>(
            rng.uniform_int(0, r - 1))];
        builder.add_duplex(peer, routers.back(), capacity(5.0, 400.0), 0.002);
      }
    }
    std::vector<NodeId> hosts;
    const int host_count = static_cast<int>(rng.uniform_int(4, 12));
    for (int h = 0; h < host_count; ++h) {
      hosts.push_back(builder.add_host(as, "h" + std::to_string(h), {40, -100}));
      const auto router = routers[static_cast<std::size_t>(
          rng.uniform_int(0, router_count - 1))];
      builder.add_duplex(hosts.back(), router, capacity(20.0, 1000.0), 0.0005);
    }
    auto built = std::move(builder).build();
    ASSERT_TRUE(built.ok());
    Topology topo = std::move(built).value();
    RouteTable routes(&topo);

    struct Spec {
      NodeId src, dst;
      FlowOptions options;
      OracleFlow oracle;
    };
    std::vector<Spec> specs(static_cast<std::size_t>(rng.uniform_int(4, 40)));
    // Probe fabric: start and abort each flow to learn the route and cap the
    // fabric derives for it (both independent of other traffic).
    sim::Simulator probe_sim;
    Fabric probe(&probe_sim, &topo, &routes);
    for (Spec& spec : specs) {
      spec.src = hosts[static_cast<std::size_t>(
          rng.uniform_int(0, host_count - 1))];
      do {
        spec.dst = hosts[static_cast<std::size_t>(
            rng.uniform_int(0, host_count - 1))];
      } while (spec.dst == spec.src);
      spec.options.charge_slow_start = false;
      if (rng.uniform() < 0.6) spec.options.app_cap_mbps = capacity(1.0, 300.0);
      FlowStats stats;
      const auto id = probe.start_flow(spec.src, spec.dst, util::kGB,
                                       [&](const FlowStats& s) { stats = s; },
                                       spec.options);
      ASSERT_TRUE(id.ok());
      probe.abort_flow(id.value());
      spec.oracle.links = stats.route.links;
      spec.oracle.cap_bps = util::mbps_to_bytes_per_sec(stats.cap_mbps);
    }

    sim::Simulator simulator;
    Fabric fabric(&simulator, &topo, &routes);
    std::vector<std::pair<FlowId, Spec*>> live;
    const auto expect_oracle_rates = [&] {
      std::vector<OracleFlow*> flows;
      for (auto& [id, spec] : live) flows.push_back(&spec->oracle);
      oracle_fill(topo, flows);
      for (const auto& [id, spec] : live) {
        EXPECT_EQ(fabric.current_rate_mbps(id),
                  util::bytes_per_sec_to_mbps(spec->oracle.rate_bps))
            << "seed " << seed << " flow " << id;
      }
    };
    for (Spec& spec : specs) {
      const auto id = fabric.start_flow(spec.src, spec.dst, util::kGB, {},
                                        spec.options);
      ASSERT_TRUE(id.ok());
      live.emplace_back(id.value(), &spec);
      expect_oracle_rates();
      if (live.size() > 2 && rng.uniform() < 0.3) {
        const auto victim = live.begin() + rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1);
        fabric.abort_flow(victim->first);
        live.erase(victim);
        expect_oracle_rates();
      }
    }
  }
}

}  // namespace
}  // namespace droute::net
