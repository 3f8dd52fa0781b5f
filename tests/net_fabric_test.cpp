#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "check/contract.h"
#include "check/fabric_audit.h"
#include "check/sim_audit.h"
#include "net/cross_traffic.h"
#include "net/fabric.h"
#include "obs/recorder.h"
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
  EXPECT_EQ(inc.fabric->alloc_mode(), Fabric::AllocMode::kIncremental);

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

// --- Finish order: the per-class heap against a brute-force minimum ------

// The least finish time over every live flow, scanned flow by flow rather
// than read from the class heads.
sim::Time brute_next_completion(const Fabric& fabric) {
  sim::Time least = sim::kTimeInfinity;
  for (const Fabric::ClassFinish& entry : fabric.finish_order()) {
    for (const auto& [id, finish_s] : entry.members) {
      least = std::min(least, finish_s);
    }
  }
  return least;
}

// The live flows due by `at`.
std::vector<FlowId> flows_due_by(const Fabric& fabric, sim::Time at) {
  std::vector<FlowId> due;
  for (const Fabric::ClassFinish& entry : fabric.finish_order()) {
    for (const auto& [id, finish_s] : entry.members) {
      if (finish_s <= at) due.push_back(id);
    }
  }
  std::sort(due.begin(), due.end());
  return due;
}

// What run_checking_finish_order saw.
struct FinishOrderCoverage {
  int multi_class_instants = 0;  // events completing flows of 2+ caps
  int residues = 0;              // due flows re-keyed later instead
};

// Runs `world` to quiescence one event at a time. After every event the
// fabric's next completion must equal the brute-force minimum and the
// finish-order audit must pass; the flows that completed in that event must
// have been due at the completion time predicted before it, must have ended
// at that time, and must have fired in FlowId order. `ended` is where the
// flows' callbacks append their stats.
FinishOrderCoverage run_checking_finish_order(
    Dumbbell& world, const std::vector<FlowStats>& ended) {
  const Fabric& fabric = *world.fabric;
  FinishOrderCoverage coverage;
  std::size_t seen = ended.size();
  sim::Time predicted = fabric.next_completion_s();
  std::vector<FlowId> due = flows_due_by(fabric, predicted);
  while (world.simulator.step()) {
    FlowId last = 0;
    std::vector<double> caps;
    for (; seen < ended.size(); ++seen) {
      const FlowStats& stats = ended[seen];
      if (stats.outcome != FlowOutcome::kCompleted) continue;
      EXPECT_EQ(stats.end_time, predicted) << "flow " << stats.id;
      EXPECT_TRUE(std::binary_search(due.begin(), due.end(), stats.id))
          << "flow " << stats.id << " completed before it was due";
      EXPECT_GT(stats.id, last) << "same-instant completions out of order";
      last = stats.id;
      if (std::find(caps.begin(), caps.end(), stats.cap_mbps) == caps.end()) {
        caps.push_back(stats.cap_mbps);
      }
    }
    if (caps.size() > 1) ++coverage.multi_class_instants;
    EXPECT_EQ(fabric.next_completion_s(), brute_next_completion(fabric))
        << "at t=" << world.simulator.now();
    if (world.simulator.now() == predicted &&
        fabric.next_completion_s() > predicted) {
      // The completion event ran. A due flow that neither completed nor
      // left holds an fp residue, re-keyed strictly later.
      for (const Fabric::ClassFinish& entry : fabric.finish_order()) {
        for (const auto& [id, finish_s] : entry.members) {
          if (std::binary_search(due.begin(), due.end(), id)) {
            ++coverage.residues;
          }
        }
      }
    }
    const auto audit = check::audit_finish_order(fabric.finish_order());
    EXPECT_TRUE(audit.ok()) << audit.error().message;
    predicted = fabric.next_completion_s();
    due = flows_due_by(fabric, predicted);
  }
  return coverage;
}

// The link from `node` into the dumbbell's core.
LinkId access_link(const Dumbbell& world, NodeId node) {
  for (const LinkId lid : world.topo.out_links(node)) {
    if (world.topo.link(lid).dst == world.left) return lid;
  }
  ADD_FAILURE() << "no access link";
  return kInvalidLink;
}

// A scripted prologue makes sure every re-keying path runs at least once,
// then random starts, aborts, link failures and freezes churn the classes;
// the oracle checks the finish index after every event. Everything happens
// `t0` seconds into the simulation.
FinishOrderCoverage expect_finish_order_under_random_ops(double t0) {
  Dumbbell world(100.0);
  sim::Simulator& sim = world.simulator;
  sim.run_until(t0);
  Fabric& fabric = *world.fabric;
  std::vector<FlowStats> ended;
  std::vector<FlowId> live;
  const auto start = [&](int src, int dst, double cap_mbps,
                         std::uint64_t bytes, bool slow_start) {
    FlowOptions options;
    options.charge_slow_start = slow_start;
    options.app_cap_mbps = cap_mbps;
    const auto id = fabric.start_flow(
        world.a[src], world.b[dst], bytes,
        [&](const FlowStats& stats) {
          ended.push_back(stats);
          live.erase(std::find(live.begin(), live.end(), stats.id));
        },
        options);
    if (id.ok()) live.push_back(id.value());
    return id.ok() ? id.value() : FlowId{0};
  };
  // The head of the queued class with the earliest head, if any.
  const auto earliest_head = [&] {
    FlowId head = 0;
    double least = sim::kTimeInfinity;
    for (const Fabric::ClassFinish& entry : fabric.finish_order()) {
      for (const auto& [id, finish_s] : entry.members) {
        if (entry.queued && finish_s < least) {
          least = finish_s;
          head = id;
        }
      }
    }
    return head;
  };
  bool frozen = false;
  const auto freeze = [&](bool on) {
    frozen = on;
    EXPECT_TRUE(world.topo.set_link_capacity(world.shared, on ? 1e-12 : 100.0)
                    .ok());
    fabric.reallocate_now();
    if (on) {
      EXPECT_EQ(fabric.next_completion_s(), sim::kTimeInfinity);
    }
  };

  // Two cap-bound classes on a link with headroom: 4 and 12 Mbps.
  for (int i = 0; i < 3; ++i) {
    start(0, 0, 4.0, (2 + i) * util::kMB, false);
    start(1, 1, 12.0, (3 + i) * util::kMB, false);
  }
  FlowId class_b_head = live[1];
  sim.schedule_at(t0 + 0.5, [&] {
    // Joiners into a class whose rate does not move: one becomes its head
    // (1 MB at 0.5 MB/s, due before the 2 MB member), one does not.
    start(0, 0, 4.0, util::kMB, false);
    start(0, 0, 4.0, 5 * util::kMB, false);
  });
  sim.schedule_at(t0 + 0.6, [&] { fabric.abort_flow(class_b_head); });
  sim.schedule_at(t0 + 0.7, [&] {
    // Every class over a[1]'s access link fails, heads included.
    fabric.fail_link(access_link(world, world.a[1]));
  });
  sim.schedule_at(t0 + 0.8, [&] {
    fabric.restore_link(access_link(world, world.a[1]));
  });
  sim.schedule_at(t0 + 0.9, [&] { freeze(true); });
  sim.schedule_at(t0 + 1.4, [&] { freeze(false); });
  sim.schedule_at(t0 + 1.5, [&] {
    // Four flows in two classes, ids interleaved, all due at one instant:
    // (bytes - 0.5) / rate is one real number for 1e6 B at 0.5 MB/s and
    // 3e6 - 1 B at 1.5 MB/s.
    for (int i = 0; i < 2; ++i) {
      start(2, 2, 4.0, 1'000'000, false);
      start(2, 2, 12.0, 2'999'999, false);
    }
  });

  util::Rng rng(2016);
  for (int op = 0; op < 400; ++op) {
    const double at = t0 + 10.0 + 0.15 * op;
    const auto kind = rng.uniform_int(0, 9);
    const int src = static_cast<int>(rng.uniform_int(0, 2));
    const int dst = static_cast<int>(rng.uniform_int(0, 2));
    const double caps[] = {0.0, 4.0, 4.0, 12.0};
    const double cap = caps[rng.uniform_int(0, 3)];
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(rng.uniform_int(1, 4)) * util::kMB;
    const bool slow_start = rng.uniform_int(0, 2) == 0;
    const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(0, 99));
    sim.schedule_at(at, [&, kind, src, dst, cap, bytes, slow_start, pick] {
      if (kind <= 5) {
        if (!frozen) start(src, dst, cap, bytes, slow_start);
      } else if (kind == 6) {
        if (!live.empty()) fabric.abort_flow(live[pick % live.size()]);
      } else if (kind == 7) {
        if (const FlowId head = earliest_head(); head != 0) {
          fabric.abort_flow(head);
        }
      } else if (kind == 8) {
        const LinkId access = access_link(world, world.a[src]);
        fabric.fail_link(access);
        sim.schedule_in(0.1, [&, access] { fabric.restore_link(access); });
      } else if (!frozen) {
        freeze(true);
        sim.schedule_in(0.3, [&] { freeze(false); });
      }
    });
  }
  const FinishOrderCoverage coverage = run_checking_finish_order(world, ended);
  EXPECT_GE(coverage.multi_class_instants, 1);
  EXPECT_TRUE(live.empty());
  EXPECT_EQ(fabric.active_flow_count(), 0u);
  EXPECT_EQ(fabric.finish_heap_size(), 0u);
  std::map<FlowOutcome, int> outcomes;
  for (const FlowStats& stats : ended) ++outcomes[stats.outcome];
  EXPECT_GT(outcomes[FlowOutcome::kCompleted], 50);
  EXPECT_GT(outcomes[FlowOutcome::kAborted], 10);
  EXPECT_GT(outcomes[FlowOutcome::kLinkFailed], 10);
  world.audit();
  world.audit_drained();
  return coverage;
}

TEST(Fabric, NextCompletionMatchesABruteForceMinimumUnderRandomOps) {
  expect_finish_order_under_random_ops(0.0);
}

TEST(Fabric, FpResiduesReKeyStrictlyLaterPastTwoToThe24Seconds) {
  // Below 2^24 s a clock step is under the nanosecond slack of the drain
  // test, so a due flow always drains. Past it the finish of a flow can
  // round early and leave a residue, whose own finish may then round back
  // to the same instant: it must still be re-keyed strictly later, and the
  // run must end.
  const FinishOrderCoverage coverage =
      expect_finish_order_under_random_ops(std::ldexp(1.0, 25));
  EXPECT_GT(coverage.residues, 0);
}

TEST(Fabric, FinishHeapBoundedByLiveFlowsUnderChurn) {
  // Closed-loop churn on one shared link: every completion re-rates all
  // survivors, and each completion callback starts a replacement. The
  // finish heap holds one entry per live route class at most (so never
  // more than the live flows), however many re-keys the churn performs.
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
          EXPECT_LE(world.fabric->finish_heap_size(),
                    world.fabric->live_class_count());
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

// Random single-AS meshes with capacities drawn partly from a small set (so
// several links saturate, and caps bind, in the same round) and random
// per-flow app caps. After every start and abort, every live flow's rate
// must equal the oracle's bit for bit. With `clone_specs`, about half the
// flows copy the (src, dst, app cap) of one of the first few, so route
// classes hold 2-10 members; the largest class is then aborted flow by flow
// until it is empty, and its flows are started again.
void expect_level_fill_matches_oracle(bool clone_specs) {
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
    for (std::size_t i = 0; i < specs.size(); ++i) {
      Spec& spec = specs[i];
      if (clone_specs && i > 0 && rng.uniform() < 0.5) {
        spec = specs[static_cast<std::size_t>(rng.uniform_int(
            0, std::min<std::int64_t>(static_cast<std::int64_t>(i) - 1, 3)))];
        continue;
      }
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
      spec.oracle.links = stats.route->links;
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
    if (!clone_specs) continue;
    // Empty the largest class one abort at a time, then refill it.
    std::map<std::pair<std::vector<LinkId>, double>, std::vector<Spec*>>
        classes;
    for (const auto& [id, spec] : live) {
      classes[{spec->oracle.links, spec->oracle.cap_bps}].push_back(spec);
    }
    std::vector<Spec*> largest;
    for (const auto& [key, members] : classes) {
      if (members.size() > largest.size()) largest = members;
    }
    for (const Spec* member : largest) {
      const auto it = std::find_if(live.begin(), live.end(), [&](const auto& e) {
        return e.second == member;
      });
      ASSERT_NE(it, live.end());
      fabric.abort_flow(it->first);
      live.erase(it);
      expect_oracle_rates();
    }
    for (Spec* member : largest) {
      const auto id = fabric.start_flow(member->src, member->dst, util::kGB,
                                        {}, member->options);
      ASSERT_TRUE(id.ok());
      live.emplace_back(id.value(), member);
      expect_oracle_rates();
    }
  }
}

TEST(Fabric, LevelFillMatchesPerFlowWaterFillOracle) {
  expect_level_fill_matches_oracle(/*clone_specs=*/false);
}

TEST(Fabric, LevelFillMatchesOracleWithDuplicateClasses) {
  expect_level_fill_matches_oracle(/*clone_specs=*/true);
}

// Two app-capped flows share one route over a 100 Mbps link, so they form
// one route class whose rate (the cap) does not move when the second joins.
// The joiner must still be settled onto that rate and finish at bytes / cap
// after it starts carrying bytes.
void expect_joiner_gets_class_rate(double cap_mbps, bool joiner_slow_start) {
  Dumbbell world(100.0);
  constexpr std::uint64_t kBytes = 5 * util::kMB;
  const double cap_bps = util::mbps_to_bytes_per_sec(cap_mbps);
  FlowOptions options;
  options.charge_slow_start = false;
  options.app_cap_mbps = cap_mbps;
  auto first = world.fabric->start_flow(world.a[0], world.b[0], 10 * kBytes,
                                        {}, options);
  ASSERT_TRUE(first.ok());
  EXPECT_DOUBLE_EQ(world.fabric->current_rate_mbps(first.value()), cap_mbps);

  options.charge_slow_start = joiner_slow_start;
  FlowStats joiner_stats;
  FlowId joiner = 0;
  double joiner_start = 0.0;
  world.simulator.schedule_at(1.0, [&] {
    joiner_start = world.simulator.now();
    auto id = world.fabric->start_flow(
        world.a[0], world.b[0], kBytes,
        [&](const FlowStats& stats) { joiner_stats = stats; }, options);
    ASSERT_TRUE(id.ok());
    joiner = id.value();
  });
  world.simulator.run_until(1.0);
  ASSERT_NE(joiner, 0u);
  double active_from = joiner_start;
  if (joiner_slow_start) {
    EXPECT_EQ(world.fabric->current_rate_mbps(joiner), 0.0);
    const auto rtt = world.fabric->rtt_s(world.a[0], world.b[0]);
    ASSERT_TRUE(rtt.ok());
    active_from += slow_start_delay_s(rtt.value(), cap_mbps, options.tcp);
    ASSERT_GT(active_from, joiner_start);
    world.simulator.run_until(active_from);
  }
  EXPECT_DOUBLE_EQ(world.fabric->current_rate_mbps(first.value()), cap_mbps);
  EXPECT_DOUBLE_EQ(world.fabric->current_rate_mbps(joiner), cap_mbps);

  world.simulator.run();
  EXPECT_EQ(joiner_stats.outcome, FlowOutcome::kCompleted);
  EXPECT_EQ(joiner_stats.id, joiner);
  EXPECT_NEAR(joiner_stats.end_time - active_from,
              static_cast<double>(kBytes) / cap_bps, 1e-6);
  world.audit();
  world.audit_drained();
}

TEST(Fabric, FlowJoiningARateStableClassGetsItsRate) {
  expect_joiner_gets_class_rate(5.0, /*joiner_slow_start=*/false);
}

TEST(Fabric, FlowJoiningARateStableClassAfterSlowStartGetsItsRate) {
  // 5 Mbps fits in the initial window on this path (no ramp), so the
  // slow-start joiner runs at 40 Mbps; two of them still fit the link.
  expect_joiner_gets_class_rate(40.0, /*joiner_slow_start=*/true);
}

TEST(Fabric, EmptiedClassesAreReleasedAndRebuilt) {
  // Flows with distinct caps are distinct route classes. Aborting 80 of 100
  // parks each emptied class until the parked ones outnumber both the live
  // ones and the floor, which releases them while 20 classes are still
  // live; 50 new caps then take classes from the free list. Every flow must
  // run at its own cap throughout (no link comes near saturation).
  Dumbbell world(5000.0);
  FlowOptions options;
  options.charge_slow_start = false;
  const auto start = [&](double cap_mbps,
                         std::vector<std::pair<FlowId, double>>& flows) {
    options.app_cap_mbps = cap_mbps;
    const auto id = world.fabric->start_flow(world.a[0], world.b[0],
                                             util::kGB, {}, options);
    ASSERT_TRUE(id.ok());
    flows.emplace_back(id.value(), cap_mbps);
  };
  const auto expect_caps = [&](const auto& flows, int round) {
    for (const auto& [id, cap] : flows) {
      EXPECT_DOUBLE_EQ(world.fabric->current_rate_mbps(id), cap)
          << "round " << round << " flow " << id;
    }
  };
  for (int round = 0; round < 3; ++round) {
    std::vector<std::pair<FlowId, double>> flows;
    for (int i = 0; i < 100; ++i) start(1.0 + 0.1 * i, flows);
    expect_caps(flows, round);
    // Odd rounds abort newest first, so classes park in the other order.
    if (round % 2 == 1) std::reverse(flows.begin(), flows.end());
    for (int i = 0; i < 80; ++i) world.fabric->abort_flow(flows[i].first);
    flows.erase(flows.begin(), flows.begin() + 80);
    for (int i = 0; i < 50; ++i) start(20.0 + 0.1 * i, flows);
    expect_caps(flows, round);
    world.audit();
    for (const auto& [id, cap] : flows) world.fabric->abort_flow(id);
    EXPECT_EQ(world.fabric->active_flow_count(), 0u);
  }
  world.simulator.run();
  world.audit_drained();
}

TEST(Fabric, SameRouteSameCapFlowsRefillAsOneClass) {
  // 50 flows with one route and one cap are one route class: a full refill
  // collects one class of 50 flows, not 50 entries.
  obs::Recorder recorder;
  obs::ScopedRecorder install(&recorder);
  Dumbbell world(100.0);
  FlowOptions options;
  options.charge_slow_start = false;
  options.app_cap_mbps = 1.0;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(world.fabric
                    ->start_flow(world.a[0], world.b[0], util::kGB, {}, options)
                    .ok());
  }
  const obs::Counter* classes =
      recorder.metrics().counter("net.realloc_classes_total");
  const obs::Counter* class_flows =
      recorder.metrics().counter("net.realloc_class_flows_total");
  const obs::Counter* components =
      recorder.metrics().counter("net.realloc_components_total");
  const std::uint64_t classes_before = classes->value();
  const std::uint64_t flows_before = class_flows->value();
  const std::uint64_t components_before = components->value();
  world.fabric->reallocate_now();
  EXPECT_EQ(components->value() - components_before, 1u);
  EXPECT_EQ(classes->value() - classes_before, 1u);
  EXPECT_EQ(class_flows->value() - flows_before, 50u);
  for (FlowId id = 1; id <= 50; ++id) {
    EXPECT_DOUBLE_EQ(world.fabric->current_rate_mbps(id), 1.0);
  }
}

}  // namespace
}  // namespace droute::net
