// Differential equivalence suite for the incremental fabric allocator.
//
// The incremental max-min allocator (DESIGN.md §12) water-fills only the
// connected component(s) dirtied by each event; AllocMode::kFullRecompute is
// the retained reference that re-fills every component on every event. The
// two must agree *bit-for-bit* — one ulp of divergence means a retained rate
// was stale and every figure reproduction is suspect. Three layers:
//
//   * Lockstep: paired stacks driven by an identical random op script
//     (starts, aborts, link failures/restores, capacity rewrites), with
//     every live flow's rate compared for exact equality after every op.
//   * End-to-end: chaos::random_case scenarios run to quiescence in both
//     modes; the outcome digests (FNV-1a over every observable transfer
//     time) must be byte-identical.
//   * Storm: many live components hammered by link flaps, capacity rewrites
//     and flow churn, so single reallocations refill many components.
//
// Together with the proptest property `fabric_equivalence` this covers the
// ≥200 seeded scenarios the rewrites were accepted under.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/scenario.h"
#include "chaos/topology_gen.h"
#include "net/fabric.h"
#include "net/routing.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/units.h"

namespace droute::net {
namespace {

// One self-contained stack over a generated topology. Sibling instances are
// built from the same GenTopology so node/link ids line up exactly.
struct Stack {
  Topology topo;
  sim::Simulator simulator;
  RouteTable routes{nullptr};
  std::unique_ptr<Fabric> fabric;

  explicit Stack(const chaos::GenTopology& gen, Fabric::AllocMode mode) {
    auto built = gen.build();
    EXPECT_TRUE(built.ok());
    topo = std::move(built).value();
    routes = RouteTable(&topo);
    fabric = std::make_unique<Fabric>(&simulator, &topo, &routes);
    fabric->set_alloc_mode(mode);
  }
};

// Drives all stacks through one op drawn from `rng` (the draw happens once;
// every stack sees the same op). Returns flow ids started so far.
class LockstepDriver {
 public:
  LockstepDriver(std::vector<Stack*> stacks, const std::vector<int>& hosts,
                 int link_count)
      : stacks_(std::move(stacks)), hosts_(hosts), link_count_(link_count) {}

  void step(util::Rng& rng) {
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    switch (op) {
      case 0:
      case 1:
      case 2:
      case 3: {  // start a flow (most common op)
        const int src = pick_host(rng);
        int dst = pick_host(rng);
        while (dst == src) dst = pick_host(rng);  // self-flows are rejected
        const std::uint64_t bytes =
            static_cast<std::uint64_t>(rng.uniform_int(1, 64)) * util::kMB;
        FlowOptions options;
        options.charge_slow_start = rng.uniform() < 0.5;
        std::optional<FlowId> started;
        for (Stack* stack : stacks_) {
          auto flow = stack->fabric->start_flow(src, dst, bytes, {}, options);
          if (stack == stacks_.front()) {
            if (flow.ok()) started = flow.value();
          } else {
            ASSERT_EQ(flow.ok(), started.has_value());
            if (flow.ok()) {
              ASSERT_EQ(flow.value(), *started);
            }
          }
        }
        if (started) flows_.push_back(*started);
        break;
      }
      case 4: {  // advance simulated time
        const double dt = rng.uniform(0.05, 5.0);
        for (Stack* stack : stacks_) {
          stack->simulator.run_until(stack->simulator.now() + dt);
        }
        break;
      }
      case 5: {  // abort a (possibly finished) flow
        if (flows_.empty()) break;
        const FlowId id = flows_[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(flows_.size()) - 1))];
        for (Stack* stack : stacks_) stack->fabric->abort_flow(id);
        break;
      }
      case 6: {  // fail a link
        const LinkId link = pick_link(rng);
        for (Stack* stack : stacks_) stack->fabric->fail_link(link);
        failed_.push_back(link);
        break;
      }
      case 7: {  // restore the oldest failed link
        if (failed_.empty()) break;
        const LinkId link = failed_.front();
        failed_.erase(failed_.begin());
        for (Stack* stack : stacks_) stack->fabric->restore_link(link);
        break;
      }
      case 8: {  // rewrite a link capacity, then converge
        const LinkId link = pick_link(rng);
        const double capacity = rng.uniform(5.0, 2000.0);
        for (Stack* stack : stacks_) {
          ASSERT_TRUE(stack->topo.set_link_capacity(link, capacity).ok());
          stack->fabric->reallocate_now();
        }
        break;
      }
      case 9: {  // out-of-band reallocate (exercises the idle early-out too)
        for (Stack* stack : stacks_) stack->fabric->reallocate_now();
        break;
      }
    }
  }

  // The heart of the suite: every flow either lives in every fabric with the
  // exact same rate, or in none.
  void expect_equivalent() const {
    const Stack* reference = stacks_.front();
    for (std::size_t s = 1; s < stacks_.size(); ++s) {
      const Stack* other = stacks_[s];
      ASSERT_EQ(reference->fabric->active_flow_count(),
                other->fabric->active_flow_count());
      for (const FlowId id : flows_) {
        const double ref_rate = reference->fabric->current_rate_mbps(id);
        const double other_rate = other->fabric->current_rate_mbps(id);
        EXPECT_EQ(ref_rate, other_rate)
            << "flow " << id << " rate diverged in stack " << s;
      }
      EXPECT_EQ(reference->fabric->moved_bytes(), other->fabric->moved_bytes());
      EXPECT_EQ(reference->fabric->delivered_bytes(),
                other->fabric->delivered_bytes());
    }
  }

  void drain() {
    for (Stack* stack : stacks_) stack->simulator.run();
  }

 private:
  int pick_host(util::Rng& rng) const {
    return hosts_[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hosts_.size()) - 1))];
  }
  LinkId pick_link(util::Rng& rng) const {
    return static_cast<LinkId>(rng.uniform_int(0, link_count_ - 1));
  }

  std::vector<Stack*> stacks_;
  std::vector<int> hosts_;
  int link_count_;
  std::vector<FlowId> flows_;
  std::vector<LinkId> failed_;
};

TEST(FabricEquivalence, LockstepRandomOpsBitIdenticalRates) {
  constexpr std::uint64_t kSeeds = 64;
  constexpr int kOpsPerSeed = 60;
  std::uint64_t exercised = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    util::Rng rng(seed);
    util::Rng topo_rng = rng.split(1);
    const chaos::GenTopology gen = chaos::random_topology(topo_rng);
    const std::vector<int> hosts = gen.hosts();
    if (hosts.size() < 2 || gen.links.empty()) continue;
    ++exercised;

    Stack inc(gen, Fabric::AllocMode::kIncremental);
    Stack full(gen, Fabric::AllocMode::kFullRecompute);
    LockstepDriver driver({&inc, &full}, hosts,
                          static_cast<int>(gen.links.size()));
    util::Rng ops = rng.split(2);
    for (int op = 0; op < kOpsPerSeed; ++op) {
      driver.step(ops);
      if (::testing::Test::HasFatalFailure()) return;
      driver.expect_equivalent();
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "first divergence at seed " << seed << " op " << op;
    }
    driver.drain();
    driver.expect_equivalent();
  }
  // The generator must yield usable topologies for most seeds; a vacuous
  // sweep (everything skipped) would pass silently otherwise.
  EXPECT_GT(exercised, kSeeds / 2);
}

TEST(FabricEquivalence, ChaosScenarioDigestsBitIdentical) {
  constexpr std::uint64_t kSeeds = 160;
  std::size_t nontrivial = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const chaos::Case c = chaos::random_case(seed);
    const chaos::RunReport incremental = chaos::run_case(c);
    const chaos::RunReport reference =
        chaos::run_case(c, chaos::RunOptions{.full_recompute = true});
    EXPECT_EQ(incremental.digest, reference.digest) << "seed " << seed;
    EXPECT_EQ(incremental.violated, reference.violated) << "seed " << seed;
    EXPECT_EQ(incremental.completed_work, reference.completed_work)
        << "seed " << seed;
    ASSERT_EQ(incremental.outcomes.size(), reference.outcomes.size());
    for (std::size_t i = 0; i < incremental.outcomes.size(); ++i) {
      EXPECT_EQ(incremental.outcomes[i].end_s, reference.outcomes[i].end_s)
          << "seed " << seed << " work item " << i;
    }
    if (incremental.completed_work > 0) ++nontrivial;
  }
  // The sweep must actually exercise transfers, not vacuous empty runs.
  EXPECT_GT(nontrivial, kSeeds / 2);
}

std::uint64_t fnv1a_mix(std::uint64_t hash, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (value >> shift) & 0xff;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

struct StormResult {
  std::uint64_t digest = 0xcbf29ce484222325ull;
  // Most components one reallocate_now() refilled.
  std::uint64_t widest_refill = 0;
};

/// One self-contained run of the component storm: `kPods` disconnected
/// mini-dumbbells (each pod is its own sharing component, so every
/// fabric-wide reallocation refills many components), hammered by link
/// flaps, capacity rewrites, app-throttled flow churn and out-of-band
/// reallocations from a seeded script. The digest is FNV-1a over every
/// flow outcome and start rejection.
StormResult run_component_storm(Fabric::AllocMode mode, std::uint64_t seed) {
  constexpr int kPods = 24;
  constexpr int kRounds = 40;

  obs::Recorder recorder;
  obs::ScopedRecorder install(&recorder);
  Topology::Builder builder;
  const AsId as = builder.add_as("AS");
  NodeId src[kPods], dst[kPods];
  LinkId shared[kPods];
  for (int p = 0; p < kPods; ++p) {
    const NodeId left = builder.add_router(as, "l" + std::to_string(p),
                                           {50, -100});
    const NodeId right = builder.add_router(as, "r" + std::to_string(p),
                                            {50, -99});
    src[p] = builder.add_host(as, "s" + std::to_string(p), {50, -100});
    dst[p] = builder.add_host(as, "d" + std::to_string(p), {50, -99});
    builder.add_duplex(src[p], left, 10000, 0.0005);
    builder.add_duplex(right, dst[p], 10000, 0.0005);
    shared[p] = builder.add_duplex(left, right, 100.0, 0.005);
  }
  auto built = std::move(builder).build();
  EXPECT_TRUE(built.ok());
  Topology topo = std::move(built).value();
  RouteTable routes(&topo);
  sim::Simulator simulator;
  Fabric fabric(&simulator, &topo, &routes);
  fabric.set_alloc_mode(mode);
  const obs::Counter* components =
      recorder.metrics().counter("net.realloc_components_total");

  StormResult result;
  util::Rng rng(seed);
  std::vector<LinkId> failed;
  for (int round = 0; round < kRounds; ++round) {
    // Start a throttled flow in most pods, so the flap/rewrite events below
    // each find many live components.
    for (int p = 0; p < kPods; ++p) {
      if (rng.uniform() < 0.2) continue;
      FlowOptions options;
      options.charge_slow_start = false;
      options.app_cap_mbps = rng.uniform() < 0.5 ? rng.uniform(5.0, 60.0) : 0.0;
      const std::uint64_t bytes =
          static_cast<std::uint64_t>(rng.uniform_int(1, 8)) * util::kMB;
      auto flow = fabric.start_flow(
          src[p], dst[p], bytes,
          [&result](const FlowStats& stats) {
            std::uint64_t end_bits;
            static_assert(sizeof end_bits == sizeof stats.end_time);
            std::memcpy(&end_bits, &stats.end_time, sizeof end_bits);
            result.digest = fnv1a_mix(result.digest, stats.id);
            result.digest = fnv1a_mix(result.digest, end_bits);
            result.digest = fnv1a_mix(
                result.digest, static_cast<std::uint64_t>(stats.outcome));
          },
          options);
      // Flows into a pod whose shared link is down are unroutable — that
      // rejection must be deterministic too.
      result.digest =
          fnv1a_mix(result.digest, flow.ok() ? flow.value() : ~0ull);
    }
    // Link flap storm: fail a couple of pod bottlenecks, restore the oldest.
    for (int flap = 0; flap < 2; ++flap) {
      const LinkId link = shared[rng.uniform_int(0, kPods - 1)];
      fabric.fail_link(link);
      failed.push_back(link);
    }
    while (failed.size() > 3) {
      fabric.restore_link(failed.front());
      failed.erase(failed.begin());
    }
    // Capacity storm: rewrite several bottlenecks, then one fabric-wide
    // reallocation, which refills every live component.
    for (int rewrite = 0; rewrite < 4; ++rewrite) {
      const LinkId link = shared[rng.uniform_int(0, kPods - 1)];
      EXPECT_TRUE(
          topo.set_link_capacity(link, rng.uniform(20.0, 500.0)).ok());
    }
    const std::uint64_t before = components->value();
    fabric.reallocate_now();
    result.widest_refill =
        std::max(result.widest_refill, components->value() - before);
    simulator.run_until(simulator.now() + rng.uniform(0.05, 0.6));
  }
  simulator.run();
  EXPECT_EQ(simulator.pending(), 0u) << "events leaked after drain";
  EXPECT_EQ(fabric.active_flow_count(), 0u);
  result.digest = fnv1a_mix(result.digest, fabric.delivered_bytes());
  return result;
}

TEST(FabricEquivalence, ComponentStormDigestsBitIdentical) {
  const StormResult first =
      run_component_storm(Fabric::AllocMode::kIncremental, /*seed=*/17);
  const StormResult again =
      run_component_storm(Fabric::AllocMode::kIncremental, /*seed=*/17);
  EXPECT_EQ(first.digest, again.digest) << "same-seed storm diverged";
  const StormResult reference =
      run_component_storm(Fabric::AllocMode::kFullRecompute, /*seed=*/17);
  EXPECT_EQ(first.digest, reference.digest)
      << "incremental and full-recompute storms diverged";
  // The storm must refill several components in one reallocation, or it
  // would not exercise the multi-component path at all.
  EXPECT_GT(first.widest_refill, 1u);
}

}  // namespace
}  // namespace droute::net
