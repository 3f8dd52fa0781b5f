// Fabric hot-path perf cases -> BENCH_fabric.json.
//
// Micro: water-filling cost at fixed fleet sizes, raw event-queue ops.
// Macro: the churn storm — a 100x-paper fleet of short flows arriving and
// draining across many independent pods, the workload the incremental
// allocator (DESIGN.md §12) exists for. The storm runs in both allocation
// modes and reports `speedup_vs_full`; the rewrite was accepted at >= 5x.
// fleet_10x runs 60 concurrent uploads inside one calibrated World, the
// allocator on the paper topology rather than synthetic pods.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cloud/provider.h"
#include "harness.h"
#include "net/fabric.h"
#include "net/routing.h"
#include "net/topology.h"
#include "obs/recorder.h"
#include "scenario/north_america.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/units.h"

namespace droute::bench {
namespace {

// A fleet of independent dumbbell pods: pod p is a_i[p] .. left[p] ==
// shared[p] == right[p] .. b_i[p]. Pods never share links, so every pod is
// its own max-min component — the structure real fleets have (distinct
// client sites x provider ingress paths) and the locality the incremental
// allocator exploits.
struct PodFleet {
  net::Topology topo;
  net::RouteTable routes{nullptr};
  sim::Simulator simulator;
  std::unique_ptr<net::Fabric> fabric;
  std::vector<net::NodeId> a, b;  // hosts_per_pod entries per pod

  PodFleet(int pods, int hosts_per_pod, net::Fabric::AllocMode mode) {
    net::Topology::Builder builder;
    const net::AsId as = builder.add_as("BENCH");
    for (int p = 0; p < pods; ++p) {
      const std::string tag = std::to_string(p);
      const net::NodeId left = builder.add_router(as, "l" + tag, {40, -100});
      const net::NodeId right = builder.add_router(as, "r" + tag, {40, -99});
      for (int h = 0; h < hosts_per_pod; ++h) {
        const std::string host_tag = tag + "_" + std::to_string(h);
        const net::NodeId ah = builder.add_host(as, "a" + host_tag, {40, -100});
        const net::NodeId bh = builder.add_host(as, "b" + host_tag, {40, -99});
        builder.add_duplex(ah, left, 10000, 0.0005);
        builder.add_duplex(right, bh, 10000, 0.0005);
        a.push_back(ah);
        b.push_back(bh);
      }
      builder.add_duplex(left, right, 1000, 0.01);
    }
    auto built = std::move(builder).build();
    if (!built.ok()) {
      std::fprintf(stderr, "pod fleet build failed: %s\n",
                   built.error().message.c_str());
      std::exit(1);
    }
    topo = std::move(built).value();
    routes = net::RouteTable(&topo);
    fabric = std::make_unique<net::Fabric>(&simulator, &topo, &routes);
    fabric->set_alloc_mode(mode);
  }
};

// Closed-loop storm: every host pair keeps exactly one flow in flight and
// starts the next generation the instant the previous one completes, so the
// live fleet stays at pair-count flows while arrivals/departures churn the
// allocation continuously. Returns an FNV-1a digest over completion times so
// the two allocation modes can be cross-checked for exact agreement.
struct Storm {
  PodFleet* fleet = nullptr;
  int generations = 0;
  std::uint64_t digest = 0xcbf29ce484222325ull;
  std::uint64_t done = 0;
  std::vector<util::Rng> pair_rng;  // per-pair size stream, mode-independent

  void start_next(std::size_t pair, int generation) {
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(pair_rng[pair].uniform_int(10, 40)) *
        util::kMB;
    net::FlowOptions options;
    options.charge_slow_start = false;
    auto flow = fleet->fabric->start_flow(
        fleet->a[pair], fleet->b[pair], bytes,
        [this, pair, generation](const net::FlowStats& stats) {
          const double duration = stats.duration_s();
          const unsigned char* raw =
              reinterpret_cast<const unsigned char*>(&duration);
          for (std::size_t i = 0; i < sizeof duration; ++i) {
            digest ^= raw[i];
            digest *= 0x100000001b3ull;
          }
          ++done;
          if (generation + 1 < generations) start_next(pair, generation + 1);
        },
        options);
    if (!flow.ok()) {
      std::fprintf(stderr, "storm start_flow failed: %s\n",
                   flow.error().message.c_str());
      std::exit(1);
    }
  }
};

std::uint64_t run_storm(PodFleet& fleet, int generations,
                        std::uint64_t* completed) {
  util::Rng rng(7);
  Storm storm;
  storm.fleet = &fleet;
  storm.generations = generations;
  storm.pair_rng.reserve(fleet.a.size());
  for (std::size_t pair = 0; pair < fleet.a.size(); ++pair) {
    storm.pair_rng.push_back(rng.fork(pair));
    // Stagger generation 0 so pods never start in lockstep.
    fleet.simulator.schedule_at(rng.uniform(0.0, 2.0), [&storm, pair] {
      storm.start_next(pair, 0);
    });
  }
  fleet.simulator.run();
  *completed = storm.done;
  return storm.digest;
}

double wall_ms(const std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

DROUTE_BENCH(realloc_flows_100, "ms") {
  const int kRepeatsPerSample = ctx.quick() ? 1 : 20;
  // One pod, 100 flows sharing one bottleneck: the densest component the
  // full water-fill has to chew through per event at paper scale.
  auto fleet = std::make_shared<PodFleet>(1, 100,
                                          net::Fabric::AllocMode::kIncremental);
  net::FlowOptions options;
  options.charge_slow_start = false;
  for (std::size_t i = 0; i < fleet->a.size(); ++i) {
    auto flow = fleet->fabric->start_flow(fleet->a[i], fleet->b[i],
                                          1000 * util::kMB, {}, options);
    if (!flow.ok()) std::exit(1);
  }
  ctx.set_events(kRepeatsPerSample);
  ctx.extra("flows", static_cast<double>(fleet->a.size()));
  ctx.set_work([fleet, kRepeatsPerSample] {
    for (int i = 0; i < kRepeatsPerSample; ++i) {
      fleet->fabric->reallocate_now();
    }
  });
}

DROUTE_BENCH(realloc_flows_1000, "ms") {
  const int kRepeatsPerSample = ctx.quick() ? 1 : 5;
  auto fleet = std::make_shared<PodFleet>(1, 1000,
                                          net::Fabric::AllocMode::kIncremental);
  net::FlowOptions options;
  options.charge_slow_start = false;
  for (std::size_t i = 0; i < fleet->a.size(); ++i) {
    auto flow = fleet->fabric->start_flow(fleet->a[i], fleet->b[i],
                                          1000 * util::kMB, {}, options);
    if (!flow.ok()) std::exit(1);
  }
  ctx.set_events(kRepeatsPerSample);
  ctx.extra("flows", static_cast<double>(fleet->a.size()));
  ctx.set_work([fleet, kRepeatsPerSample] {
    for (int i = 0; i < kRepeatsPerSample; ++i) {
      fleet->fabric->reallocate_now();
    }
  });
}

DROUTE_BENCH(event_queue_ops, "ms") {
  const int kEvents = ctx.quick() ? 1000 : 100000;
  ctx.set_events(kEvents);
  ctx.set_work([kEvents] {
    sim::Simulator simulator;
    util::Rng rng(11);
    std::vector<sim::EventId> cancellable;
    cancellable.reserve(static_cast<std::size_t>(kEvents) / 4);
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < kEvents; ++i) {
      const sim::EventId id = simulator.schedule_at(
          rng.uniform(0.0, 1000.0), [&sink] { sink = sink + 1; });
      if (i % 4 == 0) cancellable.push_back(id);
    }
    for (const sim::EventId id : cancellable) simulator.cancel(id);
    simulator.run();
  });
}

DROUTE_BENCH(churn_storm_100x, "ms") {
  // Paper scale is ~6 concurrent flows (one foreground + five cross-traffic
  // sources); 100x = 600 concurrent across 60 independent pods. The storm is
  // closed-loop, so all 600 stay in flight for the whole run.
  const int pods = ctx.quick() ? 6 : 60;
  const int hosts_per_pod = 10;
  const int generations = ctx.quick() ? 2 : 8;

  // Full-recompute baseline (the retained reference allocator), untimed by
  // the harness: one storm, wall-clocked here for the speedup ratio.
  auto t0 = std::chrono::steady_clock::now();
  PodFleet full(pods, hosts_per_pod, net::Fabric::AllocMode::kFullRecompute);
  std::uint64_t full_completed = 0;
  const std::uint64_t full_digest = run_storm(full, generations, &full_completed);
  const double full_ms = wall_ms(t0);

  t0 = std::chrono::steady_clock::now();
  PodFleet probe(pods, hosts_per_pod, net::Fabric::AllocMode::kIncremental);
  std::uint64_t probe_completed = 0;
  const std::uint64_t probe_digest = run_storm(probe, generations, &probe_completed);
  const double incremental_ms = wall_ms(t0);

  // A storm that diverges across modes would be benchmarking a bug.
  if (probe_digest != full_digest || probe_completed != full_completed) {
    std::fprintf(stderr,
                 "churn storm diverged across alloc modes "
                 "(digest %016llx vs %016llx)\n",
                 static_cast<unsigned long long>(probe_digest),
                 static_cast<unsigned long long>(full_digest));
    std::exit(1);
  }

  ctx.set_events(static_cast<double>(probe_completed));
  ctx.extra("fleet_flows", static_cast<double>(pods * hosts_per_pod));
  ctx.extra("full_recompute_ms", full_ms);
  ctx.extra("speedup_vs_full",
            incremental_ms > 0.0 ? full_ms / incremental_ms : 0.0);
  ctx.set_work([pods, hosts_per_pod, generations] {
    PodFleet fleet(pods, hosts_per_pod, net::Fabric::AllocMode::kIncremental);
    std::uint64_t completed = 0;
    run_storm(fleet, generations, &completed);
  });
}

// Starts `fleet_flows` concurrent uploads spread over every client x
// provider pair of a fresh calibrated World and runs the simulator until all
// of them drain. Exercises the incremental allocator on the paper topology
// (shared bottlenecks, policers, live cross traffic) rather than synthetic
// pods. Returns the fabric's finish-heap re-keys.
std::uint64_t run_fleet(std::uint64_t seed, int fleet_flows) {
  scenario::WorldConfig config;
  config.seed = seed;
  auto world = scenario::World::create(config);
  // Cross-traffic warm-up, same budget as run_upload's internal warm-up.
  world->simulator().run_until(config.warmup_s);

  const std::vector<scenario::Client> clients = scenario::all_clients();
  const std::vector<cloud::ProviderKind> providers = cloud::all_providers();
  net::FlowOptions options;
  options.charge_slow_start = false;
  options.label = "bench.fleet";
  auto remaining = std::make_shared<int>(fleet_flows);
  for (int i = 0; i < fleet_flows; ++i) {
    const net::NodeId src =
        world->client_node(clients[static_cast<std::size_t>(i) %
                                   clients.size()]);
    const net::NodeId dst = world->provider_node(
        providers[(static_cast<std::size_t>(i) / clients.size()) %
                  providers.size()]);
    const std::uint64_t bytes = (10 + 5 * (i % 7)) * util::kMB;
    auto flow = world->fabric().start_flow(
        src, dst, bytes, [remaining](const net::FlowStats&) { --*remaining; },
        options);
    if (!flow.ok()) {
      std::fprintf(stderr, "fleet start_flow failed: %s\n",
                   flow.error().message.c_str());
      std::exit(1);
    }
  }
  // Cross-traffic sources schedule events forever, so the queue never
  // drains; advance in slices until the fleet itself completes.
  double horizon_s = config.warmup_s;
  while (*remaining > 0) {
    horizon_s += 60.0;
    if (horizon_s > 1e6) {
      std::fprintf(stderr, "fleet stalled with %d flow(s) unfinished\n",
                   *remaining);
      std::exit(1);
    }
    world->simulator().run_until(horizon_s);
  }
  return world->fabric().finish_rekeys();
}

DROUTE_BENCH(fleet_10x, "ms") {
  const int fleet_flows = 60;  // 10x the paper's ~6 concurrent flows
  ctx.set_events(fleet_flows);
  ctx.extra("fleet_flows", fleet_flows);
  {
    // One untimed fleet under a private recorder, for the refill count:
    // the finish heap keys route classes, so a refill re-keys only its
    // changed classes.
    obs::Recorder recorder;
    obs::ScopedRecorder install(&recorder);
    const double rekeys = static_cast<double>(run_fleet(2016, fleet_flows));
    const obs::Counter* refills =
        recorder.metrics().counter("net.realloc_components_total");
    const double components =
        refills != nullptr ? static_cast<double>(refills->value()) : 0.0;
    ctx.extra("finish_rekeys_per_refill",
              components > 0.0 ? rekeys / components : 0.0);
  }
  ctx.set_work([fleet_flows] { run_fleet(2016, fleet_flows); });
}

}  // namespace
}  // namespace droute::bench

int main(int argc, char** argv) {
  return droute::bench::bench_main(argc, argv, "BENCH_fabric.json");
}
