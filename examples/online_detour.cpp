// The online control plane, end to end: ctrl::Controller learns the
// paper's UBC -> Google Drive throughput TIV from its own probes, steers
// upload sessions onto the UAlberta relay, rides out a chaos link failure
// on the CANARIE detour leg (the estimator resets, an out-of-band epoch
// re-learns the new regime), and walks back onto the relay once the link
// is restored. Every decision lands in a deterministic DecisionTrace, and a
// RouteMonitor on the detour's first leg shows the re-route behind it.
#include <cstdio>
#include <string>

#include "chaos/injector.h"
#include "chaos/plan.h"
#include "ctrl/controller.h"
#include "scenario/north_america.h"
#include "trace/route_monitor.h"
#include "util/units.h"

namespace {

using namespace droute;

void print_estimates(const ctrl::Controller& controller,
                     const scenario::World& world, net::NodeId client,
                     net::NodeId provider) {
  for (const ctrl::PathSpec& path : controller.candidate_paths(client)) {
    const ctrl::PathStats* stats =
        controller.estimator().lookup(client, provider, path);
    if (stats == nullptr) {
      std::printf("    %-16s : (no estimate yet)\n", path.label().c_str());
    } else {
      std::printf("    %-16s : %7.2f Mbps  (+/- %.2f, %zu samples)\n",
                  path.label().c_str(), stats->mean_mbps,
                  stats->interval().stddev, stats->samples);
    }
  }
  (void)world;
}

void steered_session(scenario::World& world, ctrl::Controller& controller,
                     std::uint64_t bytes) {
  const auto elapsed = world.run_steered_upload(
      cloud::ProviderKind::kGoogleDrive, controller, scenario::Client::kUBC,
      bytes);
  if (elapsed.ok()) {
    std::printf("  session: %llu MB in %.1f s (%.1f Mbps goodput)\n",
                static_cast<unsigned long long>(bytes / util::kMB),
                elapsed.value(),
                static_cast<double>(bytes) * 8e-6 / elapsed.value());
  } else {
    std::printf("  session: FAILED (%s)\n", elapsed.error().message.c_str());
  }
}

// Traces the watched leg and reports how many route changes this phase saw.
void snapshot_routes(trace::RouteMonitor& routes) {
  const auto changes = routes.snapshot();
  std::printf("  route monitor (UBC->UAlberta leg): %zu change(s)\n",
              changes.size());
}

}  // namespace

int main() {
  scenario::WorldConfig config;
  config.cross_traffic = false;
  auto world = scenario::World::create(config);

  const net::NodeId ubc = world->client_node(scenario::Client::kUBC);
  const net::NodeId gdrive =
      world->provider_node(cloud::ProviderKind::kGoogleDrive);

  // A controller wired to every paper client with UAlberta and UMich as
  // candidate DTN relays. Short epochs and a generous probe budget so the
  // demo converges in a few simulated seconds.
  ctrl::ControllerConfig ctrl_config;
  ctrl_config.epoch_s = 5.0;
  ctrl_config.probe_budget_bytes = 8 * util::kMB;
  ctrl_config.max_relay_hops = 1;
  ctrl::Controller& controller =
      world->make_controller(cloud::ProviderKind::kGoogleDrive, ctrl_config);

  // Chaos wiring: every injected event tells the controller its measured
  // picture is stale (it cancels probes, forgets estimates and incumbents,
  // and re-probes immediately).
  chaos::Injector injector({&world->simulator(), &world->fabric(),
                            &world->topology(), &world->routes(), {}});
  injector.set_post_apply([&controller](const chaos::Event& event) {
    controller.on_network_event(chaos::event_kind_name(event.kind));
  });

  // The relay's first leg, traced once per phase: the first snapshot is the
  // baseline, later ones record where the path diverged.
  trace::RouteMonitor routes(&world->tracer(), &world->topology());
  routes.watch(ubc,
               world->intermediate_node(scenario::Intermediate::kUAlberta));

  std::printf("phase 1: the controller probes and finds the TIV\n");
  controller.start();
  world->simulator().run_until(world->simulator().now() + 12.0);
  print_estimates(controller, *world, ubc, gdrive);
  for (const ctrl::TivFlag& flag :
       controller.estimator().flag_tivs()) {
    if (flag.client != ubc) continue;
    std::printf("  TIV flagged: %s at %.1f Mbps vs direct %.1f Mbps\n",
                flag.path.label().c_str(), flag.path_mbps, flag.direct_mbps);
  }
  steered_session(*world, controller, 50 * util::kMB);
  snapshot_routes(routes);

  std::printf("\nphase 2: the Vancouver<->Edmonton CANARIE link fails\n");
  const auto canarie_link = world->topology().find_link(
      world->node("vncv1rtr2.canarie.ca"), world->node("edmn1rtr2.canarie.ca"));
  if (!canarie_link) {
    std::printf("  (link not found; topology changed?)\n");
    return 1;
  }
  injector.apply({world->simulator().now(), chaos::EventKind::kLinkFail,
                  canarie_link.value(), 0.0});
  world->simulator().run_until(world->simulator().now() + 12.0);
  print_estimates(controller, *world, ubc, gdrive);
  steered_session(*world, controller, 50 * util::kMB);
  snapshot_routes(routes);
  std::printf("route monitor history:\n%s", routes.render_history().c_str());

  std::printf("\nphase 3: the link is repaired\n");
  injector.apply({world->simulator().now(), chaos::EventKind::kLinkRestore,
                  canarie_link.value(), 0.0});
  world->simulator().run_until(world->simulator().now() + 12.0);
  print_estimates(controller, *world, ubc, gdrive);
  steered_session(*world, controller, 50 * util::kMB);
  snapshot_routes(routes);

  controller.stop();
  std::printf("\ndecision trace (deterministic; same seed => same bytes):\n");
  const std::string trace = controller.trace().serialize();
  // The full trace logs every probe; print just the steer/event lines.
  std::size_t start = 0;
  while (start < trace.size()) {
    std::size_t end = trace.find('\n', start);
    if (end == std::string::npos) end = trace.size();
    const std::string line = trace.substr(start, end - start);
    if (line.find("steer") != std::string::npos ||
        line.find("event") != std::string::npos) {
      std::printf("  %s\n", line.c_str());
    }
    start = end + 1;
  }
  std::printf("trace digest: %016llx\n",
              static_cast<unsigned long long>(controller.trace().fnv1a()));
  return 0;
}
