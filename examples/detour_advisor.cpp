// Automatic detour selection end to end: per provider, an online controller
// probes the paper's three routes from a warmed-up World, then steers one
// 100 MB upload with the paper's overlap-conservatism. Prints each route's
// throughput estimate, the decision with its reason, and the probe bytes
// spent.
//
//   $ ./detour_advisor [client: ubc|purdue|ucla]
#include <cstdio>
#include <map>
#include <string>

#include "obs/recorder.h"
#include "scenario/north_america.h"
#include "util/units.h"

int main(int argc, char** argv) {
  using namespace droute;
  const std::map<std::string, scenario::Client> clients = {
      {"ubc", scenario::Client::kUBC},
      {"purdue", scenario::Client::kPurdue},
      {"ucla", scenario::Client::kUCLA}};
  const auto chosen = clients.find(argc > 1 ? argv[1] : "ubc");
  if (argc > 2 || chosen == clients.end()) {
    std::fprintf(stderr, "usage: %s [client: ubc|purdue|ucla]\n", argv[0]);
    return 2;
  }
  const scenario::Client client = chosen->second;
  std::printf("Automatic detour selection for client %s (100 MB target)\n\n",
              scenario::client_name(client).c_str());

  for (const auto provider : cloud::all_providers()) {
    obs::Recorder recorder(0);  // metrics only: the probe spend
    obs::ScopedRecorder install(&recorder);
    scenario::WorldConfig world_config;
    auto world = scenario::World::create(world_config);
    world->simulator().run_until(world_config.warmup_s);

    ctrl::ControllerConfig config;
    config.max_relay_hops = 1;  // direct, via UAlberta, via UMich
    ctrl::Controller& ctrl = world->make_controller(provider, config);
    ctrl.start();
    world->simulator().run_until(world->simulator().now() +
                                 3 * config.epoch_s);
    const net::NodeId node = world->client_node(client);
    const ctrl::Decision decision = ctrl.steer(node, 100 * util::kMB);
    ctrl.stop();

    std::printf("%s:\n", cloud::provider_name(provider).c_str());
    std::string pick = decision.path.label();
    for (const auto route : scenario::all_routes()) {
      const ctrl::PathSpec path = world->path_of(route);
      if (path == decision.path) pick = scenario::route_name(route);
      const ctrl::PathStats* stats = ctrl.estimator().lookup(
          node, world->provider_node(provider), path);
      if (stats == nullptr) {
        std::printf("  %-14s not probed\n",
                    scenario::route_name(route).c_str());
        continue;
      }
      std::printf("  %-14s %7.1f +/- %5.1f Mbps (%zu samples)\n",
                  scenario::route_name(route).c_str(), stats->mean_mbps,
                  stats->interval().stddev, stats->samples);
    }
    std::printf("  -> decision: %s (%s)\n     probe spend: %.2f MB for the "
                "World's three clients\n\n",
                pick.c_str(), decision.reason.c_str(),
                recorder.metrics()
                        .histogram("ctrl.probe_budget_spent_bytes")
                        ->sum() /
                    1e6);
  }
  return 0;
}
