// Automatic detour selection end to end: probe candidate routes with small
// payloads, fit per-route cost models, recommend a route with the paper's
// overlap-conservatism.
//
//   $ ./detour_advisor [client: ubc|purdue|ucla]
#include <cstdio>
#include <cstring>

#include "core/planner.h"
#include "scenario/north_america.h"
#include "util/units.h"

int main(int argc, char** argv) {
  using namespace droute;
  scenario::Client client = scenario::Client::kUBC;
  if (argc > 1) {
    if (std::strcmp(argv[1], "purdue") == 0) client = scenario::Client::kPurdue;
    else if (std::strcmp(argv[1], "ucla") == 0) client = scenario::Client::kUCLA;
  }
  std::printf("Automatic detour selection for client %s (100 MB target)\n\n",
              scenario::client_name(client).c_str());

  for (const auto provider : cloud::all_providers()) {
    core::DetourPlanner::Options options;
    options.probes_per_size = 2;
    core::DetourPlanner planner(options);
    for (const auto route : scenario::all_routes()) {
      planner.add_candidate(
          scenario::route_name(route),
          scenario::make_transfer_fn(client, provider, route),
          route == scenario::RouteChoice::kDirect);
    }
    auto report = planner.plan(100 * util::kMB);
    if (!report.ok()) {
      std::fprintf(stderr, "planning failed: %s\n",
                   report.error().message.c_str());
      return 1;
    }

    std::printf("%s:\n", cloud::provider_name(provider).c_str());
    for (const auto& model : report.value().models) {
      std::printf("  %-14s overhead %5.2f s, rate %6.1f Mbps, "
                  "predicted %7.2f s\n",
                  model.key.c_str(), model.overhead_s,
                  model.rate_bytes_per_s * 8e-6,
                  model.predict_s(100 * util::kMB));
    }
    std::printf("  -> decision: %s (%s)\n     probe cost: %.1f simulated "
                "seconds, %.0f MB\n\n",
                report.value().decision.route_key.c_str(),
                report.value().decision.reason.c_str(),
                report.value().probe_cost_s,
                static_cast<double>(report.value().probe_bytes) / 1e6);
  }
  return 0;
}
