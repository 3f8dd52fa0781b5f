// Ablation: online detour selection (ctrl::Controller) vs the oracle (full
// measurement). One World per provider runs a controller over the paper's
// three routes for every client; after a fixed probe window each client
// steers one 100 MB session. Reports per-cell agreement with the oracle,
// the regret of wrong picks, and the probe bytes the controller spent.
//
// The probe window is fixed by rule, not tuned per seed: three epochs at the
// default 10 s epoch_s. Two epochs of the 2 MB per-epoch budget probe every
// candidate once (3 clients x (1 + 2 + 2) legs of 256 KiB = 3.9 MB); the
// third re-probes the paths probed first. Steering happens at the window's
// end, after the cross traffic's 90 s warm-up.
#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "common.h"
#include "obs/recorder.h"
#include "util/table.h"
#include "util/units.h"

int main() {
  using namespace droute;
  std::printf("=== Ablation: online detour selection vs oracle ===\n\n");

  constexpr std::uint64_t kTarget = 100 * util::kMB;
  constexpr std::uint64_t kWorldSeed = 1;
  constexpr int kProbeEpochs = 3;

  // Controller arm: one World per provider; picks keyed by (client,
  // provider), probe bytes by provider.
  std::map<std::pair<scenario::Client, cloud::ProviderKind>, std::string>
      picks;
  std::map<cloud::ProviderKind, double> probe_bytes;
  for (const auto provider : cloud::all_providers()) {
    obs::Recorder recorder(0);  // metrics only; spans are not needed
    obs::ScopedRecorder install(&recorder);
    scenario::WorldConfig config;
    config.seed = kWorldSeed;
    auto world = scenario::World::create(config);
    world->simulator().run_until(config.warmup_s);

    ctrl::ControllerConfig ctrl_config;
    ctrl_config.max_relay_hops = 1;  // the paper's three routes
    ctrl::Controller& ctrl = world->make_controller(provider, ctrl_config);
    ctrl.start();
    world->simulator().run_until(world->simulator().now() +
                                 kProbeEpochs * ctrl_config.epoch_s);
    for (const auto client : scenario::all_clients()) {
      const ctrl::Decision decision =
          ctrl.steer(world->client_node(client), kTarget);
      for (const auto route : scenario::all_routes()) {
        if (world->path_of(route) == decision.path) {
          picks[{client, provider}] = scenario::route_name(route);
        }
      }
    }
    ctrl.stop();
    probe_bytes[provider] =
        recorder.metrics().histogram("ctrl.probe_budget_spent_bytes")->sum();
  }

  util::TextTable table({"Client", "Provider", "controller pick",
                         "oracle pick", "agree", "regret (s)"});
  int agreements = 0, cells = 0;
  for (const auto client : scenario::all_clients()) {
    for (const auto provider : cloud::all_providers()) {
      // Oracle: full 7-run measurement at the target size.
      const auto series = bench::measure_figure(client, provider, {kTarget});
      std::string oracle;
      double oracle_time = 1e18;
      std::map<std::string, double> actual;
      for (const auto& s : series) {
        const double mean = s.by_size.at(kTarget).kept.mean;
        actual[scenario::route_name(s.route)] = mean;
        if (mean < oracle_time) {
          oracle_time = mean;
          oracle = scenario::route_name(s.route);
        }
      }
      const std::string& pick = picks.at({client, provider});
      const bool agree = pick == oracle;
      agreements += agree ? 1 : 0;
      ++cells;
      table.add_row({scenario::client_name(client),
                     cloud::provider_name(provider), pick, oracle,
                     agree ? "yes" : "NO",
                     util::fmt_seconds(actual.at(pick) - oracle_time)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Probe spend per provider World (3 clients, %d epochs):\n",
              kProbeEpochs);
  double worst = 0.0;
  for (const auto& [provider, bytes] : probe_bytes) {
    std::printf("  %-12s %.2f MB\n", cloud::provider_name(provider).c_str(),
                bytes / 1e6);
    if (bytes > worst) worst = bytes;
  }
  std::printf("\nAgreement: %d/%d cells, at most %.2f MB of probes per World\n"
              "(%.2f MB per (client, provider) pair). The paper stopped at\n"
              "identifying the best detour by hand (Sec III-B); this is the\n"
              "missing selection algorithm, run online.\n",
              agreements, cells, worst / 1e6, worst / 3e6);
  return 0;
}
