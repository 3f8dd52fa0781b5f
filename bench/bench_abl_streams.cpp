// Ablation: parallel streams vs the routing detour.
//
// The PacificWave bottleneck is a *per-flow* policer, so N parallel streams
// through it get ~N x the per-flow rate — the classic DTN/GridFTP
// mitigation. But the provider upload APIs are strictly sequential
// (server-enforced in-order chunks), so stream parallelism is only available
// on raw host-to-host legs, never on the final API leg. This bench measures
// both halves of that argument on the calibrated scenario.
#include <cstdio>

#include "common.h"
#include "scenario/foreground.h"
#include "sim/task.h"
#include "transfer/parallel.h"
#include "util/table.h"
#include "util/units.h"

int main() {
  using namespace droute;
  std::printf("=== Ablation: parallel streams vs routing detour ===\n");
  std::printf("100 MB from the UBC PlanetLab node, quiet world.\n\n");

  constexpr std::uint64_t kBytes = 100 * util::kMB;
  scenario::WorldConfig config;
  config.cross_traffic = false;

  // Raw host-to-host push straight through the policed PacificWave path
  // (UBC -> Google front end), with 1..8 streams.
  util::TextTable raw({"streams", "UBC->GDrive raw push (s)",
                       "effective Mbps", "note"});
  for (const int streams : {1, 2, 4, 8}) {
    auto world = scenario::World::create(config);
    transfer::ParallelPushEngine engine(&world->fabric(),
                                        world->transfer_engine());
    transfer::FileSpec file = transfer::make_file_mb(100, 1);
    auto task = engine.push_task(
        world->client_node(scenario::Client::kUBC),
        world->provider_node(cloud::ProviderKind::kGoogleDrive), file,
        streams);
    const auto elapsed =
        sim::drive(world->simulator(), task, scenario::kForegroundDeadlineS)
            ? scenario::fold_elapsed(task.result())
            : util::Error::make("did not finish");
    if (!elapsed.ok()) {
      std::fprintf(stderr, "push failed: %s\n",
                   elapsed.error().message.c_str());
      return 1;
    }
    raw.add_row({std::to_string(streams),
                 util::fmt_seconds(elapsed.value()),
                 util::fmt_double(kBytes * 8e-6 / elapsed.value(), 1),
                 streams == 1 ? "policer-bound (9.3 Mbps/flow)"
                              : "policer defeated per stream"});
  }
  std::printf("%s\n", raw.render().c_str());

  // The real workload must end at the provider *API*, which is sequential:
  // compare the actual alternatives for a 100 MB Google Drive upload.
  util::TextTable api({"strategy", "time (s)", "why"});
  {
    auto world = scenario::World::create(config);
    api.add_row({"direct API upload",
                 util::fmt_seconds(
                     world
                         ->run_upload(scenario::Client::kUBC,
                                      cloud::ProviderKind::kGoogleDrive,
                                      scenario::RouteChoice::kDirect, kBytes)
                         .value()),
                 "sequential chunks through the policer"});
  }
  {
    auto world = scenario::World::create(config);
    api.add_row(
        {"detour via UAlberta (paper)",
         util::fmt_seconds(
             world
                 ->run_upload(scenario::Client::kUBC,
                              cloud::ProviderKind::kGoogleDrive,
                              scenario::RouteChoice::kViaUAlberta, kBytes)
                 .value()),
         "both legs avoid the policer"});
  }
  std::printf("%s\n", api.render().c_str());
  std::printf(
      "Reading: parallel streams *would* defeat the per-flow policer on a\n"
      "raw path (row 2+ of the first table), but Google Drive's resumable\n"
      "upload enforces in-order chunks, so no API client can use them on\n"
      "the last leg. The detour moves the policed segment onto a leg where\n"
      "the client controls the protocol — the paper's mitigation survives\n"
      "the obvious counter-proposal.\n");
  return 0;
}
