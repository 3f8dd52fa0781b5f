// Dynamic-bottleneck story, end to end (the paper's future work: "monitor
// and bypass dynamic bottlenecks on the WAN"):
//   1. steady state: probes confirm the UAlberta detour is healthy;
//   2. a mid-campaign failure (the CANARIE inter-city link dies) collapses
//      detour throughput;
//   3. DynamicMonitor flags the route, RouteMonitor shows what changed,
//      RouteAdvisor re-recommends, and the overlay table is updated.
#include <cstdio>

#include "core/advisor.h"
#include "core/monitor.h"
#include "core/overlay.h"
#include "scenario/foreground.h"
#include "scenario/north_america.h"
#include "sim/task.h"
#include "trace/route_monitor.h"
#include "transfer/file_spec.h"
#include "transfer/rsync_engine.h"
#include "util/units.h"

namespace {

// The probe, written against the coroutine API directly: push 5 MB across
// the detour leg and yield the achieved goodput in Mbps (0 on failure).
// Top-to-bottom control flow — no callback plumbing.
droute::sim::Task<double> probe_leg(droute::scenario::World& world) {
  using namespace droute;
  transfer::RsyncEngine engine(&world.fabric());
  const transfer::FileSpec file = transfer::make_file_mb(5, 42);
  auto push = engine.push_task(world.node("planetlab1.cs.ubc.ca"),
                               world.node("cluster.cs.ualberta.ca"), file);
  const auto result = co_await push;
  if (!result.ok() || !result.value().success) co_return 0.0;
  co_return static_cast<double>(file.bytes) * 8e-6 /
      result.value().duration_s();
}

}  // namespace

int main() {
  using namespace droute;
  scenario::WorldConfig config;
  config.cross_traffic = false;
  auto world = scenario::World::create(config);

  const auto ubc = world->node("planetlab1.cs.ubc.ca");
  const auto ua = world->node("cluster.cs.ualberta.ca");

  core::DynamicMonitor health;
  trace::RouteMonitor routes(&world->tracer(), &world->topology());
  routes.watch(ubc, ua);

  auto probe = [&]() -> double {
    auto task = probe_leg(*world);
    if (!sim::drive(world->simulator(), task, scenario::kForegroundDeadlineS)) {
      return 0.0;  // missed: drive() cancelled and unwound the probe
    }
    return task.result().ok() ? task.result().value() : 0.0;
  };

  std::printf("phase 1: steady state probes of the UBC->UAlberta leg\n");
  for (int i = 0; i < 5; ++i) {
    const double mbps = probe();
    health.observe("ubc->ualberta", mbps);
    routes.snapshot();
    std::printf("  probe %d: %.1f Mbps\n", i + 1, mbps);
  }
  std::printf("  baseline: %.1f Mbps, degraded=%s\n\n",
              health.baseline_mbps("ubc->ualberta").value_or(0.0),
              health.is_degraded("ubc->ualberta") ? "yes" : "no");

  std::printf("phase 2: the Edmonton<->Vancouver CANARIE link fails\n");
  const auto canarie_link = world->topology().find_link(
      world->node("vncv1rtr2.canarie.ca"),
      world->node("edmn1rtr2.canarie.ca"));
  if (canarie_link) world->fabric().fail_link(canarie_link.value());

  for (int i = 0; i < 4; ++i) {
    const double mbps = probe();
    health.observe("ubc->ualberta", mbps);
    const auto changes = routes.snapshot();
    std::printf("  probe %d: %.1f Mbps%s\n", i + 1, mbps,
                changes.empty() ? "" : "  [route change detected]");
  }
  std::printf("  degraded=%s\n\n",
              health.is_degraded("ubc->ualberta") ? "YES" : "no");
  std::printf("route monitor history:\n%s\n",
              routes.render_history().c_str());

  std::printf("phase 3: re-advise UBC -> Google Drive with the leg down\n");
  // Measure the surviving candidates with small transfers.
  auto measure_route = [&](scenario::RouteChoice route) -> core::RouteStats {
    core::RouteStats stats;
    stats.key = scenario::route_name(route);
    stats.is_direct = route == scenario::RouteChoice::kDirect;
    auto t = world->run_upload(scenario::Client::kUBC,
                               cloud::ProviderKind::kGoogleDrive, route,
                               10 * util::kMB);
    stats.summary.mean = t.ok() ? t.value() : 1e9;  // unreachable = infinite
    stats.summary.count = 1;
    return stats;
  };
  std::vector<core::RouteStats> candidates;
  for (const auto route : scenario::all_routes()) {
    candidates.push_back(measure_route(route));
    std::printf("  %-14s : %s\n", candidates.back().key.c_str(),
                candidates.back().summary.mean >= 1e9
                    ? "unreachable"
                    : (std::to_string(candidates.back().summary.mean) + " s")
                          .c_str());
  }
  const auto decision = core::RouteAdvisor().recommend(candidates);

  core::OverlayTable overlay;
  core::OverlayEntry entry;
  entry.client = "UBC";
  entry.provider = "Google Drive";
  entry.route_key = decision.route_key;
  entry.expected_s = decision.expected_s;
  overlay.install(entry);
  std::printf("\nnew overlay route: %s", overlay.render().c_str());
  std::printf("(was: via UAlberta before the failure)\n");
  return 0;
}
