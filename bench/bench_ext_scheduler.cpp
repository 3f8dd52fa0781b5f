// Extension experiment: an institutional DTN service. A realistic client
// workload (Drago-style sessions) uploads from Purdue to all three providers
// for two simulated hours, once with every job routed directly and once with
// the overlay table holding the paper's best routes. Reports completion-time
// percentiles and makespan — the aggregate value of detour routing, beyond
// single-transfer benchmarks.
#include <cstdio>

#include "common.h"
#include "core/scheduler.h"
#include "measure/workload.h"
#include "scenario/foreground.h"
#include "stats/histogram.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/units.h"

namespace {

using namespace droute;

struct PolicyRun {
  double makespan = 0.0;
  stats::Histogram completion{std::vector<double>{
      30.0, 60.0, 120.0, 300.0, 600.0, 1200.0, 2400.0}};
  int failures = 0;
  std::size_t jobs = 0;
};

PolicyRun run_policy(bool use_overlay, std::uint64_t seed) {
  scenario::WorldConfig config;
  config.seed = seed;
  config.cross_traffic = true;
  auto world = scenario::World::create(config);

  core::OverlayTable overlay;
  if (use_overlay) {
    // The paper's Table V conclusions for Purdue: Google Drive detours via
    // UAlberta; Dropbox and OneDrive go direct (Table I main cells).
    core::OverlayEntry entry;
    entry.client = "Purdue";
    entry.provider = "Google Drive";
    entry.route_key = "via UAlberta";
    overlay.install(entry);
  }

  auto launcher = [&world](const core::TransferJob& job,
                           const std::string& route,
                           std::function<void(bool, std::string)> done) {
    cloud::ProviderKind provider = cloud::ProviderKind::kGoogleDrive;
    if (job.provider == "Dropbox") provider = cloud::ProviderKind::kDropbox;
    if (job.provider == "OneDrive") provider = cloud::ProviderKind::kOneDrive;
    transfer::FileSpec file = transfer::make_file_mb(
        std::max<std::uint64_t>(1, job.bytes / util::kMB), 31);
    file.bytes = job.bytes;
    file.name = job.id;
    const auto client = world->client_node(scenario::Client::kPurdue);
    auto report = [done](const auto& joined) {
      const auto elapsed = scenario::fold_elapsed(joined);
      done(elapsed.ok(), elapsed.ok() ? "" : elapsed.error().message);
    };
    if (route == "Direct") {
      auto task = world->api_engine(provider).upload_task(client, file);
      task.on_done(report);
    } else {
      auto task = world->detour_engine(provider).transfer_task(
          client,
          world->intermediate_node(scenario::Intermediate::kUAlberta), file);
      task.on_done(report);
    }
  };

  core::BatchScheduler scheduler(
      {.max_concurrent = 2}, [&world] { return world->simulator().now(); },
      launcher);
  scheduler.use_overlay(&overlay);
  scheduler.start();

  // Generate the workload and schedule submissions on the simulator clock.
  measure::WorkloadProfile profile;
  profile.mean_session_interarrival_s = 420.0;
  profile.file_size_mean_mb = 15.0;
  profile.max_bytes = 100 * util::kMB;
  util::Rng rng(seed ^ 0xb47c4);
  const auto items = measure::generate_workload(rng, profile, 7200.0);
  const char* providers[] = {"Google Drive", "Dropbox", "OneDrive"};
  int counter = 0;
  for (const auto& item : items) {
    core::TransferJob job;
    job.id = "job" + std::to_string(counter);
    job.client = "Purdue";
    job.provider = providers[counter % 3];
    job.bytes = item.bytes;
    ++counter;
    world->simulator().schedule_at(
        world->simulator().now() + item.at_s,
        [&scheduler, job] { (void)scheduler.submit(job); });
  }

  // Drive until every job has completed (cross traffic never stops, so run
  // until the scheduler drains after the last submission).
  while (!(scheduler.idle() &&
           scheduler.outcomes().size() == items.size())) {
    if (!world->simulator().step()) break;
    if (world->simulator().now() > 80000.0) break;  // safety
  }

  PolicyRun run;
  run.jobs = scheduler.outcomes().size();
  run.makespan = scheduler.makespan_s();
  for (const auto& outcome : scheduler.outcomes()) {
    if (!outcome.success) {
      ++run.failures;
      continue;
    }
    run.completion.add(outcome.duration_s());
  }
  return run;
}

}  // namespace

int main() {
  std::printf("=== Extension: DTN batch service, direct vs overlay ===\n");
  std::printf("2 h Drago-style workload from Purdue to all providers,\n"
              "concurrency 2, same seed for both policies.\n\n");

  const PolicyRun direct = run_policy(false, droute::bench::bench_seed());
  const PolicyRun overlay = run_policy(true, droute::bench::bench_seed());

  droute::util::TextTable table(
      {"policy", "jobs", "failures", "p50 (s)", "p90 (s)", "p99 (s)",
       "makespan (s)"});
  auto add = [&](const char* name, const PolicyRun& run) {
    table.add_row({name, std::to_string(run.jobs),
                   std::to_string(run.failures),
                   droute::util::fmt_seconds(run.completion.percentile(50)),
                   droute::util::fmt_seconds(run.completion.percentile(90)),
                   droute::util::fmt_seconds(run.completion.percentile(99)),
                   droute::util::fmt_seconds(run.makespan)});
  };
  add("all-direct", direct);
  add("overlay (paper routes)", overlay);
  std::printf("%s\n", table.render().c_str());

  std::printf("completion-time distribution, all-direct:\n%s\n",
              direct.completion.render(40).c_str());
  std::printf("completion-time distribution, overlay:\n%s\n",
              overlay.completion.render(40).c_str());
  std::printf("The overlay's win concentrates in the tail: Google-bound jobs\n"
              "stop queueing behind the congested commodity transit.\n");
  return 0;
}
