// Extension experiment: an institutional DTN service. A realistic client
// workload (Drago-style sessions) uploads from Purdue to all three providers
// for two simulated hours, once with every job routed directly and once with
// Google Drive steered along the paper's best route. Reports completion-time
// percentiles and makespan — the aggregate value of detour routing, beyond
// single-transfer benchmarks — and ends with an FNV-1a digest of every job
// outcome (id, start, finish, success) of both policies.
#include <cstdio>

#include "common.h"
#include "ctrl/scheduler.h"
#include "measure/workload.h"
#include "stats/histogram.h"
#include "util/fmt.h"
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
  std::string outcome_text;  // one "id start finish success" line per job
};

PolicyRun run_policy(bool paper_routes, std::uint64_t seed) {
  scenario::WorldConfig config;
  config.seed = seed;
  config.cross_traffic = true;
  auto world = scenario::World::create(config);

  // The paper's Table V conclusions for Purdue: Google Drive detours via
  // UAlberta; Dropbox and OneDrive go direct (Table I main cells).
  ctrl::StaticSteering direct;
  ctrl::StaticSteering via_ualberta(ctrl::PathSpec{
      {world->intermediate_node(scenario::Intermediate::kUAlberta)}});
  const cloud::ProviderKind providers[] = {cloud::ProviderKind::kGoogleDrive,
                                           cloud::ProviderKind::kDropbox,
                                           cloud::ProviderKind::kOneDrive};
  ctrl::BatchScheduler scheduler(world->simulator(), 2);
  scheduler.start();

  // Generate the workload and schedule submissions on the simulator clock.
  measure::WorkloadProfile profile;
  profile.mean_session_interarrival_s = 420.0;
  profile.file_size_mean_mb = 15.0;
  profile.max_bytes = 100 * util::kMB;
  util::Rng rng(seed ^ 0xb47c4);
  const auto items = measure::generate_workload(rng, profile, 7200.0);
  const auto client = world->client_node(scenario::Client::kPurdue);
  int counter = 0;
  for (const auto& item : items) {
    const std::string id = "job" + std::to_string(counter);
    transfer::FileSpec file = transfer::make_file_mb(
        std::max<std::uint64_t>(1, item.bytes / util::kMB), 31);
    file.bytes = item.bytes;
    file.name = id;
    const cloud::ProviderKind provider = providers[counter % 3];
    ctrl::StaticSteering& steering =
        paper_routes && provider == cloud::ProviderKind::kGoogleDrive
            ? via_ualberta
            : direct;
    ctrl::TransferJob job{
        id, 0, client, world->detour_engine(provider), steering, file};
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
    run.outcome_text += outcome.id + " " +
                        util::format_double(outcome.started_at) + " " +
                        util::format_double(outcome.finished_at) + " " +
                        (outcome.success ? "1" : "0") + "\n";
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
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a 64
  for (const char c : direct.outcome_text + overlay.outcome_text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  std::printf("outcome digest: %016llx\n",
              static_cast<unsigned long long>(hash));
  return 0;
}
