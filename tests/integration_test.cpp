// Cross-module integration: the full pipeline the paper implies —
// measure -> catalogue TIVs -> plan detours -> run the pick as a steered
// scheduler job.
// Reacting to dynamic bottlenecks is the controller's job (ctrl_test).
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/planner.h"
#include "core/tiv.h"
#include "ctrl/scheduler.h"
#include "measure/campaign.h"
#include "scenario/north_america.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace droute {
namespace {

using cloud::ProviderKind;
using scenario::Client;
using scenario::RouteChoice;
using scenario::World;
using scenario::WorldConfig;

WorldConfig quiet() {
  WorldConfig config;
  config.cross_traffic = false;
  return config;
}

TEST(Integration, TivCatalogueFindsUAlbertaDetourForUbcGoogle) {
  // Build the intro's time matrix from simulated transfers, then run the
  // TIV detector: the UBC->(UAlberta)->GDrive violation must be found and
  // the UBC->(UMich)->GDrive non-violation must not.
  constexpr std::uint64_t kBytes = 100 * util::kMB;
  auto world1 = World::create(quiet());
  core::TimeMatrix matrix;
  matrix.set("UBC", "GDrive",
             world1
                 ->run_upload(Client::kUBC, ProviderKind::kGoogleDrive,
                              RouteChoice::kDirect, kBytes)
                 .value());
  auto world2 = World::create(quiet());
  matrix.set("UBC", "UAlberta",
             world2
                 ->run_rsync("planetlab1.cs.ubc.ca", "cluster.cs.ualberta.ca",
                             kBytes)
                 .value());
  auto world3 = World::create(quiet());
  matrix.set("UBC", "UMich",
             world3
                 ->run_rsync("planetlab1.cs.ubc.ca",
                             "planetlab01.eecs.umich.edu", kBytes)
                 .value());
  auto world4 = World::create(quiet());
  auto task4 = world4->api_engine(ProviderKind::kGoogleDrive)
                   .upload_task(world4->intermediate_node(
                                    scenario::Intermediate::kUAlberta),
                                transfer::make_file_mb(100, 1));
  world4->simulator().run();
  ASSERT_TRUE(task4.done());
  ASSERT_TRUE(task4.result().ok());
  matrix.set("UAlberta", "GDrive", task4.result().value().duration_s());
  auto world5 = World::create(quiet());
  auto task5 = world5->api_engine(ProviderKind::kGoogleDrive)
                   .upload_task(world5->intermediate_node(
                                    scenario::Intermediate::kUMich),
                                transfer::make_file_mb(100, 2));
  world5->simulator().run();
  ASSERT_TRUE(task5.done());
  ASSERT_TRUE(task5.result().ok());
  matrix.set("UMich", "GDrive", task5.result().value().duration_s());

  const auto violations = core::find_violations(matrix);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].via, "UAlberta");
  EXPECT_EQ(violations[0].dst, "GDrive");
  EXPECT_GT(violations[0].speedup, 2.0);
}

TEST(Integration, PlannerSelectsPaperRoutesPerClient) {
  // Automatic detour selection over the real scenario: UBC->GDrive should
  // pick via UAlberta; UBC->Dropbox should stay direct.
  auto plan_for = [](ProviderKind provider) {
    core::DetourPlanner::Options options;
    options.probes_per_size = 1;
    core::DetourPlanner planner(options);
    planner.add_candidate("Direct",
                          scenario::make_transfer_fn(Client::kUBC, provider,
                                                     RouteChoice::kDirect,
                                                     quiet()),
                          true);
    planner.add_candidate("via UAlberta",
                          scenario::make_transfer_fn(
                              Client::kUBC, provider,
                              RouteChoice::kViaUAlberta, quiet()),
                          false);
    planner.add_candidate("via UMich",
                          scenario::make_transfer_fn(Client::kUBC, provider,
                                                     RouteChoice::kViaUMich,
                                                     quiet()),
                          false);
    auto report = planner.plan(100 * util::kMB);
    EXPECT_TRUE(report.ok());
    return report.value();
  };

  const auto gdrive = plan_for(ProviderKind::kGoogleDrive);
  EXPECT_EQ(gdrive.decision.route_key, "via UAlberta");
  const auto dropbox = plan_for(ProviderKind::kDropbox);
  EXPECT_EQ(dropbox.decision.route_key, "Direct");

  // Probe cost is charged and is much cheaper than one bad 100 MB transfer.
  EXPECT_GT(gdrive.probe_cost_s, 0.0);
  EXPECT_LT(gdrive.probe_bytes, 100 * util::kMB);
}

TEST(Integration, PlannerPickRunsAsASteeredSchedulerJob) {
  constexpr std::uint64_t kBytes = 60 * util::kMB;
  auto world = World::create(quiet());
  const std::map<std::string, ctrl::PathSpec> paths = {
      {"Direct", ctrl::PathSpec{}},
      {"via UAlberta",
       ctrl::PathSpec{
           {world->intermediate_node(scenario::Intermediate::kUAlberta)}}}};

  core::DetourPlanner::Options options;
  options.probes_per_size = 1;
  core::DetourPlanner planner(options);
  for (const auto& [key, path] : paths) {
    planner.add_candidate(
        key,
        scenario::make_transfer_fn(Client::kUBC, ProviderKind::kGoogleDrive,
                                   path.direct() ? RouteChoice::kDirect
                                                 : RouteChoice::kViaUAlberta,
                                   quiet()),
        path.direct());
  }
  const auto report = planner.plan(kBytes).value();
  ASSERT_EQ(report.decision.route_key, "via UAlberta");

  // The planner's pick becomes the job's steering, and the upload runs as
  // a scheduler job.
  ctrl::StaticSteering steering(paths.at(report.decision.route_key));
  transfer::FileSpec file = transfer::make_file_mb(60, 9);
  file.name = "planned-60mb";
  ctrl::BatchScheduler scheduler(world->simulator(), 1);
  ASSERT_TRUE(scheduler.submit(
      {"planned", 0, world->client_node(Client::kUBC),
       world->detour_engine(ProviderKind::kGoogleDrive), steering, file}));
  scheduler.start();
  world->simulator().run();

  ASSERT_EQ(scheduler.outcomes().size(), 1u);
  const ctrl::JobOutcome& outcome = scheduler.outcomes()[0];
  EXPECT_TRUE(outcome.success) << outcome.error;
  EXPECT_EQ(outcome.decision.path, paths.at("via UAlberta"));
  EXPECT_EQ(world->server(ProviderKind::kGoogleDrive).object_count(), 1u);
}

TEST(Integration, CampaignGridRunsInParallelDeterministically) {
  measure::Campaign campaign(2026);
  campaign.add_route("ubc-gdrive-direct",
                     scenario::make_transfer_fn(Client::kUBC,
                                                ProviderKind::kGoogleDrive,
                                                RouteChoice::kDirect));
  campaign.add_route("ubc-gdrive-via-ua",
                     scenario::make_transfer_fn(Client::kUBC,
                                                ProviderKind::kGoogleDrive,
                                                RouteChoice::kViaUAlberta));
  measure::Protocol fast_protocol;
  fast_protocol.total_runs = 3;
  fast_protocol.keep_last = 2;

  util::ThreadPool pool(4);
  const auto parallel = campaign.run_grid({10 * util::kMB}, fast_protocol,
                                          &pool);
  const auto sequential = campaign.run_grid({10 * util::kMB}, fast_protocol);
  ASSERT_EQ(parallel.size(), 2u);
  for (const auto& [key, m] : parallel) {
    const auto& other = sequential.at(key);
    ASSERT_EQ(m.runs.size(), other.runs.size());
    for (std::size_t i = 0; i < m.runs.size(); ++i) {
      EXPECT_DOUBLE_EQ(m.runs[i], other.runs[i]);
    }
  }
  EXPECT_LT(parallel.at({"ubc-gdrive-via-ua", 10 * util::kMB}).kept.mean,
            parallel.at({"ubc-gdrive-direct", 10 * util::kMB}).kept.mean);
}

TEST(Integration, MiddleboxAblationScienceDmz) {
  // Science-DMZ hypothesis: adding a per-flow firewall ceiling at the
  // UAlberta campus firewall slows the detour; removing it restores the
  // paper's numbers. (The ww-fw hop exists in Fig 6's traceroute.)
  auto baseline_world = World::create(quiet());
  const double baseline =
      baseline_world
          ->run_upload(Client::kUBC, ProviderKind::kGoogleDrive,
                       RouteChoice::kViaUAlberta, 50 * util::kMB)
          .value();

  auto firewalled_world = World::create(quiet());
  // Throttle the UAlberta firewall node to 10 Mbps per flow.
  ASSERT_TRUE(firewalled_world->topology()
                  .set_middlebox(firewalled_world->node("ww-fw.cs.ualberta.ca"),
                                 10.0)
                  .ok());
  const double firewalled =
      firewalled_world
          ->run_upload(Client::kUBC, ProviderKind::kGoogleDrive,
                       RouteChoice::kViaUAlberta, 50 * util::kMB)
          .value();
  EXPECT_GT(firewalled, baseline * 1.5);
}

}  // namespace
}  // namespace droute
