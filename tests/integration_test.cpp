// Cross-module integration: the full pipeline the paper implies —
// measure -> catalogue TIVs -> select detours online -> run the selection
// as a steered scheduler job.
// Reacting to dynamic bottlenecks is the controller's job (ctrl_test).
#include <gtest/gtest.h>

#include <string>

#include "core/tiv.h"
#include "ctrl/scheduler.h"
#include "measure/campaign.h"
#include "obs/recorder.h"
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
  // Automatic detour selection over the real scenario, as
  // bench_abl_advisor runs it: UBC->GDrive must steer via UAlberta, and
  // UBC->Dropbox must stay direct.
  struct Steered {
    ctrl::Decision decision;
    ctrl::PathSpec via_ualberta;
    double probe_bytes = 0.0;
  };
  const auto steer_ubc = [](ProviderKind provider) {
    obs::Recorder recorder(0);
    obs::ScopedRecorder install(&recorder);
    auto world = World::create(WorldConfig{});
    world->simulator().run_until(WorldConfig{}.warmup_s);
    ctrl::ControllerConfig config;
    config.max_relay_hops = 1;
    ctrl::Controller& ctrl = world->make_controller(provider, config);
    ctrl.start();
    world->simulator().run_until(world->simulator().now() +
                                 3 * config.epoch_s);
    Steered out;
    out.decision =
        ctrl.steer(world->client_node(Client::kUBC), 100 * util::kMB);
    out.via_ualberta = world->path_of(RouteChoice::kViaUAlberta);
    ctrl.stop();
    out.probe_bytes =
        recorder.metrics().histogram("ctrl.probe_budget_spent_bytes")->sum();
    return out;
  };

  const Steered gdrive = steer_ubc(ProviderKind::kGoogleDrive);
  EXPECT_EQ(gdrive.decision.path, gdrive.via_ualberta)
      << gdrive.decision.reason;
  const Steered dropbox = steer_ubc(ProviderKind::kDropbox);
  EXPECT_TRUE(dropbox.decision.path.direct()) << dropbox.decision.reason;

  // Probing is charged, and costs far less than one bad 100 MB transfer.
  EXPECT_GT(gdrive.probe_bytes, 0.0);
  EXPECT_LT(gdrive.probe_bytes, 100.0 * util::kMB);
  EXPECT_LT(dropbox.probe_bytes, 100.0 * util::kMB);
}

TEST(Integration, PlannerPickRunsAsASteeredSchedulerJob) {
  // The controller itself is the job's Steering: it probes, then the job
  // asks it for a path when the scheduler starts the upload.
  auto world = World::create(quiet());
  ctrl::ControllerConfig config;
  config.max_relay_hops = 1;
  ctrl::Controller& ctrl =
      world->make_controller(ProviderKind::kGoogleDrive, config);
  ctrl.start();
  world->simulator().run_until(3 * config.epoch_s);

  transfer::FileSpec file = transfer::make_file_mb(60, 9);
  file.name = "planned-60mb";
  ctrl::BatchScheduler scheduler(world->simulator(), 1);
  ASSERT_TRUE(scheduler.submit(
      {"planned", 0, world->client_node(Client::kUBC),
       world->detour_engine(ProviderKind::kGoogleDrive), ctrl, file}));
  scheduler.start();
  // The controller's epochs never run dry: step until the job settles,
  // then stop the controller and drain.
  for (int step = 0; step < 60 && scheduler.outcomes().empty(); ++step) {
    world->simulator().run_until(world->simulator().now() + config.epoch_s);
  }
  ctrl.stop();
  world->simulator().run();

  ASSERT_EQ(scheduler.outcomes().size(), 1u);
  const ctrl::JobOutcome& outcome = scheduler.outcomes()[0];
  EXPECT_TRUE(outcome.success) << outcome.error;
  EXPECT_EQ(outcome.decision.path, world->path_of(RouteChoice::kViaUAlberta))
      << outcome.decision.reason;
  EXPECT_EQ(world->server(ProviderKind::kGoogleDrive).object_count(), 1u);
  EXPECT_EQ(world->transfer_engine().batches_inflight(), 0u);
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
