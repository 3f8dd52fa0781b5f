// Download-direction tests: server ranged reads, the ApiDownloadEngine,
// DetourEngine's download chains, and the scenario-level download shapes.
#include <gtest/gtest.h>

#include "cloud/content.h"
#include "scenario/north_america.h"
#include "transfer/api_download.h"
#include "transfer/detour.h"
#include "util/units.h"

namespace droute::transfer {
namespace {

using cloud::ProviderKind;
using scenario::World;
using scenario::WorldConfig;

std::unique_ptr<World> quiet_world(std::uint64_t seed = 1) {
  WorldConfig config;
  config.seed = seed;
  config.cross_traffic = false;
  return World::create(config);
}

// ------------------------------------------------------- server-side API ----

TEST(StorageDownload, StatAndRangedReads) {
  auto world = quiet_world();
  auto name = world->stage_object(ProviderKind::kDropbox, 10 * util::kMB);
  ASSERT_TRUE(name.ok());
  auto& server = world->server(ProviderKind::kDropbox);

  auto object = server.stat(name.value());
  ASSERT_TRUE(object.ok());
  EXPECT_EQ(object.value().size, 10 * util::kMB);

  // Valid range returns the deterministic digest.
  auto digest = server.read_range(name.value(), 0, 1000);
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(digest.value(),
            cloud::synthetic_range_digest(object.value().content_seed, 0,
                                          1000));

  // Invalid ranges behave like HTTP 416.
  EXPECT_EQ(server.read_range(name.value(), 10 * util::kMB, 1).error().code,
            416);
  EXPECT_EQ(server.read_range(name.value(), 0, 0).error().code, 416);
  EXPECT_EQ(
      server.read_range(name.value(), 10 * util::kMB - 1, 2).error().code,
      416);
  EXPECT_EQ(server.read_range("missing", 0, 1).error().code, 404);
  EXPECT_EQ(server.stat("missing").error().code, 404);
}

// ---------------------------------------------------------- api download ----

TEST(ApiDownload, FetchesAndVerifiesIntegrity) {
  auto world = quiet_world();
  auto name = world->stage_object(ProviderKind::kGoogleDrive, 20 * util::kMB);
  ASSERT_TRUE(name.ok());

  auto task = world->download_engine(ProviderKind::kGoogleDrive)
                  .download_task(world->intermediate_node(
                                     scenario::Intermediate::kUAlberta),
                                 name.value());
  world->simulator().run();
  ASSERT_TRUE(task.done());
  ASSERT_TRUE(task.result().ok());
  const DownloadResult& result = task.result().value();
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_TRUE(result.integrity_ok);
  EXPECT_EQ(result.payload_bytes, 20 * util::kMB);
  EXPECT_EQ(result.chunks, 3);  // 20 MB / 8 MiB = 2 full + tail
  EXPECT_GT(result.duration_s(), 0.0);
}

TEST(ApiDownload, MissingObjectFailsCleanly) {
  auto world = quiet_world();
  auto task =
      world->download_engine(ProviderKind::kDropbox)
          .download_task(world->client_node(scenario::Client::kUBC),
                         "no-such-file");
  world->simulator().run();
  ASSERT_TRUE(task.done());
  ASSERT_TRUE(task.result().ok());
  const DownloadResult& result = task.result().value();
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.error.find("metadata"), std::string::npos);
}

TEST(ApiDownload, OAuthRefreshCharged) {
  auto world = quiet_world();
  auto name = world->stage_object(ProviderKind::kOneDrive, 10 * util::kMB);
  ASSERT_TRUE(name.ok());
  cloud::OAuthSession oauth("dl-client", 3600.0, 3);
  ApiDownloadOptions options;
  options.oauth = &oauth;
  const auto client =
      world->intermediate_node(scenario::Intermediate::kUAlberta);
  auto& engine = world->download_engine(ProviderKind::kOneDrive);
  auto with_task = engine.download_task(client, name.value(), options);
  world->simulator().run();
  auto without_task = engine.download_task(client, name.value(), options);
  world->simulator().run();
  ASSERT_TRUE(with_task.done() && without_task.done());
  ASSERT_TRUE(with_task.result().ok() && without_task.result().ok());
  const DownloadResult& with_auth = with_task.result().value();
  const DownloadResult& without_auth = without_task.result().value();
  ASSERT_TRUE(with_auth.success && without_auth.success);
  EXPECT_GT(with_auth.duration_s(), without_auth.duration_s());
  EXPECT_EQ(oauth.refresh_count(), 1u);
}

// --------------------------------------------------------- detour download ----

/// Runs DetourEngine::download_task of `name` to UBC over `relays` (client
/// -> provider order) to completion.
DetourResult download_via(World& world, ProviderKind provider,
                          std::vector<net::NodeId> relays,
                          const std::string& name) {
  auto task = world.detour_engine(provider).download_task(
      world.client_node(scenario::Client::kUBC), ctrl::PathSpec{relays},
      name);
  world.simulator().run();
  EXPECT_TRUE(task.done());
  EXPECT_TRUE(task.result().ok());
  return task.result().value();
}

TEST(DetourDownload, SumsLegsAndDelivers) {
  auto world = quiet_world();
  auto name = world->stage_object(ProviderKind::kGoogleDrive, 30 * util::kMB);
  ASSERT_TRUE(name.ok());
  const DetourResult result = download_via(
      *world, ProviderKind::kGoogleDrive,
      {world->intermediate_node(scenario::Intermediate::kUAlberta)},
      name.value());
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_GT(result.leg1_s, 0.0);
  EXPECT_GT(result.leg2_s, 0.0);
  EXPECT_NEAR(result.duration_s(), result.leg1_s + result.leg2_s, 1e-6);
  EXPECT_EQ(result.payload_bytes, 30 * util::kMB);
}

TEST(DetourDownload, MissingObjectReportsLegOne) {
  auto world = quiet_world();
  const DetourResult result = download_via(
      *world, ProviderKind::kDropbox,
      {world->intermediate_node(scenario::Intermediate::kUAlberta)}, "ghost");
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.error.find("leg 1"), std::string::npos);
}

// UBC <- UAlberta <- UMich <- Google Drive: the API leg lands at UMich, and
// two rsync legs bring the object back; leg 2 is their sum.
TEST(DetourDownload, TwoRelayChainSumsItsRelayLegs) {
  auto world = quiet_world();
  auto name = world->stage_object(ProviderKind::kGoogleDrive, 30 * util::kMB);
  ASSERT_TRUE(name.ok());
  const DetourResult two = download_via(
      *world, ProviderKind::kGoogleDrive,
      {world->intermediate_node(scenario::Intermediate::kUAlberta),
       world->intermediate_node(scenario::Intermediate::kUMich)},
      name.value());
  ASSERT_TRUE(two.success) << two.error;
  EXPECT_EQ(two.payload_bytes, 30 * util::kMB);
  EXPECT_NEAR(two.duration_s(), two.leg1_s + two.leg2_s, 1e-6);

  // The same two pushes, each alone on a quiet network.
  const double umich_to_ualberta =
      quiet_world()
          ->run_rsync("planetlab01.eecs.umich.edu", "cluster.cs.ualberta.ca",
                      30 * util::kMB)
          .value();
  const double ualberta_to_ubc =
      quiet_world()
          ->run_rsync("cluster.cs.ualberta.ca", "planetlab1.cs.ubc.ca",
                      30 * util::kMB)
          .value();
  EXPECT_NEAR(two.leg2_s, umich_to_ualberta + ualberta_to_ubc, 1e-6);
}

TEST(DetourDownload, FailedMiddleLegReportsItsError) {
  auto world = quiet_world();
  auto name = world->stage_object(ProviderKind::kGoogleDrive, 10 * util::kMB);
  ASSERT_TRUE(name.ok());
  // Cut the UAlberta cluster's inbound link: the API leg to UMich still
  // lands, and the UMich -> UAlberta push (leg 2 of 3) is rejected.
  world->fabric().fail_link(
      world->topology()
          .find_link(world->node("ww-fw.cs.ualberta.ca"),
                     world->node("cluster.cs.ualberta.ca"))
          .value());
  const DetourResult result = download_via(
      *world, ProviderKind::kGoogleDrive,
      {world->intermediate_node(scenario::Intermediate::kUAlberta),
       world->intermediate_node(scenario::Intermediate::kUMich)},
      name.value());
  EXPECT_FALSE(result.success);
  EXPECT_GT(result.leg1_s, 0.0);
  EXPECT_NE(result.error.find("download detour leg 2 (rsync)"),
            std::string::npos)
      << result.error;
}

// ------------------------------------------------------- scenario shapes ----

TEST(DownloadScenario, UbcGoogleDetourBeatsPolicedDirect) {
  // The PacificWave policing is modelled symmetrically, so the download
  // mirror of Fig 2 holds: direct ~85 s, via UAlberta ~35 s for 100 MB.
  auto direct_world = quiet_world(1);
  auto name = direct_world->stage_object(ProviderKind::kGoogleDrive,
                                         100 * util::kMB);
  ASSERT_TRUE(name.ok());
  const double direct =
      direct_world
          ->run_download(scenario::Client::kUBC, ProviderKind::kGoogleDrive,
                         scenario::RouteChoice::kDirect, name.value())
          .value();

  auto detour_world = quiet_world(1);
  auto name2 = detour_world->stage_object(ProviderKind::kGoogleDrive,
                                          100 * util::kMB);
  const double detour =
      detour_world
          ->run_download(scenario::Client::kUBC, ProviderKind::kGoogleDrive,
                         scenario::RouteChoice::kViaUAlberta, name2.value())
          .value();
  EXPECT_GT(direct, 70.0);
  EXPECT_LT(detour, direct * 0.55);
}

TEST(DownloadScenario, UclaLastMileHurtsDownloadsToo) {
  auto world = quiet_world();
  auto name = world->stage_object(ProviderKind::kDropbox, 10 * util::kMB);
  ASSERT_TRUE(name.ok());
  const double direct =
      world
          ->run_download(scenario::Client::kUCLA, ProviderKind::kDropbox,
                         scenario::RouteChoice::kDirect, name.value())
          .value();
  // The 1.6 Mbps last-mile cap applies inbound as well: >= ~45 s for 10 MB.
  EXPECT_GT(direct, 45.0);
}

TEST(DownloadScenario, TransferFnStagesPerRun) {
  measure::Campaign campaign(99);
  scenario::WorldConfig config;
  config.cross_traffic = false;
  campaign.add_route(
      "ubc-gdrive-dl",
      scenario::make_download_fn(scenario::Client::kUBC,
                                 ProviderKind::kGoogleDrive,
                                 scenario::RouteChoice::kViaUAlberta, config));
  measure::Protocol protocol;
  protocol.total_runs = 3;
  protocol.keep_last = 3;
  const auto m = campaign.measure("ubc-gdrive-dl", 10 * util::kMB, protocol);
  EXPECT_EQ(m.failures, 0);
  EXPECT_EQ(m.runs.size(), 3u);
  EXPECT_GT(m.kept.mean, 1.0);
  EXPECT_LT(m.kept.mean, 30.0);
}

}  // namespace
}  // namespace droute::transfer
