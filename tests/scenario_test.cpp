#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "measure/campaign.h"
#include "net/topology_io.h"
#include "scenario/north_america.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace droute::scenario {
namespace {

using cloud::ProviderKind;

constexpr std::uint64_t k100MB = 100 * util::kMB;
constexpr std::uint64_t k10MB = 10 * util::kMB;

double run_once(Client client, ProviderKind provider, RouteChoice route,
                std::uint64_t bytes, std::uint64_t seed = 1,
                bool cross_traffic = false) {
  WorldConfig config;
  config.seed = seed;
  config.cross_traffic = cross_traffic;
  auto world = World::create(config);
  auto elapsed = world->run_upload(client, provider, route, bytes);
  EXPECT_TRUE(elapsed.ok()) << elapsed.error().message;
  return elapsed.value_or(-1.0);
}

// ------------------------------------------------- headline calibrations ----

TEST(Calibration, UbcGoogleDirectMatchesTable2) {
  // Table II: 100 MB direct = 86.92 s. Accept +/- 10%.
  const double t = run_once(Client::kUBC, ProviderKind::kGoogleDrive,
                            RouteChoice::kDirect, k100MB);
  EXPECT_NEAR(t, 86.92, 8.7);
}

TEST(Calibration, UbcGoogleViaUAlbertaMatchesTable2) {
  // Table II: 100 MB via UAlberta = 35.79 s. Accept +/- 15%.
  const double t = run_once(Client::kUBC, ProviderKind::kGoogleDrive,
                            RouteChoice::kViaUAlberta, k100MB);
  EXPECT_NEAR(t, 35.79, 5.4);
}

TEST(Calibration, UbcGoogleViaUMichMatchesTable2) {
  // Table II: 100 MB via UMich = 132.17 s (worse than direct). +/- 15%.
  const double t = run_once(Client::kUBC, ProviderKind::kGoogleDrive,
                            RouteChoice::kViaUMich, k100MB);
  EXPECT_NEAR(t, 132.17, 19.8);
}

TEST(Calibration, IntroRsyncLegUbcToUAlberta) {
  // Sec I: 100 MB UBC -> UAlberta over CANARIE takes ~19 s.
  WorldConfig config;
  config.cross_traffic = false;
  auto world = World::create(config);
  auto t = world->run_rsync("planetlab1.cs.ubc.ca", "cluster.cs.ualberta.ca",
                            k100MB);
  ASSERT_TRUE(t.ok());
  EXPECT_NEAR(t.value(), 19.0, 3.0);
}

TEST(Calibration, UAlbertaGoogleLegMatchesIntro) {
  // Sec I: UAlberta -> Google Drive ~17 s for 100 MB.
  WorldConfig config;
  config.cross_traffic = false;
  auto world = World::create(config);
  auto task =
      world->api_engine(ProviderKind::kGoogleDrive)
          .upload_task(world->intermediate_node(Intermediate::kUAlberta),
                       transfer::make_file_mb(100, 9));
  world->simulator().run();
  ASSERT_TRUE(task.done());
  ASSERT_TRUE(task.result().ok());
  EXPECT_TRUE(task.result().value().success);
  EXPECT_NEAR(task.result().value().duration_s(), 17.0, 2.6);
}

TEST(TableOne, RowA_UbcOrderings) {
  // Table I row (A): GDrive fastest via UAlberta, direct fast, via UMich
  // slowest; Dropbox and OneDrive direct fastest, via UMich slowest.
  for (const auto provider : cloud::all_providers()) {
    const double direct = run_once(Client::kUBC, provider,
                                   RouteChoice::kDirect, k100MB);
    const double via_ua = run_once(Client::kUBC, provider,
                                   RouteChoice::kViaUAlberta, k100MB);
    const double via_um = run_once(Client::kUBC, provider,
                                   RouteChoice::kViaUMich, k100MB);
    if (provider == ProviderKind::kGoogleDrive) {
      EXPECT_LT(via_ua, direct);
      EXPECT_LT(direct, via_um);
      // The paper's headline: >50% saving for most sizes.
      EXPECT_LT(via_ua, direct * 0.5);
    } else {
      EXPECT_LT(direct, via_ua) << provider_name(provider);
      EXPECT_LT(via_ua, via_um) << provider_name(provider);
    }
  }
}

TEST(TableOne, RowB_PurdueGoogleDetoursWinBig) {
  // Table III: both detours beat direct by ~70-84%. The congested commodity
  // path is heavy-tailed, so judge by the paper's protocol (mean over runs),
  // not a single draw.
  measure::Campaign campaign(11);
  for (const auto route : all_routes()) {
    campaign.add_route(route_name(route),
                       make_transfer_fn(Client::kPurdue,
                                        ProviderKind::kGoogleDrive, route));
  }
  measure::Protocol protocol;
  protocol.total_runs = 5;
  protocol.keep_last = 5;
  const double direct =
      campaign.measure("Direct", k100MB, protocol).kept.mean;
  const double via_ua =
      campaign.measure("via UAlberta", k100MB, protocol).kept.mean;
  const double via_um =
      campaign.measure("via UMich", k100MB, protocol).kept.mean;
  EXPECT_GT(direct, via_ua * 2.0);
  EXPECT_GT(direct, via_um * 2.0);
  // The detours themselves stay in the paper's ballpark (184-196 s).
  EXPECT_NEAR(via_ua, 190.0, 60.0);
  EXPECT_NEAR(via_um, 185.0, 60.0);
}

TEST(TableOne, RowB_PurdueDropboxDirectCompetitive) {
  // Fig 8: direct is generally no worse than the detours for Dropbox.
  const double direct = run_once(Client::kPurdue, ProviderKind::kDropbox,
                                 RouteChoice::kDirect, k100MB, 4, true);
  const double via_ua = run_once(Client::kPurdue, ProviderKind::kDropbox,
                                 RouteChoice::kViaUAlberta, k100MB, 4, true);
  EXPECT_LT(direct, via_ua * 1.15);
}

TEST(TableOne, RowC_UclaLastMileDominatesEverything) {
  // Figs 10/11: every route from UCLA is slow; direct is fastest because a
  // detour only adds a second leg behind the same bottleneck.
  for (const auto provider :
       {ProviderKind::kGoogleDrive, ProviderKind::kDropbox}) {
    const double direct = run_once(Client::kUCLA, provider,
                                   RouteChoice::kDirect, k10MB);
    const double via_ua = run_once(Client::kUCLA, provider,
                                   RouteChoice::kViaUAlberta, k10MB);
    const double via_um = run_once(Client::kUCLA, provider,
                                   RouteChoice::kViaUMich, k10MB);
    EXPECT_LT(direct, via_ua);
    EXPECT_LT(direct, via_um);
    // Last-mile cap ~1.6 Mbps => 10 MB takes at least ~45 s on any route.
    EXPECT_GT(direct, 45.0);
    // The paper's Table V note for (C): via UMich is the slowest detour.
    EXPECT_LT(via_ua, via_um);
  }
}

TEST(Scenario, FileSizeScalingIsMonotonic) {
  double last = 0.0;
  for (const std::uint64_t bytes : paper_file_sizes_bytes()) {
    const double t = run_once(Client::kUBC, ProviderKind::kGoogleDrive,
                              RouteChoice::kDirect, bytes);
    EXPECT_GT(t, last);
    last = t;
  }
}

TEST(Scenario, DeterministicPerSeed) {
  const double a = run_once(Client::kPurdue, ProviderKind::kGoogleDrive,
                            RouteChoice::kDirect, k10MB, 77, true);
  const double b = run_once(Client::kPurdue, ProviderKind::kGoogleDrive,
                            RouteChoice::kDirect, k10MB, 77, true);
  const double c = run_once(Client::kPurdue, ProviderKind::kGoogleDrive,
                            RouteChoice::kDirect, k10MB, 78, true);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Scenario, CrossTrafficCreatesRunToRunVariance) {
  measure::Campaign campaign(123);
  campaign.add_route("purdue-gdrive-direct",
                     make_transfer_fn(Client::kPurdue,
                                      ProviderKind::kGoogleDrive,
                                      RouteChoice::kDirect));
  const auto m = campaign.measure("purdue-gdrive-direct", 30 * util::kMB);
  ASSERT_EQ(m.failures, 0);
  EXPECT_GT(m.kept.stddev / m.kept.mean, 0.02);  // visibly noisy
}

TEST(Scenario, QuietWorldJitterIsSmallAcrossSeeds) {
  // Without cross traffic the only seed dependence is the small shaper-rate
  // jitter: different seeds land within a few percent, same seed exactly.
  const double a = run_once(Client::kUBC, ProviderKind::kGoogleDrive,
                            RouteChoice::kDirect, k10MB, 1);
  const double b = run_once(Client::kUBC, ProviderKind::kGoogleDrive,
                            RouteChoice::kDirect, k10MB, 999);
  EXPECT_NEAR(a, b, a * 0.15);
  EXPECT_NE(a, b);  // jitter is applied
  const double a_again = run_once(Client::kUBC, ProviderKind::kGoogleDrive,
                                  RouteChoice::kDirect, k10MB, 1);
  EXPECT_DOUBLE_EQ(a, a_again);
}

TEST(Scenario, JitterCanBeDisabled) {
  WorldConfig config;
  config.cross_traffic = false;
  config.rate_jitter_cv = 0.0;
  auto run = [&](std::uint64_t seed) {
    config.seed = seed;
    auto world = World::create(config);
    return world
        ->run_upload(Client::kUBC, ProviderKind::kGoogleDrive,
                     RouteChoice::kDirect, k10MB)
        .value();
  };
  EXPECT_DOUBLE_EQ(run(1), run(999));
}

TEST(Scenario, JitterTouchesOnlyCalibratedRates) {
  // A seeded World differs from data/north_america.topo only at the 4
  // PlanetLab middleboxes, the 8 directions of the 4 jittered capacity links
  // and the 3 jittered policers. Delays, overrides and so every route are
  // the file's, whatever the seed.
  std::ifstream file(std::string(DROUTE_SOURCE_DIR) +
                     "/data/north_america.topo");
  std::ostringstream text;
  text << file.rdbuf();
  auto parsed = net::parse_topology(text.str());
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const net::Topology& base = parsed.value();

  WorldConfig config;
  config.seed = 7919;
  config.cross_traffic = false;
  auto world = World::create(config);
  const net::Topology& live = world->topology();
  ASSERT_EQ(live.node_count(), base.node_count());
  ASSERT_EQ(live.link_count(), base.link_count());

  std::vector<std::string> middleboxes;
  for (std::size_t i = 0; i < base.node_count(); ++i) {
    const auto id = static_cast<net::NodeId>(i);
    if (live.node(id).middlebox_per_flow_mbps !=
        base.node(id).middlebox_per_flow_mbps) {
      middleboxes.push_back(base.node(id).name);
    }
  }
  EXPECT_EQ(middleboxes,
            (std::vector<std::string>{"cs-gw.net.ubc.ca", "pl-gw.umich.edu",
                                      "pl-gw.purdue.edu", "pl-gw.ucla.edu"}));
  int capacities = 0, policers = 0;
  for (std::size_t i = 0; i < base.link_count(); ++i) {
    const net::Link& a = live.link(static_cast<net::LinkId>(i));
    const net::Link& b = base.link(static_cast<net::LinkId>(i));
    capacities += a.capacity_mbps != b.capacity_mbps;
    policers += a.policer_per_flow_mbps != b.policer_per_flow_mbps;
    EXPECT_EQ(a.prop_delay_s, b.prop_delay_s) << "link " << i;
    EXPECT_EQ(a.loss_rate, b.loss_rate) << "link " << i;
  }
  EXPECT_EQ(capacities, 8);
  EXPECT_EQ(policers, 3);

  net::RouteTable base_routes(&base);
  for (std::size_t src = 0; src < base.node_count(); ++src) {
    for (std::size_t dst = 0; dst < base.node_count(); ++dst) {
      auto a = world->routes().route(static_cast<net::NodeId>(src),
                                     static_cast<net::NodeId>(dst));
      auto b = base_routes.route(static_cast<net::NodeId>(src),
                                 static_cast<net::NodeId>(dst));
      ASSERT_EQ(a.ok(), b.ok()) << src << " -> " << dst;
      if (a.ok()) {
        EXPECT_EQ(a.value().links, b.value().links) << src << " -> " << dst;
      }
    }
  }
}

TEST(Scenario, UbcOutgoingBandwidthIsNotTheBottleneck) {
  // Sec III-A: "the outgoing bandwidth at UBC is not really the bottleneck"
  // — UBC pushes 100 MB to UAlberta ~4.5x faster than to Google directly.
  WorldConfig config;
  config.cross_traffic = false;
  auto world = World::create(config);
  const double to_ua =
      world->run_rsync("planetlab1.cs.ubc.ca", "cluster.cs.ualberta.ca",
                       k100MB)
          .value();
  const double to_google = run_once(Client::kUBC, ProviderKind::kGoogleDrive,
                                    RouteChoice::kDirect, k100MB);
  EXPECT_GT(to_google, to_ua * 3.0);
}

TEST(Scenario, ProviderFrontEndsAtPaperLocations) {
  WorldConfig config;
  config.cross_traffic = false;
  auto world = World::create(config);
  const auto& registry = world->registry();
  // Sec II: Ashburn VA (Dropbox), Mountain View CA (GDrive), Seattle WA
  // (OneDrive).
  EXPECT_EQ(registry.lookup("content.dropboxapi.com")->city, "Ashburn, VA");
  EXPECT_EQ(registry.lookup("sea15s01-in-f138.1e100.net")->city,
            "Mountain View, CA");
  EXPECT_EQ(registry.lookup("onedrive-fe.wns.windows.com")->city,
            "Seattle, WA");
}

TEST(Scenario, UploadsCommitToStorageServers) {
  WorldConfig config;
  config.cross_traffic = false;
  auto world = World::create(config);
  ASSERT_TRUE(world
                  ->run_upload(Client::kUBC, ProviderKind::kDropbox,
                               RouteChoice::kViaUAlberta, k10MB)
                  .ok());
  EXPECT_EQ(world->server(ProviderKind::kDropbox).object_count(), 1u);
  EXPECT_EQ(world->server(ProviderKind::kDropbox).open_sessions(), 0u);
}

TEST(Scenario, PipelinedDetourBeatsStoreAndForward) {
  WorldConfig config;
  config.cross_traffic = false;
  auto saf_world = World::create(config);
  const double saf =
      saf_world
          ->run_upload(Client::kUBC, ProviderKind::kGoogleDrive,
                       RouteChoice::kViaUAlberta, k100MB,
                       transfer::DetourMode::kStoreAndForward)
          .value();
  auto pipe_world = World::create(config);
  const double pipe =
      pipe_world
          ->run_upload(Client::kUBC, ProviderKind::kGoogleDrive,
                       RouteChoice::kViaUAlberta, k100MB,
                       transfer::DetourMode::kPipelined)
          .value();
  EXPECT_LT(pipe, saf * 0.8);
}

// Every helper moves its bytes through the world's one batch layer, and
// each leaves it settled: no batch in flight, no flow on the fabric.
TEST(World, EveryHelperSettlesItsBatches) {
  WorldConfig config;
  config.cross_traffic = false;
  auto world = World::create(config);
  const auto settled = [&world](const char* helper) {
    EXPECT_EQ(world->transfer_engine().batches_inflight(), 0u) << helper;
    EXPECT_EQ(world->fabric().active_flow_count(), 0u) << helper;
  };
  const ProviderKind gdrive = ProviderKind::kGoogleDrive;

  ASSERT_TRUE(
      world->run_upload(Client::kUBC, gdrive, RouteChoice::kDirect, k10MB)
          .ok());
  settled("run_upload direct");
  ASSERT_TRUE(
      world->run_upload(Client::kUBC, gdrive, RouteChoice::kViaUAlberta, k10MB)
          .ok());
  settled("run_upload via UAlberta");
  ASSERT_TRUE(world
                  ->run_upload(Client::kUBC, gdrive, RouteChoice::kViaUMich,
                               k10MB, transfer::DetourMode::kPipelined)
                  .ok());
  settled("run_upload via UMich, pipelined");

  const auto name = world->stage_object(gdrive, k10MB);
  ASSERT_TRUE(name.ok()) << name.error().message;
  settled("stage_object");
  ASSERT_TRUE(world
                  ->run_download(Client::kPurdue, gdrive, RouteChoice::kDirect,
                                 name.value())
                  .ok());
  settled("run_download direct");
  ASSERT_TRUE(world
                  ->run_download(Client::kPurdue, gdrive,
                                 RouteChoice::kViaUAlberta, name.value())
                  .ok());
  settled("run_download via UAlberta");

  ASSERT_TRUE(world
                  ->run_rsync("planetlab1.cs.ubc.ca", "cluster.cs.ualberta.ca",
                              k10MB)
                  .ok());
  settled("run_rsync");

  ctrl::Controller& controller = world->make_controller(gdrive);
  controller.start();
  ASSERT_TRUE(
      world->run_steered_upload(gdrive, controller, Client::kUBC, k10MB).ok());
  controller.stop();
  world->simulator().run();
  settled("run_steered_upload");
  EXPECT_EQ(world->simulator().pending(), 0u);
}

TEST(World, StageObjectPastItsDeadlineSaysSo) {
  WorldConfig config;
  config.cross_traffic = false;
  auto world = World::create(config);
  // Starve UAlberta's uplink: a 10 MB object then needs ~80,000 simulated
  // seconds, past the foreground deadline.
  ASSERT_TRUE(world->topology()
                  .set_link_capacity(
                      world->topology()
                          .find_link(
                              world->node("gsb-asr-core1.backbone.ualberta.ca"),
                              world->node("uofa-p-1-edm.cybera.ca"))
                          .value(),
                      1e-3)
                  .ok());
  world->fabric().reallocate_now();
  const auto name = world->stage_object(ProviderKind::kGoogleDrive, k10MB);
  ASSERT_FALSE(name.ok());
  EXPECT_NE(name.error().message.find("deadline"), std::string::npos)
      << name.error().message;
  EXPECT_EQ(world->server(ProviderKind::kGoogleDrive).open_sessions(), 0u);
}

// ------------------------------------------------------- shared routes ----

bool crosses(const net::Route& route, net::LinkId link) {
  return std::find(route.links.begin(), route.links.end(), link) !=
         route.links.end();
}

TEST(SharedRoutes, JitteredWorldsRouteLikeTheirOwnTopology) {
  // Each World reads the process snapshot over the unjittered network; a
  // private table over the World's own jittered copy must agree with it
  // on every answer.
  for (const std::uint64_t seed : {1ull, 7919ull, 2016ull}) {
    WorldConfig config;
    config.seed = seed;
    config.cross_traffic = false;
    auto world = World::create(config);
    const net::Topology& topo = world->topology();
    const net::RouteTable own(&topo);
    const auto nodes = static_cast<net::NodeId>(topo.node_count());
    for (net::NodeId src = 0; src < nodes; ++src) {
      for (net::NodeId dst = 0; dst < nodes; ++dst) {
        const auto& shared = world->routes().route(src, dst);
        const auto& expect = own.route(src, dst);
        ASSERT_EQ(shared.ok(), expect.ok()) << seed << ": " << src << "->" << dst;
        if (shared.ok()) {
          EXPECT_EQ(shared.value().nodes, expect.value().nodes);
          EXPECT_EQ(shared.value().links, expect.value().links);
        } else {
          EXPECT_EQ(shared.error().message, expect.error().message);
        }
      }
    }
    const auto ases = static_cast<net::AsId>(topo.as_count());
    for (net::AsId src = 0; src < ases; ++src) {
      for (net::AsId dst = 0; dst < ases; ++dst) {
        const auto shared = world->routes().as_path(src, dst);
        const auto expect = own.as_path(src, dst);
        ASSERT_EQ(shared.ok(), expect.ok()) << seed << ": AS " << src << "->"
                                            << dst;
        if (shared.ok()) {
          EXPECT_EQ(shared.value(), expect.value());
        }
        const auto origin = world->routes().route_origin(src, dst);
        const auto expect_origin = own.route_origin(src, dst);
        ASSERT_EQ(origin.ok(), expect_origin.ok());
        if (origin.ok()) {
          EXPECT_EQ(origin.value(), expect_origin.value());
        }
      }
    }
    EXPECT_EQ(world->routes().routes_expanded(), 0u);
  }
}

TEST(SharedRoutes, LinkFailureForksOnlyTheFailingWorld) {
  WorldConfig config;
  config.cross_traffic = false;
  auto failing = World::create(config);
  auto sibling = World::create(config);
  const net::NodeId ubc = failing->client_node(Client::kUBC);
  const net::NodeId google = failing->provider_node(ProviderKind::kGoogleDrive);
  // The policed PacificWave hop (Fig 5): without it UBC reaches Google over
  // the default BGP route.
  const auto policed =
      failing->topology().find_link(failing->node("vncv1rtr2.canarie.ca"),
                                    failing->node(
                                        "google-1-lo-std-707.sttlwa."
                                        "pacificwave.net"));
  ASSERT_TRUE(policed.has_value());
  const net::Route* shared = &failing->routes().route(ubc, google).value();
  ASSERT_TRUE(crosses(*shared, *policed));

  // A flow on that route reads it in its callback after the failure.
  net::FlowStats failed;
  std::vector<net::LinkId> read_in_callback;
  net::Fabric& fabric = failing->fabric();
  ASSERT_TRUE(fabric
                  .start_flow(ubc, google, 100 * util::kMB,
                              [&](const net::FlowStats& stats) {
                                read_in_callback = stats.route->links;
                                failed = stats;
                              })
                  .ok());
  failing->simulator().run_until(1.0);
  const std::size_t snapshot_before = shared_routes().routes_expanded();
  fabric.fail_link(*policed);
  EXPECT_EQ(failed.outcome, net::FlowOutcome::kLinkFailed);
  EXPECT_EQ(read_in_callback, shared->links);
  EXPECT_EQ(failed.route, shared);

  // The failing World reroutes around the link, on its own.
  const auto& rerouted = failing->routes().route(ubc, google);
  ASSERT_TRUE(rerouted.ok()) << rerouted.error().message;
  EXPECT_FALSE(crosses(rerouted.value(), *policed));
  EXPECT_GT(failing->routes().routes_expanded(), 0u);
  EXPECT_EQ(shared_routes().routes_expanded(), snapshot_before);

  // Its sibling and a World created after the failure keep the snapshot's.
  EXPECT_EQ(&sibling->routes().route(ubc, google).value(), shared);
  EXPECT_EQ(sibling->routes().routes_expanded(), 0u);
  auto fresh = World::create(config);
  EXPECT_EQ(&fresh->routes().route(ubc, google).value(), shared);

  // A flow on a privately expanded route outlives the next invalidate():
  // the table retires that route instead of freeing it.
  const net::Route* private_route = &rerouted.value();
  net::FlowStats copied;
  ASSERT_TRUE(fabric
                  .start_flow(ubc, google, 100 * util::kMB,
                              [&](const net::FlowStats& stats) {
                                read_in_callback = stats.route->links;
                                copied = stats;
                              })
                  .ok());
  failing->simulator().run_until(2.0);
  fabric.fail_link(private_route->links.front());
  EXPECT_EQ(copied.outcome, net::FlowOutcome::kLinkFailed);
  EXPECT_EQ(copied.route, private_route);
  EXPECT_EQ(read_in_callback, copied.route->links);
  EXPECT_FALSE(crosses(*copied.route, *policed));
  EXPECT_FALSE(failing->routes().route(ubc, google).ok());
}

TEST(SharedRoutes, WorldsExpandEachPairOnceInAll) {
  WorldConfig config;
  config.cross_traffic = false;
  constexpr std::uint64_t kWorlds = 5;
  std::set<std::pair<net::NodeId, net::NodeId>> asked;
  std::size_t after_first = 0;
  const std::size_t start = shared_routes().routes_expanded();
  for (std::uint64_t k = 0; k < kWorlds; ++k) {
    config.seed = k + 1;
    auto world = World::create(config);
    const net::NodeId vias[] = {
        world->intermediate_node(Intermediate::kUAlberta),
        world->intermediate_node(Intermediate::kUMich)};
    for (const Client client : all_clients()) {
      for (const ProviderKind provider : cloud::all_providers()) {
        const net::NodeId src = world->client_node(client);
        const net::NodeId dst = world->provider_node(provider);
        std::vector<std::pair<net::NodeId, net::NodeId>> legs = {{src, dst}};
        for (const net::NodeId via : vias) {
          legs.emplace_back(src, via);
          legs.emplace_back(via, dst);
        }
        for (const auto& [a, b] : legs) {
          ASSERT_TRUE(world->routes().route(a, b).ok());
          asked.emplace(a, b);
        }
      }
    }
    EXPECT_EQ(world->routes().routes_expanded(), 0u);
    if (k == 0) after_first = shared_routes().routes_expanded();
  }
  // The first World expanded at most the distinct pairs (fewer if earlier
  // tests in this process asked for some); the other Worlds none at all.
  EXPECT_LE(after_first - start, asked.size());
  EXPECT_EQ(shared_routes().routes_expanded(), after_first);
}

TEST(SharedRoutes, ConcurrentWorldsMatchASequentialRun) {
  struct Job {
    Client client;
    ProviderKind provider;
    RouteChoice route;
  };
  std::vector<Job> jobs;
  for (const Client client : all_clients()) {
    for (const ProviderKind provider : cloud::all_providers()) {
      jobs.push_back({client, provider, all_routes()[jobs.size() % 3]});
    }
  }
  struct Outcome {
    std::vector<net::LinkId> links;
    double seconds = -1.0;
  };
  const auto run = [&](std::size_t i) {
    WorldConfig config;
    config.seed = 100 + i;
    auto world = World::create(config);
    const Job& job = jobs[i];
    Outcome out;
    const auto& route = world->routes().route(world->client_node(job.client),
                                              world->provider_node(job.provider));
    if (route.ok()) out.links = route.value().links;
    auto elapsed = world->run_upload(job.client, job.provider, job.route,
                                     10 * util::kMB);
    if (elapsed.ok()) out.seconds = elapsed.value();
    return out;
  };
  std::vector<Outcome> parallel(jobs.size());
  {
    util::ThreadPool pool(4);
    pool.parallel_for(jobs.size(), [&](std::size_t i) { parallel[i] = run(i); });
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Outcome sequential = run(i);
    EXPECT_FALSE(sequential.links.empty()) << i;
    EXPECT_GT(sequential.seconds, 0.0) << i;
    EXPECT_EQ(parallel[i].links, sequential.links) << i;
    EXPECT_EQ(parallel[i].seconds, sequential.seconds) << i;
  }
}

}  // namespace
}  // namespace droute::scenario
