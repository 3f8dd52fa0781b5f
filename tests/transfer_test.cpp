#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "chaos/scenario.h"
#include "check/contract.h"
#include "scenario/north_america.h"
#include "transfer/api_upload.h"
#include "transfer/detour.h"
#include "transfer/file_spec.h"
#include "transfer/parallel.h"
#include "transfer/rsync_engine.h"
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

// --------------------------------------------------------------- file spec ----

TEST(FileSpec, DigestsAreDeterministicAndPositional) {
  const FileSpec file = make_file_mb(10, 42);
  EXPECT_EQ(file.bytes, 10 * util::kMB);
  EXPECT_EQ(file.chunk_digest(0, 1000), file.chunk_digest(0, 1000));
  EXPECT_NE(file.chunk_digest(0, 1000), file.chunk_digest(1000, 1000));
  EXPECT_NE(file.chunk_digest(0, 1000), file.chunk_digest(0, 2000));
  const FileSpec other = make_file_mb(10, 43);
  EXPECT_NE(file.chunk_digest(0, 1000), other.chunk_digest(0, 1000));
}

// -------------------------------------------------------------- api upload ----

TEST(ApiUpload, DeliversAndCommitsObject) {
  auto world = quiet_world();
  const FileSpec file = make_file_mb(10, 1);
  auto task = world->api_engine(ProviderKind::kGoogleDrive)
                  .upload_task(world->intermediate_node(
                                   scenario::Intermediate::kUAlberta),
                               file);
  world->simulator().run();
  ASSERT_TRUE(task.done());
  ASSERT_TRUE(task.result().ok());
  const UploadResult& result = task.result().value();
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_GT(result.duration_s(), 0.0);
  // 10 MB / 8 MiB chunks = 2 chunks.
  EXPECT_EQ(result.chunks, 2);
  EXPECT_GT(result.wire_bytes, file.bytes);  // headers included
  const auto object =
      world->server(ProviderKind::kGoogleDrive).lookup(file.name);
  ASSERT_TRUE(object.has_value());
  EXPECT_EQ(object->size, file.bytes);
}

TEST(ApiUpload, TimeScalesWithSize) {
  auto world = quiet_world();
  double t10 = 0.0, t50 = 0.0;
  for (auto [mb, out] : {std::pair<int, double*>{10, &t10}, {50, &t50}}) {
    auto task = world->api_engine(ProviderKind::kDropbox)
                    .upload_task(world->intermediate_node(
                                     scenario::Intermediate::kUAlberta),
                                 make_file_mb(static_cast<std::uint64_t>(mb),
                                              static_cast<std::uint64_t>(mb)));
    world->simulator().run();
    ASSERT_TRUE(task.done());
    ASSERT_TRUE(task.result().ok());
    const UploadResult& result = task.result().value();
    ASSERT_TRUE(result.success);
    *out = result.duration_s();
  }
  EXPECT_GT(t50, t10 * 3.5);
  EXPECT_LT(t50, t10 * 6.5);
}

TEST(ApiUpload, OAuthRefreshChargedOnce) {
  auto world = quiet_world();
  cloud::OAuthSession oauth("test-client", 3600.0, 5);
  ApiUploadOptions options;
  options.oauth = &oauth;

  auto& engine = world->api_engine(ProviderKind::kGoogleDrive);
  const auto client =
      world->intermediate_node(scenario::Intermediate::kUAlberta);
  auto first_task = engine.upload_task(client, make_file_mb(10, 1), options);
  world->simulator().run();
  auto second_task = engine.upload_task(client, make_file_mb(10, 2), options);
  world->simulator().run();
  ASSERT_TRUE(first_task.done() && second_task.done());
  ASSERT_TRUE(first_task.result().ok() && second_task.result().ok());
  const UploadResult& first = first_task.result().value();
  const UploadResult& second = second_task.result().value();
  ASSERT_TRUE(first.success && second.success);
  EXPECT_TRUE(first.token_refreshed);
  EXPECT_FALSE(second.token_refreshed);  // token still fresh
  EXPECT_EQ(oauth.refresh_count(), 1u);
  EXPECT_GT(first.duration_s(), second.duration_s());
}

TEST(ApiUpload, FailsCleanlyWhenUnroutable) {
  auto world = quiet_world();
  const auto client = world->client_node(scenario::Client::kUCLA);
  // Cut UCLA off at its gateway.
  world->fabric().fail_link(
      world->topology()
          .find_link(client, world->node("pl-gw.ucla.edu"))
          .value());
  auto task = world->api_engine(ProviderKind::kDropbox)
                  .upload_task(client, make_file_mb(10, 1));
  world->simulator().run();
  ASSERT_TRUE(task.done());
  ASSERT_TRUE(task.result().ok());
  const UploadResult& result = task.result().value();
  EXPECT_FALSE(result.success);
  EXPECT_FALSE(result.error.empty());
  EXPECT_EQ(world->server(ProviderKind::kDropbox).open_sessions(), 0u);
}

TEST(ApiUpload, LinkFailureMidTransferAbandonsSession) {
  auto world = quiet_world();
  const auto client = world->client_node(scenario::Client::kUBC);
  auto task = world->api_engine(ProviderKind::kGoogleDrive)
                  .upload_task(client, make_file_mb(100, 1));
  world->simulator().schedule_in(10.0, [&] {
    world->fabric().fail_link(
        world->topology()
            .find_link(world->node("planetlab1.cs.ubc.ca"),
                       world->node("cs-gw.net.ubc.ca"))
            .value());
  });
  world->simulator().run();
  ASSERT_TRUE(task.done());
  ASSERT_TRUE(task.result().ok());
  EXPECT_FALSE(task.result().value().success);
  EXPECT_EQ(world->server(ProviderKind::kGoogleDrive).open_sessions(), 0u);
}

// ------------------------------------------------------------------ rsync ----

TEST(RsyncEngine, PushMovesPayloadPlusFraming) {
  auto world = quiet_world();
  RsyncEngine engine(&world->fabric(), world->transfer_engine());
  auto task = engine.push_task(
      world->client_node(scenario::Client::kUBC),
      world->intermediate_node(scenario::Intermediate::kUAlberta),
      make_file_mb(10, 3));
  world->simulator().run();
  ASSERT_TRUE(task.done());
  ASSERT_TRUE(task.result().ok());
  const RsyncResult& result = task.result().value();
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_GT(result.forward_wire_bytes, 10 * util::kMB);
  EXPECT_LT(result.forward_wire_bytes, 10 * util::kMB + 10000);
  EXPECT_LT(result.reverse_wire_bytes, 2000u);  // no basis: tiny signature
  EXPECT_GT(result.cpu_s, 0.0);
}

TEST(RsyncEngine, BasisOverlapShrinksForwardBytes) {
  auto world = quiet_world();
  RsyncEngine engine(&world->fabric(), world->transfer_engine());
  RsyncOptions warm_options;
  warm_options.basis_overlap = 0.9;
  auto cold_task = engine.push_task(
      world->client_node(scenario::Client::kUBC),
      world->intermediate_node(scenario::Intermediate::kUAlberta),
      make_file_mb(10, 4));
  world->simulator().run();
  auto warm_task = engine.push_task(
      world->client_node(scenario::Client::kUBC),
      world->intermediate_node(scenario::Intermediate::kUAlberta),
      make_file_mb(10, 4), warm_options);
  world->simulator().run();
  ASSERT_TRUE(cold_task.done() && warm_task.done());
  ASSERT_TRUE(cold_task.result().ok() && warm_task.result().ok());
  const RsyncResult& cold = cold_task.result().value();
  const RsyncResult& warm = warm_task.result().value();
  ASSERT_TRUE(cold.success && warm.success);
  EXPECT_LT(warm.forward_wire_bytes, cold.forward_wire_bytes / 5);
  EXPECT_GT(warm.reverse_wire_bytes, cold.reverse_wire_bytes);
  EXPECT_LT(warm.duration_s(), cold.duration_s());
}

// ----------------------------------------------------------------- detour ----

TEST(Detour, StoreAndForwardSumsLegs) {
  auto world = quiet_world();
  auto task = world->detour_engine(ProviderKind::kGoogleDrive)
                  .transfer_task(world->client_node(scenario::Client::kUBC),
                                 ctrl::PathSpec{{world->intermediate_node(
                                     scenario::Intermediate::kUAlberta)}},
                                 make_file_mb(20, 5));
  world->simulator().run();
  ASSERT_TRUE(task.done());
  ASSERT_TRUE(task.result().ok());
  const DetourResult& result = task.result().value();
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_GT(result.leg1_s, 0.0);
  EXPECT_GT(result.leg2_s, 0.0);
  EXPECT_NEAR(result.duration_s(), result.leg1_s + result.leg2_s, 1e-6);
}

TEST(Detour, PipelinedBeatsStoreAndForward) {
  auto run = [](DetourMode mode, double& seconds) {
    auto world = quiet_world();
    DetourOptions options;
    options.mode = mode;
    auto task =
        world->detour_engine(ProviderKind::kGoogleDrive)
            .transfer_task(
                world->client_node(scenario::Client::kUBC),
                ctrl::PathSpec{{world->intermediate_node(
                    scenario::Intermediate::kUAlberta)}},
                make_file_mb(60, 6), options);
    world->simulator().run();
    ASSERT_TRUE(task.done());
    ASSERT_TRUE(task.result().ok());
    const DetourResult& result = task.result().value();
    EXPECT_TRUE(result.success) << result.error;
    seconds = result.duration_s();
  };
  double saf = 0.0;
  double pipe = 0.0;
  run(DetourMode::kStoreAndForward, saf);
  run(DetourMode::kPipelined, pipe);
  EXPECT_LT(pipe, saf * 0.75);
  // Pipelining cannot beat the slower leg alone.
  EXPECT_GT(pipe, saf / 2.5);
}

TEST(Detour, PipelinedCommitsIntactObject) {
  auto world = quiet_world();
  const FileSpec file = make_file_mb(30, 7);
  DetourOptions options;
  options.mode = DetourMode::kPipelined;
  auto task = world->detour_engine(ProviderKind::kOneDrive)
                  .transfer_task(world->client_node(scenario::Client::kUBC),
                                 ctrl::PathSpec{{world->intermediate_node(
                                     scenario::Intermediate::kUAlberta)}},
                                 file, options);
  world->simulator().run();
  ASSERT_TRUE(task.done());
  ASSERT_TRUE(task.result().ok());
  const DetourResult& result = task.result().value();
  ASSERT_TRUE(result.success) << result.error;
  const auto object = world->server(ProviderKind::kOneDrive).lookup(file.name);
  ASSERT_TRUE(object.has_value());
  EXPECT_EQ(object->size, file.bytes);
}

TEST(Detour, FailureInLegOneReported) {
  auto world = quiet_world();
  const auto client = world->client_node(scenario::Client::kUBC);
  world->fabric().fail_link(
      world->topology()
          .find_link(world->node("planetlab1.cs.ubc.ca"),
                     world->node("cs-gw.net.ubc.ca"))
          .value());
  auto task =
      world->detour_engine(ProviderKind::kGoogleDrive)
          .transfer_task(
              client,
              ctrl::PathSpec{{world->intermediate_node(
                  scenario::Intermediate::kUAlberta)}},
              make_file_mb(10, 8));
  world->simulator().run();
  ASSERT_TRUE(task.done());
  ASSERT_TRUE(task.result().ok());
  const DetourResult& result = task.result().value();
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.error.find("leg 1"), std::string::npos);
}

TEST(Detour, ZeroRelayChainIsTheDirectUpload) {
  auto direct_world = quiet_world();
  auto chain_world = quiet_world();
  const FileSpec file = make_file_mb(20, 11);
  auto direct = direct_world->api_engine(ProviderKind::kGoogleDrive)
                    .upload_task(direct_world->client_node(
                                     scenario::Client::kUBC),
                                 file);
  auto chain = chain_world->detour_engine(ProviderKind::kGoogleDrive)
                   .transfer_task(
                       chain_world->client_node(scenario::Client::kUBC),
                       ctrl::PathSpec{}, file);
  direct_world->simulator().run();
  chain_world->simulator().run();
  ASSERT_TRUE(direct.done());
  ASSERT_TRUE(chain.done());
  ASSERT_TRUE(direct.result().ok());
  ASSERT_TRUE(chain.result().ok());
  ASSERT_TRUE(chain.result().value().success) << chain.result().value().error;
  EXPECT_EQ(chain.result().value().end_time, direct.result().value().end_time);
  EXPECT_EQ(chain.result().value().leg1_s, 0.0);
  EXPECT_EQ(chain_world->simulator().executed_events(),
            direct_world->simulator().executed_events());
}

TEST(Detour, TwoRelayChainSumsLegsAndNamesTheFailingLeg) {
  const auto run = [](bool fail_second_leg) {
    auto world = quiet_world();
    if (fail_second_leg) {
      // UMich's access link: only the UAlberta -> UMich rsync crosses it.
      world->fabric().fail_link(
          world->topology()
              .find_link(world->node("pl-gw.umich.edu"),
                         world->node("planetlab01.eecs.umich.edu"))
              .value());
    }
    const ctrl::PathSpec chain{
        {world->intermediate_node(scenario::Intermediate::kUAlberta),
         world->intermediate_node(scenario::Intermediate::kUMich)}};
    auto task = world->detour_engine(ProviderKind::kGoogleDrive)
                    .transfer_task(world->client_node(scenario::Client::kUBC),
                                   chain, make_file_mb(20, 12));
    world->simulator().run();
    EXPECT_TRUE(task.done());
    EXPECT_TRUE(task.result().ok());
    return task.result().value();
  };

  const DetourResult relayed = run(false);
  ASSERT_TRUE(relayed.success) << relayed.error;
  EXPECT_GT(relayed.leg1_s, 0.0);
  EXPECT_GT(relayed.leg2_s, 0.0);
  EXPECT_NEAR(relayed.duration_s(), relayed.leg1_s + relayed.leg2_s,
              chaos::kDetourIdentitySlack *
                  std::max(1.0, relayed.duration_s()));

  const DetourResult failed = run(true);
  EXPECT_FALSE(failed.success);
  EXPECT_EQ(failed.error.rfind("detour leg 2 (rsync)", 0), 0u) << failed.error;
}

TEST(Detour, PipelinedScheduleIsPinned) {
  // Bit patterns of the pipelined relay's end time and leg 1 on quiet
  // seed-1 Worlds, captured before the provider leg became the ordinary
  // API session. The session's preamble is one extra sim event; every
  // outcome time is unchanged.
  struct Pin {
    scenario::Intermediate via;
    ProviderKind provider;
    std::uint64_t mb;
    std::uint64_t end_bits;
    std::uint64_t leg1_bits;
    std::uint64_t events;
  };
  for (const Pin& pin :
       {Pin{scenario::Intermediate::kUAlberta, ProviderKind::kGoogleDrive, 30,
            0x401bb2670527c6a4ull, 0x4016824237d2af88ull, 17},
        Pin{scenario::Intermediate::kUMich, ProviderKind::kOneDrive, 20,
            0x4038494ae0853d92ull, 0x40372a3fd577c783ull, 11}}) {
    auto world = quiet_world(1);
    DetourOptions options;
    options.mode = DetourMode::kPipelined;
    auto task = world->detour_engine(pin.provider)
                    .transfer_task(world->client_node(scenario::Client::kUBC),
                                   ctrl::PathSpec{{world->intermediate_node(
                                       pin.via)}},
                                   make_file_mb(pin.mb, pin.mb), options);
    world->simulator().run();
    ASSERT_TRUE(task.done());
    ASSERT_TRUE(task.result().ok());
    const DetourResult& result = task.result().value();
    ASSERT_TRUE(result.success) << result.error;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.end_time), pin.end_bits)
        << result.end_time;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.leg1_s), pin.leg1_bits)
        << result.leg1_s;
    EXPECT_EQ(world->simulator().executed_events(), pin.events);
  }
}

TEST(Detour, PipelinedLegFailureCancelsTheOtherLeg) {
  // Whichever leg fails first ends the detour at that instant, and the
  // other leg is cancelled with it: no open session, no flow, no batch.
  const auto run_until_done = [](scenario::World& world,
                                 sim::Task<DetourResult>& task) {
    while (!task.done() && world.simulator().step()) {
    }
    EXPECT_TRUE(task.done());
    EXPECT_TRUE(task.result().ok());
    EXPECT_EQ(world.fabric().active_flow_count(), 0u);
    EXPECT_EQ(world.transfer_engine().batches_inflight(), 0u);
    return task.result().value();
  };
  DetourOptions options;
  options.mode = DetourMode::kPipelined;

  {
    // Case 1: UBC's access link fails mid-relay, while leg 2 is running.
    auto world = quiet_world();
    const auto access = world->topology()
                            .find_link(world->node("planetlab1.cs.ubc.ca"),
                                       world->node("cs-gw.net.ubc.ca"))
                            .value();
    double fault_s = -1.0;
    world->simulator().schedule_in(3.0, [&] {
      fault_s = world->simulator().now();
      world->fabric().fail_link(access);
    });
    auto task = world->detour_engine(ProviderKind::kGoogleDrive)
                    .transfer_task(world->client_node(scenario::Client::kUBC),
                                   ctrl::PathSpec{{world->intermediate_node(
                                       scenario::Intermediate::kUAlberta)}},
                                   make_file_mb(30, 30), options);
    const DetourResult result = run_until_done(*world, task);
    EXPECT_FALSE(result.success);
    EXPECT_EQ(result.error, "pipelined leg 1 flow failed");
    EXPECT_EQ(result.end_time, fault_s);
    EXPECT_EQ(world->server(ProviderKind::kGoogleDrive).open_sessions(), 0u);
  }
  {
    // Case 2: the provider admits one request an hour, so the session
    // opens and the first chunk PUT exhausts its 429 retries while leg 1
    // is still relaying later chunks.
    auto world = quiet_world();
    cloud::ApiProfile profile =
        cloud::default_profile(ProviderKind::kGoogleDrive);
    profile.max_requests_per_window = 1;
    profile.throttle_window_s = 3600.0;
    profile.retry_after_s = 0.01;
    cloud::StorageServer throttled(ProviderKind::kGoogleDrive, profile);
    double last_request_s = -1.0;
    std::size_t flows_at_last_request = 0;
    throttled.set_clock([&] {
      last_request_s = world->simulator().now();
      flows_at_last_request = world->fabric().active_flow_count();
      return last_request_s;
    });
    ApiUploadEngine api(&world->fabric(), world->transfer_engine(),
                        &throttled,
                        world->provider_node(ProviderKind::kGoogleDrive));
    DetourEngine detour(&world->fabric(), world->transfer_engine(), &api);
    auto task = detour.transfer_task(
        world->client_node(scenario::Client::kUBC),
        ctrl::PathSpec{
            {world->intermediate_node(scenario::Intermediate::kUAlberta)}},
        make_file_mb(200, 31), options);
    const DetourResult result = run_until_done(*world, task);
    EXPECT_FALSE(result.success);
    EXPECT_EQ(result.error.rfind("pipelined leg 2: append rejected", 0), 0u)
        << result.error;
    EXPECT_EQ(result.end_time, last_request_s);
    EXPECT_GE(flows_at_last_request, 1u);  // a leg-1 chunk was in flight
    EXPECT_EQ(result.leg1_s, 0.0);         // ... and leg 1 never finished
    EXPECT_EQ(throttled.open_sessions(), 0u);
  }
}

TEST(Detour, PipelinedRelayHonoursApiOptions) {
  // The provider leg authenticates with DetourOptions::api like any API
  // upload: an expired token is refreshed once, then reused.
  auto world = quiet_world();
  cloud::OAuthSession oauth("test-client", 3600.0, 5);
  DetourOptions options;
  options.mode = DetourMode::kPipelined;
  options.api.oauth = &oauth;
  DetourEngine& engine = world->detour_engine(ProviderKind::kGoogleDrive);
  const ctrl::PathSpec via{
      {world->intermediate_node(scenario::Intermediate::kUAlberta)}};
  for (std::uint64_t seed : {41u, 42u}) {
    auto task = engine.transfer_task(world->client_node(scenario::Client::kUBC),
                                     via, make_file_mb(10, seed), options);
    world->simulator().run();
    ASSERT_TRUE(task.done());
    ASSERT_TRUE(task.result().ok());
    ASSERT_TRUE(task.result().value().success) << task.result().value().error;
  }
  EXPECT_EQ(oauth.refresh_count(), 1u);
}

TEST(Detour, PipelinedModeNeedsExactlyOneRelay) {
  auto world = quiet_world();
  DetourEngine& engine = world->detour_engine(ProviderKind::kGoogleDrive);
  const auto client = world->client_node(scenario::Client::kUBC);
  DetourOptions options;
  options.mode = DetourMode::kPipelined;
  const ctrl::PathSpec two_relays{
      {world->intermediate_node(scenario::Intermediate::kUAlberta),
       world->intermediate_node(scenario::Intermediate::kUMich)}};
  EXPECT_THROW(
      (void)engine.transfer_task(client, ctrl::PathSpec{}, make_file_mb(1, 1),
                                 options),
      check::CheckError);
  EXPECT_THROW((void)engine.transfer_task(client, two_relays,
                                          make_file_mb(1, 1), options),
               check::CheckError);
  EXPECT_EQ(world->simulator().pending(), 0u);
}

}  // namespace
}  // namespace droute::transfer

// ---------------------------------------------------------------- parallel ----

namespace droute::transfer {
namespace {

TEST(ParallelPush, StreamsDefeatPerFlowPolicer) {
  // UBC -> Google front end crosses the 9.3 Mbps per-flow PacificWave
  // policer; N stripes each get their own allowance.
  auto run = [](int streams, double& seconds) {
    scenario::WorldConfig config;
    config.cross_traffic = false;
    auto world = scenario::World::create(config);
    ParallelPushEngine engine(&world->fabric(), world->transfer_engine());
    auto task = engine.push_task(
        world->client_node(scenario::Client::kUBC),
        world->provider_node(cloud::ProviderKind::kGoogleDrive),
        make_file_mb(40, 1), streams);
    world->simulator().run();
    ASSERT_TRUE(task.done());
    ASSERT_TRUE(task.result().ok());
    const ParallelPushResult& result = task.result().value();
    EXPECT_TRUE(result.success) << result.error;
    seconds = result.duration_s();
  };
  double one = 0.0;
  double four = 0.0;
  run(1, one);
  run(4, four);
  EXPECT_NEAR(one / four, 4.0, 0.5);
}

TEST(ParallelPush, BoundedByLinkCapacityNotStreams) {
  // UBC -> UAlberta is capacity-bound (50 Mbps research uplink): extra
  // streams cannot exceed the shared link.
  auto run = [](int streams, double& seconds) {
    scenario::WorldConfig config;
    config.cross_traffic = false;
    auto world = scenario::World::create(config);
    ParallelPushEngine engine(&world->fabric(), world->transfer_engine());
    auto task = engine.push_task(
        world->client_node(scenario::Client::kUBC),
        world->intermediate_node(scenario::Intermediate::kUAlberta),
        make_file_mb(40, 2), streams);
    world->simulator().run();
    ASSERT_TRUE(task.done());
    ASSERT_TRUE(task.result().ok());
    const ParallelPushResult& result = task.result().value();
    EXPECT_TRUE(result.success);
    seconds = result.duration_s();
  };
  double two = 0.0;
  double eight = 0.0;
  run(2, two);
  run(8, eight);
  // 2 streams already saturate the 50 Mbps link; 8 gain little.
  EXPECT_GT(eight, two * 0.8);
}

TEST(ParallelPush, SingleStreamMatchesPlainFlow) {
  scenario::WorldConfig config;
  config.cross_traffic = false;
  auto world = scenario::World::create(config);
  ParallelPushEngine engine(&world->fabric(), world->transfer_engine());
  auto task = engine.push_task(
      world->client_node(scenario::Client::kUBC),
      world->intermediate_node(scenario::Intermediate::kUAlberta),
      make_file_mb(20, 3), 1);
  world->simulator().run();
  ASSERT_TRUE(task.done());
  ASSERT_TRUE(task.result().ok());
  const ParallelPushResult& result = task.result().value();
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.streams, 1);
  EXPECT_NEAR(result.slowest_stream_s, result.duration_s(), 1e-9);
}

TEST(ParallelPush, MoreStreamsThanBytesIsClamped) {
  scenario::WorldConfig config;
  config.cross_traffic = false;
  auto world = scenario::World::create(config);
  ParallelPushEngine engine(&world->fabric(), world->transfer_engine());
  FileSpec tiny;
  tiny.name = "tiny";
  tiny.bytes = 3;
  tiny.seed = 1;
  auto task = engine.push_task(
      world->client_node(scenario::Client::kUBC),
      world->intermediate_node(scenario::Intermediate::kUAlberta), tiny, 16);
  world->simulator().run();
  ASSERT_TRUE(task.done());
  ASSERT_TRUE(task.result().ok());
  EXPECT_TRUE(task.result().value().success);
}

TEST(ParallelPush, FailureReportedOnce) {
  scenario::WorldConfig config;
  config.cross_traffic = false;
  auto world = scenario::World::create(config);
  // Cut UBC off entirely: the first stripe is rejected synchronously.
  world->fabric().fail_link(
      world->topology()
          .find_link(world->node("planetlab1.cs.ubc.ca"),
                     world->node("cs-gw.net.ubc.ca"))
          .value());
  ParallelPushEngine engine(&world->fabric(), world->transfer_engine());
  auto task = engine.push_task(
      world->client_node(scenario::Client::kUBC),
      world->intermediate_node(scenario::Intermediate::kUAlberta),
      make_file_mb(10, 4), 4);
  // Every stripe shares the dead route, so the push settles synchronously
  // with one rejection report and no flow ever starts.
  ASSERT_TRUE(task.done());
  ASSERT_TRUE(task.result().ok());
  const ParallelPushResult& result = task.result().value();
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.error.rfind("stripe rejected: ", 0), 0u);
  EXPECT_EQ(result.error.find("stripe rejected: ", 1), std::string::npos);
  EXPECT_EQ(world->fabric().submitted_bytes(), 0u);  // no flow started
  world->simulator().run();
  EXPECT_EQ(world->transfer_engine().batches_inflight(), 0u);
}

}  // namespace
}  // namespace droute::transfer
