// Provider request-throttling (HTTP 429) and client backoff tests.
#include <gtest/gtest.h>

#include "cloud/provider.h"
#include "cloud/storage_server.h"
#include "scenario/north_america.h"
#include "transfer/api_upload.h"
#include "transfer/detour.h"
#include "util/units.h"

namespace droute::cloud {
namespace {

rsyncx::Md5Digest digest_of(std::uint64_t tag) {
  std::array<std::uint8_t, 8> bytes{};
  for (int i = 0; i < 8; ++i) {
    bytes[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(tag >> (8 * i));
  }
  return rsyncx::Md5::hash(bytes);
}

TEST(Throttle, InactiveWithoutClock) {
  ApiProfile profile = default_profile(ProviderKind::kDropbox);
  profile.max_requests_per_window = 1;
  StorageServer server(ProviderKind::kDropbox, profile);
  // No clock attached: throttle never fires.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(server.create_session("f" + std::to_string(i), 100).ok());
  }
  EXPECT_EQ(server.throttled_requests(), 0u);
}

TEST(Throttle, SlidingWindowEnforced) {
  ApiProfile profile = default_profile(ProviderKind::kDropbox);
  profile.max_requests_per_window = 2;
  profile.throttle_window_s = 10.0;
  StorageServer server(ProviderKind::kDropbox, profile);
  double now = 0.0;
  server.set_clock([&now] { return now; });

  EXPECT_TRUE(server.create_session("a", 100).ok());
  EXPECT_TRUE(server.create_session("b", 100).ok());
  const auto third = server.create_session("c", 100);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.error().code, 429);
  EXPECT_EQ(server.throttled_requests(), 1u);

  // After the window slides, requests are admitted again.
  now = 11.0;
  EXPECT_TRUE(server.create_session("c", 100).ok());
}

TEST(Throttle, RejectedRequestsDoNotConsumeBudget) {
  ApiProfile profile = default_profile(ProviderKind::kDropbox);
  profile.max_requests_per_window = 1;
  profile.throttle_window_s = 10.0;
  StorageServer server(ProviderKind::kDropbox, profile);
  double now = 0.0;
  server.set_clock([&now] { return now; });
  EXPECT_TRUE(server.create_session("a", 100).ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(server.create_session("spam", 100).ok());
  }
  // The one admitted request expires on schedule despite the spam.
  now = 10.5;
  EXPECT_TRUE(server.create_session("b", 100).ok());
}

TEST(Throttle, AppendsAreThrottledToo) {
  ApiProfile profile = default_profile(ProviderKind::kGoogleDrive);
  profile.max_requests_per_window = 3;
  profile.throttle_window_s = 60.0;
  StorageServer server(ProviderKind::kGoogleDrive, profile);
  double now = 0.0;
  server.set_clock([&now] { return now; });

  auto session =
      server.create_session("f", 3 * profile.chunk_bytes);  // request 1
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(server
                  .append_chunk(session.value(), 0, profile.chunk_bytes,
                                digest_of(0))
                  .ok());  // request 2
  EXPECT_TRUE(server
                  .append_chunk(session.value(), profile.chunk_bytes,
                                profile.chunk_bytes, digest_of(1))
                  .ok());  // request 3
  const auto status = server.append_chunk(
      session.value(), 2 * profile.chunk_bytes, profile.chunk_bytes,
      digest_of(2));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, 429);
  // The session state is untouched by the rejected append: retrying at the
  // same offset later succeeds.
  now = 61.0;
  EXPECT_TRUE(server
                  .append_chunk(session.value(), 2 * profile.chunk_bytes,
                                profile.chunk_bytes, digest_of(2))
                  .ok());
}

}  // namespace
}  // namespace droute::cloud

namespace droute::transfer {
namespace {

TEST(ThrottleBackoff, UploadRetriesAndSucceeds) {
  // Throttle Google Drive hard: 2 requests/20 s. A 40 MB upload (session +
  // 5 chunks = 6 requests) must back off repeatedly yet still commit.
  scenario::WorldConfig config;
  config.cross_traffic = false;
  auto world = scenario::World::create(config);

  cloud::ApiProfile profile =
      cloud::default_profile(cloud::ProviderKind::kGoogleDrive);
  profile.max_requests_per_window = 2;
  profile.throttle_window_s = 20.0;
  profile.retry_after_s = 2.0;
  cloud::StorageServer throttled(cloud::ProviderKind::kGoogleDrive, profile);
  throttled.set_clock(
      [&world] { return world->simulator().now(); });
  ApiUploadEngine engine(&world->fabric(), world->transfer_engine(),
                         &throttled,
                         world->provider_node(
                             cloud::ProviderKind::kGoogleDrive));

  auto task = engine.upload_task(
      world->intermediate_node(scenario::Intermediate::kUAlberta),
      make_file_mb(40, 1));
  world->simulator().run();

  ASSERT_TRUE(task.done());
  ASSERT_TRUE(task.result().ok());
  const UploadResult& result = task.result().value();
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_GT(result.throttle_retries, 0);
  EXPECT_GT(throttled.throttled_requests(), 0u);
  EXPECT_EQ(throttled.object_count(), 1u);

  // An unthrottled upload of the same file is strictly faster.
  auto free_task = world->api_engine(cloud::ProviderKind::kGoogleDrive)
                       .upload_task(world->intermediate_node(
                                        scenario::Intermediate::kUAlberta),
                                    make_file_mb(40, 2));
  world->simulator().run();
  ASSERT_TRUE(free_task.done());
  ASSERT_TRUE(free_task.result().ok());
  const UploadResult& free_result = free_task.result().value();
  ASSERT_TRUE(free_result.success);
  EXPECT_GT(result.duration_s(), free_result.duration_s() * 1.5);
}

TEST(ThrottleBackoff, GivesUpAfterMaxRetries) {
  // A absurdly tight throttle (1 request per hour) exhausts the backoff
  // budget; the upload fails cleanly instead of spinning forever.
  scenario::WorldConfig config;
  config.cross_traffic = false;
  auto world = scenario::World::create(config);

  cloud::ApiProfile profile =
      cloud::default_profile(cloud::ProviderKind::kDropbox);
  profile.max_requests_per_window = 1;
  profile.throttle_window_s = 3600.0;
  profile.retry_after_s = 0.5;
  cloud::StorageServer throttled(cloud::ProviderKind::kDropbox, profile);
  throttled.set_clock([&world] { return world->simulator().now(); });
  ApiUploadEngine engine(&world->fabric(), world->transfer_engine(),
                         &throttled,
                         world->provider_node(cloud::ProviderKind::kDropbox));

  auto task = engine.upload_task(
      world->intermediate_node(scenario::Intermediate::kUAlberta),
      make_file_mb(20, 1));
  world->simulator().run();
  ASSERT_TRUE(task.done());
  ASSERT_TRUE(task.result().ok());
  const UploadResult& result = task.result().value();
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.error.find("rate limited"), std::string::npos);
  EXPECT_EQ(throttled.object_count(), 0u);
  EXPECT_EQ(throttled.open_sessions(), 0u);  // abandoned cleanly
}

TEST(ThrottleBackoff, PipelinedDetourBacksOffAndSucceeds) {
  // The pipelined relay's provider leg PUTs the same chunks the direct
  // upload does, so under the same 2 requests/20 s throttle it must back
  // off and resend rather than fail the whole detour on the first 429.
  scenario::WorldConfig config;
  config.cross_traffic = false;
  auto world = scenario::World::create(config);

  cloud::ApiProfile profile =
      cloud::default_profile(cloud::ProviderKind::kGoogleDrive);
  profile.max_requests_per_window = 2;
  profile.throttle_window_s = 20.0;
  profile.retry_after_s = 2.0;
  cloud::StorageServer throttled(cloud::ProviderKind::kGoogleDrive, profile);
  throttled.set_clock([&world] { return world->simulator().now(); });
  ApiUploadEngine api(&world->fabric(), world->transfer_engine(), &throttled,
                      world->provider_node(cloud::ProviderKind::kGoogleDrive));
  DetourEngine detour(&world->fabric(), world->transfer_engine(), &api);

  DetourOptions options;
  options.mode = DetourMode::kPipelined;
  auto task = detour.transfer_task(
      world->client_node(scenario::Client::kUBC),
      ctrl::PathSpec{{world->intermediate_node(
          scenario::Intermediate::kUAlberta)}},
      make_file_mb(40, 1), options);
  world->simulator().run();

  ASSERT_TRUE(task.done());
  ASSERT_TRUE(task.result().ok());
  const DetourResult& result = task.result().value();
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_GT(throttled.throttled_requests(), 0u);
  EXPECT_EQ(throttled.object_count(), 1u);
  EXPECT_EQ(throttled.open_sessions(), 0u);
  EXPECT_EQ(world->transfer_engine().batches_inflight(), 0u);
  EXPECT_EQ(world->fabric().active_flow_count(), 0u);
}

}  // namespace
}  // namespace droute::transfer
