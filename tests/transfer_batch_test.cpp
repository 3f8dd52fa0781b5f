// Batch-layer semantics (DESIGN.md §15): partial failure, cancellation
// exactness, 429 pressure, and the wire backend behind the same API.
#include <gtest/gtest.h>

#include <vector>

#include "cloud/storage_server.h"
#include "scenario/north_america.h"
#include "sim/task.h"
#include "transfer/api_upload.h"
#include "transfer/batch.h"
#include "transfer/file_spec.h"
#include "transfer/parallel.h"
#include "transfer/wire_transport.h"
#include "util/blob.h"
#include "util/rng.h"
#include "util/units.h"
#include "wire/sink.h"

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

// ---------------------------------------------------------- partial failure ----

TEST(Batch, PartialFailureSettlesEveryRequestIndependently) {
  auto world = quiet_world();
  TransferEngine& xfer = world->transfer_engine();

  const auto ubc = world->client_node(scenario::Client::kUBC);
  Segment unmapped;
  unmapped.name = "unmapped";  // no fabric node: rejected at launch
  const SegmentId bad = xfer.register_segment(unmapped);
  const SegmentId ualberta = xfer.ensure_node_segment(
      world->intermediate_node(scenario::Intermediate::kUAlberta));
  const SegmentId provider =
      xfer.ensure_node_segment(world->provider_node(ProviderKind::kGoogleDrive));

  std::vector<TransferRequest> requests(3);
  requests[0].source_node = ubc;
  requests[0].target_id = bad;
  requests[0].length = util::kMB;
  requests[1].source_node = ubc;
  requests[1].target_id = ualberta;  // killed mid-flight at t = 10 s
  requests[1].length = 100 * util::kMB;
  requests[2].source_node = ubc;
  requests[2].target_id = provider;  // small enough to finish before the cut
  requests[2].length = 100 * 1000;

  auto batch = xfer.submit_batch(std::move(requests));
  bool all_ok = true;
  auto driver = [](TransferEngine&, BatchHandle& b,
                   bool* ok) -> sim::Task<void> {
    *ok = co_await b;
  }(xfer, batch, &all_ok);

  world->simulator().schedule_in(10.0, [&] {
    world->fabric().fail_link(
        world->topology()
            .find_link(world->node("planetlab1.cs.ubc.ca"),
                       world->node("cs-gw.net.ubc.ca"))
            .value());
  });
  world->simulator().run();

  ASSERT_TRUE(driver.done());
  EXPECT_FALSE(all_ok);
  EXPECT_TRUE(batch.done());
  EXPECT_EQ(batch.status(0).state, RequestState::kRejected);
  EXPECT_EQ(batch.status(0).error, "segment has no fabric node");
  EXPECT_EQ(batch.status(1).state, RequestState::kLinkFailed);
  EXPECT_EQ(batch.status(2).state, RequestState::kCompleted);
  EXPECT_EQ(batch.status(2).bytes, 100 * 1000u);
  EXPECT_GT(batch.status(2).duration_s(), 0.0);
  EXPECT_EQ(xfer.batches_inflight(), 0u);
  EXPECT_EQ(world->fabric().active_flow_count(), 0u);
}

TEST(Batch, ThrottledUploadGivesUpAndReleasesBatches) {
  auto world = quiet_world();
  // A provider whose budget is one request per (effectively infinite)
  // window: create_session spends it, so every append 429s until the
  // engine's retry depth is exhausted.
  cloud::ApiProfile profile =
      cloud::default_profile(ProviderKind::kGoogleDrive);
  profile.max_requests_per_window = 1;
  profile.throttle_window_s = 1e9;
  cloud::StorageServer server(ProviderKind::kGoogleDrive, profile);
  server.set_clock([&world] { return world->simulator().now(); });
  ApiUploadEngine engine(&world->fabric(), world->transfer_engine(), &server,
                         world->provider_node(ProviderKind::kGoogleDrive));

  auto task = engine.upload_task(world->client_node(scenario::Client::kUBC),
                                 make_file_mb(10, 1));
  world->simulator().run();

  ASSERT_TRUE(task.done());
  ASSERT_TRUE(task.result().ok());
  const UploadResult& result = task.result().value();
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.error.find("rate limited"), std::string::npos)
      << result.error;
  EXPECT_GT(result.throttle_retries, 0);
  EXPECT_GT(server.throttled_requests(), 0u);
  // Every chunk PUT batch settled despite the 429 storm above it.
  EXPECT_EQ(world->transfer_engine().batches_inflight(), 0u);
  EXPECT_EQ(world->fabric().active_flow_count(), 0u);
}

// ------------------------------------------------------------- cancellation ----

TEST(Batch, CancelMidFlightReleasesEverySimEvent) {
  auto world = quiet_world();
  ParallelPushEngine engine(&world->fabric(), world->transfer_engine());
  auto task = engine.push_task(
      world->client_node(scenario::Client::kUBC),
      world->intermediate_node(scenario::Intermediate::kUAlberta),
      make_file_mb(100, 11), 4);
  world->simulator().schedule_in(5.0, [&] { task.cancel(); });
  world->simulator().run();

  ASSERT_TRUE(task.done());
  // Cancellation surfaces as a domain failure: the engine sees the batch
  // cancelled and reports the stripe failure through its normal result.
  ASSERT_TRUE(task.result().ok());
  EXPECT_FALSE(task.result().value().success);
  // Exactness: the aborted stripes' completion events are cancelled, not
  // abandoned — nothing remains to advance the clock past the cancel point
  // (the full transfer would have run ~16 s).
  EXPECT_LT(world->simulator().now(), 6.0);
  EXPECT_EQ(world->simulator().pending(), 0u);
  EXPECT_EQ(world->fabric().active_flow_count(), 0u);
  EXPECT_EQ(world->transfer_engine().batches_inflight(), 0u);
}

TEST(Batch, CancelBeforeStartNeverTouchesTheFabric) {
  auto world = quiet_world();
  TransferEngine& xfer = world->transfer_engine();
  std::vector<TransferRequest> requests(2);
  for (auto& request : requests) {
    request.source_node = world->client_node(scenario::Client::kUBC);
    request.target_id = xfer.ensure_node_segment(
        world->intermediate_node(scenario::Intermediate::kUAlberta));
    request.length = util::kMB;
  }
  auto batch = xfer.submit_batch(std::move(requests));
  batch.cancel();
  EXPECT_TRUE(batch.done());
  EXPECT_FALSE(batch.ok());
  EXPECT_TRUE(batch.cancelled());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch.status(i).state, RequestState::kCancelled);
    EXPECT_EQ(batch.status(i).error, "transfer cancelled before start");
    EXPECT_TRUE(batch.status(i).rejected());
  }
  EXPECT_EQ(xfer.batches_inflight(), 0u);
  EXPECT_EQ(world->simulator().pending(), 0u);
  EXPECT_EQ(world->fabric().active_flow_count(), 0u);
}

// ------------------------------------------------------------ wire transport ----

TEST(Batch, WireTransportRunsTheSameBatchApi) {
  wire::Sink sink;
  auto port = sink.add_ingress(0.0);
  ASSERT_TRUE(port.ok());
  ASSERT_TRUE(sink.start().ok());

  WireTransport transport;
  TransferEngine xfer(&transport);
  Segment segment;
  segment.name = "loopback-sink";
  segment.wire_port = port.value();
  const SegmentId sink_id = xfer.register_segment(segment);

  util::Rng rng(7);
  const util::Blob payload = util::make_random_blob(rng, 256 * 1024);
  std::vector<TransferRequest> requests(3);
  for (auto& request : requests) {
    request.source = payload.data();
    request.target_id = sink_id;
    request.length = payload.size();
    request.label = "wire-batch";
  }
  auto batch = xfer.submit_batch(std::move(requests));
  EXPECT_TRUE(batch.wait());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch.status(i).state, RequestState::kCompleted);
    EXPECT_EQ(batch.status(i).bytes, payload.size());
  }
  EXPECT_EQ(sink.objects_received(), 3u);
  EXPECT_EQ(sink.bytes_received(), 3 * payload.size());
  EXPECT_EQ(xfer.batches_inflight(), 0u);
  sink.stop();
}

TEST(Batch, WireTransportRejectsReads) {
  wire::Sink sink;
  auto port = sink.add_ingress(0.0);
  ASSERT_TRUE(port.ok());
  ASSERT_TRUE(sink.start().ok());

  WireTransport transport;
  TransferEngine xfer(&transport);
  Segment segment;
  segment.wire_port = port.value();
  const SegmentId sink_id = xfer.register_segment(segment);

  util::Rng rng(8);
  const util::Blob payload = util::make_random_blob(rng, 1024);
  TransferRequest request;
  request.opcode = Opcode::kRead;
  request.source = payload.data();
  request.target_id = sink_id;
  request.length = payload.size();
  auto batch = xfer.submit(std::move(request));
  EXPECT_FALSE(batch.wait());
  EXPECT_EQ(batch.status(0).state, RequestState::kRejected);
  EXPECT_EQ(batch.status(0).error, "wire transport only supports WRITE");
  EXPECT_EQ(sink.objects_received(), 0u);
  sink.stop();
}

}  // namespace
}  // namespace droute::transfer
