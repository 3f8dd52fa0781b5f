// Cloud-storage upload engine: drives a provider's REST upload API (session
// init, sequential chunk PUTs, finalize) over the simulated fabric, updating
// the provider's StorageServer state machine as chunks land. It is the one
// API session: the direct upload, store-and-forward's last leg and the
// pipelined relay's provider leg all run upload_task.
#pragma once

#include <string>

#include "cloud/oauth.h"
#include "cloud/provider.h"
#include "cloud/storage_server.h"
#include "net/fabric.h"
#include "sim/task.h"
#include "transfer/batch.h"
#include "transfer/file_spec.h"

namespace droute::obs {
class Counter;
class Histogram;
}  // namespace droute::obs

namespace droute::transfer {

struct UploadResult {
  bool success = false;
  std::string error;
  double start_time = 0.0;
  double end_time = 0.0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t wire_bytes = 0;    // payload + HTTP overhead
  int chunks = 0;
  int throttle_retries = 0;        // chunk PUTs retried after HTTP 429
  double rtt_s = 0.0;              // client<->server model RTT
  bool token_refreshed = false;

  double duration_s() const { return end_time - start_time; }
};

/// The chunks of an upload that have landed at its source so far. The
/// producer (the pipelined relay's leg 1) bumps `arrived` after each chunk
/// and fires `landed`; the upload PUTs chunk i only once `arrived > i`.
struct ChunkFeed {
  std::size_t arrived = 0;
  sim::Notify landed;
};

struct ApiUploadOptions {
  /// OAuth session to authenticate with; nullptr skips auth modelling.
  cloud::OAuthSession* oauth = nullptr;
  /// Where the chunks come from; nullptr means every chunk is already at
  /// the source. Waiting parks the upload on `feed->landed`, so the feed
  /// is not const.
  ChunkFeed* feed = nullptr;
};

/// Asynchronous engine bound to one provider front-end node. Its chunk
/// PUTs ride `xfer`, the batch layer of `fabric`'s world.
class ApiUploadEngine {
 public:
  ApiUploadEngine(net::Fabric* fabric, TransferEngine& xfer,
                  cloud::StorageServer* server, net::NodeId server_node);

  net::NodeId server_node() const { return server_node_; }
  cloud::StorageServer* server() const { return server_; }

  /// Coroutine form: session init, sequential chunk PUTs (with 429
  /// backoff), finalize. With `options.feed` set, each PUT first waits
  /// until the feed has that chunk. Failure cases — unroutable client,
  /// API/server rejections mid-stream, cancellation — land inside
  /// UploadResult with the session abandoned; the Result error channel
  /// carries only escaped exceptions.
  sim::Task<UploadResult> upload_task(net::NodeId client, FileSpec file,
                                      ApiUploadOptions options = {});

 private:
  /// One chunk of an open upload `session`: PUT `chunk_bytes` (plus the
  /// per-chunk header) from `source`, then append it. An HTTP 429 honours
  /// Retry-After with exponential backoff and resends the chunk, at most
  /// 8 times (kMaxThrottleRetries), counting each resend in
  /// *throttle_retries. Yields the accepted PUT's wire bytes, or why the
  /// chunk failed.
  sim::Task<std::uint64_t> put_chunk(net::NodeId source,
                                     cloud::SessionId session,
                                     std::uint64_t offset,
                                     std::uint64_t chunk_bytes,
                                     rsyncx::Md5Digest digest,
                                     bool first_chunk, int* throttle_retries);

  net::Fabric* fabric_;
  cloud::StorageServer* server_;
  net::NodeId server_node_;
  TransferEngine& xfer_;
  SegmentId server_segment_ = kInvalidSegment;
  // obs handles (null when recording is disabled at construction).
  obs::Counter* obs_throttle_retries_ = nullptr;
  obs::Histogram* obs_backoff_wait_ = nullptr;
};

}  // namespace droute::transfer
