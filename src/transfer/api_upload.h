// Direct cloud-storage upload engine: drives a provider's REST upload API
// (session init, sequential chunk PUTs, finalize) over the simulated fabric,
// updating the provider's StorageServer state machine as chunks land.
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

struct ApiUploadOptions {
  /// OAuth session to authenticate with; nullptr skips auth modelling.
  cloud::OAuthSession* oauth = nullptr;
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
  /// backoff), finalize. Failure cases — unroutable client, API/server
  /// rejections mid-stream — land inside UploadResult; the Result error
  /// channel carries only escaped exceptions / cancellation.
  sim::Task<UploadResult> upload_task(net::NodeId client, FileSpec file,
                                      ApiUploadOptions options = {});

  /// One chunk of an open upload `session`: PUT `chunk_bytes` (plus the
  /// per-chunk header) from `source`, then append it. An HTTP 429 honours
  /// Retry-After with exponential backoff and resends the chunk, at most
  /// 8 times (kMaxThrottleRetries), counting each resend in
  /// *throttle_retries when given. Yields the accepted PUT's wire bytes,
  /// or why the chunk failed. The direct upload and the pipelined detour's
  /// provider leg both send every chunk through it; each keeps its own
  /// per-chunk turnaround.
  sim::Task<std::uint64_t> put_chunk(net::NodeId source,
                                     cloud::SessionId session,
                                     std::uint64_t offset,
                                     std::uint64_t chunk_bytes,
                                     rsyncx::Md5Digest digest,
                                     bool first_chunk, int* throttle_retries);

 private:
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
