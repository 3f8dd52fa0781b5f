// Direct cloud-storage download engine (the other half of Sec II's API
// surface): metadata GET, then sequential ranged GETs of API-chunk-sized
// byte ranges, with a client-side digest chain verified against the object's
// committed digest.
#pragma once

#include <string>

#include "cloud/oauth.h"
#include "cloud/storage_server.h"
#include "net/fabric.h"
#include "sim/task.h"
#include "transfer/batch.h"

namespace droute::transfer {

struct DownloadResult {
  bool success = false;
  std::string error;
  double start_time = 0.0;
  double end_time = 0.0;
  std::uint64_t payload_bytes = 0;
  int chunks = 0;
  double rtt_s = 0.0;
  bool integrity_ok = false;

  double duration_s() const { return end_time - start_time; }
};

struct ApiDownloadOptions {
  cloud::OAuthSession* oauth = nullptr;
};

class ApiDownloadEngine {
 public:
  /// Ranged GETs ride `xfer`, the batch layer of `fabric`'s world.
  ApiDownloadEngine(net::Fabric* fabric, TransferEngine& xfer,
                    cloud::StorageServer* server, net::NodeId server_node);

  net::NodeId server_node() const { return server_node_; }
  cloud::StorageServer* server() const { return server_; }

  /// Coroutine form: fetches object `name` from the provider down to
  /// `client`. Domain failures land inside DownloadResult.
  sim::Task<DownloadResult> download_task(net::NodeId client, std::string name,
                                          ApiDownloadOptions options = {});

 private:
  net::Fabric* fabric_;
  cloud::StorageServer* server_;
  net::NodeId server_node_;
  TransferEngine& xfer_;
  SegmentId server_segment_ = kInvalidSegment;
};

}  // namespace droute::transfer
