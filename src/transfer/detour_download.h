// Detoured download: provider -> intermediate DTN via the provider API,
// then DTN -> client via rsync (the mirror image of the paper's upload
// detour; the paper's clients both upload and download, Sec II).
// Store-and-forward: total = leg1 + leg2.
#pragma once

#include <string>

#include "sim/task.h"
#include "transfer/api_download.h"
#include "transfer/rsync_engine.h"

namespace droute::transfer {

struct DownloadDetourResult {
  bool success = false;
  std::string error;
  double start_time = 0.0;
  double end_time = 0.0;
  double leg1_s = 0.0;  // provider -> intermediate (API)
  double leg2_s = 0.0;  // intermediate -> client (rsync)
  std::uint64_t payload_bytes = 0;

  double duration_s() const { return end_time - start_time; }
};

class DetourDownloadEngine {
 public:
  /// Both legs ride `xfer`, the batch layer of `fabric`'s world.
  DetourDownloadEngine(net::Fabric* fabric, TransferEngine& xfer,
                       ApiDownloadEngine* api)
      : fabric_(fabric), api_(api), rsync_(fabric, xfer) {}

  /// Coroutine form: fetches `name` to `client` via `intermediate`.
  sim::Task<DownloadDetourResult> download_task(net::NodeId client,
                                                net::NodeId intermediate,
                                                std::string name);

 private:
  net::Fabric* fabric_;
  ApiDownloadEngine* api_;
  RsyncEngine rsync_;  // leg 2: DTN -> client
};

}  // namespace droute::transfer
