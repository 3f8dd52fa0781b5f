// Detour transfer engine — the paper's contribution, plus the pipelined
// extension.
//
// Store-and-forward (the paper's system, Fig 1): rsync the file from the
// client to the intermediate DTN, then upload from the DTN with the
// provider's API. Total time is the *sum* of the legs (e.g. the intro's
// 19 s + 17 s = 36 s vs 87 s direct for UBC -> Google Drive).
//
// Pipelined (our extension, Sec I future work): relay API-sized chunks
// through the DTN as they arrive, overlapping the two legs; total time
// approaches the slower leg plus one chunk's worth of the other.
#pragma once

#include <string>

#include "sim/task.h"
#include "transfer/api_upload.h"
#include "transfer/rsync_engine.h"

namespace droute::transfer {

enum class DetourMode { kStoreAndForward, kPipelined };

struct DetourResult {
  bool success = false;
  std::string error;
  double start_time = 0.0;
  double end_time = 0.0;
  double leg1_s = 0.0;  // client -> intermediate
  double leg2_s = 0.0;  // intermediate -> provider (store-and-forward only)
  DetourMode mode = DetourMode::kStoreAndForward;
  std::uint64_t payload_bytes = 0;

  double duration_s() const { return end_time - start_time; }
};

struct DetourOptions {
  DetourMode mode = DetourMode::kStoreAndForward;
  RsyncOptions rsync;
  ApiUploadOptions api;
};

class DetourEngine {
 public:
  /// `api` is bound to the destination provider's front-end node; every
  /// leg rides `xfer`, the batch layer of `fabric`'s world.
  DetourEngine(net::Fabric* fabric, TransferEngine& xfer, ApiUploadEngine* api)
      : fabric_(fabric), api_(api), rsync_(fabric, xfer), xfer_(xfer) {}

  /// Coroutine form: moves `file` from `client` to the provider via
  /// `intermediate`. Domain failures land inside DetourResult — including
  /// a leg that unwound exceptionally (the leg's Task error is folded into
  /// the failed result rather than terminating, see tests).
  sim::Task<DetourResult> transfer_task(net::NodeId client,
                                        net::NodeId intermediate,
                                        FileSpec file,
                                        DetourOptions options = {});

 private:
  sim::Task<DetourResult> store_and_forward_task(net::NodeId client,
                                                 net::NodeId intermediate,
                                                 FileSpec file,
                                                 DetourOptions options);
  sim::Task<DetourResult> pipelined_task(net::NodeId client,
                                         net::NodeId intermediate,
                                         FileSpec file,
                                         DetourOptions options);

  net::Fabric* fabric_;
  ApiUploadEngine* api_;
  RsyncEngine rsync_;  // leg 1 of store-and-forward
  TransferEngine& xfer_;
};

}  // namespace droute::transfer
