// Steered upload engine: the data plane's side of the ctrl seam.
//
// Each upload asks a ctrl::Steering source for a path, then executes it
// store-and-forward: one rsync push per relay leg (the paper's detour
// mechanics, generalized to a bounded chain) and the provider-API upload
// from the last node. The session's observed goodput is reported back via
// Steering::observe_session, closing the control loop.
//
// Depends only on the header-only ctrl/steering.h interface — the transfer
// layer does not link droute_ctrl (DESIGN.md §14).
#pragma once

#include <string>

#include "ctrl/steering.h"
#include "net/fabric.h"
#include "sim/task.h"
#include "transfer/api_upload.h"
#include "transfer/rsync_engine.h"

namespace droute::transfer {

struct SteeredResult {
  bool success = false;
  std::string error;
  double start_time = 0.0;
  double end_time = 0.0;
  std::uint64_t payload_bytes = 0;
  ctrl::Decision decision;  // the steering decision this session rode

  double duration_s() const { return end_time - start_time; }
  double achieved_mbps() const {
    return duration_s() > 0.0
               ? static_cast<double>(payload_bytes) * 8e-6 / duration_s()
               : 0.0;
  }
};

struct SteeredOptions {
  RsyncOptions rsync;
  ApiUploadOptions api;
};

class SteeredUploadEngine {
 public:
  /// `api` is bound to the destination provider's front-end; `steering`
  /// must outlive the engine and every in-flight upload. Relay legs ride
  /// `xfer`, the batch layer of `fabric`'s world.
  SteeredUploadEngine(net::Fabric* fabric, TransferEngine& xfer,
                      ApiUploadEngine* api, ctrl::Steering* steering)
      : fabric_(fabric), api_(api), steering_(steering),
        rsync_(fabric, xfer) {}

  /// Coroutine form: steers, executes the chain, reports back. Domain
  /// failures (unroutable leg, API rejection) land inside SteeredResult.
  sim::Task<SteeredResult> upload_task(net::NodeId client, FileSpec file,
                                       SteeredOptions options = {});

 private:
  net::Fabric* fabric_;
  ApiUploadEngine* api_;
  ctrl::Steering* steering_;
  RsyncEngine rsync_;  // one push per relay leg
};

}  // namespace droute::transfer
