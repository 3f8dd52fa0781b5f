// Detour transfer engine — the paper's contribution, plus the pipelined
// extension. It is the one engine that runs relay chains.
//
// Store-and-forward (the paper's system, Fig 1): rsync the file from the
// client to each DTN of the chain in turn, then upload from the last one
// with the provider's API. Total time is the *sum* of the legs (e.g. the
// intro's 19 s + 17 s = 36 s vs 87 s direct for UBC -> Google Drive). The
// paper's detour is the one-relay chain; the empty chain is the direct
// API upload.
//
// Pipelined (our extension, Sec I future work): relay API-sized chunks
// through one DTN as they arrive, overlapping the two legs; total time
// approaches the slower leg plus one chunk's worth of the other. The
// provider leg is the ordinary API session (ApiUploadEngine::upload_task
// from the DTN, honouring DetourOptions::api), fed through a ChunkFeed:
// it opens its session at the start, then PUTs chunk i once leg 1 has
// landed it. A failing leg cancels the other; the first failure is the
// one reported.
//
// Download (the mirror image; the paper's clients both upload and
// download, Sec II): fetch the object with the provider's API to the last
// relay of the chain, then rsync it back relay by relay to the client. The
// empty chain is the direct API download.
//
// Steered (the data plane's side of the ctrl seam): ask a ctrl::Steering
// for the chain, run it store-and-forward, and report the session back via
// Steering::observe_session, closing the control loop. Only the
// header-only ctrl/steering.h is used — the transfer layer does not link
// droute_ctrl (DESIGN.md §14).
#pragma once

#include <string>

#include "ctrl/steering.h"
#include "sim/task.h"
#include "transfer/api_download.h"
#include "transfer/api_upload.h"
#include "transfer/rsync_engine.h"

namespace droute::transfer {

enum class DetourMode { kStoreAndForward, kPipelined };

struct DetourResult {
  bool success = false;
  std::string error;
  double start_time = 0.0;
  double end_time = 0.0;
  // Upload: leg 1 is client -> last relay, leg 2 last relay -> provider
  // (store-and-forward only). Download: leg 1 is the API leg to the last
  // relay, leg 2 the relay legs back to the client.
  double leg1_s = 0.0;
  double leg2_s = 0.0;
  DetourMode mode = DetourMode::kStoreAndForward;
  std::uint64_t payload_bytes = 0;

  double duration_s() const { return end_time - start_time; }
};

/// A steered session: the decision it rode and how it ended.
struct SteeredResult {
  ctrl::Decision decision;
  bool success = false;
  std::string error;
  double start_time = 0.0;
  double end_time = 0.0;

  double duration_s() const { return end_time - start_time; }
};

struct DetourOptions {
  DetourMode mode = DetourMode::kStoreAndForward;
  RsyncOptions rsync;
  /// The provider leg's options, in both modes (the pipelined relay sets
  /// its own `feed`).
  ApiUploadOptions api;
};

class DetourEngine {
 public:
  /// `api` (and `download`, when downloads are run) is bound to the
  /// provider's front-end node; every leg rides `xfer`, the batch layer of
  /// `fabric`'s world.
  DetourEngine(net::Fabric* fabric, TransferEngine& xfer, ApiUploadEngine* api,
               ApiDownloadEngine* download = nullptr)
      : fabric_(fabric),
        api_(api),
        download_(download),
        rsync_(fabric, xfer),
        xfer_(xfer) {}

  /// Coroutine form: moves `file` from `client` to the provider through
  /// the relays of `path`, in order. Domain failures land inside
  /// DetourResult — including a leg that unwound exceptionally (the leg's
  /// Task error is folded into the failed result rather than terminating,
  /// see tests). Pipelined mode needs exactly one relay; any other chain
  /// fails a DROUTE_CHECK at the call.
  sim::Task<DetourResult> transfer_task(net::NodeId client,
                                        ctrl::PathSpec path, FileSpec file,
                                        DetourOptions options = {});

  /// Coroutine form: fetches object `name` from the provider to `client`
  /// through the relays of `path` (client -> provider order, as uploads
  /// name them), store-and-forward. Domain failures land inside
  /// DetourResult. Requires the engine to be bound to a download engine.
  sim::Task<DetourResult> download_task(net::NodeId client,
                                        ctrl::PathSpec path, std::string name);

  /// Coroutine form: steers, runs the decided chain store-and-forward and
  /// reports the session back. `steering` must outlive the task. An
  /// unroutable decision still runs (direct fallback), so its failure
  /// surfaces here as it would for a real client with no alternative.
  sim::Task<SteeredResult> steered_task(net::NodeId client, FileSpec file,
                                        ctrl::Steering& steering);

 private:
  sim::Task<DetourResult> store_and_forward_task(net::NodeId client,
                                                 ctrl::PathSpec path,
                                                 FileSpec file,
                                                 DetourOptions options);
  sim::Task<DetourResult> pipelined_task(net::NodeId client,
                                         net::NodeId intermediate,
                                         FileSpec file,
                                         DetourOptions options);

  net::Fabric* fabric_;
  ApiUploadEngine* api_;
  ApiDownloadEngine* download_;
  RsyncEngine rsync_;  // the relay legs of store-and-forward, both ways
  TransferEngine& xfer_;
};

}  // namespace droute::transfer
