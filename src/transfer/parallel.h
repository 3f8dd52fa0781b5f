// Parallel-stream push: stripe one file across N concurrent TCP streams —
// the classic DTN/GridFTP trick for defeating *per-flow* policers and
// window limits.
//
// This is the mitigation the paper's detour implicitly competes with: N
// streams through the policed PacificWave hop would get ~N x the per-flow
// rate. The catch, and the reason the detour still matters: the providers'
// upload APIs are strictly sequential (server-enforced in-order offsets, see
// StorageServer::append_chunk), so parallel streams can accelerate the
// client->DTN leg but can never accelerate the API leg. The ablation bench
// (bench_abl_streams) quantifies both facts.
#pragma once

#include <string>

#include "net/fabric.h"
#include "sim/task.h"
#include "transfer/batch.h"
#include "transfer/file_spec.h"

namespace droute::transfer {

struct ParallelPushResult {
  bool success = false;
  std::string error;
  double start_time = 0.0;
  double end_time = 0.0;
  std::uint64_t payload_bytes = 0;
  int streams = 0;
  double slowest_stream_s = 0.0;  // completion is gated by the last stripe

  double duration_s() const { return end_time - start_time; }
};

class ParallelPushEngine {
 public:
  /// The stripe fan-out rides `xfer`, the batch layer of `fabric`'s world.
  ParallelPushEngine(net::Fabric* fabric, TransferEngine& xfer)
      : fabric_(fabric), xfer_(xfer) {}

  /// Coroutine form: pushes `file` from src to dst over `streams`
  /// concurrent flows — one batch with one WRITE request per
  /// contiguous stripe. streams must be >= 1.
  sim::Task<ParallelPushResult> push_task(net::NodeId src, net::NodeId dst,
                                          FileSpec file, int streams);

 private:
  net::Fabric* fabric_;
  TransferEngine& xfer_;
};

}  // namespace droute::transfer
