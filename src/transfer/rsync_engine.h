// rsync transfer engine: the client -> intermediate-DTN leg of a detour.
//
// Models the full rsync session shape over the fabric:
//   handshake (2 RTT) -> receiver signature (reverse flow) -> sender delta
//   (forward flow) -> trailer (1 RTT) + receiver patch CPU.
// In the paper's benchmark configuration the DTN holds no basis file
// (files are deleted before each run, Sec II), so the delta is one full-file
// literal — asserted by tests, and exactly why the detour pays the full
// payload cost on both legs.
#pragma once

#include <optional>
#include <string>

#include "net/fabric.h"
#include "rsyncx/session.h"
#include "sim/task.h"
#include "transfer/batch.h"
#include "transfer/file_spec.h"

namespace droute::transfer {

struct RsyncResult {
  bool success = false;
  std::string error;
  double start_time = 0.0;
  double end_time = 0.0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t forward_wire_bytes = 0;
  std::uint64_t reverse_wire_bytes = 0;
  double cpu_s = 0.0;  // modelled endpoint compute charged to the timeline

  double duration_s() const { return end_time - start_time; }
};

struct RsyncOptions {
  /// Fraction of the file the receiver already holds unchanged (0 = the
  /// paper's deleted-before-run case). Used by the delta ablation; the
  /// engine scales literal bytes accordingly, mirroring what a real basis
  /// with that overlap yields (validated against rsyncx on real blobs).
  double basis_overlap = 0.0;
  rsyncx::CpuModel cpu;
};

class RsyncEngine {
 public:
  /// Both session legs ride `xfer`, the batch layer of `fabric`'s world.
  RsyncEngine(net::Fabric* fabric, TransferEngine& xfer)
      : fabric_(fabric), xfer_(xfer) {}

  /// Coroutine form: pushes `file` from `src` to `dst` (rsync "push" mode,
  /// as the paper's user machine pushes to the intermediate node). Domain
  /// failures land inside RsyncResult; the Result error channel carries
  /// only escaped exceptions / cancellation.
  sim::Task<RsyncResult> push_task(net::NodeId src, net::NodeId dst,
                                   FileSpec file, RsyncOptions options = {});

 private:
  net::Fabric* fabric_;
  TransferEngine& xfer_;
};

}  // namespace droute::transfer
