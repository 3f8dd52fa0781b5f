#include "transfer/rsync_engine.h"

#include <algorithm>
#include <utility>

#include "check/contract.h"
#include "rsyncx/signature.h"

namespace droute::transfer {

namespace {

/// Wire/CPU accounting for a synthetic session with a given basis overlap,
/// mirroring rsyncx::plan_session without materializing content.
struct SyntheticPlan {
  std::uint64_t forward_bytes;
  std::uint64_t reverse_bytes;
  double sender_cpu_s;
  double receiver_cpu_s;
};

SyntheticPlan synthesize(std::uint64_t file_bytes, double overlap,
                         const rsyncx::CpuModel& cpu) {
  SyntheticPlan plan{};
  const std::uint32_t block =
      rsyncx::recommended_block_size(file_bytes);
  const std::uint64_t basis_bytes =
      overlap > 0.0 ? file_bytes : 0;  // basis exists only with overlap
  const std::uint64_t basis_blocks =
      basis_bytes == 0 ? 0 : (basis_bytes + block - 1) / block;

  const auto literal_bytes = static_cast<std::uint64_t>(
      static_cast<double>(file_bytes) * (1.0 - overlap));
  const std::uint64_t copied_blocks =
      (file_bytes - literal_bytes) / block;

  // Forward: delta header + literal payload + merged copy runs (~1 op each
  // for long runs; charge conservatively one op per 64 copied blocks).
  plan.forward_bytes = rsyncx::kSessionFramingBytes + 24 + 8 + literal_bytes +
                       12 * (copied_blocks / 64 + (copied_blocks ? 1 : 0));
  // Reverse: signature of the basis.
  plan.reverse_bytes =
      rsyncx::kSessionFramingBytes + 16 + basis_blocks * (4 + 16 + 4);

  plan.sender_cpu_s =
      static_cast<double>(file_bytes) / cpu.scan_bytes_per_s;
  plan.receiver_cpu_s =
      static_cast<double>(basis_bytes) / cpu.signature_bytes_per_s +
      static_cast<double>(file_bytes) / cpu.patch_bytes_per_s;
  return plan;
}

RsyncResult fail_result(RsyncResult result, std::string error, double now) {
  result.success = false;
  result.error = std::move(error);
  result.end_time = now;
  return result;
}

}  // namespace

sim::Task<RsyncResult> RsyncEngine::push_task(net::NodeId src, net::NodeId dst,
                                              FileSpec file,
                                              RsyncOptions options) {
  sim::Simulator& simulator = *fabric_->simulator();
  RsyncResult result;
  result.start_time = simulator.now();
  result.payload_bytes = file.bytes;

  auto rtt = fabric_->rtt_s(src, dst);
  if (!rtt.ok()) {
    co_return fail_result(std::move(result),
                          "no route to intermediate node: " +
                              rtt.error().message,
                          simulator.now());
  }
  const double rtt_s = rtt.value();

  DROUTE_CHECK(options.basis_overlap >= 0.0 && options.basis_overlap <= 1.0,
               "basis_overlap must be in [0,1]");
  const SyntheticPlan plan =
      synthesize(file.bytes, options.basis_overlap, options.cpu);
  result.forward_wire_bytes = plan.forward_bytes;
  result.reverse_wire_bytes = plan.reverse_bytes;
  result.cpu_s = plan.sender_cpu_s + plan.receiver_cpu_s;

  // Handshake (greeting + option negotiation), then the receiver computes
  // and ships the signature, then the delta flows forward, then a trailer
  // round trip and the receiver's patch pass.
  const double signature_cpu =
      options.basis_overlap > 0.0
          ? static_cast<double>(file.bytes) / options.cpu.signature_bytes_per_s
          : 0.0;
  const double patch_cpu = plan.receiver_cpu_s - signature_cpu;

  auto handshake = sim::delay(simulator, 2.0 * rtt_s + signature_cpu);
  if (!co_await handshake) {
    co_return fail_result(std::move(result), "rsync cancelled mid-handshake",
                          simulator.now());
  }

  // Both session legs address the receiver's segment: the signature is a
  // READ (receiver -> sender), the delta a WRITE (sender -> receiver).
  const SegmentId receiver = xfer_.ensure_node_segment(dst);

  TransferRequest sig_request;
  sig_request.opcode = Opcode::kRead;
  sig_request.source_node = src;
  sig_request.target_id = receiver;
  sig_request.length = std::max<std::uint64_t>(1, plan.reverse_bytes);
  sig_request.label = "rsync-signature";
  auto sig_leg = xfer_.submit(std::move(sig_request));
  if (!co_await sig_leg) {
    const RequestStatus& st = sig_leg.status(0);
    if (st.rejected()) {
      co_return fail_result(std::move(result),
                            "signature flow rejected: " + st.error,
                            simulator.now());
    }
    co_return fail_result(std::move(result), "signature transfer failed",
                          simulator.now());
  }

  TransferRequest delta_request;
  delta_request.opcode = Opcode::kWrite;
  delta_request.source_node = src;
  delta_request.target_id = receiver;
  delta_request.length = std::max<std::uint64_t>(1, plan.forward_bytes);
  delta_request.label = "rsync-delta";
  auto delta_leg = xfer_.submit(std::move(delta_request));
  if (!co_await delta_leg) {
    const RequestStatus& st = delta_leg.status(0);
    if (st.rejected()) {
      co_return fail_result(std::move(result),
                            "delta flow rejected: " + st.error,
                            simulator.now());
    }
    co_return fail_result(std::move(result), "delta transfer failed",
                          simulator.now());
  }

  auto trailer = sim::delay(simulator, rtt_s + patch_cpu);
  if (!co_await trailer) {
    co_return fail_result(std::move(result), "rsync cancelled mid-trailer",
                          simulator.now());
  }
  result.success = true;
  result.end_time = simulator.now();
  co_return result;
}

}  // namespace droute::transfer
