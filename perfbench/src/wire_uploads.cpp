// wire_uploads: real loopback sockets. Batches go through
// transfer::TransferEngine over WireTransport to an unpoliced wire::Sink
// ingress with concurrency 2: at most 4 threads (main, sink, 2 uploads).
// Each round runs a 64 KiB phase (kSmallPerRound uploads; per-op cost
// dominates) then a 4 MiB phase (kLargePerRound uploads; per-byte cost
// dominates). An op is one upload. Closed loop.
//
// The large uploads are kLargePerRound / (kSmallPerRound + kLargePerRound)
// = 3% of ops, so op_ms_p50 falls among the 64 KiB uploads and op_ms_p99
// among the 4 MiB ones: the first tracks per-op cost, the second per-byte
// cost.
#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "rsyncx/md5.h"
#include "transfer/batch.h"
#include "transfer/wire_transport.h"
#include "util/blob.h"
#include "util/rng.h"
#include "wire/sink.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace transfer = droute::transfer;
using droute::util::Blob;

constexpr std::size_t kSmallBytes = 64 * 1024;
constexpr std::size_t kLargeBytes = 4 * 1024 * 1024;
constexpr std::size_t kSmallPerRound = 64;
constexpr std::size_t kLargePerRound = 2;
constexpr std::size_t kConcurrency = 2;
constexpr int kTracedRounds = 40;
/// Host seconds of 16 rounds (one chunk: 1056 uploads) on the tuning
/// machine.
constexpr double kNominalChunkS = 1.2;

struct WireProbe {
  Tally batches;
  Tally md5;
  int peak_threads = 0;
  std::vector<double> small_ms;
  double large_s = 0.0;  // host seconds of the 4 MiB phases
  std::uint64_t large_bytes = 0;
};

class WireRig {
 public:
  /// Set-up: sink start plus payload generation from the seed.
  explicit WireRig(std::uint64_t seed) {
    auto port = sink_.add_ingress(0.0);
    if (!port.ok() || !sink_.start().ok()) {
      start_error_ = "sink start failed";
      return;
    }
    engine_ = std::make_unique<transfer::TransferEngine>(&transport_);
    transfer::Segment segment;
    segment.name = "perfbench-sink";
    segment.wire_port = port.value();
    target_ = engine_->register_segment(segment);
    droute::util::Rng rng(derive_seed(seed, 0));
    for (std::size_t i = 0; i < kSmallPerRound; ++i) {
      small_.push_back(droute::util::make_random_blob(rng, kSmallBytes));
    }
    for (std::size_t i = 0; i < kLargePerRound; ++i) {
      large_.push_back(droute::util::make_random_blob(rng, kLargeBytes));
    }
  }
  ~WireRig() { sink_.stop(); }
  WireRig(const WireRig&) = delete;
  WireRig& operator=(const WireRig&) = delete;

  const std::string& start_error() const { return start_error_; }
  const std::vector<Blob>& large() const { return large_; }

  /// One round: the 64 KiB phase, then the 4 MiB phase. Upload times go
  /// to `window` when there is one.
  void run_round(Result& result, Window* window, WireProbe* probe) {
    run_batch(small_, result, window, probe ? &probe->small_ms : nullptr, probe);
    const double start = host_now_s();
    run_batch(large_, result, window, nullptr, probe);
    if (probe != nullptr) {
      probe->large_s += host_now_s() - start;
      probe->large_bytes += kLargePerRound * kLargeBytes;
    }
  }

  /// Stops the sink and checks that it received and digested exactly what
  /// completed. Every op of the run fails if it did not.
  void finish(Result& result) {
    sink_.stop();
    if (sink_.objects_received() != uploads_ ||
        sink_.bytes_received() != payload_bytes_) {
      result.fail_check("sink received " +
                        std::to_string(sink_.objects_received()) +
                        " objects / " + std::to_string(sink_.bytes_received()) +
                        " bytes; expected " + std::to_string(uploads_) + " / " +
                        std::to_string(payload_bytes_));
      result.ops.failed = result.ops.attempted;
    }
  }

  std::uint64_t uploads() const { return uploads_; }
  std::uint64_t payload_bytes() const { return payload_bytes_; }

 private:
  void run_batch(const std::vector<Blob>& blobs, Result& result,
                 Window* window, std::vector<double>* phase_ms,
                 WireProbe* probe) {
    std::vector<transfer::TransferRequest> requests(blobs.size());
    for (std::size_t i = 0; i < blobs.size(); ++i) {
      requests[i].source = blobs[i].data();
      requests[i].target_id = target_;
      requests[i].target_offset = i * blobs[i].size();
      requests[i].length = blobs[i].size();
      requests[i].label = "perfbench.wire";
    }
    transfer::BatchOptions options;
    options.concurrency = kConcurrency;
    auto batch = engine_->submit_batch(std::move(requests), options);
    {
      std::optional<LayerSpan> span;
      if (probe != nullptr) span.emplace("transfer.wire_batch", probe->batches);
      batch.start();
      if (probe != nullptr) {
        probe->peak_threads = std::max(probe->peak_threads, thread_count());
      }
      batch.wait();
    }
    std::uint64_t errors = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const transfer::RequestStatus& status = batch.status(i);
      if (!status.completed()) {
        ++errors;
        result.fail_check("upload did not complete: " + status.error);
        continue;
      }
      const double ms = status.duration_s() * 1e3;
      if (window != nullptr) window->add_op(ms);
      if (phase_ms != nullptr) phase_ms->push_back(ms);
      ++uploads_;
      payload_bytes_ += blobs[i].size();
    }
    result.ops.add(batch.size(), errors);
  }

  droute::wire::Sink sink_;
  transfer::WireTransport transport_;
  std::unique_ptr<transfer::TransferEngine> engine_;
  transfer::SegmentId target_ = transfer::kInvalidSegment;
  std::string start_error_;
  std::vector<Blob> small_;
  std::vector<Blob> large_;
  std::uint64_t uploads_ = 0;
  std::uint64_t payload_bytes_ = 0;
};

/// Fixed work for the traced run: kTracedRounds rounds; uploads per second.
double run_fixed(WireRig& rig, Result& result, WireProbe* probe) {
  const double start = host_now_s();
  for (int i = 0; i < kTracedRounds; ++i) rig.run_round(result, nullptr, probe);
  return static_cast<double>(rig.uploads()) / (host_now_s() - start);
}

}  // namespace

Result run_wire_uploads(const Options& options) {
  Result result;
  std::vector<double> setup_s;
  if (!options.trace) {
    // Set-up repetition i runs pinned to CPU i, as in the single-threaded
    // workloads, so the lower quartile samples every vCPU. The rig the
    // window uses is built unpinned: its sink thread would inherit the pin.
    for (int i = 0; i < kSetupRepeats; ++i) {
      pin_to_cpu(static_cast<std::size_t>(i));
      const double start = host_now_s();
      const WireRig repeat(options.seed);
      setup_s.push_back(host_now_s() - start);
    }
    unpin_cpu();
  }
  WireRig rig(options.seed);
  if (!rig.start_error().empty()) {
    result.fail_check(rig.start_error());
    result.ops.add(1, 1);
    return result;
  }

  if (!options.trace) {
    // Not rotated: the upload threads start inside the window.
    Window window(window_chunks(options.seconds, kNominalChunkS), false);
    do {
      rig.run_round(result, &window, nullptr);
    } while (!window.boundary());
    rig.finish(result);
    set_end_to_end(result, setup_s, window.figures());
    return result;
  }

  const double untraced_ops_per_s = run_fixed(rig, result, nullptr);
  rig.finish(result);

  droute::obs::Recorder recorder;
  droute::obs::ScopedRecorder installed(&recorder);
  WireProbe probe;
  WireRig traced(options.seed);
  const double traced_ops_per_s = run_fixed(traced, result, &probe);
  for (const Blob& blob : traced.large()) {
    LayerSpan span("rsyncx.md5", probe.md5);
    const auto digest = droute::rsyncx::Md5::hash(blob);
    (void)digest;
  }
  traced.finish(result);

  std::map<std::string, double> layer;
  read_program_counters(recorder, static_cast<double>(traced.uploads()), layer);
  layer["small_upload_ms_p50"] = percentile(probe.small_ms, 50.0).value_or(0.0);
  layer["small_upload_ms_p90"] = percentile(probe.small_ms, 90.0).value_or(0.0);
  layer["large_goodput_mbps"] = megabytes_per_s(probe.large_bytes, probe.large_s);
  layer["wire.overhead_ratio"] =
      ratio(layer["wire.bytes_sent"],
            static_cast<double>(traced.payload_bytes()));
  layer["wire.peak_threads"] = probe.peak_threads;
  layer["rsyncx.md5_mib_per_s"] = mebibytes_per_s(
      kLargePerRound * kLargeBytes, probe.md5.seconds);
  write_chrome_trace(recorder, options, result);
  result.info["traced_ops"] = static_cast<double>(traced.uploads());
  finish_traced(result, untraced_ops_per_s, traced_ops_per_s, std::move(layer));
  return result;
}

}  // namespace perfbench
