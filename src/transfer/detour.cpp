#include "transfer/detour.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/recorder.h"
#include "transfer/leg.h"
#include "util/logging.h"

namespace droute::transfer {

namespace {

const char* mode_name(DetourMode mode) {
  return mode == DetourMode::kStoreAndForward ? "store_and_forward"
                                              : "pipelined";
}

// Whole-detour trace span, emitted once per transfer on any outcome. Leg
// spans are emitted separately as the legs complete.
void emit_detour_span(const DetourResult& result) {
  if (!obs::enabled()) return;
  obs::emit_span("transfer.detour", obs::Clock::kSim, result.start_time,
                 result.end_time,
                 {{"mode", mode_name(result.mode)},
                  {"bytes", std::to_string(result.payload_bytes)},
                  {"ok", result.success ? "1" : "0"}});
}

}  // namespace

sim::Task<DetourResult> DetourEngine::transfer_task(net::NodeId client,
                                                    net::NodeId intermediate,
                                                    FileSpec file,
                                                    DetourOptions options) {
  return options.mode == DetourMode::kStoreAndForward
             ? store_and_forward_task(client, intermediate, std::move(file),
                                      options)
             : pipelined_task(client, intermediate, std::move(file), options);
}

sim::Task<DetourResult> DetourEngine::store_and_forward_task(
    net::NodeId client, net::NodeId intermediate, FileSpec file,
    DetourOptions options) {
  sim::Simulator& simulator = *fabric_->simulator();
  DetourResult result;
  result.mode = DetourMode::kStoreAndForward;
  result.start_time = simulator.now();
  result.payload_bytes = file.bytes;

  auto leg1_task = rsync_.push_task(client, intermediate, file, options.rsync);
  const auto leg1_joined = co_await leg1_task;
  const RsyncResult leg1 = unwrap_leg(leg1_joined, simulator.now());
  result.leg1_s = leg1.duration_s();
  const double leg1_end = simulator.now();
  obs::emit_span("transfer.detour_leg1", obs::Clock::kSim, result.start_time,
                 leg1_end);
  if (!leg1.success) {
    result.error = "detour leg 1 (rsync): " + leg1.error;
    result.end_time = leg1_end;
    emit_detour_span(result);
    co_return result;
  }

  auto leg2_task = api_->upload_task(intermediate, file, options.api);
  const auto leg2_joined = co_await leg2_task;
  const UploadResult leg2 = unwrap_leg(leg2_joined, simulator.now());
  result.leg2_s = leg2.duration_s();
  result.success = leg2.success;
  if (!leg2.success) {
    result.error = "detour leg 2 (API): " + leg2.error;
  }
  result.end_time = simulator.now();
  obs::emit_span("transfer.detour_leg2", obs::Clock::kSim, leg1_end,
                 result.end_time);
  emit_detour_span(result);
  co_return result;
}

// ---------------------------------------------------------------------------
// Pipelined relay: API-sized chunks stream through the DTN. Chunk i+1 crosses
// the first leg while chunk i crosses the second. Two sibling coroutines
// share state that lives in the parent coroutine's frame — no shared_ptr
// job object, no pump closures (the PipelineJob style this file used to
// have leaked once already; see CHANGES.md PR 1).

namespace {

/// Shared relay state, owned by the parent pipelined_task frame. The legs
/// hold it by reference; the parent joins both legs before returning, so
/// the references never dangle.
struct PipelineShared {
  net::Fabric* fabric = nullptr;
  ApiUploadEngine* api = nullptr;
  TransferEngine* xfer = nullptr;      // leg 1's batch layer
  SegmentId dtn_segment = kInvalidSegment;
  const FileSpec* file = nullptr;
  const std::vector<std::uint64_t>* chunks = nullptr;
  net::NodeId client = net::kInvalidNode;
  net::NodeId intermediate = net::kInvalidNode;
  double rtt2 = 0.0;            // intermediate <-> provider
  DetourResult* result = nullptr;
  std::size_t arrived = 0;      // chunks fully received at the DTN
  bool failed = false;
  std::string error;
  sim::Notify chunk_ready;      // leg 1 arrival -> leg 2 wake-up
  cloud::SessionId session = 0;
  cloud::ChunkDigester digester;
  // First failure wins and cancels both legs so the parent can report
  // promptly (self-cancellation of the failing leg is a harmless flag).
  sim::Task<bool>* leg1 = nullptr;
  sim::Task<bool>* leg2 = nullptr;

  void note_failure(std::string message) {
    if (failed) return;
    failed = true;
    error = std::move(message);
    if (leg1 != nullptr) leg1->cancel();
    if (leg2 != nullptr) leg2->cancel();
  }
};

/// Leg 1: relays chunks client -> DTN back-to-back. PipelineShared lives
/// in the parent coroutine's frame, which co_awaits both legs before
/// returning, so the reference outlives every suspension here.
sim::Task<bool> pipeline_leg1(PipelineShared& sh) {  // NOLINT(cppcoreguidelines-avoid-reference-coroutine-parameters)
  for (std::size_t next = 0; next < sh.chunks->size(); ++next) {
    if (sh.failed) co_return false;
    TransferRequest hop_request;
    hop_request.opcode = Opcode::kWrite;
    hop_request.source_node = sh.client;
    hop_request.target_id = sh.dtn_segment;
    hop_request.length = (*sh.chunks)[next];
    hop_request.charge_slow_start = next == 0;
    hop_request.label = "relay-leg1";
    auto hop = sh.xfer->submit(std::move(hop_request));
    if (!co_await hop) {
      const RequestStatus& st = hop.status(0);
      if (st.rejected()) {
        sh.note_failure("pipelined leg 1 rejected: " + st.error);
      } else {
        sh.note_failure("pipelined leg 1 flow failed");
      }
      co_return false;
    }
    ++sh.arrived;
    sh.chunk_ready.notify_all();
  }
  sh.result->leg1_s =
      sh.fabric->simulator()->now() - sh.result->start_time;
  obs::emit_span("transfer.detour_leg1", obs::Clock::kSim,
                 sh.result->start_time, sh.fabric->simulator()->now());
  co_return true;
}

/// Leg 2: drains arrived chunks DTN -> provider sequentially (each through
/// the API engine's put_chunk, so a 429 backs off and resends like the
/// direct upload), finalizes. Same lifetime argument as leg 1: the parent
/// frame owns `sh` and joins.
sim::Task<bool> pipeline_leg2(PipelineShared& sh) {  // NOLINT(cppcoreguidelines-avoid-reference-coroutine-parameters)
  sim::Simulator& simulator = *sh.fabric->simulator();
  const cloud::ApiProfile& profile = sh.api->server()->profile();
  std::uint64_t offset = 0;
  for (std::size_t next = 0; next < sh.chunks->size();) {
    if (sh.failed) co_return false;
    if (next >= sh.arrived) {
      auto wake = sh.chunk_ready.wait();  // wait for leg 1
      if (!co_await wake) co_return false;
      continue;  // re-check: a notify is a hint
    }
    const std::uint64_t chunk = (*sh.chunks)[next];
    const auto digest = sh.file->chunk_digest(offset, chunk);
    auto put = sh.api->put_chunk(sh.intermediate, sh.session, offset, chunk,
                                 digest, next == 0, nullptr);
    const auto wire = co_await put;
    if (!wire.ok()) {
      sh.note_failure("pipelined leg 2: " + wire.error().message);
      co_return false;
    }
    sh.digester.add_chunk(digest);
    offset += chunk;
    ++next;
    auto turnaround =
        sim::delay(simulator, profile.per_chunk_rtts * sh.rtt2);
    if (!co_await turnaround) co_return false;
  }
  if (sh.failed) co_return false;

  // Everything uploaded: finalize.
  auto commit = sim::delay(simulator, profile.finalize_rtts * sh.rtt2);
  if (!co_await commit) co_return false;
  auto object = sh.api->server()->finalize(sh.session, sh.digester.finish());
  sh.session = 0;  // finalize consumed it either way
  if (!object.ok()) {
    sh.note_failure("pipelined finalize: " + object.error().message);
    co_return false;
  }
  co_return true;
}

}  // namespace

sim::Task<DetourResult> DetourEngine::pipelined_task(net::NodeId client,
                                                     net::NodeId intermediate,
                                                     FileSpec file,
                                                     DetourOptions options) {
  // Pipelined relay authenticates once up front; per-chunk OAuth costs are
  // identical to the direct path and folded into the session handshake.
  (void)options;
  sim::Simulator& simulator = *fabric_->simulator();
  DetourResult result;
  result.mode = DetourMode::kPipelined;
  result.start_time = simulator.now();
  result.payload_bytes = file.bytes;

  PipelineShared sh;
  sh.fabric = fabric_;
  sh.api = api_;
  sh.xfer = &xfer_;
  sh.dtn_segment = xfer_.ensure_node_segment(intermediate);
  sh.file = &file;
  sh.client = client;
  sh.intermediate = intermediate;
  sh.result = &result;

  auto fail = [&](std::string error) -> DetourResult {
    if (sh.session != 0) {
      api_->server()->abandon(sh.session);
      sh.session = 0;
    }
    result.error = std::move(error);
    result.end_time = simulator.now();
    emit_detour_span(result);
    return result;
  };

  auto rtt1 = fabric_->rtt_s(client, intermediate);
  auto rtt2 = fabric_->rtt_s(intermediate, api_->server_node());
  if (!rtt1.ok() || !rtt2.ok()) {
    co_return fail("pipelined detour: unroutable leg");
  }
  sh.rtt2 = rtt2.value();

  auto chunk_plan = cloud::chunk_sizes(api_->server()->profile(), file.bytes);
  if (!chunk_plan.ok()) {
    co_return fail(chunk_plan.error().message);
  }
  const std::vector<std::uint64_t> chunks = std::move(chunk_plan).value();
  sh.chunks = &chunks;

  auto session_open =
      api_->server()->create_session(file.name, file.bytes, file.seed);
  if (!session_open.ok()) {
    co_return fail(session_open.error().message);
  }
  sh.session = session_open.value();

  // Relay daemon handshake on both legs, then start pumping.
  auto handshake = sim::delay(
      simulator, 2.0 * rtt1.value() +
                     api_->server()->profile().session_init_rtts * sh.rtt2);
  if (!co_await handshake) {
    co_return fail("pipelined detour cancelled during handshake");
  }

  auto leg1 = pipeline_leg1(sh);
  auto leg2 = pipeline_leg2(sh);
  sh.leg1 = &leg1;
  sh.leg2 = &leg2;
  const auto leg1_ok = co_await leg1;
  const auto leg2_ok = co_await leg2;
  sh.leg1 = nullptr;
  sh.leg2 = nullptr;

  if (sh.failed || !leg1_ok.ok() || !leg1_ok.value() || !leg2_ok.ok() ||
      !leg2_ok.value()) {
    co_return fail(sh.failed ? sh.error : "pipelined detour leg cancelled");
  }
  result.success = true;
  result.end_time = simulator.now();
  emit_detour_span(result);
  co_return result;
}

}  // namespace droute::transfer
