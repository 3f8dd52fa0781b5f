#include "transfer/detour.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "check/contract.h"
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
                                                    ctrl::PathSpec path,
                                                    FileSpec file,
                                                    DetourOptions options) {
  if (options.mode == DetourMode::kStoreAndForward) {
    return store_and_forward_task(client, std::move(path), std::move(file),
                                  options);
  }
  DROUTE_CHECK(path.relay_hops() == 1,
               "pipelined detour needs exactly one relay");
  return pipelined_task(client, path.relays.front(), std::move(file),
                        options);
}

sim::Task<DetourResult> DetourEngine::store_and_forward_task(
    net::NodeId client, ctrl::PathSpec path, FileSpec file,
    DetourOptions options) {
  sim::Simulator& simulator = *fabric_->simulator();
  DetourResult result;
  result.mode = DetourMode::kStoreAndForward;
  result.start_time = simulator.now();
  result.payload_bytes = file.bytes;

  // One rsync push per relay; leg 1 is the whole chain up to the last one.
  net::NodeId from = client;
  bool relayed = true;
  for (std::size_t hop = 0; hop < path.relays.size(); ++hop) {
    auto relay_task =
        rsync_.push_task(from, path.relays[hop], file, options.rsync);
    const auto relay_joined = co_await relay_task;
    const RsyncResult leg = unwrap_leg(relay_joined, simulator.now());
    result.leg1_s += leg.duration_s();
    if (!leg.success) {
      result.error =
          "detour leg " + std::to_string(hop + 1) + " (rsync): " + leg.error;
      relayed = false;
      break;
    }
    from = path.relays[hop];
  }
  const double leg1_end = simulator.now();
  obs::emit_span("transfer.detour_leg1", obs::Clock::kSim, result.start_time,
                 leg1_end);
  if (!relayed) {
    result.end_time = leg1_end;
    emit_detour_span(result);
    co_return result;
  }

  auto api_task = api_->upload_task(from, file, options.api);
  const auto api_joined = co_await api_task;
  const UploadResult api_leg = unwrap_leg(api_joined, simulator.now());
  result.leg2_s = api_leg.duration_s();
  result.success = api_leg.success;
  if (!api_leg.success) {
    result.error = "detour leg " + std::to_string(path.relays.size() + 1) +
                   " (API): " + api_leg.error;
  }
  result.end_time = simulator.now();
  obs::emit_span("transfer.detour_leg2", obs::Clock::kSim, leg1_end,
                 result.end_time);
  emit_detour_span(result);
  co_return result;
}

sim::Task<DetourResult> DetourEngine::download_task(net::NodeId client,
                                                    ctrl::PathSpec path,
                                                    std::string name) {
  DROUTE_CHECK(download_ != nullptr,
               "DetourEngine::download_task: no download engine bound");
  sim::Simulator& simulator = *fabric_->simulator();
  DetourResult result;
  result.start_time = simulator.now();

  // Leg 1: the API download to the last relay, or to the client if direct.
  const net::NodeId landing = path.direct() ? client : path.relays.back();
  auto api_task = download_->download_task(landing, name);
  const auto api_joined = co_await api_task;
  const DownloadResult api_leg = unwrap_leg(api_joined, simulator.now());
  result.leg1_s = api_leg.duration_s();
  result.payload_bytes = api_leg.payload_bytes;
  if (!api_leg.success) {
    result.error = "download detour leg 1 (API): " + api_leg.error;
    result.end_time = simulator.now();
    co_return result;
  }

  // The landing node holds the object; rsync it back down the chain.
  const auto object = download_->server()->stat(name);
  if (!object.ok()) {
    result.error = "download detour: object vanished";
    result.end_time = simulator.now();
    co_return result;
  }
  FileSpec file;
  file.name = name;
  file.bytes = object.value().size;
  file.seed = object.value().content_seed;
  result.success = true;
  for (std::size_t hop = path.relays.size(); hop > 0; --hop) {
    const net::NodeId to = hop == 1 ? client : path.relays[hop - 2];
    auto relay_task = rsync_.push_task(path.relays[hop - 1], to, file);
    const auto relay_joined = co_await relay_task;
    const RsyncResult leg = unwrap_leg(relay_joined, simulator.now());
    result.leg2_s += leg.duration_s();
    if (!leg.success) {
      result.success = false;
      result.error = "download detour leg " +
                     std::to_string(path.relays.size() - hop + 2) +
                     " (rsync): " + leg.error;
      break;
    }
  }
  result.end_time = simulator.now();
  co_return result;
}

// The steering's reference outlives the task (header contract), as the
// engine's own members do.
sim::Task<SteeredResult> DetourEngine::steered_task(  // NOLINT(cppcoreguidelines-avoid-reference-coroutine-parameters)
    net::NodeId client, FileSpec file, ctrl::Steering& steering) {
  sim::Simulator& simulator = *fabric_->simulator();
  SteeredResult result;
  result.start_time = simulator.now();
  result.decision = steering.steer(client, file.bytes);

  auto session = transfer_task(client, result.decision.path, file);
  const auto joined = co_await session;
  const DetourResult detour = unwrap_leg(joined, simulator.now());
  result.success = detour.success;
  result.error = detour.error;
  result.end_time = simulator.now();

  steering.observe_session(client, result.decision, file.bytes,
                           result.duration_s(), result.success);
  if (obs::enabled()) {
    obs::emit_span("transfer.steered_upload", obs::Clock::kSim,
                   result.start_time, result.end_time,
                   {{"path", result.decision.path.label()},
                    {"bytes", std::to_string(file.bytes)},
                    {"ok", result.success ? "1" : "0"}});
  }
  co_return result;
}

// ---------------------------------------------------------------------------
// Pipelined relay: API-sized chunks stream through the DTN. Chunk i+1 crosses
// the first leg while chunk i crosses the second. The provider leg is the
// ordinary API session (ApiUploadEngine::upload_task) run from the DTN and
// fed chunk by chunk; leg 1 is the relay loop below.

namespace {

/// Leg 1: relays the chunks client -> DTN back to back, counting each
/// arrival into `feed`. A failed hop records why in `result.error` and
/// cancels the provider leg, unless that leg already failed (and cancelled
/// this one): the first failure wins. Every reference lives in the
/// pipelined_task frame, which joins this task before returning.
sim::Task<void> relay_leg1(  // NOLINT(cppcoreguidelines-avoid-reference-coroutine-parameters)
    sim::Simulator& simulator, TransferEngine& xfer, net::NodeId client,
    SegmentId dtn, const std::vector<std::uint64_t>& chunks, ChunkFeed& feed,
    sim::Task<UploadResult>& upload, DetourResult& result) {
  for (std::size_t next = 0; next < chunks.size(); ++next) {
    if (upload.done()) co_return;  // the provider leg failed first
    TransferRequest hop_request;
    hop_request.opcode = Opcode::kWrite;
    hop_request.source_node = client;
    hop_request.target_id = dtn;
    hop_request.length = chunks[next];
    hop_request.charge_slow_start = next == 0;
    hop_request.label = "relay-leg1";
    auto hop = xfer.submit(std::move(hop_request));
    if (!co_await hop) {
      if (upload.done()) co_return;  // cancelled after the provider leg failed
      const RequestStatus& st = hop.status(0);
      result.error = st.rejected() ? "pipelined leg 1 rejected: " + st.error
                                   : "pipelined leg 1 flow failed";
      upload.cancel();
      co_return;
    }
    ++feed.arrived;
    feed.landed.notify_all();
  }
  result.leg1_s = simulator.now() - result.start_time;
  obs::emit_span("transfer.detour_leg1", obs::Clock::kSim, result.start_time,
                 simulator.now());
}

}  // namespace

sim::Task<DetourResult> DetourEngine::pipelined_task(net::NodeId client,
                                                     net::NodeId intermediate,
                                                     FileSpec file,
                                                     DetourOptions options) {
  sim::Simulator& simulator = *fabric_->simulator();
  DetourResult result;
  result.mode = DetourMode::kPipelined;
  result.start_time = simulator.now();
  result.payload_bytes = file.bytes;
  const SegmentId dtn = xfer_.ensure_node_segment(intermediate);

  auto fail = [&](std::string error) -> DetourResult {
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
  auto chunk_plan = cloud::chunk_sizes(api_->server()->profile(), file.bytes);
  if (!chunk_plan.ok()) {
    co_return fail(chunk_plan.error().message);
  }
  const std::vector<std::uint64_t> chunks = std::move(chunk_plan).value();

  // Leg 2 opens the provider session now and PUTs each chunk once leg 1
  // has landed it at the DTN.
  ChunkFeed feed;
  ApiUploadOptions api_options = options.api;
  api_options.feed = &feed;
  auto upload = api_->upload_task(intermediate, file, api_options);

  // Relay daemon handshake on both legs, then start pumping. A session
  // that failed to open ends the detour at once.
  if (!upload.done()) {
    auto handshake = sim::delay(
        simulator, 2.0 * rtt1.value() +
                       api_->server()->profile().session_init_rtts *
                           rtt2.value());
    if (co_await handshake) {
      auto leg1 = relay_leg1(simulator, xfer_, client, dtn, chunks, feed,
                             upload, result);
      const auto provider_leg = co_await upload;
      if (!provider_leg.ok() || !provider_leg.value().success) leg1.cancel();
      const auto relayed = co_await leg1;
      (void)relayed;  // leg 1's failure, if it came first, is in the result
    } else {
      result.error = "pipelined detour cancelled during handshake";
      upload.cancel();
    }
  }
  const auto joined = co_await upload;  // already settled on every path
  const UploadResult api_leg = unwrap_leg(joined, simulator.now());
  if (!api_leg.success && result.error.empty()) {
    result.error = "pipelined leg 2: " + api_leg.error;
  }
  result.success = api_leg.success;
  result.end_time = simulator.now();
  emit_detour_span(result);
  co_return result;
}

}  // namespace droute::transfer
