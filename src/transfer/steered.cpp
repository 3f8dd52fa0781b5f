#include "transfer/steered.h"

#include <utility>

#include "obs/recorder.h"
#include "transfer/leg.h"

namespace droute::transfer {

sim::Task<SteeredResult> SteeredUploadEngine::upload_task(
    net::NodeId client, FileSpec file, SteeredOptions options) {
  sim::Simulator& simulator = *fabric_->simulator();
  SteeredResult result;
  result.start_time = simulator.now();
  result.payload_bytes = file.bytes;
  result.decision = steering_->steer(client, file.bytes);

  // Store-and-forward along the decided chain. An unroutable decision is
  // still executed (direct fallback) — the failure surfaces here exactly
  // as it would for a real client with no alternative.
  bool failed = false;
  net::NodeId src = client;
  for (const net::NodeId relay : result.decision.path.relays) {
    auto leg_task = rsync_.push_task(src, relay, file, options.rsync);
    const auto joined = co_await leg_task;
    const RsyncResult leg = unwrap_leg(joined, simulator.now());
    if (!leg.success) {
      result.error = "steered relay leg (" + std::to_string(src) + " -> " +
                     std::to_string(relay) + "): " + leg.error;
      failed = true;
      break;
    }
    src = relay;
  }
  if (!failed) {
    auto final_task = api_->upload_task(src, file, options.api);
    const auto joined = co_await final_task;
    const UploadResult final_leg = unwrap_leg(joined, simulator.now());
    if (final_leg.success) {
      result.success = true;
    } else {
      result.error = "steered API leg: " + final_leg.error;
    }
  }
  result.end_time = simulator.now();

  steering_->observe_session(client, result.decision, file.bytes,
                             result.duration_s(), result.success);
  if (obs::enabled()) {
    obs::emit_span("transfer.steered_upload", obs::Clock::kSim,
                   result.start_time, result.end_time,
                   {{"path", result.decision.path.label()},
                    {"bytes", std::to_string(result.payload_bytes)},
                    {"ok", result.success ? "1" : "0"}});
  }
  co_return result;
}

}  // namespace droute::transfer
