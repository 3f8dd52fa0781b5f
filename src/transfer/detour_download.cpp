#include "transfer/detour_download.h"

#include "transfer/file_spec.h"

namespace droute::transfer {

namespace {

/// Same fold as the upload detour: an exceptionally-unwound leg reads as a
/// failed leg with the Task error as its message.
template <typename Leg>
Leg unwrap_leg(const util::Result<Leg>& joined, double now) {
  if (joined.ok()) return joined.value();
  Leg failed{};
  failed.success = false;
  failed.error = joined.error().message;
  failed.start_time = now;
  failed.end_time = now;
  return failed;
}

}  // namespace

sim::Task<DownloadDetourResult> DetourDownloadEngine::download_task(
    net::NodeId client, net::NodeId intermediate, std::string name) {
  sim::Simulator& simulator = *fabric_->simulator();
  DownloadDetourResult result;
  result.start_time = simulator.now();

  auto leg1_task = api_->download_task(intermediate, name);
  const auto leg1_joined = co_await leg1_task;
  const DownloadResult leg1 = unwrap_leg(leg1_joined, simulator.now());
  result.leg1_s = leg1.duration_s();
  result.payload_bytes = leg1.payload_bytes;
  if (!leg1.success) {
    result.error = "download detour leg 1 (API): " + leg1.error;
    result.end_time = simulator.now();
    co_return result;
  }

  // The DTN now holds the object; rsync it down to the client.
  const auto object = api_->server()->stat(name);
  if (!object.ok()) {
    result.error = "download detour: object vanished";
    result.end_time = simulator.now();
    co_return result;
  }
  FileSpec spec;
  spec.name = name;
  spec.bytes = object.value().size;
  spec.seed = object.value().content_seed;

  auto leg2_task = rsync_.push_task(intermediate, client, spec);
  const auto leg2_joined = co_await leg2_task;
  const RsyncResult leg2 = unwrap_leg(leg2_joined, simulator.now());
  result.leg2_s = leg2.duration_s();
  result.success = leg2.success;
  if (!leg2.success) {
    result.error = "download detour leg 2 (rsync): " + leg2.error;
  }
  result.end_time = simulator.now();
  co_return result;
}

}  // namespace droute::transfer
