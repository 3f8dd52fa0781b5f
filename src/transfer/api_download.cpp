#include "transfer/api_download.h"

#include <utility>
#include <vector>

#include "check/contract.h"
#include "cloud/provider.h"

namespace droute::transfer {

ApiDownloadEngine::ApiDownloadEngine(net::Fabric* fabric,
                                     TransferEngine& xfer,
                                     cloud::StorageServer* server,
                                     net::NodeId server_node)
    : fabric_(fabric), server_(server), server_node_(server_node),
      xfer_(xfer) {
  DROUTE_CHECK(fabric_ && server_, "ApiDownloadEngine: null dependency");
  server_segment_ = xfer_.ensure_node_segment(server_node_);
}

sim::Task<DownloadResult> ApiDownloadEngine::download_task(
    net::NodeId client, std::string name, ApiDownloadOptions options) {
  sim::Simulator& simulator = *fabric_->simulator();
  DownloadResult result;
  result.start_time = simulator.now();

  auto fail = [&](std::string error) -> DownloadResult {
    result.success = false;
    result.error = std::move(error);
    result.end_time = simulator.now();
    return result;
  };

  auto rtt = fabric_->rtt_s(client, server_node_);
  if (!rtt.ok()) {
    co_return fail("no route to provider: " + rtt.error().message);
  }
  result.rtt_s = rtt.value();

  double preamble_rtts = 1.0;  // metadata GET
  if (options.oauth != nullptr) {
    bool refreshed = false;
    options.oauth->ensure_token(simulator.now(), &refreshed);
    if (refreshed) preamble_rtts += 1.0;
  }

  auto stat = server_->stat(name);
  if (!stat.ok()) {
    co_return fail("metadata: " + stat.error().message);
  }
  const cloud::StoredObject object = stat.value();
  result.payload_bytes = object.size;

  auto chunk_plan = cloud::chunk_sizes(server_->profile(), object.size);
  if (!chunk_plan.ok()) {
    co_return fail(chunk_plan.error().message);
  }
  const std::vector<std::uint64_t> chunks = std::move(chunk_plan).value();

  auto preamble = sim::delay(simulator, preamble_rtts * result.rtt_s);
  if (!co_await preamble) {
    co_return fail("download cancelled during metadata preamble");
  }

  cloud::ChunkDigester digester;
  std::uint64_t offset = 0;
  for (std::size_t next_chunk = 0; next_chunk < chunks.size(); ++next_chunk) {
    const std::uint64_t chunk = chunks[next_chunk];
    auto range = server_->read_range(name, offset, chunk);
    if (!range.ok()) {
      co_return fail("range request: " + range.error().message);
    }
    const auto expected_digest = range.value();

    const std::uint64_t wire =
        chunk + server_->profile().per_chunk_header_bytes;

    // Each ranged GET costs a request turnaround before the body streams.
    auto turnaround =
        sim::delay(simulator, server_->profile().per_chunk_rtts * result.rtt_s);
    if (!co_await turnaround) {
      co_return fail("download cancelled between chunks");
    }
    TransferRequest get_request;
    get_request.opcode = Opcode::kRead;  // body streams server -> client
    get_request.source_node = client;
    get_request.target_id = server_segment_;
    get_request.target_offset = offset;
    get_request.length = wire;
    get_request.charge_slow_start = next_chunk == 0;
    get_request.label = "api-download-chunk";
    auto get = xfer_.submit(std::move(get_request));
    if (!co_await get) {
      const RequestStatus& st = get.status(0);
      if (st.rejected()) {
        co_return fail("download flow rejected: " + st.error);
      }
      co_return fail("download chunk flow failed");
    }
    digester.add_chunk(expected_digest);
    offset += chunk;
    ++result.chunks;
  }

  // All ranges received: verify the digest chain against the committed
  // object digest (same accumulation the upload produced).
  const auto accumulated = digester.finish();
  result.integrity_ok = accumulated == object.md5;
  result.success = result.integrity_ok;
  if (!result.integrity_ok) {
    result.error = "download integrity check failed";
  }
  result.end_time = simulator.now();
  co_return result;
}

}  // namespace droute::transfer
