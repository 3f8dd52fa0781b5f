#include "transfer/api_upload.h"

#include <utility>
#include <vector>

#include "check/contract.h"
#include "obs/recorder.h"
#include "util/logging.h"

namespace droute::transfer {

namespace {
// Whole-upload trace span, emitted once per upload on any outcome.
void emit_upload_span(const UploadResult& result) {
  if (!obs::enabled()) return;
  obs::emit_span("transfer.api_upload", obs::Clock::kSim, result.start_time,
                 result.end_time,
                 {{"bytes", std::to_string(result.payload_bytes)},
                  {"chunks", std::to_string(result.chunks)},
                  {"retries", std::to_string(result.throttle_retries)},
                  {"ok", result.success ? "1" : "0"}});
}
}  // namespace

// After this many consecutive 429s on one chunk the upload gives up (real
// clients surface the error to the user at a similar depth).
constexpr int kMaxThrottleRetries = 8;

ApiUploadEngine::ApiUploadEngine(net::Fabric* fabric, TransferEngine& xfer,
                                 cloud::StorageServer* server,
                                 net::NodeId server_node)
    : fabric_(fabric), server_(server), server_node_(server_node), xfer_(xfer) {
  DROUTE_CHECK(fabric_ && server_, "ApiUploadEngine: null dependency");
  server_segment_ = xfer_.ensure_node_segment(server_node_);
  obs_throttle_retries_ = obs::counter("transfer.throttle_retries_total");
  obs_backoff_wait_ =
      obs::histogram("transfer.backoff_wait_s", obs::duration_bounds_s());
}

sim::Task<UploadResult> ApiUploadEngine::upload_task(net::NodeId client,
                                                     FileSpec file,
                                                     ApiUploadOptions options) {
  sim::Simulator& simulator = *fabric_->simulator();
  UploadResult result;
  result.start_time = simulator.now();
  result.payload_bytes = file.bytes;
  cloud::SessionId session = 0;

  // Single failure funnel: abandon the open session, stamp the result,
  // emit the whole-upload span (any outcome), hand back the struct.
  auto fail = [&](std::string error) -> UploadResult {
    if (session != 0) {
      server_->abandon(session);
      session = 0;
    }
    result.success = false;
    result.error = std::move(error);
    result.end_time = simulator.now();
    emit_upload_span(result);
    return result;
  };

  auto rtt = fabric_->rtt_s(client, server_node_);
  if (!rtt.ok()) {
    co_return fail("no route to provider: " + rtt.error().message);
  }
  result.rtt_s = rtt.value();

  auto chunk_plan = cloud::chunk_sizes(server_->profile(), file.bytes);
  if (!chunk_plan.ok()) {
    co_return fail(chunk_plan.error().message);
  }
  const std::vector<std::uint64_t> chunks = std::move(chunk_plan).value();

  // OAuth: an expired token costs one token-endpoint round trip up front,
  // folded into the session-init preamble wait below (one sim event).
  double preamble_rtts = server_->profile().session_init_rtts;
  if (options.oauth != nullptr) {
    bool refreshed = false;
    options.oauth->ensure_token(simulator.now(), &refreshed);
    result.token_refreshed = refreshed;
    if (refreshed) preamble_rtts += 1.0;
  }

  auto session_open = server_->create_session(file.name, file.bytes, file.seed);
  if (!session_open.ok()) {
    co_return fail(session_open.error().message);
  }
  session = session_open.value();

  auto preamble = sim::delay(simulator, preamble_rtts * result.rtt_s);
  if (!co_await preamble) {
    co_return fail("upload cancelled during session preamble");
  }

  cloud::ChunkDigester digester;
  std::uint64_t offset = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    // A fed upload PUTs chunk i only once it has landed at the source.
    while (options.feed != nullptr && options.feed->arrived <= i) {
      auto landed = options.feed->landed.wait();
      if (!co_await landed) {
        co_return fail("upload cancelled waiting for a chunk");
      }
    }
    const auto digest = file.chunk_digest(offset, chunks[i]);
    auto put = put_chunk(client, session, offset, chunks[i], digest, i == 0,
                         &result.throttle_retries);
    const auto wire = co_await put;
    if (!wire.ok()) co_return fail(wire.error().message);
    digester.add_chunk(digest);
    result.wire_bytes += wire.value();
    offset += chunks[i];
    ++result.chunks;
    // Chunk ack turnaround before the next request is issued.
    auto turnaround =
        sim::delay(simulator, server_->profile().per_chunk_rtts * result.rtt_s);
    if (!co_await turnaround) {
      co_return fail("upload cancelled between chunks");
    }
  }

  // All chunks acked: finalize (commit) round trip, then report.
  auto commit =
      sim::delay(simulator, server_->profile().finalize_rtts * result.rtt_s);
  if (!co_await commit) {
    co_return fail("upload cancelled during finalize");
  }
  auto object = server_->finalize(session, digester.finish());
  if (!object.ok()) {
    session = 0;  // finalize consumed it
    co_return fail(object.error().message);
  }
  session = 0;
  result.success = true;
  result.end_time = simulator.now();
  emit_upload_span(result);
  co_return result;
}

sim::Task<std::uint64_t> ApiUploadEngine::put_chunk(
    net::NodeId source, cloud::SessionId session, std::uint64_t offset,
    std::uint64_t chunk_bytes, rsyncx::Md5Digest digest, bool first_chunk,
    int* throttle_retries) {
  sim::Simulator& simulator = *fabric_->simulator();
  const cloud::ApiProfile& profile = server_->profile();
  for (int attempt = 0;; ++attempt) {
    const double start = simulator.now();
    TransferRequest put_request;
    put_request.opcode = Opcode::kWrite;
    put_request.source_node = source;
    put_request.target_id = server_segment_;
    put_request.target_offset = offset;
    put_request.length = chunk_bytes + profile.per_chunk_header_bytes;
    // The HTTP connection persists across chunks; only the first chunk pays
    // the slow-start ramp.
    put_request.charge_slow_start = first_chunk;
    put_request.label = "api-chunk";
    auto put = xfer_.submit(std::move(put_request));
    if (!co_await put) {
      const RequestStatus& st = put.status(0);
      if (st.rejected()) {
        co_return util::Error::make("chunk flow rejected: " + st.error);
      }
      co_return util::Error::make(st.state == RequestState::kLinkFailed
                                      ? "link failed mid-chunk"
                                      : "chunk flow aborted");
    }

    const auto append =
        server_->append_chunk(session, offset, chunk_bytes, digest);
    if (append.ok()) {
      if (obs::enabled()) {
        obs::emit_span("transfer.chunk_put", obs::Clock::kSim, start,
                       simulator.now(),
                       {{"offset", std::to_string(offset)}, {"status", "ok"}});
      }
      co_return put.status(0).bytes;
    }
    if (append.error().code != 429 || attempt >= kMaxThrottleRetries) {
      co_return util::Error::make("append rejected: " +
                                  append.error().message);
    }
    // Honour Retry-After with exponential backoff, then resend the same
    // chunk (its bytes are wasted — the real cost of being throttled
    // mid-upload).
    const double backoff =
        profile.retry_after_s * static_cast<double>(1 << attempt);
    ++*throttle_retries;
    obs::add(obs_throttle_retries_);
    obs::observe(obs_backoff_wait_, backoff);
    if (obs::enabled()) {
      obs::emit_span("transfer.chunk_put", obs::Clock::kSim, start,
                     simulator.now(),
                     {{"offset", std::to_string(offset)}, {"status", "429"}});
    }
    auto wait = sim::delay(simulator, backoff);
    if (!co_await wait) {
      co_return util::Error::make("upload cancelled during throttle backoff");
    }
  }
}

}  // namespace droute::transfer
