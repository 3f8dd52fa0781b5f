#include "transfer/parallel.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "check/contract.h"
#include "sim/task.h"
#include "util/result.h"

namespace droute::transfer {

sim::Task<ParallelPushResult> ParallelPushEngine::push_task(net::NodeId src,
                                                            net::NodeId dst,
                                                            FileSpec file,
                                                            int streams) {
  DROUTE_CHECK(streams >= 1, "need at least one stream");
  sim::Simulator& simulator = *fabric_->simulator();
  ParallelPushResult result;
  result.start_time = simulator.now();
  result.payload_bytes = file.bytes;
  result.streams = streams;

  const std::uint64_t effective_streams =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(streams),
                              std::max<std::uint64_t>(1, file.bytes));

  // One batch, one WRITE request per stripe. Every stripe shares the source,
  // the target and so the route, and all launch in the same pump, so a
  // synchronous rejection hits every stripe or none: the first rejected
  // stripe reports it, and nothing is left in flight.
  const SegmentId target = xfer_.ensure_node_segment(dst);
  const std::uint64_t stripe = file.bytes / effective_streams;
  std::vector<TransferRequest> requests;
  requests.reserve(static_cast<std::size_t>(effective_streams));
  std::uint64_t offset = 0;
  for (std::uint64_t i = 0; i < effective_streams; ++i) {
    const std::uint64_t length =
        i + 1 == effective_streams ? file.bytes - offset : stripe;
    TransferRequest request;
    request.opcode = Opcode::kWrite;
    request.source_node = src;
    request.target_id = target;
    request.target_offset = offset;
    request.length = std::max<std::uint64_t>(1, length);
    request.charge_slow_start = true;  // every stream ramps independently
    request.label = "parallel-stripe";
    requests.push_back(std::move(request));
    offset += length;
  }

  auto stripes = xfer_.submit_batch(std::move(requests));
  if (!co_await stripes) {
    for (std::size_t i = 0; i < stripes.size(); ++i) {
      const RequestStatus& st = stripes.status(i);
      if (st.state == RequestState::kRejected) {
        result.success = false;
        result.error = "stripe rejected: " + st.error;
        result.end_time = simulator.now();
        co_return result;
      }
    }
  }
  bool failed = false;
  if (stripes.cancelled()) {
    failed = true;  // the join itself was cancelled
  } else {
    for (std::size_t i = 0; i < stripes.size(); ++i) {
      const RequestStatus& st = stripes.status(i);
      if (!st.completed()) failed = true;
      if (st.ran()) {
        // Completion is gated by the last stripe; failed stripes still ran
        // for their recorded duration.
        result.slowest_stream_s =
            std::max(result.slowest_stream_s, st.duration_s());
      }
    }
  }
  result.success = !failed;
  if (failed) result.error = "stripe transfer failed";
  result.end_time = simulator.now();
  co_return result;
}

}  // namespace droute::transfer
