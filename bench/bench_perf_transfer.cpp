// Batched TransferEngine perf cases -> BENCH_transfer.json.
//
// The azure-sdk perf-matrix shape (blob_size x num_blobs x concurrency) run
// through transfer::TransferEngine on both backends behind the same API:
//   * sim_*  — SimTransport over a dedicated dumbbell fabric; measures the
//     batch layer + fluid flow machinery end to end in simulated time.
//   * wire_* — WireTransport against a loopback wire::Sink; measures the
//     same submit/settle path with real sockets and per-op worker threads.
// Every case drives full batches and hard-fails on any non-completed
// request — a bench that drops requests measures a bug.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "net/fabric.h"
#include "net/routing.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "transfer/batch.h"
#include "transfer/sim_transport.h"
#include "transfer/wire_transport.h"
#include "util/blob.h"
#include "util/rng.h"
#include "util/units.h"
#include "wire/sink.h"

namespace droute::bench {
namespace {

using transfer::BatchOptions;
using transfer::SegmentId;
using transfer::TransferEngine;
using transfer::TransferRequest;

// One dumbbell: src host -- left == right -- dst host. The shared 1 Gbps
// middle link is the bottleneck every stripe of a batch contends on, so
// concurrency caps actually change the flow schedule.
struct SimRig {
  net::Topology topo;
  net::RouteTable routes{nullptr};
  sim::Simulator simulator;
  std::unique_ptr<net::Fabric> fabric;
  std::unique_ptr<transfer::SimTransport> transport;
  std::unique_ptr<TransferEngine> engine;
  net::NodeId src = net::kInvalidNode;
  SegmentId dst = transfer::kInvalidSegment;

  SimRig() {
    net::Topology::Builder builder;
    const net::AsId as = builder.add_as("BENCH");
    const net::NodeId left = builder.add_router(as, "l", {40, -100});
    const net::NodeId right = builder.add_router(as, "r", {40, -99});
    const net::NodeId a = builder.add_host(as, "a", {40, -100});
    const net::NodeId b = builder.add_host(as, "b", {40, -99});
    builder.add_duplex(a, left, 10000, 0.0005);
    builder.add_duplex(right, b, 10000, 0.0005);
    builder.add_duplex(left, right, 1000, 0.01);
    auto built = std::move(builder).build();
    if (!built.ok()) {
      std::fprintf(stderr, "bench rig build failed: %s\n",
                   built.error().message.c_str());
      std::exit(1);
    }
    topo = std::move(built).value();
    routes = net::RouteTable(&topo);
    fabric = std::make_unique<net::Fabric>(&simulator, &topo, &routes);
    transport = std::make_unique<transfer::SimTransport>(fabric.get());
    engine = std::make_unique<TransferEngine>(transport.get());
    src = a;
    dst = engine->ensure_node_segment(b);
  }

  void run_batch(std::uint64_t blob_bytes, int num_blobs,
                 std::size_t concurrency) {
    std::vector<TransferRequest> requests(
        static_cast<std::size_t>(num_blobs));
    for (std::size_t i = 0; i < requests.size(); ++i) {
      requests[i].source_node = src;
      requests[i].target_id = dst;
      requests[i].target_offset = i * blob_bytes;
      requests[i].length = blob_bytes;
      requests[i].charge_slow_start = false;
      requests[i].label = "bench-batch";
    }
    BatchOptions options;
    options.concurrency = concurrency;
    auto batch = engine->submit_batch(std::move(requests), options);
    batch.start();
    simulator.run();
    if (!batch.ok()) {
      std::fprintf(stderr, "sim bench batch failed\n");
      std::exit(1);
    }
  }
};

// One simulated batch takes microseconds, below timer noise, so each timed
// iteration runs batches back to back until kBlobsPerSample blobs have
// moved (a millisecond or more per sample).
constexpr int kBlobsPerSample = 2048;

void sim_case(BenchContext& ctx, std::uint64_t blob_bytes, int num_blobs,
              std::size_t concurrency) {
  const int blobs = ctx.quick() ? std::min(num_blobs, 2) : num_blobs;
  const int batches = ctx.quick() ? 1 : kBlobsPerSample / num_blobs;
  auto rig = std::make_shared<SimRig>();
  ctx.set_events(blobs * batches);
  ctx.extra("blob_bytes", static_cast<double>(blob_bytes));
  ctx.extra("num_blobs", static_cast<double>(blobs));
  ctx.extra("batches", static_cast<double>(batches));
  ctx.extra("concurrency", static_cast<double>(concurrency));
  ctx.set_work([rig, blob_bytes, blobs, batches, concurrency] {
    for (int i = 0; i < batches; ++i) {
      rig->run_batch(blob_bytes, blobs, concurrency);
    }
  });
}

// The blob_size axis.
DROUTE_BENCH(sim_blob64k_n32_c0, "ms") { sim_case(ctx, 64 * util::kKB, 32, 0); }
DROUTE_BENCH(sim_blob1m_n8_c0, "ms") { sim_case(ctx, util::kMB, 8, 0); }
DROUTE_BENCH(sim_blob8m_n4_c0, "ms") { sim_case(ctx, 8 * util::kMB, 4, 0); }
// The concurrency axis: same workloads under a stream cap, so settling
// requests start the next pending one inside their completion event.
DROUTE_BENCH(sim_blob64k_n32_c8, "ms") { sim_case(ctx, 64 * util::kKB, 32, 8); }
DROUTE_BENCH(sim_blob1m_n8_c4, "ms") { sim_case(ctx, util::kMB, 8, 4); }
DROUTE_BENCH(sim_blob8m_n4_c2, "ms") { sim_case(ctx, 8 * util::kMB, 4, 2); }

// Loopback wire plane: unpoliced sink ingress, one payload reused by every
// request in the batch (the sink drains and digests each upload).
struct WireRig {
  wire::Sink sink;
  transfer::WireTransport transport;
  std::unique_ptr<TransferEngine> engine;
  SegmentId dst = transfer::kInvalidSegment;
  util::Blob payload;

  explicit WireRig(std::size_t blob_bytes) {
    auto port = sink.add_ingress(0.0);
    if (!port.ok() || !sink.start().ok()) {
      std::fprintf(stderr, "bench sink start failed\n");
      std::exit(1);
    }
    engine = std::make_unique<TransferEngine>(&transport);
    transfer::Segment segment;
    segment.name = "bench-sink";
    segment.wire_port = port.value();
    dst = engine->register_segment(segment);
    util::Rng rng(21);
    payload = util::make_random_blob(rng, blob_bytes);
  }

  ~WireRig() { sink.stop(); }

  void run_batch(int num_blobs, std::size_t concurrency) {
    std::vector<TransferRequest> requests(
        static_cast<std::size_t>(num_blobs));
    for (std::size_t i = 0; i < requests.size(); ++i) {
      requests[i].source = payload.data();
      requests[i].target_id = dst;
      requests[i].target_offset = i * payload.size();
      requests[i].length = payload.size();
      requests[i].label = "bench-wire-batch";
    }
    BatchOptions options;
    options.concurrency = concurrency;
    auto batch = engine->submit_batch(std::move(requests), options);
    if (!batch.wait()) {
      std::fprintf(stderr, "wire bench batch failed\n");
      std::exit(1);
    }
  }
};

void wire_case(BenchContext& ctx, std::size_t blob_bytes, int num_blobs,
               std::size_t concurrency) {
  const int blobs = ctx.quick() ? std::min(num_blobs, 2) : num_blobs;
  auto rig = std::make_shared<WireRig>(blob_bytes);
  ctx.set_events(blobs);
  ctx.extra("blob_bytes", static_cast<double>(blob_bytes));
  ctx.extra("num_blobs", static_cast<double>(blobs));
  ctx.extra("concurrency", static_cast<double>(concurrency));
  ctx.set_work([rig, blobs, concurrency] {
    rig->run_batch(blobs, concurrency);
  });
}

DROUTE_BENCH(wire_blob64k_n8_c0, "ms") { wire_case(ctx, 64 * 1024, 8, 0); }
DROUTE_BENCH(wire_blob256k_n4_c2, "ms") { wire_case(ctx, 256 * 1024, 4, 2); }
DROUTE_BENCH(wire_blob1m_n2_c0, "ms") { wire_case(ctx, 1024 * 1024, 2, 0); }

}  // namespace
}  // namespace droute::bench

int main(int argc, char** argv) {
  return droute::bench::bench_main(argc, argv, "BENCH_transfer.json");
}
