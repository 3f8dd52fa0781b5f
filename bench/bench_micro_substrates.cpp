// Substrate throughput cases -> BENCH_substrates.json.
//
// Rolling checksum, MD5 and delta-scan rates over a random buffer, the cost
// of building the calibrated scenario World, and one full simulated 100 MB
// upload. The byte cases and the upload report MB (10^6 bytes) per timed
// iteration through set_events(), so events_per_sec reads as MB/s;
// world_build counts Worlds built. --quick shrinks every input. Ungated: no
// committed baseline, the nightly job only validates the report.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>

#include "harness.h"
#include "rsyncx/checksum.h"
#include "rsyncx/delta.h"
#include "rsyncx/md5.h"
#include "rsyncx/signature.h"
#include "scenario/north_america.h"
#include "util/blob.h"
#include "util/rng.h"
#include "util/units.h"

namespace droute::bench {
namespace {

// Results land here so the timed work cannot be optimized away.
volatile std::uint64_t g_sink = 0;

// 1 MiB random buffer (64 KiB under --quick) shared by the case's closure;
// reports its size in MB.
std::shared_ptr<const util::Blob> random_buffer(BenchContext& ctx,
                                                std::uint64_t seed) {
  util::Rng rng(seed);
  auto data = std::make_shared<const util::Blob>(util::make_random_blob(
      rng, ctx.quick() ? 64 * 1024 : 1024 * 1024));
  ctx.set_events(static_cast<double>(data->size()) /
                 static_cast<double>(util::kMB));
  ctx.extra("bytes", static_cast<double>(data->size()));
  return data;
}

DROUTE_BENCH(rolling_checksum, "ms") {
  constexpr std::size_t kWindow = 700;
  auto data = random_buffer(ctx, 1);
  ctx.set_work([data] {
    rsyncx::RollingChecksum rc(
        std::span<const std::uint8_t>(*data).subspan(0, kWindow));
    std::uint32_t accum = 0;
    for (std::size_t i = 0; i + kWindow < data->size(); ++i) {
      rc.roll((*data)[i], (*data)[i + kWindow]);
      accum ^= rc.digest();
    }
    g_sink = accum;
  });
}

DROUTE_BENCH(md5, "ms") {
  auto data = random_buffer(ctx, 2);
  ctx.set_work([data] { g_sink = rsyncx::Md5::hash(*data)[0]; });
}

DROUTE_BENCH(delta_scan, "ms") {
  // Identical basis and target: every block matches, the scan's best case.
  auto data = random_buffer(ctx, 3);
  // The index points into the signature, so the closure keeps both alive.
  auto signature = std::make_shared<const rsyncx::Signature>(
      rsyncx::compute_signature(*data,
                                rsyncx::recommended_block_size(data->size())));
  auto index = std::make_shared<const rsyncx::SignatureIndex>(*signature);
  ctx.set_work([data, signature, index] {
    g_sink = rsyncx::compute_delta(*data, *index).copied_bytes();
  });
}

DROUTE_BENCH(world_build, "ms") {
  // One World takes tens of microseconds; build a batch per sample so the
  // sample sits well above timer resolution.
  const int worlds = ctx.quick() ? 1 : 20;
  ctx.set_events(worlds);
  ctx.set_work([worlds] {
    for (int i = 0; i < worlds; ++i) {
      scenario::WorldConfig config;
      config.cross_traffic = false;
      g_sink = scenario::World::create(config)->simulator().executed_events();
    }
  });
}

DROUTE_BENCH(scenario_upload, "ms") {
  // A full simulated direct upload (World build + warm-up + run): the unit
  // of work every measurement campaign repeats hundreds of times.
  const std::uint64_t bytes = (ctx.quick() ? 10 : 100) * util::kMB;
  ctx.set_events(static_cast<double>(bytes / util::kMB));
  ctx.set_work([bytes] {
    scenario::WorldConfig config;
    config.cross_traffic = true;
    config.seed = 42;
    auto world = scenario::World::create(config);
    const auto elapsed =
        world->run_upload(scenario::Client::kPurdue,
                          cloud::ProviderKind::kGoogleDrive,
                          scenario::RouteChoice::kDirect, bytes);
    if (!elapsed.ok()) {
      std::fprintf(stderr, "scenario upload failed: %s\n",
                   elapsed.error().message.c_str());
      std::exit(1);
    }
  });
}

}  // namespace
}  // namespace droute::bench

int main(int argc, char** argv) {
  return droute::bench::bench_main(argc, argv, "BENCH_substrates.json");
}
