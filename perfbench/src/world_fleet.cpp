// world_fleet: one calibrated World with cross traffic, warmed up, then
// kFleetFlows concurrent flows spread over every client x provider pair.
// A completing flow starts the next one on its pair, so the live count
// stays constant (closed loop inside the simulation, one host thread).
// The World and the size mix are those of bench_perf_campaign's fleet_100x,
// where ROADMAP profiled on_completion_event at 60% and fill_component at
// 15%: World seed 2016 and (10 + 5k) MB flows, k = 0..6, here drawn from the
// seeded stream. An op is one flow completion. Its host time is the host
// time of the simulation slice it completed in, divided by the completions
// of that slice: completions inside one event are a fraction of a
// microsecond apart, so their own gaps would time the clock, not the fleet.
//
// The timed window replays the fleet: each replay sets up a fresh fleet
// (untimed) and runs its first kReplayOps completions, so replays repeat
// identical work, differ only in how fast the host ran, and must
// reproduce the first replay's outcome digest.
#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cloud/provider.h"
#include "scenario/north_america.h"
#include "util/rng.h"
#include "util/units.h"
#include "workloads.h"

namespace perfbench {
namespace {

using droute::net::FlowOutcome;
using droute::net::FlowStats;
namespace scenario = droute::scenario;

constexpr int kFleetFlows = 600;
constexpr std::uint64_t kWorldSeed = 2016;
constexpr std::uint64_t kReplayOps = 5000;    // completions per replay
constexpr double kNominalChunkS = 1.0;        // host s of a replay (a chunk)
                                              // on the tuning machine
constexpr double kSliceS = 5.0;               // sim seconds per run_until
constexpr std::uint64_t kDigestOps = 2000;    // completions in the digest
constexpr std::uint64_t kTracedOps = 10000;   // fixed work of a traced pass
constexpr double kDrainHorizonS = 1e6;        // sim-time bound on draining

struct FleetProbe {
  Tally world_create;
  Tally start_flow;
  Tally slices;
  double slice_events = 0.0;
  std::size_t peak_pending = 0;
  std::size_t peak_backlog = 0;
  std::size_t pending_at_peak_backlog = 0;
  std::size_t peak_active_flows = 0;
};

class Fleet {
 public:
  /// Set-up: World build, cross-traffic warm-up, and the initial flows.
  Fleet(std::uint64_t seed, FleetProbe* probe)
      : rng_(derive_seed(seed, 0)), probe_(probe) {
    // The calibrated World is fixed; the workload seed drives the flow
    // sizes. Worlds of different seeds differ in shaper jitter, which
    // changes the bottleneck structure and with it the cost per event.
    scenario::WorldConfig config;
    config.seed = kWorldSeed;
    {
      std::optional<LayerSpan> span;
      if (probe_ != nullptr) span.emplace("scenario.world_create", probe_->world_create);
      world_ = scenario::World::create(config);
    }
    world_->simulator().run_until(config.warmup_s);
    for (const scenario::Client client : scenario::all_clients()) {
      for (const auto provider : droute::cloud::all_providers()) {
        pairs_.emplace_back(world_->client_node(client),
                            world_->provider_node(provider));
      }
    }
    for (int i = 0; i < kFleetFlows; ++i) {
      start(static_cast<std::size_t>(i) % pairs_.size());
    }
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Starts counting ops: completions from here on are ops, and their host
  /// times go to `window` when there is one.
  void begin_window(Window* window) {
    window_ = window;
    window_ops_ = 0;
  }

  /// Advances the simulation by one slice and samples the kernel between
  /// slices.
  void run_slice() {
    droute::sim::Simulator& sim = world_->simulator();
    if (probe_ == nullptr) {
      const double start = host_now_s();
      const std::uint64_t completed_before = completed_;
      sim.run_until(sim.now() + kSliceS);
      const std::uint64_t completed = completed_ - completed_before;
      if (window_ != nullptr && completed > 0) {
        const double ms =
            (host_now_s() - start) * 1e3 / static_cast<double>(completed);
        for (std::uint64_t i = 0; i < completed; ++i) window_->add_op(ms);
      }
      return;
    }
    const auto events_before = sim.executed_events();
    {
      LayerSpan span("sim.run_until", probe_->slices);
      sim.run_until(sim.now() + kSliceS);
    }
    probe_->slice_events +=
        static_cast<double>(sim.executed_events() - events_before);
    probe_->peak_pending = std::max(probe_->peak_pending, sim.pending());
    if (sim.cancelled_backlog() > probe_->peak_backlog) {
      probe_->peak_backlog = sim.cancelled_backlog();
      probe_->pending_at_peak_backlog = sim.pending();
    }
    probe_->peak_active_flows = std::max(probe_->peak_active_flows,
                                         world_->fabric().active_flow_count());
  }

  /// Stops respawning, lets every fleet flow finish, stops cross traffic
  /// (World::run_upload stops it after its upload, the only public way),
  /// drains the fabric, and checks that every submitted byte arrived.
  void drain_and_check(Result& result) {
    respawn_ = false;
    droute::sim::Simulator& sim = world_->simulator();
    while (live_ > 0 && sim.now() < kDrainHorizonS) run_slice();
    const auto probe_upload = world_->run_upload(
        scenario::Client::kUBC, droute::cloud::ProviderKind::kGoogleDrive,
        scenario::RouteChoice::kDirect, droute::util::kMB);
    if (!probe_upload.ok()) {
      result.fail_check("drain upload failed: " + probe_upload.error().message);
    }
    while (world_->fabric().active_flow_count() > 0 &&
           sim.now() < kDrainHorizonS) {
      run_slice();
    }
    const droute::net::Fabric& fabric = world_->fabric();
    if (live_ > 0 || fabric.active_flow_count() > 0) {
      result.fail_check("fleet did not drain");
    }
    if (fabric.delivered_bytes() != fabric.submitted_bytes()) {
      result.fail_check("delivered " + std::to_string(fabric.delivered_bytes()) +
                        " of " + std::to_string(fabric.submitted_bytes()) +
                        " submitted bytes");
    }
  }

  /// Adds this fleet's ended flows to `result`'s op accounting.
  void account(Result& result) const { result.ops.add(ended_, failed_); }

  std::uint64_t window_ops() const { return window_ops_; }
  std::uint64_t digest() const { return digest_.value; }
  double delivered_ratio() const {
    return ratio(static_cast<double>(world_->fabric().delivered_bytes()),
                 static_cast<double>(world_->fabric().submitted_bytes()));
  }

 private:
  void start(std::size_t pair) {
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(10 + 5 * rng_.uniform_int(0, 6)) *
        droute::util::kMB;
    droute::net::FlowOptions options;
    options.charge_slow_start = false;
    options.label = "perfbench.fleet";
    std::optional<LayerSpan> span;
    if (probe_ != nullptr) span.emplace("fabric.start_flow", probe_->start_flow);
    const auto started = world_->fabric().start_flow(
        pairs_[pair].first, pairs_[pair].second, bytes,
        [this, pair](const FlowStats& stats) { on_complete(pair, stats); },
        options);
    span.reset();
    if (started.ok()) {
      ++live_;
    } else {
      ++ended_;
      ++failed_;
    }
  }

  void on_complete(std::size_t pair, const FlowStats& stats) {
    --live_;
    ++ended_;
    ++window_ops_;
    if (stats.outcome == FlowOutcome::kCompleted) {
      ++completed_;
    } else {
      ++failed_;
    }
    if (ended_ <= kDigestOps) {
      digest_.add(stats.id);
      digest_.add(stats.bytes);
      digest_.add(stats.end_time);
      digest_.add(stats.outcome);
    }
    if (respawn_) {
      world_->simulator().schedule_in(0.0, [this, pair] { start(pair); });
    }
  }

  std::unique_ptr<scenario::World> world_;
  droute::util::Rng rng_;
  FleetProbe* probe_;
  std::vector<std::pair<droute::net::NodeId, droute::net::NodeId>> pairs_;
  bool respawn_ = true;
  int live_ = 0;
  std::uint64_t ended_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t window_ops_ = 0;
  Window* window_ = nullptr;
  Digest digest_;
};

/// Runs slices until `ops` completions (fixed work); returns ops per host
/// second.
double run_fixed(Fleet& fleet, std::uint64_t ops) {
  fleet.begin_window(nullptr);
  const double start = host_now_s();
  while (fleet.window_ops() < ops) fleet.run_slice();
  return static_cast<double>(fleet.window_ops()) / (host_now_s() - start);
}

}  // namespace

Result run_world_fleet(const Options& options) {
  Result result;
  if (!options.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<Fleet> fleet;
    for (int i = 0; i < kSetupRepeats; ++i) {
      fleet.reset();
      pin_to_cpu(static_cast<std::size_t>(i));
      const double start = host_now_s();
      fleet = std::make_unique<Fleet>(options.seed, nullptr);
      setup_s.push_back(host_now_s() - start);
    }
    Window window(window_chunks(options.seconds, kNominalChunkS), true);
    for (bool first = true;; first = false) {
      if (!first) {
        fleet->account(result);
        window.pause();
        fleet = std::make_unique<Fleet>(options.seed, nullptr);
        window.resume();
      }
      fleet->begin_window(&window);
      while (fleet->window_ops() < kReplayOps) fleet->run_slice();
      if (result.digest && *result.digest != fleet->digest()) {
        result.fail_check("a fleet replay changed the outcome digest");
      }
      result.digest = fleet->digest();
      if (window.boundary()) break;
    }
    fleet->drain_and_check(result);
    fleet->account(result);
    result.digest_ops = kDigestOps;
    set_end_to_end(result, setup_s, window.figures());
    return result;
  }

  double untraced_ops_per_s = 0.0;
  {
    Fleet fleet(options.seed, nullptr);
    untraced_ops_per_s = run_fixed(fleet, kTracedOps);
    fleet.drain_and_check(result);
    fleet.account(result);
    result.digest = fleet.digest();
    result.digest_ops = kDigestOps;
  }

  droute::obs::Recorder recorder;
  droute::obs::ScopedRecorder installed(&recorder);
  FleetProbe probe;
  Fleet fleet(options.seed, &probe);
  const double traced_ops_per_s = run_fixed(fleet, kTracedOps);
  if (fleet.digest() != *result.digest) {
    result.fail_check("the traced pass changed the outcome digest");
  }
  const double ops = static_cast<double>(fleet.window_ops());
  const double slice_events = probe.slice_events;
  const double slice_s = probe.slices.seconds;
  fleet.drain_and_check(result);
  fleet.account(result);

  std::map<std::string, double> layer;
  read_program_counters(recorder, ops, layer);
  layer["sim.events_per_op"] = ratio(slice_events, ops);
  layer["sim.host_ns_per_event"] = ratio(slice_s * 1e9, slice_events);
  layer["sim.peak_pending"] = static_cast<double>(probe.peak_pending);
  layer["sim.peak_cancelled_backlog"] = static_cast<double>(probe.peak_backlog);
  layer["sim.dead_entry_ratio"] =
      dead_entry_ratio(probe.peak_backlog, probe.pending_at_peak_backlog);
  layer["scenario.world_create_ms"] = probe.world_create.mean_ms();
  layer["fabric.start_flow_us"] = probe.start_flow.mean_us();
  layer["fabric.peak_active_flows"] =
      static_cast<double>(probe.peak_active_flows);
  layer["fabric.delivered_ratio"] = fleet.delivered_ratio();
  write_chrome_trace(recorder, options, result);
  result.info["traced_ops"] = ops;
  finish_traced(result, untraced_ops_per_s, traced_ops_per_s, std::move(layer));
  return result;
}

}  // namespace perfbench
