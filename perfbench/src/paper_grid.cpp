// paper_grid: the full Table I campaign through measure::Campaign::run_grid,
// sequential (pool = nullptr). One pass is 9 client x provider pairs x 3
// routes x 7 sizes x 7 runs = 1323 runs; each run builds a fresh
// scenario::World and calls run_upload. An op is one run. Every pass
// replays the seed's campaign (campaign seed derive_seed(seed, 0)), so
// passes differ only in how fast the host ran, and each must reproduce the
// first pass's outcome digest.
#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cloud/provider.h"
#include "measure/campaign.h"
#include "scenario/north_america.h"
#include "workloads.h"

namespace perfbench {
namespace {

using droute::cloud::ProviderKind;
using droute::scenario::Client;
using droute::scenario::RouteChoice;
namespace scenario = droute::scenario;
namespace measure = droute::measure;

/// Runs in one pass: 3 clients x 3 providers x 3 routes x 7 sizes x 7 runs.
constexpr std::size_t kPassRuns = 1323;
/// Host seconds of a pass (one chunk) on the tuning machine.
constexpr double kNominalChunkS = 1.5;

/// Per-layer probes of the traced pass.
struct GridProbe {
  Tally world_create;
  Tally run_upload;
  Tally cold_route;
  double events = 0.0;
  double delivered_bytes = 0.0;
  double submitted_bytes = 0.0;
  std::size_t peak_pending = 0;
  std::size_t peak_backlog = 0;
  std::size_t pending_at_peak_backlog = 0;
  std::size_t peak_active_flows = 0;
};

struct GridContext {
  Window* window = nullptr;    // untraced runs: takes each run's host ms
  GridProbe* probe = nullptr;  // traced pass only
};

/// Table I as the paper states it, for the 8 cells this repository
/// reproduces: the route(s) that may be fastest and slowest per cell.
/// Purdue -> OneDrive comes out "fastest via UMich, slowest Direct" here
/// while the paper has direct fastest; it is a known divergence
/// (EXPERIMENTS.md) and is not checked.
struct Expectation {
  Client client;
  ProviderKind provider;
  std::set<RouteChoice> fastest;
  std::set<RouteChoice> slowest;
};

const std::vector<Expectation>& table_one() {
  const std::set<RouteChoice> direct = {RouteChoice::kDirect};
  const std::set<RouteChoice> detours = {RouteChoice::kViaUAlberta,
                                         RouteChoice::kViaUMich};
  const std::set<RouteChoice> ualberta = {RouteChoice::kViaUAlberta};
  const std::set<RouteChoice> umich = {RouteChoice::kViaUMich};
  static const std::vector<Expectation> cells = {
      {Client::kUBC, ProviderKind::kGoogleDrive, ualberta, umich},
      {Client::kUBC, ProviderKind::kDropbox, direct, umich},
      {Client::kUBC, ProviderKind::kOneDrive, direct, umich},
      {Client::kPurdue, ProviderKind::kGoogleDrive, detours, direct},
      {Client::kPurdue, ProviderKind::kDropbox, direct, detours},
      {Client::kUCLA, ProviderKind::kGoogleDrive, direct, detours},
      {Client::kUCLA, ProviderKind::kDropbox, direct, detours},
      {Client::kUCLA, ProviderKind::kOneDrive, direct, detours},
  };
  return cells;
}

std::string route_key(Client client, ProviderKind provider,
                      RouteChoice route) {
  return scenario::client_name(client) + "->" +
         droute::cloud::provider_name(provider) + " " +
         scenario::route_name(route);
}

/// Resolves the routes the upload will take on the fresh World, so their
/// cold cost is timed here instead of hiding inside run_upload.
void resolve_routes(scenario::World& world, Client client,
                    ProviderKind provider, RouteChoice route,
                    GridProbe& probe) {
  std::vector<std::pair<droute::net::NodeId, droute::net::NodeId>> legs;
  const droute::net::NodeId src = world.client_node(client);
  const droute::net::NodeId dst = world.provider_node(provider);
  if (route == RouteChoice::kDirect) {
    legs.emplace_back(src, dst);
  } else {
    const droute::net::NodeId via = world.intermediate_node(
        route == RouteChoice::kViaUAlberta ? scenario::Intermediate::kUAlberta
                                           : scenario::Intermediate::kUMich);
    legs.emplace_back(src, via);
    legs.emplace_back(via, dst);
  }
  for (const auto& [a, b] : legs) {
    LayerSpan span("routing.cold_route", probe.cold_route);
    const auto resolved = world.routes().route(a, b);
    (void)resolved;
  }
}

droute::util::Result<double> traced_run(GridProbe& probe, Client client,
                                        ProviderKind provider,
                                        RouteChoice route, std::uint64_t bytes,
                                        std::uint64_t run_seed) {
  scenario::WorldConfig config;
  config.seed = run_seed;
  std::unique_ptr<scenario::World> world;
  {
    LayerSpan span("scenario.world_create", probe.world_create);
    world = scenario::World::create(config);
  }
  resolve_routes(*world, client, provider, route, probe);
  auto elapsed = [&] {
    LayerSpan span("scenario.run_upload", probe.run_upload);
    return world->run_upload(client, provider, route, bytes);
  }();
  const droute::sim::Simulator& sim = world->simulator();
  probe.events += static_cast<double>(sim.executed_events());
  probe.delivered_bytes += static_cast<double>(world->fabric().delivered_bytes());
  probe.submitted_bytes += static_cast<double>(world->fabric().submitted_bytes());
  probe.peak_pending = std::max(probe.peak_pending, sim.pending());
  if (sim.cancelled_backlog() > probe.peak_backlog) {
    probe.peak_backlog = sim.cancelled_backlog();
    probe.pending_at_peak_backlog = sim.pending();
  }
  probe.peak_active_flows =
      std::max(probe.peak_active_flows, world->fabric().active_flow_count());
  return elapsed;
}

std::unique_ptr<measure::Campaign> make_campaign(std::uint64_t campaign_seed,
                                                 GridContext& ctx) {
  auto campaign = std::make_unique<measure::Campaign>(campaign_seed);
  for (const Client client : scenario::all_clients()) {
    for (const ProviderKind provider : droute::cloud::all_providers()) {
      for (const RouteChoice route : scenario::all_routes()) {
        campaign->add_route(
            route_key(client, provider, route),
            [&ctx, client, provider, route](std::uint64_t bytes,
                                            std::uint64_t run_seed)
                -> droute::util::Result<double> {
              const double start = host_now_s();
              auto elapsed = [&]() -> droute::util::Result<double> {
                if (ctx.probe != nullptr) {
                  return traced_run(*ctx.probe, client, provider, route,
                                    bytes, run_seed);
                }
                scenario::WorldConfig config;
                config.seed = run_seed;
                auto world = scenario::World::create(config);
                return world->run_upload(client, provider, route, bytes);
              }();
              if (ctx.window != nullptr && elapsed.ok()) {
                ctx.window->add_op((host_now_s() - start) * 1e3);
              }
              return elapsed;
            });
      }
    }
  }
  return campaign;
}

/// The routes with the most per-size votes.
std::set<RouteChoice> dominant(const std::map<RouteChoice, int>& votes) {
  int best = 0;
  for (const auto& [route, n] : votes) best = std::max(best, n);
  std::set<RouteChoice> winners;
  for (const auto& [route, n] : votes) {
    if (n == best) winners.insert(route);
  }
  return winners;
}

/// Checks one pass against Table I and accounts its ops; returns the
/// number of runs that completed.
std::uint64_t check_pass(const measure::Campaign::Grid& grid,
                         const std::vector<std::uint64_t>& sizes,
                         std::uint64_t pass, Result& result) {
  std::uint64_t completed = 0;
  for (const Client client : scenario::all_clients()) {
    for (const ProviderKind provider : droute::cloud::all_providers()) {
      std::uint64_t ops = 0;
      std::uint64_t errors = 0;
      std::map<RouteChoice, int> fastest_votes;
      std::map<RouteChoice, int> slowest_votes;
      for (const std::uint64_t bytes : sizes) {
        std::vector<std::pair<double, RouteChoice>> means;
        for (const RouteChoice route : scenario::all_routes()) {
          const measure::Measurement& m =
              grid.at({route_key(client, provider, route), bytes});
          ops += m.runs.size() + static_cast<std::uint64_t>(m.failures);
          errors += static_cast<std::uint64_t>(m.failures);
          completed += m.runs.size();
          means.emplace_back(m.kept.mean, route);
        }
        const auto [fastest, slowest] =
            std::minmax_element(means.begin(), means.end());
        ++fastest_votes[fastest->second];
        ++slowest_votes[slowest->second];
      }
      bool check_failed = false;
      for (const Expectation& expect : table_one()) {
        if (expect.client != client || expect.provider != provider) continue;
        const auto fastest = dominant(fastest_votes);
        const auto slowest = dominant(slowest_votes);
        check_failed =
            !std::includes(expect.fastest.begin(), expect.fastest.end(),
                           fastest.begin(), fastest.end()) ||
            !std::includes(expect.slowest.begin(), expect.slowest.end(),
                           slowest.begin(), slowest.end());
      }
      if (check_failed) {
        result.fail_check("pass " + std::to_string(pass) + ": " +
                          scenario::client_name(client) + "->" +
                          droute::cloud::provider_name(provider) +
                          " fastest/slowest routes differ from Table I");
      }
      result.ops.add(ops, group_failures(ops, errors, check_failed));
    }
  }
  return completed;
}

std::uint64_t grid_digest(const measure::Campaign::Grid& grid) {
  Digest digest;
  for (const auto& [cell, m] : grid) {
    digest.add_bytes(cell.first.data(), cell.first.size());
    digest.add(cell.second);
    digest.add(m.failures);
    for (const double run : m.runs) digest.add(run);
  }
  return digest.value;
}

/// Runs grid pass `pass`; returns the runs that completed.
std::uint64_t run_pass(const Options& options, std::uint64_t pass,
                       GridContext& ctx, Result& result) {
  const std::vector<std::uint64_t> sizes = scenario::paper_file_sizes_bytes();
  auto campaign = make_campaign(derive_seed(options.seed, 0), ctx);
  const measure::Protocol protocol;
  const auto grid = campaign->run_grid(sizes, protocol, nullptr);
  const std::uint64_t digest = grid_digest(grid);
  if (result.digest && *result.digest != digest) {
    result.fail_check("pass " + std::to_string(pass) +
                      " changed the outcome digest");
  }
  result.digest = digest;
  result.digest_ops = kPassRuns;
  return check_pass(grid, sizes, pass, result);
}

/// Set-up: the campaign's route table plus a warm-up run of every route at
/// the smallest size, so allocator and lazy statics are warm before the
/// timed window, as they are for a user running many campaigns. The
/// warm-up inputs come from a fixed seed: set-up cost does not depend on
/// the workload seed.
double setup_once() {
  const double start = host_now_s();
  GridContext scratch;
  auto campaign = make_campaign(0, scratch);
  for (const std::string& key : campaign->route_keys()) {
    const auto warm = campaign->measure(
        key, scenario::paper_file_sizes_bytes().front(), measure::Protocol{1, 1});
    (void)warm;
  }
  return host_now_s() - start;
}

}  // namespace

Result run_paper_grid(const Options& options) {
  Result result;
  GridContext ctx;
  if (!options.trace) {
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupRepeats; ++i) {
      pin_to_cpu(static_cast<std::size_t>(i));
      setup_s.push_back(setup_once());
    }
    Window window(window_chunks(options.seconds, kNominalChunkS), true);
    ctx.window = &window;
    for (std::uint64_t pass = 0;; ++pass) {
      run_pass(options, pass, ctx, result);
      if (window.boundary()) break;
    }
    set_end_to_end(result, setup_s, window.figures());
    return result;
  }

  (void)setup_once();
  double start = host_now_s();
  const double untraced_ops =
      static_cast<double>(run_pass(options, 0, ctx, result));
  const double untraced_ops_per_s = untraced_ops / (host_now_s() - start);

  droute::obs::Recorder recorder;
  droute::obs::ScopedRecorder installed(&recorder);
  GridProbe probe;
  ctx.probe = &probe;
  start = host_now_s();
  const double ops = static_cast<double>(run_pass(options, 0, ctx, result));
  const double traced_ops_per_s = ops / (host_now_s() - start);

  std::map<std::string, double> layer;
  read_program_counters(recorder, ops, layer);
  layer["scenario.world_create_ms"] = probe.world_create.mean_ms();
  layer["scenario.run_upload_ms"] = probe.run_upload.mean_ms();
  layer["sim.host_ns_per_event"] =
      ratio(probe.run_upload.seconds * 1e9, probe.events);
  layer["sim.peak_pending"] = static_cast<double>(probe.peak_pending);
  layer["sim.peak_cancelled_backlog"] = static_cast<double>(probe.peak_backlog);
  layer["sim.dead_entry_ratio"] =
      dead_entry_ratio(probe.peak_backlog, probe.pending_at_peak_backlog);
  layer["routing.cold_routes"] = static_cast<double>(probe.cold_route.calls);
  layer["routing.cold_route_us"] = probe.cold_route.mean_us();
  layer["fabric.delivered_ratio"] =
      ratio(probe.delivered_bytes, probe.submitted_bytes);
  layer["fabric.peak_active_flows"] =
      static_cast<double>(probe.peak_active_flows);
  write_chrome_trace(recorder, options, result);
  result.info["traced_ops"] = ops;
  finish_traced(result, untraced_ops_per_s, traced_ops_per_s, std::move(layer));
  return result;
}

}  // namespace perfbench
