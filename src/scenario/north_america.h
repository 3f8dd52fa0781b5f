// The calibrated North-America scenario: the paper's measurement world.
//
// Sites (Sec II): PlanetLab nodes at UBC (Vancouver), UMich (Ann Arbor),
// Purdue (West Lafayette), UCLA (Los Angeles); a non-PlanetLab cluster at
// UAlberta (Edmonton). Providers: Dropbox (Ashburn VA), Google Drive
// (Mountain View CA), OneDrive (Seattle WA).
//
// The network is data: data/north_america.topo, compiled in, parsed once
// per process and copied into every World, which then jitters the
// calibrated rates. Its routes are computed once per process too: every
// World's RouteTable reads one shared snapshot until the World's first
// invalidate() (a link failure), then routes privately. Calibration targets
// and the network causes behind them are documented in DESIGN.md §5; the
// headline artifacts are
//   * a per-flow policed PacificWave egress that PlanetLab-tagged traffic
//     from UBC is policy-routed onto toward Google (Figs 5/6),
//   * PlanetLab slice shaping at each PlanetLab site,
//   * congested commodity transit that Purdue's Google/OneDrive traffic is
//     policy-routed onto, with heavy-tailed cross traffic (Figs 7-9),
//   * a last-mile cap at UCLA (Figs 10/11).
//
// Every World is an independent simulation universe (own simulator, fabric,
// servers, cross-traffic RNG); measurement campaigns create one per run.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/provider.h"
#include "cloud/storage_server.h"
#include "ctrl/controller.h"
#include "measure/campaign.h"
#include "net/cross_traffic.h"
#include "net/fabric.h"
#include "net/routing.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "trace/traceroute.h"
#include "transfer/api_download.h"
#include "transfer/api_upload.h"
#include "transfer/detour.h"
#include "transfer/sim_transport.h"
#include "util/result.h"

namespace droute::scenario {

enum class Client { kUBC, kPurdue, kUCLA };
enum class Intermediate { kUAlberta, kUMich };
enum class RouteChoice { kDirect, kViaUAlberta, kViaUMich };

std::string client_name(Client client);
std::string intermediate_name(Intermediate node);
std::string route_name(RouteChoice route);
std::vector<Client> all_clients();
std::vector<RouteChoice> all_routes();

/// The process-wide route snapshot over the unjittered scenario network,
/// shared by every World (exposed for its work count in tests).
const net::RouteSnapshot& shared_routes();

/// The paper's file sizes: 10, 20, 30, 40, 50, 60, 100 MB (decimal), Sec II.
std::vector<std::uint64_t> paper_file_sizes_bytes();

struct WorldConfig {
  std::uint64_t seed = 1;
  bool cross_traffic = true;
  /// Simulated seconds of cross-traffic warm-up before foreground transfers
  /// start, so congested links are in steady state.
  double warmup_s = 90.0;
  /// Coefficient of variation for per-run perturbation of shaper/policer
  /// rates (real rate limiters and slice shapers are never exact). Gives
  /// otherwise-deterministic routes (e.g. everything from UBC) the small
  /// run-to-run error bars the paper's figures show. 0 disables.
  double rate_jitter_cv = 0.02;
};

class World {
 public:
  /// Builds the full scenario. Never fails for the built-in topology
  /// (DROUTE_CHECKed); returned by pointer because internal components hold
  /// stable cross-references.
  static std::unique_ptr<World> create(const WorldConfig& config = {});

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  sim::Simulator& simulator() { return simulator_; }
  net::Topology& topology() { return topo_; }
  net::RouteTable& routes() { return routes_; }
  net::Fabric& fabric() { return *fabric_; }
  /// The fabric's one batch layer; every engine and controller of this
  /// world moves its bytes through it.
  transfer::TransferEngine& transfer_engine() { return *xfer_; }
  trace::Tracer& tracer() { return *tracer_; }
  const geo::Registry& registry() const { return topo_.registry(); }

  net::NodeId client_node(Client client) const;
  net::NodeId intermediate_node(Intermediate node) const;
  net::NodeId provider_node(cloud::ProviderKind kind) const;
  net::NodeId node(const std::string& name) const;

  cloud::StorageServer& server(cloud::ProviderKind kind);
  transfer::ApiUploadEngine& api_engine(cloud::ProviderKind kind);
  transfer::DetourEngine& detour_engine(cloud::ProviderKind kind);
  transfer::ApiDownloadEngine& download_engine(cloud::ProviderKind kind);

  /// The relay chain of a paper route: empty for direct, {DTN} for a
  /// detour.
  ctrl::PathSpec path_of(RouteChoice route) const;

  /// Runs one complete upload (direct or detoured) of `bytes` from `client`
  /// to `provider`, including cross-traffic warm-up, and returns the elapsed
  /// transfer time in simulated seconds (excluding warm-up).
  [[nodiscard]] util::Result<double> run_upload(
      Client client, cloud::ProviderKind provider, RouteChoice route,
      std::uint64_t bytes,
      transfer::DetourMode mode = transfer::DetourMode::kStoreAndForward);

  /// Runs one complete *download* of an object already stored at the
  /// provider (staged beforehand by stage_object()), direct or detoured.
  /// Returns the download's elapsed simulated seconds.
  [[nodiscard]] util::Result<double> run_download(Client client,
                                    cloud::ProviderKind provider,
                                    RouteChoice route,
                                    const std::string& name);

  /// Stages an object at a provider without touching the measured client's
  /// paths (uploads from the UAlberta cluster); returns the object name.
  [[nodiscard]]
  util::Result<std::string> stage_object(cloud::ProviderKind provider,
                                         std::uint64_t bytes);

  /// Point-to-point file push via rsync only (used for TIV matrices and the
  /// intro's UBC->UAlberta measurement).
  [[nodiscard]] util::Result<double> run_rsync(const std::string& src_node,
                                 const std::string& dst_node,
                                 std::uint64_t bytes);

  /// Builds (and owns) an online controller wired to this world: the
  /// provider's front-end, every paper client, and both intermediates as
  /// candidate DTN relays. Call start() on the result to begin probing.
  ctrl::Controller& make_controller(cloud::ProviderKind provider,
                                    ctrl::ControllerConfig config = {});

  /// Runs one upload whose path is chosen by `steering` (a controller from
  /// make_controller, or a StaticSteering baseline). Unlike run_upload,
  /// cross-traffic sources keep running afterwards so a session sequence
  /// sees a live network.
  [[nodiscard]] util::Result<double> run_steered_upload(
      cloud::ProviderKind provider, ctrl::Steering& steering, Client client,
      std::uint64_t bytes);

 private:
  explicit World(const WorldConfig& config);
  void wire_services();
  void start_cross_traffic();
  void warm_up();

  WorldConfig config_;
  sim::Simulator simulator_;
  net::Topology topo_;
  net::RouteTable routes_;
  std::unique_ptr<net::Fabric> fabric_;
  // Declared before every engine and controller that borrows them, so
  // they are destroyed after all of those.
  std::unique_ptr<transfer::SimTransport> transport_;
  std::unique_ptr<transfer::TransferEngine> xfer_;
  std::unique_ptr<trace::Tracer> tracer_;

  struct ProviderStack {
    std::unique_ptr<cloud::StorageServer> server;
    std::unique_ptr<transfer::ApiUploadEngine> api;
    std::unique_ptr<transfer::DetourEngine> detour;
    std::unique_ptr<transfer::ApiDownloadEngine> download;
    net::NodeId front_node = net::kInvalidNode;
  };
  std::map<cloud::ProviderKind, ProviderStack> providers_;
  std::vector<std::unique_ptr<net::CrossTrafficSource>> cross_;
  // Declared after the fabric and its batch layer: controllers stop()
  // (cancelling probe batches) before those and the simulator go.
  std::vector<std::unique_ptr<ctrl::Controller>> controllers_;
  bool warmed_up_ = false;
  std::uint64_t upload_counter_ = 0;
};

/// A measure::TransferFn that builds a fresh World per run (seeded by the
/// run seed) and executes the given combination.
measure::TransferFn make_transfer_fn(Client client,
                                     cloud::ProviderKind provider,
                                     RouteChoice route,
                                     WorldConfig base = {});

/// TransferFn for a raw point-to-point rsync between two named nodes.
measure::TransferFn make_rsync_fn(std::string src_node, std::string dst_node,
                                  WorldConfig base = {});

/// TransferFn measuring a *download* (object staged per run, then fetched
/// over the given route). The paper's protocol applies unchanged.
measure::TransferFn make_download_fn(Client client,
                                     cloud::ProviderKind provider,
                                     RouteChoice route, WorldConfig base = {});

}  // namespace droute::scenario
