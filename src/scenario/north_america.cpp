#include "scenario/north_america.h"

#include <utility>

#include "check/contract.h"
#include "cloud/oauth.h"
#include "net/topology_io.h"
#include "north_america_topo.h"  // generated: kNorthAmericaTopo
#include "scenario/foreground.h"
#include "sim/task.h"
#include "transfer/rsync_engine.h"
#include "util/logging.h"
#include "util/units.h"

namespace droute::scenario {

namespace {

// Which calibrated rate a jitter row scales (DESIGN.md §5 gives each rate's
// paper target).
enum class Rate {
  kMiddlebox,  // the node's per-flow ceiling
  kCapacity,   // both directions of a duplex link, each scaled by one draw
  kPolicer,    // one direction's per-flow policer
};

struct JitterRow {
  Rate rate;
  const char* node;  // the middlebox node, or the link's source
  const char* peer;  // the link's destination (nullptr for a middlebox)
};

// The shaper and policer rates WorldConfig::rate_jitter_cv perturbs, one
// draw per row in this order, so a given seed always builds the same world.
constexpr JitterRow kJitterRows[] = {
    {Rate::kMiddlebox, "cs-gw.net.ubc.ca", nullptr},
    {Rate::kCapacity, "gsb-asr-core1.backbone.ualberta.ca",
     "uofa-p-1-edm.cybera.ca"},
    {Rate::kPolicer, "vncv1rtr2.canarie.ca",
     "et-1-1-5.4079.core1.chic.net.internet2.edu"},
    {Rate::kMiddlebox, "pl-gw.umich.edu", nullptr},
    {Rate::kMiddlebox, "pl-gw.purdue.edu", nullptr},
    {Rate::kCapacity, "tel-210.purdue.edu",
     "et-1-1-5.4079.core1.chic.net.internet2.edu"},
    {Rate::kCapacity, "tel-210.purdue.edu", "ae-3.cr1.commodity-g.net"},
    {Rate::kCapacity, "tel-210.purdue.edu", "ae-7.cr2.commodity-m.net"},
    {Rate::kMiddlebox, "pl-gw.ucla.edu", nullptr},
    {Rate::kPolicer, "vncv1rtr2.canarie.ca",
     "google-1-lo-std-707.sttlwa.pacificwave.net"},
    {Rate::kPolicer, "google-1-lo-std-707.sttlwa.pacificwave.net",
     "vncv1rtr2.canarie.ca"},
};

// A jitter row resolved against the parsed topology.
struct Jitter {
  Rate rate;
  net::NodeId node = net::kInvalidNode;
  net::LinkId forward = net::kInvalidLink;
  net::LinkId reverse = net::kInvalidLink;  // kCapacity rows only
};

net::NodeId must_find_node(const net::Topology& topo, const std::string& name) {
  const auto id = topo.find_node(name);
  DROUTE_CHECK(id.has_value(), "unknown scenario node: " + name);
  return *id;
}

net::LinkId must_find_link(const net::Topology& topo, const char* src,
                           const char* dst) {
  const auto id =
      topo.find_link(must_find_node(topo, src), must_find_node(topo, dst));
  DROUTE_CHECK(id.has_value(),
               std::string("no scenario link ") + src + " -> " + dst);
  return *id;
}

net::Topology parse_scenario() {
  auto parsed = net::parse_topology(kNorthAmericaTopo);
  DROUTE_CHECK(parsed.ok(),
               "data/north_america.topo invalid: " + parsed.error().message);
  return std::move(parsed).value();
}

// The scenario network, parsed once per process; every World copies it.
struct ScenarioData {
  ScenarioData() {
    for (const JitterRow& row : kJitterRows) {
      Jitter resolved{row.rate};
      if (row.rate == Rate::kMiddlebox) {
        resolved.node = must_find_node(topo, row.node);
      } else {
        resolved.forward = must_find_link(topo, row.node, row.peer);
      }
      if (row.rate == Rate::kCapacity) {
        resolved.reverse = must_find_link(topo, row.peer, row.node);
      }
      jitter.push_back(resolved);
    }
  }

  const net::Topology topo = parse_scenario();
  std::vector<Jitter> jitter;
  // Every World routes from here until its first invalidate(): jitter
  // scales only rates, which no route depends on (routing.h).
  const net::RouteSnapshot routes{&topo};
};

const ScenarioData& scenario_data() {
  static const ScenarioData data;
  return data;
}

}  // namespace

const net::RouteSnapshot& shared_routes() { return scenario_data().routes; }

std::string client_name(Client client) {
  switch (client) {
    case Client::kUBC:    return "UBC";
    case Client::kPurdue: return "Purdue";
    case Client::kUCLA:   return "UCLA";
  }
  return "?";
}

std::string intermediate_name(Intermediate node) {
  switch (node) {
    case Intermediate::kUAlberta: return "UAlberta";
    case Intermediate::kUMich:    return "UMich";
  }
  return "?";
}

std::string route_name(RouteChoice route) {
  switch (route) {
    case RouteChoice::kDirect:      return "Direct";
    case RouteChoice::kViaUAlberta: return "via UAlberta";
    case RouteChoice::kViaUMich:    return "via UMich";
  }
  return "?";
}

std::vector<Client> all_clients() {
  return {Client::kUBC, Client::kPurdue, Client::kUCLA};
}

std::vector<RouteChoice> all_routes() {
  return {RouteChoice::kDirect, RouteChoice::kViaUAlberta,
          RouteChoice::kViaUMich};
}

std::vector<std::uint64_t> paper_file_sizes_bytes() {
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t mb : {10, 20, 30, 40, 50, 60, 100}) {
    sizes.push_back(mb * util::kMB);
  }
  return sizes;
}

// ---------------------------------------------------------------------------

World::World(const WorldConfig& config)
    : config_(config),
      topo_(scenario_data().topo),
      routes_(&topo_, &scenario_data().routes) {
  // Per-run perturbation of shaper/policer rates (see WorldConfig): each
  // rate is the file's calibrated value times one draw.
  util::Rng jitter_rng(config.seed * 0x9e3779b97f4a7c15ull + 0xfeedbeef);
  for (const Jitter& jitter : scenario_data().jitter) {
    const double scale =
        jitter_rng.lognormal_mean_cv(1.0, config.rate_jitter_cv);
    bool ok = false;
    switch (jitter.rate) {
      case Rate::kMiddlebox: {
        const double rate = topo_.node(jitter.node).middlebox_per_flow_mbps;
        ok = topo_.set_middlebox(jitter.node, rate * scale).ok();
        break;
      }
      case Rate::kCapacity: {
        const double forward = topo_.link(jitter.forward).capacity_mbps;
        const double reverse = topo_.link(jitter.reverse).capacity_mbps;
        ok = topo_.set_link_capacity(jitter.forward, forward * scale).ok() &&
             topo_.set_link_capacity(jitter.reverse, reverse * scale).ok();
        break;
      }
      case Rate::kPolicer: {
        const double rate = topo_.link(jitter.forward).policer_per_flow_mbps;
        ok = topo_.set_link_policer(jitter.forward, rate * scale).ok();
        break;
      }
    }
    DROUTE_CHECK(ok, "scenario jitter produced an invalid rate");
  }
}

std::unique_ptr<World> World::create(const WorldConfig& config) {
  // Not make_unique: the constructor is private.
  std::unique_ptr<World> world(new World(config));  // lint: allow(raw-new)
  world->wire_services();
  if (config.cross_traffic) world->start_cross_traffic();
  return world;
}

void World::wire_services() {
  fabric_ = std::make_unique<net::Fabric>(&simulator_, &topo_, &routes_);
  transport_ = std::make_unique<transfer::SimTransport>(fabric_.get());
  xfer_ = std::make_unique<transfer::TransferEngine>(transport_.get());
  tracer_ = std::make_unique<trace::Tracer>(&topo_, &routes_);
  // The unknown hops of Figs 5/6: Google's peering edge and UAlberta's
  // private middle hop do not answer traceroute probes.
  tracer_->set_silent(node("peering-edge.google.com"));
  tracer_->set_silent(node("172-26-244-22.priv.ualberta.ca"));

  const std::map<cloud::ProviderKind, std::string> fronts = {
      {cloud::ProviderKind::kGoogleDrive, "sea15s01-in-f138.1e100.net"},
      {cloud::ProviderKind::kDropbox, "content.dropboxapi.com"},
      {cloud::ProviderKind::kOneDrive, "onedrive-fe.wns.windows.com"},
  };
  for (const auto& [kind, front] : fronts) {
    ProviderStack stack;
    stack.front_node = node(front);
    stack.server = std::make_unique<cloud::StorageServer>(
        kind, cloud::default_profile(kind));
    stack.server->set_clock([this] { return simulator_.now(); });
    stack.api = std::make_unique<transfer::ApiUploadEngine>(
        fabric_.get(), *xfer_, stack.server.get(), stack.front_node);
    stack.download = std::make_unique<transfer::ApiDownloadEngine>(
        fabric_.get(), *xfer_, stack.server.get(), stack.front_node);
    stack.detour = std::make_unique<transfer::DetourEngine>(
        fabric_.get(), *xfer_, stack.api.get(), stack.download.get());
    providers_.emplace(kind, std::move(stack));
  }
}

void World::start_cross_traffic() {
  util::Rng rng(config_.seed);
  const net::NodeId xgen = node("xgen.cc.purdue.edu");

  // Heavy: saturates the Purdue->Google commodity transit (Fig 7).
  {
    net::CrossTrafficProfile profile;
    profile.mean_interarrival_s = 2.6;
    profile.pareto_alpha = 1.2;
    profile.min_bytes = 400 * util::kKB;
    profile.max_bytes = 48 * util::kMB;
    cross_.push_back(std::make_unique<net::CrossTrafficSource>(
        fabric_.get(), xgen, node("xsink.commodity-g.net"), profile,
        rng.fork(1)));
  }
  // Medium: Purdue->OneDrive transit (Fig 9).
  {
    net::CrossTrafficProfile profile;
    profile.mean_interarrival_s = 2.4;
    profile.pareto_alpha = 1.25;
    profile.min_bytes = 400 * util::kKB;
    profile.max_bytes = 40 * util::kMB;
    cross_.push_back(std::make_unique<net::CrossTrafficSource>(
        fabric_.get(), xgen, node("xsink.commodity-m.net"), profile,
        rng.fork(2)));
  }
  // Light: Purdue campus egress to Internet2 (Fig 8's jitter and the
  // detour legs' variance).
  {
    net::CrossTrafficProfile profile;
    profile.mean_interarrival_s = 2.6;
    profile.pareto_alpha = 1.25;
    profile.min_bytes = 250 * util::kKB;
    profile.max_bytes = 32 * util::kMB;
    cross_.push_back(std::make_unique<net::CrossTrafficSource>(
        fabric_.get(), xgen, node("xsink.internet2.edu"), profile,
        rng.fork(3)));
  }
  // Downloads cross the commodity links in the opposite direction; give
  // those directions their own (lighter) background load.
  {
    net::CrossTrafficProfile profile;
    profile.mean_interarrival_s = 3.2;
    profile.pareto_alpha = 1.2;
    profile.min_bytes = 400 * util::kKB;
    profile.max_bytes = 48 * util::kMB;
    cross_.push_back(std::make_unique<net::CrossTrafficSource>(
        fabric_.get(), node("xsink.commodity-g.net"), xgen, profile,
        rng.fork(4)));
  }
  {
    net::CrossTrafficProfile profile;
    profile.mean_interarrival_s = 3.2;
    profile.pareto_alpha = 1.25;
    profile.min_bytes = 400 * util::kKB;
    profile.max_bytes = 40 * util::kMB;
    cross_.push_back(std::make_unique<net::CrossTrafficSource>(
        fabric_.get(), node("xsink.commodity-m.net"), xgen, profile,
        rng.fork(5)));
  }
  for (auto& source : cross_) source->start();
}

void World::warm_up() {
  if (warmed_up_) return;
  warmed_up_ = true;
  if (config_.cross_traffic && config_.warmup_s > 0.0) {
    simulator_.run_until(simulator_.now() + config_.warmup_s);
  }
}

net::NodeId World::node(const std::string& name) const {
  return must_find_node(topo_, name);
}

net::NodeId World::client_node(Client client) const {
  switch (client) {
    case Client::kUBC:    return node("planetlab1.cs.ubc.ca");
    case Client::kPurdue: return node("planetlab1.cs.purdue.edu");
    case Client::kUCLA:   return node("planetlab1.ucla.edu");
  }
  DROUTE_CHECK(false, "bad client");
  return net::kInvalidNode;
}

net::NodeId World::intermediate_node(Intermediate inter) const {
  switch (inter) {
    case Intermediate::kUAlberta: return node("cluster.cs.ualberta.ca");
    case Intermediate::kUMich:    return node("planetlab01.eecs.umich.edu");
  }
  DROUTE_CHECK(false, "bad intermediate");
  return net::kInvalidNode;
}

net::NodeId World::provider_node(cloud::ProviderKind kind) const {
  return providers_.at(kind).front_node;
}

cloud::StorageServer& World::server(cloud::ProviderKind kind) {
  return *providers_.at(kind).server;
}

transfer::ApiUploadEngine& World::api_engine(cloud::ProviderKind kind) {
  return *providers_.at(kind).api;
}

transfer::DetourEngine& World::detour_engine(cloud::ProviderKind kind) {
  return *providers_.at(kind).detour;
}

transfer::ApiDownloadEngine& World::download_engine(cloud::ProviderKind kind) {
  return *providers_.at(kind).download;
}

ctrl::PathSpec World::path_of(RouteChoice route) const {
  switch (route) {
    case RouteChoice::kDirect:      return {};
    case RouteChoice::kViaUAlberta:
      return {{intermediate_node(Intermediate::kUAlberta)}};
    case RouteChoice::kViaUMich:
      return {{intermediate_node(Intermediate::kUMich)}};
  }
  DROUTE_CHECK(false, "bad route");
  return {};
}

util::Result<std::string> World::stage_object(cloud::ProviderKind provider,
                                              std::uint64_t bytes) {
  warm_up();
  transfer::FileSpec file = transfer::make_file_mb(
      std::max<std::uint64_t>(1, bytes / util::kMB),
      config_.seed ^ ++upload_counter_ ^ 0x57a6e);
  file.bytes = bytes;

  auto task = api_engine(provider).upload_task(
      intermediate_node(Intermediate::kUAlberta), file);
  if (!sim::drive(simulator_, task, kForegroundDeadlineS)) {
    return util::Error::make("stage_object did not finish (deadline)");
  }
  const auto& joined = task.result();
  if (!joined.ok()) {
    return util::Error::make("stage_object failed: " + joined.error().message);
  }
  if (!joined.value().success) {
    return util::Error::make("stage_object failed: " + joined.value().error);
  }
  return file.name;
}

util::Result<double> World::run_download(Client client,
                                         cloud::ProviderKind provider,
                                         RouteChoice route,
                                         const std::string& name) {
  warm_up();
  util::Result<double> elapsed =
      util::Error::make("download did not finish (deadline)");
  auto task = detour_engine(provider).download_task(client_node(client),
                                                    path_of(route), name);
  if (sim::drive(simulator_, task, kForegroundDeadlineS)) {
    elapsed = fold_elapsed(task.result());
  }
  for (auto& source : cross_) source->stop();
  return elapsed;
}

util::Result<double> World::run_upload(Client client,
                                       cloud::ProviderKind provider,
                                       RouteChoice route, std::uint64_t bytes,
                                       transfer::DetourMode mode) {
  warm_up();
  const net::NodeId src = client_node(client);
  const transfer::FileSpec file = transfer::make_file_mb(
      bytes / util::kMB == 0 ? 1 : bytes / util::kMB,
      config_.seed ^ ++upload_counter_);
  transfer::FileSpec sized = file;
  sized.bytes = bytes;  // honor exact byte counts (not only whole MB)

  util::Result<double> elapsed =
      util::Error::make("transfer did not finish (deadline)");

  transfer::DetourOptions options;
  // Pipelining overlaps a relay's two legs; the direct route has none.
  if (route != RouteChoice::kDirect) options.mode = mode;
  auto task = detour_engine(provider).transfer_task(src, path_of(route),
                                                    sized, options);
  if (sim::drive(simulator_, task, kForegroundDeadlineS)) {
    elapsed = fold_elapsed(task.result());
  }
  for (auto& source : cross_) source->stop();
  return elapsed;
}

util::Result<double> World::run_rsync(const std::string& src_node,
                                      const std::string& dst_node,
                                      std::uint64_t bytes) {
  warm_up();
  transfer::RsyncEngine engine(fabric_.get(), *xfer_);
  transfer::FileSpec file = transfer::make_file_mb(1, config_.seed);
  file.bytes = bytes;

  util::Result<double> elapsed =
      util::Error::make("rsync did not finish (deadline)");
  auto task = engine.push_task(node(src_node), node(dst_node), file);
  if (sim::drive(simulator_, task, kForegroundDeadlineS)) {
    elapsed = fold_elapsed(task.result());
  }
  for (auto& source : cross_) source->stop();
  return elapsed;
}

ctrl::Controller& World::make_controller(cloud::ProviderKind provider,
                                         ctrl::ControllerConfig config) {
  auto controller =
      std::make_unique<ctrl::Controller>(simulator_, *xfer_, routes_, config);
  controller->set_provider(provider_node(provider));
  for (const Client client : all_clients()) {
    controller->add_client(client_node(client));
  }
  controller->add_relay(intermediate_node(Intermediate::kUAlberta));
  controller->add_relay(intermediate_node(Intermediate::kUMich));
  controllers_.push_back(std::move(controller));
  return *controllers_.back();
}

util::Result<double> World::run_steered_upload(cloud::ProviderKind provider,
                                               ctrl::Steering& steering,
                                               Client client,
                                               std::uint64_t bytes) {
  warm_up();
  const net::NodeId src = client_node(client);
  transfer::FileSpec file = transfer::make_file_mb(
      bytes / util::kMB == 0 ? 1 : bytes / util::kMB,
      config_.seed ^ ++upload_counter_);
  file.bytes = bytes;

  util::Result<double> elapsed =
      util::Error::make("steered upload did not finish (deadline)");
  auto task = detour_engine(provider).steered_task(src, file, steering);
  if (sim::drive(simulator_, task, kForegroundDeadlineS)) {
    elapsed = fold_elapsed(task.result());
  }
  return elapsed;
}

measure::TransferFn make_transfer_fn(Client client,
                                     cloud::ProviderKind provider,
                                     RouteChoice route, WorldConfig base) {
  return [=](std::uint64_t bytes, std::uint64_t run_seed)
             -> util::Result<double> {
    WorldConfig config = base;
    config.seed = run_seed;
    auto world = World::create(config);
    return world->run_upload(client, provider, route, bytes);
  };
}

measure::TransferFn make_download_fn(Client client,
                                     cloud::ProviderKind provider,
                                     RouteChoice route, WorldConfig base) {
  return [=](std::uint64_t bytes, std::uint64_t run_seed)
             -> util::Result<double> {
    WorldConfig config = base;
    config.seed = run_seed;
    auto world = World::create(config);
    auto name = world->stage_object(provider, bytes);
    if (!name.ok()) return util::Error{name.error()};
    return world->run_download(client, provider, route, name.value());
  };
}

measure::TransferFn make_rsync_fn(std::string src_node, std::string dst_node,
                                  WorldConfig base) {
  return [src = std::move(src_node), dst = std::move(dst_node), base](
             std::uint64_t bytes,
             std::uint64_t run_seed) -> util::Result<double> {
    WorldConfig config = base;
    config.seed = run_seed;
    auto world = World::create(config);
    return world->run_rsync(src, dst, bytes);
  };
}

}  // namespace droute::scenario
