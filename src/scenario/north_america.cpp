#include "scenario/north_america.h"

#include <utility>

#include "check/contract.h"
#include "cloud/oauth.h"
#include "geo/geo.h"
#include "scenario/foreground.h"
#include "sim/task.h"
#include "transfer/rsync_engine.h"
#include "transfer/steered.h"
#include "util/logging.h"
#include "util/units.h"

namespace droute::scenario {

namespace {

// --- Calibration constants (DESIGN.md §5 maps each to a paper number). ---

// PlanetLab per-slice shaping at each site (per-flow middlebox ceiling).
constexpr double kUbcSliceMbps = 44.0;     // UBC->UAlberta ~19 s / 100 MB
constexpr double kUmichSliceMbps = 75.0;   // UMich->GDrive fastest (~11.5 s)
constexpr double kPurdueSliceMbps = 4.9;   // Purdue->Dropbox ~178 s / 100 MB
constexpr double kUclaSliceMbps = 1.6;     // UCLA last mile (Figs 10/11)

// The policed PacificWave egress UBC's Google traffic is forced onto.
constexpr double kPacificWavePolicerMbps = 9.3;  // UBC->GDrive ~87 s / 100 MB

// The CANARIE -> Internet2 peering policer (PlanetLab-to-PlanetLab traffic
// from UBC toward Michigan crawls; Sec III-A "uploads from UBC to UMich are
// too slow").
constexpr double kCanarieI2PolicerMbps = 6.9;

// UAlberta research uplink (gsb-asr <-> Cybera).
constexpr double kUAlbertaUplinkMbps = 50.0;  // UAlberta->GDrive ~17 s

// Purdue's congested commodity links (Google, OneDrive) and campus egress.
// The Google transit runs near saturation under heavy-tailed cross traffic
// (foreground fair share ~1-1.5 Mbps -> Table III's ~750 s / 100 MB); the
// Microsoft transit is moderately loaded (~2-3 Mbps -> Fig 9's ~390 s).
constexpr double kPurdueGoogleTransitMbps = 6.0;
constexpr double kPurdueMsftTransitMbps = 7.5;
constexpr double kPurdueI2EgressMbps = 9.5;

// UCLA's commodity peering toward Internet2 is lossy (via-UMich drag).
constexpr double kCwI2Loss = 0.03;

constexpr double kWide = 10000.0;   // effectively-unconstrained backbone Mbps
constexpr double kCampus = 1000.0;  // campus LAN Mbps

}  // namespace

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
    : config_(config), routes_(&topo_) {}

std::unique_ptr<World> World::create(const WorldConfig& config) {
  // Not make_unique: the constructor is private.
  std::unique_ptr<World> world(new World(config));  // lint: allow(raw-new)
  world->build_topology();
  world->wire_services();
  if (config.cross_traffic) world->start_cross_traffic();
  return world;
}

void World::build_topology() {
  using geo::Coord;
  net::Topology::Builder b;

  // Per-run perturbation of shaper/policer rates (see WorldConfig). Draws
  // happen in a fixed order, so a given seed always builds the same world.
  util::Rng jitter_rng(config_.seed * 0x9e3779b97f4a7c15ull + 0xfeedbeef);
  auto jit = [&](double rate_mbps) {
    return rate_mbps *
           jitter_rng.lognormal_mean_cv(1.0, config_.rate_jitter_cv);
  };

  // --- Autonomous systems -------------------------------------------------
  const net::AsId as_ubc = b.add_as("UBC");
  const net::AsId as_ua = b.add_as("UAlberta");
  const net::AsId as_umich = b.add_as("UMich");
  const net::AsId as_purdue = b.add_as("Purdue");
  const net::AsId as_ucla = b.add_as("UCLA");
  const net::AsId as_bcnet = b.add_as("BCnet");
  const net::AsId as_cybera = b.add_as("Cybera");
  const net::AsId as_canarie = b.add_as("CANARIE");
  const net::AsId as_pwave = b.add_as("PacificWave");
  const net::AsId as_i2 = b.add_as("Internet2");
  const net::AsId as_cw = b.add_as("CommodityWest");
  const net::AsId as_cg = b.add_as("CommodityG");
  const net::AsId as_cm = b.add_as("CommodityM");
  const net::AsId as_google = b.add_as("Google");
  const net::AsId as_dropbox = b.add_as("Dropbox");
  const net::AsId as_msft = b.add_as("Microsoft");

  // Gao-Rexford relationships. relate(a, b, rel) declares what b is to a.
  b.relate(as_bcnet, as_ubc, net::AsRelation::kCustomer);
  b.relate(as_canarie, as_bcnet, net::AsRelation::kCustomer);
  b.relate(as_cybera, as_ua, net::AsRelation::kCustomer);
  b.relate(as_canarie, as_cybera, net::AsRelation::kCustomer);
  b.relate(as_i2, as_umich, net::AsRelation::kCustomer);
  b.relate(as_i2, as_purdue, net::AsRelation::kCustomer);
  b.relate(as_cg, as_purdue, net::AsRelation::kCustomer);
  b.relate(as_cm, as_purdue, net::AsRelation::kCustomer);
  b.relate(as_cw, as_ucla, net::AsRelation::kCustomer);
  b.relate(as_canarie, as_i2, net::AsRelation::kPeer);
  b.relate(as_canarie, as_pwave, net::AsRelation::kPeer);
  b.relate(as_pwave, as_google, net::AsRelation::kPeer);
  b.relate(as_canarie, as_google, net::AsRelation::kPeer);
  b.relate(as_canarie, as_dropbox, net::AsRelation::kPeer);
  b.relate(as_canarie, as_msft, net::AsRelation::kPeer);
  b.relate(as_i2, as_google, net::AsRelation::kPeer);
  b.relate(as_i2, as_dropbox, net::AsRelation::kPeer);
  b.relate(as_i2, as_msft, net::AsRelation::kPeer);
  b.relate(as_cw, as_google, net::AsRelation::kPeer);
  b.relate(as_cw, as_dropbox, net::AsRelation::kPeer);
  b.relate(as_cw, as_msft, net::AsRelation::kPeer);
  b.relate(as_cw, as_i2, net::AsRelation::kPeer);
  b.relate(as_cw, as_canarie, net::AsRelation::kPeer);
  b.relate(as_cg, as_google, net::AsRelation::kPeer);
  b.relate(as_cm, as_msft, net::AsRelation::kPeer);

  // --- Locations ----------------------------------------------------------
  const Coord vancouver{49.26, -123.25};
  const Coord edmonton{53.52, -113.52};
  const Coord ann_arbor{42.29, -83.72};
  const Coord west_lafayette{40.43, -86.92};
  const Coord los_angeles{34.07, -118.44};
  const Coord seattle{47.61, -122.33};
  const Coord mountain_view{37.42, -122.08};
  const Coord ashburn{39.04, -77.49};
  const Coord chicago{41.88, -87.63};
  const Coord denver{39.74, -104.99};

  // --- UBC (Fig 5's hop names) --------------------------------------------
  const auto ubc_pl = b.add_host(as_ubc, "planetlab1.cs.ubc.ca", vancouver,
                                 "Vancouver, BC", "planetlab");
  const auto ubc_gw = b.add_router(as_ubc, "cs-gw.net.ubc.ca", vancouver,
                                   "Vancouver, BC");
  const auto ubc_a0 = b.add_router(as_ubc, "a0-a1.net.ubc.ca", vancouver,
                                   "Vancouver, BC");
  const auto ubc_border = b.add_router(as_ubc, "anguborder-a0.net.ubc.ca",
                                       vancouver, "Vancouver, BC");
  b.middlebox(ubc_gw, jit(kUbcSliceMbps));  // PlanetLab slice shaping
  b.add_duplex(ubc_pl, ubc_gw, kCampus, util::ms(0.2));
  b.add_duplex(ubc_gw, ubc_a0, kWide, util::ms(0.2));
  b.add_duplex(ubc_a0, ubc_border, kWide, util::ms(0.2));

  // --- BCnet --------------------------------------------------------------
  const auto bcnet = b.add_router(as_bcnet, "345-IX-cr1-UBCAb.vncv1.BC.net",
                                  vancouver, "Vancouver, BC");
  b.add_duplex(ubc_border, bcnet, kWide, util::ms(0.3));

  // --- CANARIE ------------------------------------------------------------
  const auto vncv1 = b.add_router(as_canarie, "vncv1rtr2.canarie.ca",
                                  vancouver, "Vancouver, BC");
  const auto edmn1 = b.add_router(as_canarie, "edmn1rtr2.canarie.ca",
                                  edmonton, "Edmonton, AB");
  b.add_duplex(bcnet, vncv1, kWide, util::ms(0.4));
  b.add_duplex_geo(vncv1, edmn1, kWide);

  // --- UAlberta + Cybera (Fig 6's hop names) -------------------------------
  const auto ua_cluster = b.add_host(as_ua, "cluster.cs.ualberta.ca",
                                     edmonton, "Edmonton, AB");
  const auto ua_fw = b.add_router(as_ua, "ww-fw.cs.ualberta.ca", edmonton,
                                  "Edmonton, AB");
  const auto ua_priv = b.add_router(as_ua, "172-26-244-22.priv.ualberta.ca",
                                    edmonton, "Edmonton, AB");
  const auto ua_core = b.add_router(as_ua, "core1-sc.backbone.ualberta.ca",
                                    edmonton, "Edmonton, AB");
  const auto ua_gsb = b.add_router(as_ua, "gsb-asr-core1.backbone.ualberta.ca",
                                   edmonton, "Edmonton, AB");
  const auto cybera = b.add_router(as_cybera, "uofa-p-1-edm.cybera.ca",
                                   edmonton, "Edmonton, AB");
  b.add_duplex(ua_cluster, ua_fw, kCampus, util::ms(0.1));
  b.add_duplex(ua_fw, ua_priv, kWide, util::ms(0.1));
  b.add_duplex(ua_priv, ua_core, kWide, util::ms(0.1));
  b.add_duplex(ua_core, ua_gsb, kWide, util::ms(0.1));
  b.add_duplex(ua_gsb, cybera, jit(kUAlbertaUplinkMbps), util::ms(0.3));
  b.add_duplex(cybera, edmn1, kWide, util::ms(0.2));

  // --- Internet2 ----------------------------------------------------------
  const auto i2_chi = b.add_router(as_i2, "et-1-1-5.4079.core1.chic.net.internet2.edu",
                                   chicago, "Chicago, IL");
  // CANARIE <-> Internet2 peering; the CANARIE->I2 direction carries the
  // per-flow policer behind the UBC->UMich crawl.
  b.add_link(vncv1, i2_chi, kWide,
             geo::propagation_delay_s(vancouver, chicago),
             {.loss_rate = 0.0,
              .policer_per_flow_mbps = jit(kCanarieI2PolicerMbps)});
  b.add_link(i2_chi, vncv1, kWide,
             geo::propagation_delay_s(vancouver, chicago));

  // --- UMich --------------------------------------------------------------
  const auto umich_pl = b.add_host(as_umich, "planetlab01.eecs.umich.edu",
                                   ann_arbor, "Ann Arbor, MI", "planetlab");
  const auto umich_gw = b.add_router(as_umich, "pl-gw.umich.edu", ann_arbor,
                                     "Ann Arbor, MI");
  const auto umich_border = b.add_router(as_umich, "bin-arb.umich.edu",
                                         ann_arbor, "Ann Arbor, MI");
  b.middlebox(umich_gw, jit(kUmichSliceMbps));
  b.add_duplex(umich_pl, umich_gw, kCampus, util::ms(0.2));
  b.add_duplex(umich_gw, umich_border, kWide, util::ms(0.2));
  b.add_duplex_geo(umich_border, i2_chi, kWide);

  // --- Purdue -------------------------------------------------------------
  const auto purdue_pl = b.add_host(as_purdue, "planetlab1.cs.purdue.edu",
                                    west_lafayette, "West Lafayette, IN",
                                    "planetlab");
  const auto purdue_gw = b.add_router(as_purdue, "pl-gw.purdue.edu",
                                      west_lafayette, "West Lafayette, IN");
  const auto purdue_border = b.add_router(as_purdue, "tel-210.purdue.edu",
                                          west_lafayette, "West Lafayette, IN");
  b.middlebox(purdue_gw, jit(kPurdueSliceMbps));
  b.add_duplex(purdue_pl, purdue_gw, kCampus, util::ms(0.2));
  b.add_duplex(purdue_gw, purdue_border, kWide, util::ms(0.2));
  // Campus egress to Internet2: modest capacity shared with cross traffic.
  b.add_duplex(purdue_border, i2_chi, jit(kPurdueI2EgressMbps),
               geo::propagation_delay_s(west_lafayette, chicago));

  // --- Purdue's commodity transits (congested; Figs 7-9) -------------------
  const auto cg_rtr = b.add_router(as_cg, "ae-3.cr1.commodity-g.net", chicago,
                                   "Chicago, IL");
  const auto cm_rtr = b.add_router(as_cm, "ae-7.cr2.commodity-m.net", denver,
                                   "Denver, CO");
  b.add_duplex(purdue_border, cg_rtr, jit(kPurdueGoogleTransitMbps),
               geo::propagation_delay_s(west_lafayette, chicago));
  b.add_duplex(purdue_border, cm_rtr, jit(kPurdueMsftTransitMbps),
               geo::propagation_delay_s(west_lafayette, denver));

  // --- UCLA + CommodityWest ------------------------------------------------
  const auto ucla_pl = b.add_host(as_ucla, "planetlab1.ucla.edu", los_angeles,
                                  "Los Angeles, CA", "planetlab");
  const auto ucla_gw = b.add_router(as_ucla, "pl-gw.ucla.edu", los_angeles,
                                    "Los Angeles, CA");
  const auto ucla_border = b.add_router(as_ucla, "border.ucla.edu",
                                        los_angeles, "Los Angeles, CA");
  const auto cw_rtr = b.add_router(as_cw, "lax1.cr1.commodity-west.net",
                                   los_angeles, "Los Angeles, CA");
  b.middlebox(ucla_gw, jit(kUclaSliceMbps));
  b.add_duplex(ucla_pl, ucla_gw, kCampus, util::ms(0.2));
  b.add_duplex(ucla_gw, ucla_border, kWide, util::ms(0.2));
  b.add_duplex(ucla_border, cw_rtr, kWide, util::ms(0.3));
  // Lossy commodity<->research peering (drags UCLA's via-UMich detour).
  b.add_link(cw_rtr, i2_chi, kWide,
             geo::propagation_delay_s(los_angeles, chicago),
             {.loss_rate = kCwI2Loss, .policer_per_flow_mbps = 0.0});
  b.add_link(i2_chi, cw_rtr, kWide,
             geo::propagation_delay_s(los_angeles, chicago));
  b.add_duplex(cw_rtr, vncv1, kWide,
               geo::propagation_delay_s(los_angeles, vancouver));

  // --- PacificWave + Google (Figs 5/6) -------------------------------------
  const auto pwave = b.add_router(
      as_pwave, "google-1-lo-std-707.sttlwa.pacificwave.net", seattle,
      "Seattle, WA");
  const auto g_unknown = b.add_router(as_google, "peering-edge.google.com",
                                      seattle, "Seattle, WA");
  const auto g_bb1 = b.add_router(as_google, "209-85-249-32.google.com",
                                  seattle, "Seattle, WA");
  const auto g_bb2 = b.add_router(as_google, "216-239-51-159.google.com",
                                  mountain_view, "Mountain View, CA");
  const auto g_fe = b.add_host(as_google, "sea15s01-in-f138.1e100.net",
                               mountain_view, "Mountain View, CA", "cloud");
  // The policed PacificWave egress (per-flow rate limit).
  b.add_link(vncv1, pwave, kWide,
             geo::propagation_delay_s(vancouver, seattle),
             {.loss_rate = 0.0,
              .policer_per_flow_mbps = jit(kPacificWavePolicerMbps)});
  // The return direction is policed symmetrically: the paper measured
  // uploads only, but the rate-limited-middlebox hypothesis (Sec III-D)
  // applies to the hop, not a direction, so downloads suffer equally.
  b.add_link(pwave, vncv1, kWide,
             geo::propagation_delay_s(vancouver, seattle),
             {.loss_rate = 0.0,
              .policer_per_flow_mbps = jit(kPacificWavePolicerMbps)});
  b.add_duplex(pwave, g_bb1, kWide, util::ms(0.3));
  // The direct CANARIE<->Google peering (Fig 6's "* * *" hop).
  b.add_duplex(vncv1, g_unknown, kWide,
               geo::propagation_delay_s(vancouver, seattle));
  b.add_duplex(g_unknown, g_bb1, kWide, util::ms(0.2));
  b.add_duplex_geo(g_bb1, g_bb2, kWide);
  b.add_duplex(g_bb2, g_fe, kWide, util::ms(0.2));
  // Internet2 and CommodityWest / CommodityG peer with Google in Seattle.
  b.add_duplex_geo(i2_chi, g_bb1, kWide);
  b.add_duplex_geo(cw_rtr, g_bb1, kWide);
  b.add_duplex_geo(cg_rtr, g_bb1, kWide);

  // --- Dropbox (Ashburn, VA) ------------------------------------------------
  const auto db_edge = b.add_router(as_dropbox, "edge1.iad.dropbox.com",
                                    ashburn, "Ashburn, VA");
  const auto db_fe = b.add_host(as_dropbox, "content.dropboxapi.com", ashburn,
                                "Ashburn, VA", "cloud");
  b.add_duplex(db_edge, db_fe, kWide, util::ms(0.2));
  b.add_duplex_geo(vncv1, db_edge, kWide);
  b.add_duplex_geo(i2_chi, db_edge, kWide);
  b.add_duplex_geo(cw_rtr, db_edge, kWide);

  // --- Microsoft / OneDrive (Seattle, WA) ------------------------------------
  const auto ms_edge = b.add_router(as_msft, "msedge1.sea.microsoft.com",
                                    seattle, "Seattle, WA");
  const auto ms_fe = b.add_host(as_msft, "onedrive-fe.wns.windows.com",
                                seattle, "Seattle, WA", "cloud");
  b.add_duplex(ms_edge, ms_fe, kWide, util::ms(0.2));
  b.add_duplex_geo(vncv1, ms_edge, kWide);
  b.add_duplex_geo(i2_chi, ms_edge, kWide);
  b.add_duplex_geo(cw_rtr, ms_edge, kWide);
  b.add_duplex_geo(cm_rtr, ms_edge, kWide);

  // --- Cross-traffic endpoints ----------------------------------------------
  const auto xgen = b.add_host(as_purdue, "xgen.cc.purdue.edu",
                               west_lafayette, "West Lafayette, IN",
                               "xtraffic");
  const auto xsink_g = b.add_host(as_cg, "xsink.commodity-g.net", chicago,
                                  "Chicago, IL", "xtraffic");
  const auto xsink_m = b.add_host(as_cm, "xsink.commodity-m.net", denver,
                                  "Denver, CO", "xtraffic");
  const auto xsink_i2 = b.add_host(as_i2, "xsink.internet2.edu", chicago,
                                   "Chicago, IL", "xtraffic");
  b.add_duplex(xgen, purdue_border, kCampus, util::ms(0.1));
  b.add_duplex(xsink_g, cg_rtr, kCampus, util::ms(0.1));
  b.add_duplex(xsink_m, cm_rtr, kCampus, util::ms(0.1));
  b.add_duplex(xsink_i2, i2_chi, kCampus, util::ms(0.1));

  auto built = std::move(b).build();
  DROUTE_CHECK(built.ok(), "scenario topology invalid: " +
                               (built.ok() ? "" : built.error().message));
  topo_ = std::move(built).value();
  routes_.invalidate();

  for (std::size_t i = 0; i < topo_.node_count(); ++i) {
    names_[topo_.node(static_cast<net::NodeId>(i)).name] =
        static_cast<net::NodeId>(i);
  }

  // --- Policy-routing overrides (the paper's central artifact) -------------
  // PlanetLab traffic from UBC toward Google leaves CANARIE via the policed
  // PacificWave hop instead of the direct peering (Fig 5 vs Fig 6).
  {
    net::EgressOverride ov;
    ov.at = vncv1;
    ov.src_tag = "planetlab";
    ov.dst_as = as_google;
    ov.use_link = topo_.find_link(vncv1, pwave).value();
    routes_.add_override(ov);
  }
  // Purdue's PlanetLab traffic to Google and OneDrive rides congested
  // commodity transit rather than Internet2.
  {
    net::EgressOverride ov;
    ov.at = purdue_border;
    ov.src_tag = "planetlab";
    ov.dst_as = as_google;
    ov.use_link = topo_.find_link(purdue_border, cg_rtr).value();
    routes_.add_override(ov);
  }
  {
    net::EgressOverride ov;
    ov.at = purdue_border;
    ov.src_tag = "planetlab";
    ov.dst_as = as_msft;
    ov.use_link = topo_.find_link(purdue_border, cm_rtr).value();
    routes_.add_override(ov);
  }
  // Return-path symmetry for downloads: PlanetLab-prefix-destined traffic
  // leaving the providers takes the mirror-image of the problem paths.
  {
    net::EgressOverride ov;
    ov.at = node("209-85-249-32.google.com");
    ov.src_tag = "cloud";
    ov.dst_as = as_ubc;
    ov.use_link =
        topo_.find_link(node("209-85-249-32.google.com"),
                        node("google-1-lo-std-707.sttlwa.pacificwave.net"))
            .value();
    routes_.add_override(ov);
  }
  {
    net::EgressOverride ov;
    ov.at = node("209-85-249-32.google.com");
    ov.src_tag = "cloud";
    ov.dst_as = as_purdue;
    ov.use_link = topo_.find_link(node("209-85-249-32.google.com"),
                                  node("ae-3.cr1.commodity-g.net"))
                      .value();
    routes_.add_override(ov);
  }
  {
    net::EgressOverride ov;
    ov.at = node("msedge1.sea.microsoft.com");
    ov.src_tag = "cloud";
    ov.dst_as = as_purdue;
    ov.use_link = topo_.find_link(node("msedge1.sea.microsoft.com"),
                                  node("ae-7.cr2.commodity-m.net"))
                      .value();
    routes_.add_override(ov);
  }
}

void World::wire_services() {
  fabric_ = std::make_unique<net::Fabric>(&simulator_, &topo_, &routes_);
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
        fabric_.get(), stack.server.get(), stack.front_node);
    stack.detour = std::make_unique<transfer::DetourEngine>(fabric_.get(),
                                                            stack.api.get());
    stack.download = std::make_unique<transfer::ApiDownloadEngine>(
        fabric_.get(), stack.server.get(), stack.front_node);
    stack.detour_download = std::make_unique<transfer::DetourDownloadEngine>(
        fabric_.get(), stack.download.get());
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
  const auto it = names_.find(name);
  DROUTE_CHECK(it != names_.end(), "unknown scenario node: " + name);
  return it->second;
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

transfer::DetourDownloadEngine& World::detour_download_engine(
    cloud::ProviderKind kind) {
  return *providers_.at(kind).detour_download;
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
    return util::Error::make("stage_object failed: ");
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
  const net::NodeId dst = client_node(client);
  util::Result<double> elapsed =
      util::Error::make("download did not finish (deadline)");

  if (route == RouteChoice::kDirect) {
    auto task = download_engine(provider).download_task(dst, name);
    if (sim::drive(simulator_, task, kForegroundDeadlineS)) {
      elapsed = fold_elapsed(task.result());
    }
  } else {
    const net::NodeId via = intermediate_node(
        route == RouteChoice::kViaUAlberta ? Intermediate::kUAlberta
                                           : Intermediate::kUMich);
    auto task = detour_download_engine(provider).download_task(dst, via, name);
    if (sim::drive(simulator_, task, kForegroundDeadlineS)) {
      elapsed = fold_elapsed(task.result());
    }
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

  if (route == RouteChoice::kDirect) {
    auto task = api_engine(provider).upload_task(src, sized);
    if (sim::drive(simulator_, task, kForegroundDeadlineS)) {
      elapsed = fold_elapsed(task.result());
    }
  } else {
    const net::NodeId via = intermediate_node(
        route == RouteChoice::kViaUAlberta ? Intermediate::kUAlberta
                                           : Intermediate::kUMich);
    transfer::DetourOptions options;
    options.mode = mode;
    auto task = detour_engine(provider).transfer_task(src, via, sized, options);
    if (sim::drive(simulator_, task, kForegroundDeadlineS)) {
      elapsed = fold_elapsed(task.result());
    }
  }
  for (auto& source : cross_) source->stop();
  return elapsed;
}

util::Result<double> World::run_rsync(const std::string& src_node,
                                      const std::string& dst_node,
                                      std::uint64_t bytes) {
  warm_up();
  transfer::RsyncEngine engine(fabric_.get());
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
  auto controller = std::make_unique<ctrl::Controller>(simulator_, *fabric_,
                                                       routes_, config);
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

  transfer::SteeredUploadEngine engine(fabric_.get(), &api_engine(provider),
                                       &steering);
  util::Result<double> elapsed =
      util::Error::make("steered upload did not finish (deadline)");
  auto task = engine.upload_task(src, file);
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
