#include "scenario/science_dmz.h"

#include "check/contract.h"
#include "scenario/foreground.h"
#include "sim/task.h"
#include "transfer/file_spec.h"
#include "util/units.h"

namespace droute::scenario {

ScienceDmzWorld::ScienceDmzWorld(const ScienceDmzConfig& config)
    : config_(config), routes_(&topo_) {}

std::unique_ptr<ScienceDmzWorld> ScienceDmzWorld::create(
    const ScienceDmzConfig& config) {
  std::unique_ptr<ScienceDmzWorld> world(
      new ScienceDmzWorld(config));  // lint: allow(raw-new) private ctor
  world->build();
  return world;
}

void ScienceDmzWorld::build() {
  net::Topology::Builder b;
  const net::AsId campus = b.add_as("Campus");
  const net::AsId wan = b.add_as("RegionalWAN");
  const net::AsId cloud_as = b.add_as("Cloud");
  b.relate(wan, campus, net::AsRelation::kCustomer);
  b.relate(wan, cloud_as, net::AsRelation::kPeer);

  const geo::Coord here{44.97, -93.23};   // Minneapolis, for flavour
  const geo::Coord there{41.88, -87.63};  // Chicago

  lab_host_ = b.add_host(campus, "lab-host.campus.edu", here, "Campus");
  firewall_ = b.add_router(campus, "fw1.campus.edu", here, "Campus");
  const auto core = b.add_router(campus, "core1.campus.edu", here, "Campus");
  const auto border = b.add_router(campus, "border.campus.edu", here,
                                   "Campus");
  dtn_ = b.add_host(campus, "dtn1.dmz.campus.edu", here, "Campus (DMZ)");
  const auto wan_rtr = b.add_router(wan, "cr1.regional-wan.net", there,
                                    "Chicago, IL");
  const auto cloud_edge = b.add_router(cloud_as, "edge.cloud.example", there,
                                       "Chicago, IL");
  front_ = b.add_host(cloud_as, "fe.cloud.example", there, "Chicago, IL",
                      "cloud");

  // The stateful firewall: every flow through it is inspection-limited.
  b.middlebox(firewall_, config_.firewall_per_flow_mbps);

  // Default path (min delay): lab -> fw -> core -> border at 0.15 ms total,
  // so ordinary traffic to the border never shortcuts through the DTN
  // (0.3 ms via the VLAN). The VLAN is still the cheapest way to reach the
  // DTN itself (0.2 ms direct vs 0.25 ms through the firewall), so the
  // detour's first leg is firewall-free — the whole point of the DMZ.
  b.add_duplex(lab_host_, firewall_, 1000, util::ms(0.05));
  b.add_duplex(firewall_, core, 1000, util::ms(0.05));
  b.add_duplex(core, border, 1000, util::ms(0.05));
  b.add_duplex(lab_host_, dtn_, config_.vlan_mbps, util::ms(0.2));
  b.add_duplex(dtn_, border, 1000, util::ms(0.1));
  // Campus uplink and cloud peering.
  b.add_duplex(border, wan_rtr, config_.uplink_mbps,
               geo::propagation_delay_s(here, there));
  b.add_duplex(wan_rtr, cloud_edge, 10000, util::ms(0.5));
  b.add_duplex(cloud_edge, front_, 10000, util::ms(0.2));

  auto built = std::move(b).build();
  DROUTE_CHECK(built.ok(), "science DMZ topology invalid");
  topo_ = std::move(built).value();
  routes_.invalidate();

  fabric_ = std::make_unique<net::Fabric>(&simulator_, &topo_, &routes_);
  transport_ = std::make_unique<transfer::SimTransport>(fabric_.get());
  xfer_ = std::make_unique<transfer::TransferEngine>(transport_.get());
  server_ = std::make_unique<cloud::StorageServer>(
      cloud::ProviderKind::kGoogleDrive,
      cloud::default_profile(cloud::ProviderKind::kGoogleDrive));
  server_->set_clock([this] { return simulator_.now(); });
  api_ = std::make_unique<transfer::ApiUploadEngine>(fabric_.get(), *xfer_,
                                                     server_.get(), front_);
  detour_ = std::make_unique<transfer::DetourEngine>(fabric_.get(), *xfer_,
                                                     api_.get());
}

util::Result<double> ScienceDmzWorld::run_upload(Path path,
                                                 std::uint64_t bytes) {
  transfer::FileSpec file = transfer::make_file_mb(
      std::max<std::uint64_t>(1, bytes / util::kMB), ++upload_counter_);
  file.bytes = bytes;

  util::Result<double> elapsed = util::Error::make("upload did not finish");
  // The firewalled upload is the empty chain; the DMZ detour relays once.
  const ctrl::PathSpec chain = path == Path::kThroughFirewall
                                   ? ctrl::PathSpec{}
                                   : ctrl::PathSpec{{dtn_}};
  auto task = detour_->transfer_task(lab_host_, chain, file);
  if (sim::drive(simulator_, task, kForegroundDeadlineS)) {
    elapsed = fold_elapsed(task.result());
  }
  return elapsed;
}

}  // namespace droute::scenario
