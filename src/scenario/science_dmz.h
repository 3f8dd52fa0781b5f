// The Science-DMZ scenario — the paper's other motivating design pattern
// (Dart et al. [2], cited in Sec I) and its stated future work: "expand the
// functionality of our routing detours to deal with firewall bottlenecks
// (like Science DMZ)".
//
// A campus where ordinary hosts sit behind a stateful firewall whose
// per-flow inspection throughput is far below the WAN capacity. The campus
// operates a DTN in a Science DMZ — a parallel enclave attached directly to
// the border router, bypassing the firewall. Bulk transfers therefore have
// two paths to the cloud front end:
//
//   direct:  lab host -> firewall (per-flow middlebox) -> border -> WAN
//   detour:  lab host -> (intra-campus, firewall-free research VLAN) -> DTN
//            -> border -> WAN     (the Science-DMZ pattern = a routing
//                                  detour whose intermediate is on-campus)
//
// Unlike the North-America scenario the inefficiency here is entirely
// self-inflicted and static — no policy overrides, no cross traffic — which
// isolates the middlebox mechanism for ablation.
#pragma once

#include <memory>
#include <string>

#include "cloud/provider.h"
#include "cloud/storage_server.h"
#include "net/fabric.h"
#include "net/routing.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "transfer/api_upload.h"
#include "transfer/detour.h"
#include "transfer/sim_transport.h"
#include "util/result.h"

namespace droute::scenario {

struct ScienceDmzConfig {
  /// Stateful-inspection ceiling per flow (the firewall bottleneck).
  double firewall_per_flow_mbps = 6.0;
  /// Campus uplink capacity (shared by DMZ and firewalled traffic).
  double uplink_mbps = 1000.0;
  /// Research VLAN capacity between lab hosts and the DTN.
  double vlan_mbps = 1000.0;
};

class ScienceDmzWorld {
 public:
  static std::unique_ptr<ScienceDmzWorld> create(
      const ScienceDmzConfig& config = {});

  ScienceDmzWorld(const ScienceDmzWorld&) = delete;
  ScienceDmzWorld& operator=(const ScienceDmzWorld&) = delete;

  sim::Simulator& simulator() { return simulator_; }
  net::Topology& topology() { return topo_; }
  net::Fabric& fabric() { return *fabric_; }
  cloud::StorageServer& server() { return *server_; }

  net::NodeId lab_host() const { return lab_host_; }
  net::NodeId dtn() const { return dtn_; }
  net::NodeId firewall() const { return firewall_; }

  /// Uploads `bytes` from the lab host to the cloud front end, directly
  /// (through the firewall) or via the DMZ DTN.
  enum class Path { kThroughFirewall, kViaDtn };
  [[nodiscard]] util::Result<double> run_upload(Path path, std::uint64_t bytes);

 private:
  explicit ScienceDmzWorld(const ScienceDmzConfig& config);
  void build();

  ScienceDmzConfig config_;
  sim::Simulator simulator_;
  net::Topology topo_;
  net::RouteTable routes_;
  std::unique_ptr<net::Fabric> fabric_;
  // The fabric's one batch layer; declared before the engines borrowing it.
  std::unique_ptr<transfer::SimTransport> transport_;
  std::unique_ptr<transfer::TransferEngine> xfer_;
  std::unique_ptr<cloud::StorageServer> server_;
  std::unique_ptr<transfer::ApiUploadEngine> api_;
  std::unique_ptr<transfer::DetourEngine> detour_;
  net::NodeId lab_host_ = net::kInvalidNode;
  net::NodeId dtn_ = net::kInvalidNode;
  net::NodeId firewall_ = net::kInvalidNode;
  net::NodeId front_ = net::kInvalidNode;
  std::uint64_t upload_counter_ = 0;
};

}  // namespace droute::scenario
