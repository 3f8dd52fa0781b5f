// Two-level WAN routing.
//
// Level 1 — inter-domain, "BGP-lite": per destination AS, every AS selects a
// best route following standard policy routing:
//   * Gao–Rexford export rules (routes learned from customers are exported to
//     everybody; routes learned from peers/providers only to customers),
//   * selection preference customer > peer > provider, then shortest AS path,
//     then lowest next-hop AS id (deterministic tie-break).
// The resulting AS paths are valley-free by construction.
//
// Level 2 — node-level expansion: the AS path is expanded to a concrete
// node/link path by choosing, per AS hop, the egress gateway link that
// minimizes intra-AS propagation delay, with intra-AS segments routed by
// Dijkstra over link delay.
//
// Source-tag egress overrides model the paper's central routing artifact:
// traffic from PlanetLab-tagged sources is forced out a different egress
// (the policed PacificWave hop of Fig 5) than other traffic at the same
// router (the direct peering of Fig 6). Overrides are topology data
// (Topology::overrides()). An override may change the next AS; expansion then
// re-consults BGP from the forced link's far end.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/topology.h"
#include "util/result.h"

namespace droute::net {

/// A concrete forwarding path: nodes.size() == links.size() + 1.
struct Route {
  std::vector<NodeId> nodes;
  std::vector<LinkId> links;

  bool valid() const {
    return !nodes.empty() && nodes.size() == links.size() + 1;
  }
};

/// How an AS learned its best route toward a destination (selection order).
enum class RouteOrigin : std::uint8_t {
  kSelf = 0,      // destination is in this AS
  kCustomer = 1,  // learned from a customer
  kPeer = 2,      // learned from a peer
  kProvider = 3,  // learned from a provider
};

class RouteTable {
 public:
  explicit RouteTable(const Topology* topo) : topo_(topo) {}

  /// Best AS-level path src_as -> dst_as (inclusive), or error if the policy
  /// graph offers no valley-free route.
  [[nodiscard]]
  util::Result<std::vector<AsId>> as_path(AsId src_as, AsId dst_as) const;

  /// How `as` learned its route toward `dst_as` (for route inspection).
  [[nodiscard]]
  util::Result<RouteOrigin> route_origin(AsId as, AsId dst_as) const;

  /// Concrete node/link route from `src` to `dst`. Honors the source node's
  /// policy tag for egress overrides.
  ///
  /// Cache contract: the first query of a pair expands it and caches the
  /// outcome, failures included, so an unroutable pair is not re-expanded
  /// (nor its error text rebuilt) on every call. The returned reference
  /// points into that cache: it stays valid, and its value unchanged,
  /// across further route() calls on any pair, until the next invalidate()
  /// or the table's destruction. Bind it with `const auto&` and copy the
  /// Route only where it must outlive an invalidate(). Answers change only
  /// at invalidate(), so call it after any set_link_enabled().
  [[nodiscard]]
  const util::Result<Route>& route(NodeId src, NodeId dst) const;

  /// Drops all cached routes and BGP tables (topology changed) and bumps
  /// generation().
  void invalidate();

  /// Number of invalidate() calls so far. route() answers are fixed while
  /// it stays put, so a caller may cache anything derived from them keyed
  /// by this value.
  std::uint64_t generation() const { return generation_; }

  /// One-way propagation delay along a route (sum of link delays).
  double one_way_delay_s(const Route& route) const;

  /// End-to-end stationary loss probability along a route.
  double path_loss(const Route& route) const;

  /// Most restrictive per-flow policer on the route (0 = none).
  double min_policer_mbps(const Route& route) const;

  /// Most restrictive traversed middlebox per-flow ceiling (0 = none).
  /// Endpoints do not count: a middlebox constrains traffic *through* it.
  double min_middlebox_mbps(const Route& route) const;

  /// Raw capacity of the narrowest link (the no-contention rate bound).
  double bottleneck_capacity_mbps(const Route& route) const;

 private:
  struct BgpEntry {
    bool reachable = false;
    RouteOrigin origin = RouteOrigin::kSelf;
    std::uint32_t path_len = 0;  // number of AS hops to destination
    AsId next_as = kInvalidAs;
  };

  // Per destination AS: entry for every AS. Built on demand.
  const std::vector<BgpEntry>& bgp_table(AsId dst_as) const;

  // Dijkstra by delay within one AS over enabled links.
  [[nodiscard]]
  util::Result<Route> intra_as_route(NodeId src, NodeId dst) const;

  // Cheapest enabled inter-AS link from AS `from` into AS `to`, measured as
  // (intra-AS delay from `cur` to link.src) + link delay. Returns the link
  // and the intra-AS route reaching it.
  struct GatewayChoice {
    LinkId link = kInvalidLink;
    Route approach;  // cur .. link.src
  };
  [[nodiscard]]
  util::Result<GatewayChoice> pick_gateway(NodeId cur, AsId to) const;

  // The uncached expansion behind route().
  [[nodiscard]] util::Result<Route> expand_route(NodeId src, NodeId dst) const;

  const Topology* topo_;
  std::uint64_t generation_ = 0;
  mutable std::map<AsId, std::vector<BgpEntry>> bgp_cache_;
  // Keyed by (src << 32 | dst). Node-based, so references handed out by
  // route() survive later insertions.
  mutable std::unordered_map<std::uint64_t, util::Result<Route>> route_cache_;
};

}  // namespace droute::net
