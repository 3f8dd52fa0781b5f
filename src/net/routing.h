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
//
// Shared routes. Routes read only link delays and enabled bits, AS
// relationships, node tags and overrides; never capacities, policers,
// middleboxes or loss. So topology copies that differ only in rates route
// identically, and their tables can share one RouteSnapshot built over the
// original: each table answers route(), as_path() and route_origin() from
// the snapshot until its first invalidate(), then routes privately over its
// own copy (copy-on-write). Rate queries (path_loss, min_policer_mbps, ...)
// always read the table's own topology.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
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

class RouteSnapshot;

class RouteTable {
 public:
  /// Routes privately over `topo`.
  explicit RouteTable(const Topology* topo) : topo_(topo) {}

  /// Answers routing queries from `shared` until the first invalidate().
  /// `topo` must be a copy of the snapshot's topology that differs from it
  /// at most in rates (capacities, policers, middleboxes), so that routing
  /// over either gives the same answers.
  RouteTable(const Topology* topo, const RouteSnapshot* shared);

  // Not copyable: the memo points into this table's own stores.
  RouteTable(const RouteTable&) = delete;
  RouteTable& operator=(const RouteTable&) = delete;
  RouteTable(RouteTable&&) = default;
  RouteTable& operator=(RouteTable&&) = default;

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
  /// Cache contract: a pair is expanded once and its outcome cached,
  /// failures included, so an unroutable pair is not re-expanded (nor its
  /// error text rebuilt) on every call. While the table reads a snapshot,
  /// the expansion happens there, once per process for all of its tables;
  /// after invalidate() this table expands on its own topology.
  ///
  /// Lifetime: the returned answer is immutable and is never freed while
  /// this table lives (a snapshot's answers live as long as the snapshot).
  /// invalidate() retires the cached answers rather than freeing them: a
  /// later route() of the pair may return a different object, but every
  /// reference and `&route.value()` pointer handed out earlier stays valid,
  /// and its value unchanged. Flows hold their route by such a pointer
  /// (FlowStats::route). Answers change only at invalidate(), so call it
  /// after any set_link_enabled().
  [[nodiscard]]
  const util::Result<Route>& route(NodeId src, NodeId dst) const;

  /// Forgets every cached answer and the snapshot, if any (topology
  /// changed), and bumps generation(). From here on the table routes
  /// privately over its own topology; its snapshot's other readers are
  /// unaffected.
  void invalidate();

  /// Number of invalidate() calls so far. route() answers are fixed while
  /// it stays put, so a caller may cache anything derived from them keyed
  /// by this value.
  std::uint64_t generation() const { return generation_; }

  /// Routes this table expanded itself, retired ones included (0 while it
  /// reads a snapshot).
  std::size_t routes_expanded() const { return own_routes_.size(); }

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
  using BgpTable = std::vector<BgpEntry>;

  // Per destination AS: entry for every AS. Built on demand (by the
  // snapshot while the table reads one).
  const BgpTable& bgp_table(AsId dst_as) const;

  // The uncached BGP computation behind bgp_table().
  BgpTable build_bgp_table(AsId dst_as) const;

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
  // Answers queries until the first invalidate(); null from then on, and
  // for a table built without one.
  const RouteSnapshot* shared_ = nullptr;
  std::uint64_t generation_ = 0;
  // The memo: every answer this table has given since the last
  // invalidate(), keyed by destination AS and by (src << 32 | dst). Each
  // points into shared_ or into the stores below.
  mutable std::map<AsId, const BgpTable*> bgp_cache_;
  mutable std::unordered_map<std::uint64_t, const util::Result<Route>*>
      route_cache_;
  // What this table computed itself; a deque never moves its elements.
  // invalidate() frees the BGP tables but only retires the routes, which
  // flows may still point at.
  mutable std::deque<BgpTable> own_bgp_;
  mutable std::deque<util::Result<Route>> own_routes_;
};

/// One topology's routes and BGP tables, computed lazily and then never
/// changed, shared by every RouteTable built over a rate-only copy of it.
/// Thread-safe: tables on different threads may query it at once. A table
/// takes the lock only on a miss in its own memo, so a pair costs each
/// table one locked lookup, and the snapshot one expansion in all.
class RouteSnapshot {
 public:
  /// `topo` must outlive the snapshot and never change.
  explicit RouteSnapshot(const Topology* topo) : table_(topo) {}

  RouteSnapshot(const RouteSnapshot&) = delete;
  RouteSnapshot& operator=(const RouteSnapshot&) = delete;

  /// Distinct pairs expanded so far (a work count for tests).
  std::size_t routes_expanded() const;

 private:
  friend class RouteTable;

  mutable std::mutex mu_;
  RouteTable table_;  // guarded by mu_; never invalidated
};

}  // namespace droute::net
