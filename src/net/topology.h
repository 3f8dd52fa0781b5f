// WAN topology: autonomous systems, nodes (hosts/routers), directed links.
//
// The topology's *shape* is static during a simulation: nodes and links are
// never added or removed. Link attributes may be administratively mutated
// for fault injection — enabled/disabled (triggers re-routing), capacity and
// policer rewrites (chaos::Injector; callers must poke
// Fabric::reallocate_now() so in-flight allocations converge). All dynamic
// state (flows, allocations) lives in net::Fabric.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "geo/geo.h"
#include "geo/registry.h"
#include "util/result.h"

namespace droute::net {

using NodeId = std::int32_t;
using LinkId = std::int32_t;
using AsId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr LinkId kInvalidLink = -1;
inline constexpr AsId kInvalidAs = -1;

enum class NodeKind { kHost, kRouter };

/// Business relationship of an inter-AS adjacency, seen from the first AS.
enum class AsRelation {
  kCustomer,  // the other AS is our customer (we are paid to carry)
  kPeer,      // settlement-free peer
  kProvider,  // the other AS is our transit provider (we pay)
};

struct Node {
  NodeId id = kInvalidNode;
  std::string name;          // DNS-style name, e.g. "vncv1rtr2.canarie.ca"
  AsId as_id = kInvalidAs;
  NodeKind kind = NodeKind::kRouter;
  geo::Coord coord;
  geo::Ipv4 ip;              // assigned by Topology::Builder
  std::string tag;           // policy tag, e.g. "planetlab" (see routing.h)
  // Science-DMZ-style middlebox: per-flow throughput ceiling for traffic
  // traversing (not originating at) this node. 0 = no middlebox.
  double middlebox_per_flow_mbps = 0.0;
};

/// Policy-routing exception installed at one router: traffic from a matching
/// source toward `dst_as` leaves `at` through `use_link` instead of the
/// BGP-selected egress (see routing.h). A source matches when its tag equals
/// `src_tag` (if set) OR its address falls inside `src_prefix`/
/// `src_prefix_bits` (if prefix_bits > 0) — real policy routing matches on
/// source prefixes; tags are the scenario-authoring shorthand.
struct EgressOverride {
  NodeId at = kInvalidNode;     // router applying the policy
  std::string src_tag;          // matches Node::tag of the flow source
  geo::Ipv4 src_prefix{};       // alternative matcher: source address prefix
  int src_prefix_bits = 0;      // 0 = prefix matching disabled
  AsId dst_as = kInvalidAs;     // destination AS the policy applies to
  LinkId use_link = kInvalidLink;  // forced egress link from `at`

  bool matches_source(const Node& source) const;
};

struct As {
  AsId id = kInvalidAs;
  std::string name;  // e.g. "CANARIE", "PacificWave", "GoogleAS"
};

struct Link {
  LinkId id = kInvalidLink;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  double capacity_mbps = 0.0;   // shared fluid capacity
  double prop_delay_s = 0.0;    // one-way propagation
  double loss_rate = 0.0;       // stationary packet-loss probability
  // Per-flow policer (token bucket steady rate) applied to each flow that
  // crosses this link, independent of fair share. 0 = none. This is the
  // "rate-limited middlebox hop" hypothesis of Sec III-D (pacificwave).
  double policer_per_flow_mbps = 0.0;
  bool enabled = true;          // failure injection switch
};

class Topology {
 public:
  class Builder;

  const Node& node(NodeId id) const { return nodes_.at(static_cast<std::size_t>(id)); }
  const Link& link(LinkId id) const { return links_.at(static_cast<std::size_t>(id)); }
  const As& as_info(AsId id) const { return ases_.at(static_cast<std::size_t>(id)); }

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t link_count() const { return links_.size(); }
  std::size_t as_count() const { return ases_.size(); }

  /// Links leaving `node` (includes disabled links; callers filter).
  const std::vector<LinkId>& out_links(NodeId node) const {
    return out_links_.at(static_cast<std::size_t>(node));
  }

  /// Finds the enabled link src->dst, if any.
  std::optional<LinkId> find_link(NodeId src, NodeId dst) const;

  std::optional<NodeId> find_node(const std::string& name) const;

  /// AS-relationship of the adjacency first->second, if declared.
  std::optional<AsRelation> relation(AsId first, AsId second) const;

  /// All declared AS adjacencies as (first, second, relation-of-second-to-first).
  struct AsAdjacency {
    AsId first;
    AsId second;
    AsRelation rel;  // what `second` is to `first`
  };
  const std::vector<AsAdjacency>& as_adjacencies() const { return as_adj_; }

  /// Policy-routing exceptions, in declaration order.
  const std::vector<EgressOverride>& overrides() const { return overrides_; }

  /// Administrative link control for failure injection. Affects new route
  /// computations; Fabric additionally kills flows on disabled links.
  [[nodiscard]] util::Status set_link_enabled(LinkId id, bool enabled);

  /// Adjusts a node's per-flow middlebox ceiling at runtime (ablations:
  /// Science-DMZ firewall on/off). Affects flows started afterwards.
  [[nodiscard]] util::Status set_middlebox(NodeId id, double per_flow_mbps);

  /// Rewrites a link's shared capacity at runtime (chaos injection: brownout
  /// / upgrade). Requires a positive rate. Active flows keep their routes;
  /// call Fabric::reallocate_now() afterwards so fair shares converge.
  [[nodiscard]] util::Status set_link_capacity(LinkId id, double capacity_mbps);

  /// Rewrites a link's per-flow policer rate at runtime (0 clears it).
  /// Affects flow caps computed afterwards; in-flight flows keep theirs.
  [[nodiscard]] util::Status set_link_policer(LinkId id, double per_flow_mbps);

  /// Topology-wide sanity checks (ids consistent, links connect declared
  /// nodes, inter-AS links have a declared relationship, etc).
  [[nodiscard]] util::Status validate() const;

  /// Geolocation registry populated with every node (name + IP bound).
  const geo::Registry& registry() const { return registry_; }

 private:
  friend class Builder;
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<As> ases_;
  std::vector<std::vector<LinkId>> out_links_;
  std::vector<AsAdjacency> as_adj_;
  std::vector<EgressOverride> overrides_;
  geo::Registry registry_;
};

/// Optional per-link attributes (see Link for semantics).
struct LinkOpts {
  double loss_rate = 0.0;
  double policer_per_flow_mbps = 0.0;
};

/// Fluent construction with automatic IP assignment (10.x.y.z by AS) and
/// registry population. Build() validates.
class Topology::Builder {
 public:
  Builder() = default;

  AsId add_as(const std::string& name);

  /// Declares what `b` is to `a` (and records the converse implicitly:
  /// customer<->provider are duals; peer is symmetric).
  Builder& relate(AsId a, AsId b, AsRelation b_is_to_a);

  NodeId add_router(AsId as, const std::string& name, geo::Coord coord,
                    const std::string& city = "");
  NodeId add_host(AsId as, const std::string& name, geo::Coord coord,
                  const std::string& city = "", const std::string& tag = "");

  /// Sets the per-flow middlebox ceiling on an existing node.
  Builder& middlebox(NodeId node, double per_flow_mbps);

  /// One directed link.
  LinkId add_link(NodeId src, NodeId dst, double capacity_mbps,
                  double prop_delay_s, LinkOpts opts = {});

  /// Two directed links with identical parameters; returns forward id.
  LinkId add_duplex(NodeId a, NodeId b, double capacity_mbps,
                    double prop_delay_s, LinkOpts opts = {});

  /// Duplex link with propagation delay derived from the endpoints' geo
  /// coordinates (great-circle x inflation).
  LinkId add_duplex_geo(NodeId a, NodeId b, double capacity_mbps,
                        LinkOpts opts = {});

  /// Installs a policy-routing exception; build() checks that its ids exist
  /// and that `use_link` leaves `at`.
  Builder& add_override(EgressOverride ov);

  [[nodiscard]] util::Result<Topology> build() &&;

 private:
  NodeId add_node(AsId as, const std::string& name, NodeKind kind,
                  geo::Coord coord, const std::string& city,
                  const std::string& tag);

  Topology topo_;
  std::vector<std::uint32_t> next_host_in_as_;
};

}  // namespace droute::net
