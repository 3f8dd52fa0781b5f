#include "net/topology.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "check/contract.h"

namespace droute::net {

bool EgressOverride::matches_source(const Node& source) const {
  if (!src_tag.empty() && source.tag == src_tag) return true;
  if (src_prefix_bits > 0) {
    const std::uint32_t mask =
        src_prefix_bits >= 32
            ? ~std::uint32_t{0}
            : ~std::uint32_t{0} << (32 - src_prefix_bits);
    if ((source.ip.value & mask) == (src_prefix.value & mask)) return true;
  }
  return false;
}

std::optional<LinkId> Topology::find_link(NodeId src, NodeId dst) const {
  for (LinkId lid : out_links_.at(static_cast<std::size_t>(src))) {
    const Link& l = link(lid);
    if (l.dst == dst && l.enabled) return lid;
  }
  return std::nullopt;
}

std::optional<NodeId> Topology::find_node(const std::string& name) const {
  for (const Node& n : nodes_) {
    if (n.name == name) return n.id;
  }
  return std::nullopt;
}

std::optional<AsRelation> Topology::relation(AsId first, AsId second) const {
  for (const AsAdjacency& adj : as_adj_) {
    if (adj.first == first && adj.second == second) return adj.rel;
  }
  return std::nullopt;
}

util::Status Topology::set_link_enabled(LinkId id, bool enabled) {
  if (id < 0 || static_cast<std::size_t>(id) >= links_.size()) {
    return util::Status::failure("set_link_enabled: bad link id");
  }
  links_[static_cast<std::size_t>(id)].enabled = enabled;
  return util::Status::success();
}

util::Status Topology::set_middlebox(NodeId id, double per_flow_mbps) {
  if (id < 0 || static_cast<std::size_t>(id) >= nodes_.size()) {
    return util::Status::failure("set_middlebox: bad node id");
  }
  if (per_flow_mbps < 0) {
    return util::Status::failure("set_middlebox: negative rate");
  }
  nodes_[static_cast<std::size_t>(id)].middlebox_per_flow_mbps = per_flow_mbps;
  return util::Status::success();
}

util::Status Topology::set_link_capacity(LinkId id, double capacity_mbps) {
  if (id < 0 || static_cast<std::size_t>(id) >= links_.size()) {
    return util::Status::failure("set_link_capacity: bad link id");
  }
  if (capacity_mbps <= 0) {
    return util::Status::failure("set_link_capacity: non-positive rate");
  }
  links_[static_cast<std::size_t>(id)].capacity_mbps = capacity_mbps;
  return util::Status::success();
}

util::Status Topology::set_link_policer(LinkId id, double per_flow_mbps) {
  if (id < 0 || static_cast<std::size_t>(id) >= links_.size()) {
    return util::Status::failure("set_link_policer: bad link id");
  }
  if (per_flow_mbps < 0) {
    return util::Status::failure("set_link_policer: negative rate");
  }
  links_[static_cast<std::size_t>(id)].policer_per_flow_mbps = per_flow_mbps;
  return util::Status::success();
}

util::Status Topology::validate() const {
  for (const Node& n : nodes_) {
    if (n.as_id < 0 || static_cast<std::size_t>(n.as_id) >= ases_.size()) {
      return util::Status::failure("node " + n.name + " in undeclared AS");
    }
  }
  // Determinism audit: duplicate detection only (insert + bool result);
  // the loop iterates nodes_ in declaration order, never the set.
  std::unordered_set<std::string> names;
  for (const Node& n : nodes_) {
    if (!names.insert(n.name).second) {
      return util::Status::failure("duplicate node name: " + n.name);
    }
  }
  for (const Link& l : links_) {
    if (l.src < 0 || static_cast<std::size_t>(l.src) >= nodes_.size() ||
        l.dst < 0 || static_cast<std::size_t>(l.dst) >= nodes_.size()) {
      return util::Status::failure("link with dangling endpoint");
    }
    if (l.src == l.dst) return util::Status::failure("self-loop link");
    if (l.capacity_mbps <= 0) {
      return util::Status::failure("non-positive link capacity");
    }
    if (l.prop_delay_s < 0 || l.loss_rate < 0 || l.loss_rate >= 1.0) {
      return util::Status::failure("invalid link delay/loss");
    }
    const AsId sa = node(l.src).as_id, da = node(l.dst).as_id;
    if (sa != da && !relation(sa, da).has_value()) {
      return util::Status::failure(
          "inter-AS link without declared relationship: " + node(l.src).name +
          " -> " + node(l.dst).name);
    }
  }
  for (const EgressOverride& ov : overrides_) {
    if (ov.at < 0 || static_cast<std::size_t>(ov.at) >= nodes_.size() ||
        ov.dst_as < 0 || static_cast<std::size_t>(ov.dst_as) >= ases_.size() ||
        ov.use_link < 0 ||
        static_cast<std::size_t>(ov.use_link) >= links_.size() ||
        link(ov.use_link).src != ov.at) {
      return util::Status::failure(
          "override with a bad id or a link not leaving its router");
    }
  }
  return util::Status::success();
}

// ---------------------------------------------------------------------------
// Builder

AsId Topology::Builder::add_as(const std::string& name) {
  const AsId id = static_cast<AsId>(topo_.ases_.size());
  topo_.ases_.push_back(As{id, name});
  next_host_in_as_.push_back(1);
  return id;
}

Topology::Builder& Topology::Builder::relate(AsId a, AsId b,
                                             AsRelation b_is_to_a) {
  topo_.as_adj_.push_back({a, b, b_is_to_a});
  // Record the converse so relation() works in both directions.
  AsRelation a_is_to_b;
  switch (b_is_to_a) {
    case AsRelation::kCustomer: a_is_to_b = AsRelation::kProvider; break;
    case AsRelation::kProvider: a_is_to_b = AsRelation::kCustomer; break;
    case AsRelation::kPeer:     a_is_to_b = AsRelation::kPeer; break;
    default:                    a_is_to_b = AsRelation::kPeer; break;
  }
  topo_.as_adj_.push_back({b, a, a_is_to_b});
  return *this;
}

NodeId Topology::Builder::add_node(AsId as, const std::string& name,
                                   NodeKind kind, geo::Coord coord,
                                   const std::string& city,
                                   const std::string& tag) {
  DROUTE_CHECK(as >= 0 && static_cast<std::size_t>(as) < topo_.ases_.size(),
               "add_node: undeclared AS");
  const NodeId id = static_cast<NodeId>(topo_.nodes_.size());
  Node n;
  n.id = id;
  n.name = name;
  n.as_id = as;
  n.kind = kind;
  n.coord = coord;
  n.tag = tag;
  // 10.<as>.<hi>.<lo> — unique, stable, readable in traceroutes.
  const std::uint32_t serial = next_host_in_as_[static_cast<std::size_t>(as)]++;
  n.ip = geo::Ipv4{(10u << 24) | (static_cast<std::uint32_t>(as) << 16) |
                   (serial & 0xffffu)};
  topo_.nodes_.push_back(n);
  topo_.out_links_.emplace_back();

  geo::Location loc;
  loc.name = name;
  loc.city = city.empty() ? "unknown" : city;
  loc.coord = coord;
  loc.kind = kind == NodeKind::kRouter ? "router"
             : tag.empty()             ? "host"
                                       : tag;
  topo_.registry_.add(loc);
  const auto bound = topo_.registry_.bind_ip(n.ip, name);
  DROUTE_CHECK(bound.ok(), "registry bind failed");
  return id;
}

NodeId Topology::Builder::add_router(AsId as, const std::string& name,
                                     geo::Coord coord,
                                     const std::string& city) {
  return add_node(as, name, NodeKind::kRouter, coord, city, "");
}

NodeId Topology::Builder::add_host(AsId as, const std::string& name,
                                   geo::Coord coord, const std::string& city,
                                   const std::string& tag) {
  return add_node(as, name, NodeKind::kHost, coord, city, tag);
}

Topology::Builder& Topology::Builder::middlebox(NodeId node,
                                                double per_flow_mbps) {
  topo_.nodes_.at(static_cast<std::size_t>(node)).middlebox_per_flow_mbps =
      per_flow_mbps;
  return *this;
}

LinkId Topology::Builder::add_link(NodeId src, NodeId dst,
                                   double capacity_mbps, double prop_delay_s,
                                   LinkOpts opts) {
  const LinkId id = static_cast<LinkId>(topo_.links_.size());
  Link l;
  l.id = id;
  l.src = src;
  l.dst = dst;
  l.capacity_mbps = capacity_mbps;
  l.prop_delay_s = prop_delay_s;
  l.loss_rate = opts.loss_rate;
  l.policer_per_flow_mbps = opts.policer_per_flow_mbps;
  topo_.links_.push_back(l);
  topo_.out_links_.at(static_cast<std::size_t>(src)).push_back(id);
  return id;
}

LinkId Topology::Builder::add_duplex(NodeId a, NodeId b, double capacity_mbps,
                                     double prop_delay_s, LinkOpts opts) {
  const LinkId forward = add_link(a, b, capacity_mbps, prop_delay_s, opts);
  add_link(b, a, capacity_mbps, prop_delay_s, opts);
  return forward;
}

LinkId Topology::Builder::add_duplex_geo(NodeId a, NodeId b,
                                         double capacity_mbps, LinkOpts opts) {
  const double delay = geo::propagation_delay_s(
      topo_.nodes_.at(static_cast<std::size_t>(a)).coord,
      topo_.nodes_.at(static_cast<std::size_t>(b)).coord);
  return add_duplex(a, b, capacity_mbps, delay, opts);
}

Topology::Builder& Topology::Builder::add_override(EgressOverride ov) {
  topo_.overrides_.push_back(std::move(ov));
  return *this;
}

util::Result<Topology> Topology::Builder::build() && {
  if (auto status = topo_.validate(); !status.ok()) {
    return util::Error{status.error()};
  }
  return std::move(topo_);
}

}  // namespace droute::net
