#include "net/routing.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>
#include <tuple>

#include "check/contract.h"

namespace droute::net {

namespace {

/// (preference-class, path-length, next-hop id) lexicographic candidate.
struct Candidate {
  std::uint32_t len = 0;
  AsId next_as = kInvalidAs;
  bool set = false;

  bool better_than(const Candidate& other) const {
    if (!other.set) return set;
    if (!set) return false;
    if (len != other.len) return len < other.len;
    return next_as < other.next_as;
  }
};

}  // namespace

RouteTable::RouteTable(const Topology* topo, const RouteSnapshot* shared)
    : topo_(topo), shared_(shared) {
  DROUTE_CHECK(shared_ != nullptr &&
                   topo_->node_count() == shared_->table_.topo_->node_count() &&
                   topo_->link_count() == shared_->table_.topo_->link_count(),
               "RouteTable: snapshot of a different topology");
}

void RouteTable::invalidate() {
  ++generation_;
  shared_ = nullptr;
  bgp_cache_.clear();
  route_cache_.clear();
  own_bgp_.clear();
}

std::size_t RouteSnapshot::routes_expanded() const {
  const std::lock_guard lock(mu_);
  return table_.routes_expanded();
}

// ---------------------------------------------------------------------------
// BGP-lite: per-destination table built with the classic three-phase
// customer/peer/provider computation, which yields exactly the routes BGP
// selects under Gao–Rexford export rules (see routing.h).

const RouteTable::BgpTable& RouteTable::bgp_table(AsId dst_as) const {
  if (auto it = bgp_cache_.find(dst_as); it != bgp_cache_.end()) {
    return *it->second;
  }
  const BgpTable* table = nullptr;
  if (shared_ != nullptr) {
    const std::lock_guard lock(shared_->mu_);
    table = &shared_->table_.bgp_table(dst_as);
  } else {
    table = &own_bgp_.emplace_back(build_bgp_table(dst_as));
  }
  bgp_cache_.emplace(dst_as, table);
  return *table;
}

RouteTable::BgpTable RouteTable::build_bgp_table(AsId dst_as) const {
  const std::size_t n = topo_->as_count();
  std::vector<Candidate> customer(n), peer(n), provider(n);

  // Adjacency lists by relationship, as seen from the learner:
  //   learns_from_customer[y] = {x : x is y's customer}
  //   learns_from_peer[y]     = {x : x is y's peer}
  //   learns_from_provider[y] = {x : x is y's provider}
  std::vector<std::vector<AsId>> from_customer(n), from_peer(n),
      from_provider(n);
  for (const auto& adj : topo_->as_adjacencies()) {
    const auto y = static_cast<std::size_t>(adj.first);
    switch (adj.rel) {
      case AsRelation::kCustomer: from_customer[y].push_back(adj.second); break;
      case AsRelation::kPeer:     from_peer[y].push_back(adj.second); break;
      case AsRelation::kProvider: from_provider[y].push_back(adj.second); break;
    }
  }
  for (auto& v : from_customer) std::sort(v.begin(), v.end());
  for (auto& v : from_peer) std::sort(v.begin(), v.end());
  for (auto& v : from_provider) std::sort(v.begin(), v.end());

  // Phase 1 — customer routes: announcements climb customer->provider chains.
  // BFS from the destination; y learns from its customer x.
  {
    std::queue<AsId> frontier;
    customer[static_cast<std::size_t>(dst_as)] = {0, dst_as, true};
    frontier.push(dst_as);
    while (!frontier.empty()) {
      const AsId x = frontier.front();
      frontier.pop();
      const Candidate& cx = customer[static_cast<std::size_t>(x)];
      for (std::size_t y = 0; y < n; ++y) {
        // Does y learn from customer x?
        const auto& learners = from_customer[y];
        if (!std::binary_search(learners.begin(), learners.end(), x)) continue;
        Candidate cand{cx.len + 1, x, true};
        if (cand.better_than(customer[y])) {
          const bool first_time = !customer[y].set;
          customer[y] = cand;
          if (first_time) frontier.push(static_cast<AsId>(y));
        }
      }
    }
  }

  // Phase 2 — peer routes: exactly one peer edge atop a customer route.
  for (std::size_t y = 0; y < n; ++y) {
    for (AsId x : from_peer[y]) {
      const Candidate& cx = customer[static_cast<std::size_t>(x)];
      if (!cx.set) continue;  // peers only export self/customer routes
      Candidate cand{cx.len + 1, x, true};
      if (cand.better_than(peer[y])) peer[y] = cand;
    }
  }

  // Phase 3 — provider routes: providers export their *selected* route to
  // customers; selection prefers customer > peer > provider. Dijkstra over
  // "down" edges seeded with each AS's customer/peer selection.
  {
    auto selected_len = [&](std::size_t x) -> std::optional<std::uint32_t> {
      if (customer[x].set) return customer[x].len;
      if (peer[x].set) return peer[x].len;
      if (provider[x].set) return provider[x].len;
      return std::nullopt;
    };
    using QItem = std::tuple<std::uint32_t, AsId>;  // (exported len, exporter)
    std::priority_queue<QItem, std::vector<QItem>, std::greater<>> pq;
    for (std::size_t x = 0; x < n; ++x) {
      if (auto len = selected_len(x)) pq.emplace(*len, static_cast<AsId>(x));
    }
    while (!pq.empty()) {
      const auto [len, x] = pq.top();
      pq.pop();
      const auto sel = selected_len(static_cast<std::size_t>(x));
      if (!sel || *sel != len) continue;  // stale queue entry
      for (std::size_t y = 0; y < n; ++y) {
        const auto& provs = from_provider[y];
        if (!std::binary_search(provs.begin(), provs.end(), x)) continue;
        Candidate cand{len + 1, x, true};
        if (cand.better_than(provider[y]) && !customer[y].set && !peer[y].set) {
          provider[y] = cand;
          pq.emplace(cand.len, static_cast<AsId>(y));
        }
      }
    }
  }

  BgpTable table(n);
  for (std::size_t x = 0; x < n; ++x) {
    BgpEntry& e = table[x];
    if (static_cast<AsId>(x) == dst_as) {
      e = {true, RouteOrigin::kSelf, 0, dst_as};
    } else if (customer[x].set) {
      e = {true, RouteOrigin::kCustomer, customer[x].len, customer[x].next_as};
    } else if (peer[x].set) {
      e = {true, RouteOrigin::kPeer, peer[x].len, peer[x].next_as};
    } else if (provider[x].set) {
      e = {true, RouteOrigin::kProvider, provider[x].len, provider[x].next_as};
    }
  }
  return table;
}

util::Result<std::vector<AsId>> RouteTable::as_path(AsId src_as,
                                                    AsId dst_as) const {
  const auto& table = bgp_table(dst_as);
  std::vector<AsId> path;
  AsId cur = src_as;
  for (std::size_t guard = 0; guard <= topo_->as_count(); ++guard) {
    path.push_back(cur);
    if (cur == dst_as) return path;
    const BgpEntry& entry = table[static_cast<std::size_t>(cur)];
    if (!entry.reachable) {
      return util::Error::make("no valley-free AS route from " +
                               topo_->as_info(src_as).name + " to " +
                               topo_->as_info(dst_as).name);
    }
    cur = entry.next_as;
  }
  return util::Error::make("AS path loop (policy bug)");
}

util::Result<RouteOrigin> RouteTable::route_origin(AsId as, AsId dst_as) const {
  const auto& table = bgp_table(dst_as);
  const BgpEntry& entry = table.at(static_cast<std::size_t>(as));
  if (!entry.reachable) return util::Error::make("unreachable");
  return entry.origin;
}

// ---------------------------------------------------------------------------
// Node-level expansion.

util::Result<Route> RouteTable::intra_as_route(NodeId src, NodeId dst) const {
  const AsId as = topo_->node(src).as_id;
  DROUTE_CHECK(topo_->node(dst).as_id == as, "intra_as_route across ASes");
  if (src == dst) return Route{{src}, {}};

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(topo_->node_count(), kInf);
  std::vector<LinkId> via(topo_->node_count(), kInvalidLink);
  using QItem = std::tuple<double, NodeId>;
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> pq;
  dist[static_cast<std::size_t>(src)] = 0.0;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    if (u == dst) break;
    for (LinkId lid : topo_->out_links(u)) {
      const Link& l = topo_->link(lid);
      if (!l.enabled || topo_->node(l.dst).as_id != as) continue;
      const double nd = d + l.prop_delay_s;
      if (nd < dist[static_cast<std::size_t>(l.dst)]) {
        dist[static_cast<std::size_t>(l.dst)] = nd;
        via[static_cast<std::size_t>(l.dst)] = lid;
        pq.emplace(nd, l.dst);
      }
    }
  }
  if (via[static_cast<std::size_t>(dst)] == kInvalidLink) {
    return util::Error::make("intra-AS partition: " + topo_->node(src).name +
                             " -/-> " + topo_->node(dst).name);
  }
  Route route;
  NodeId cur = dst;
  std::vector<LinkId> rev_links;
  while (cur != src) {
    const LinkId lid = via[static_cast<std::size_t>(cur)];
    rev_links.push_back(lid);
    cur = topo_->link(lid).src;
  }
  route.nodes.push_back(src);
  for (auto it = rev_links.rbegin(); it != rev_links.rend(); ++it) {
    route.links.push_back(*it);
    route.nodes.push_back(topo_->link(*it).dst);
  }
  return route;
}

util::Result<RouteTable::GatewayChoice> RouteTable::pick_gateway(
    NodeId cur, AsId to) const {
  const AsId from = topo_->node(cur).as_id;
  GatewayChoice best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t lid = 0; lid < topo_->link_count(); ++lid) {
    const Link& l = topo_->link(static_cast<LinkId>(lid));
    if (!l.enabled) continue;
    if (topo_->node(l.src).as_id != from || topo_->node(l.dst).as_id != to) {
      continue;
    }
    auto approach = intra_as_route(cur, l.src);
    if (!approach.ok()) continue;
    double cost = l.prop_delay_s;
    for (LinkId alid : approach.value().links) {
      cost += topo_->link(alid).prop_delay_s;
    }
    if (cost < best_cost) {
      best_cost = cost;
      best.link = static_cast<LinkId>(lid);
      best.approach = std::move(approach).value();
    }
  }
  if (best.link == kInvalidLink) {
    return util::Error::make("no enabled gateway from AS " +
                             topo_->as_info(from).name + " to AS " +
                             topo_->as_info(to).name);
  }
  return best;
}

const util::Result<Route>& RouteTable::route(NodeId src, NodeId dst) const {
  const std::uint64_t key =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32 |
      static_cast<std::uint32_t>(dst);
  if (auto it = route_cache_.find(key); it != route_cache_.end()) {
    return *it->second;
  }
  const util::Result<Route>* answer = nullptr;
  if (shared_ != nullptr) {
    const std::lock_guard lock(shared_->mu_);
    answer = &shared_->table_.route(src, dst);
  } else {
    answer = &own_routes_.emplace_back(expand_route(src, dst));
  }
  route_cache_.emplace(key, answer);
  return *answer;
}

util::Result<Route> RouteTable::expand_route(NodeId src, NodeId dst) const {
  const AsId dst_as = topo_->node(dst).as_id;

  Route out;
  out.nodes.push_back(src);
  NodeId cur = src;
  std::set<std::size_t> fired_overrides;

  auto append_segment = [&](const Route& seg) {
    DROUTE_CHECK(seg.nodes.front() == cur, "segment does not start at cursor");
    for (std::size_t i = 0; i < seg.links.size(); ++i) {
      out.links.push_back(seg.links[i]);
      out.nodes.push_back(seg.nodes[i + 1]);
    }
    cur = out.nodes.back();
  };

  for (int guard = 0; guard < 64; ++guard) {
    if (cur == dst) return out;
    const AsId cur_as = topo_->node(cur).as_id;

    // Source-tag policy overrides: fire when traffic with a matching tag is
    // inside the override router's AS and heading for the matching dst AS.
    bool overridden = false;
    const auto& overrides = topo_->overrides();
    for (std::size_t i = 0; i < overrides.size(); ++i) {
      const EgressOverride& ov = overrides[i];
      if (fired_overrides.contains(i)) continue;
      if (ov.dst_as != dst_as || !ov.matches_source(topo_->node(src))) {
        continue;
      }
      if (topo_->node(ov.at).as_id != cur_as) continue;
      const Link& forced = topo_->link(ov.use_link);
      if (!forced.enabled) continue;
      DROUTE_CHECK(forced.src == ov.at, "override link must leave its router");
      auto approach = intra_as_route(cur, ov.at);
      if (!approach.ok()) continue;
      fired_overrides.insert(i);
      append_segment(approach.value());
      out.links.push_back(forced.id);
      out.nodes.push_back(forced.dst);
      cur = forced.dst;
      overridden = true;
      break;
    }
    if (overridden) continue;

    if (cur_as == dst_as) {
      auto seg = intra_as_route(cur, dst);
      if (!seg.ok()) return util::Error{seg.error()};
      append_segment(seg.value());
      continue;  // loop head returns via cur == dst
    }

    auto asp = as_path(cur_as, dst_as);
    if (!asp.ok()) return util::Error{asp.error()};
    const AsId next_as = asp.value()[1];
    auto gw = pick_gateway(cur, next_as);
    if (!gw.ok()) return util::Error{gw.error()};
    append_segment(gw.value().approach);
    const Link& egress = topo_->link(gw.value().link);
    out.links.push_back(egress.id);
    out.nodes.push_back(egress.dst);
    cur = egress.dst;
  }
  return util::Error::make("route expansion exceeded 64 AS hops (loop?)");
}

double RouteTable::one_way_delay_s(const Route& route) const {
  double total = 0.0;
  for (LinkId lid : route.links) total += topo_->link(lid).prop_delay_s;
  return total;
}

double RouteTable::path_loss(const Route& route) const {
  double pass = 1.0;
  for (LinkId lid : route.links) pass *= 1.0 - topo_->link(lid).loss_rate;
  return 1.0 - pass;
}

double RouteTable::min_policer_mbps(const Route& route) const {
  double min_rate = 0.0;
  for (LinkId lid : route.links) {
    const double p = topo_->link(lid).policer_per_flow_mbps;
    if (p > 0.0 && (min_rate == 0.0 || p < min_rate)) min_rate = p;
  }
  return min_rate;
}

double RouteTable::min_middlebox_mbps(const Route& route) const {
  double min_rate = 0.0;
  for (std::size_t i = 1; i + 1 < route.nodes.size(); ++i) {
    const double m = topo_->node(route.nodes[i]).middlebox_per_flow_mbps;
    if (m > 0.0 && (min_rate == 0.0 || m < min_rate)) min_rate = m;
  }
  return min_rate;
}

double RouteTable::bottleneck_capacity_mbps(const Route& route) const {
  double min_cap = std::numeric_limits<double>::infinity();
  for (LinkId lid : route.links) {
    min_cap = std::min(min_cap, topo_->link(lid).capacity_mbps);
  }
  return route.links.empty() ? 0.0 : min_cap;
}

}  // namespace droute::net
