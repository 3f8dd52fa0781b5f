#include "trace/traceroute.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <unordered_set>

namespace droute::trace {

util::Result<TracerouteResult> Tracer::trace(net::NodeId src,
                                             net::NodeId dst) const {
  const auto& route = routes_->route(src, dst);
  if (!route.ok()) return util::Error{route.error()};

  TracerouteResult result;
  result.src = src;
  result.dst = dst;

  double cumulative_delay = 0.0;
  const auto& nodes = route.value().nodes;
  const auto& links = route.value().links;
  for (std::size_t i = 0; i < links.size(); ++i) {
    cumulative_delay += topo_->link(links[i]).prop_delay_s;
    const net::NodeId hop_node = nodes[i + 1];
    Hop hop;
    hop.ttl = static_cast<int>(i + 1);
    hop.node = hop_node;
    hop.rtt_s = 2.0 * cumulative_delay;
    if (silent_.contains(hop_node)) {
      hop.silent = true;
    } else {
      const net::Node& n = topo_->node(hop_node);
      hop.name = n.name;
      hop.ip = n.ip.to_string();
    }
    result.hops.push_back(std::move(hop));
  }
  return result;
}

std::string TracerouteResult::render(const net::Topology& topo) const {
  std::ostringstream out;
  const net::Node& dst_node = topo.node(dst);
  out << "traceroute to " << dst_node.name << " (" << dst_node.ip.to_string()
      << ")\n";
  for (const Hop& hop : hops) {
    char line[160];
    if (hop.silent) {
      std::snprintf(line, sizeof(line), "%2d  * * *", hop.ttl);
    } else {
      std::snprintf(line, sizeof(line), "%2d  %s (%s)  %.3f ms", hop.ttl,
                    hop.name.c_str(), hop.ip.c_str(), hop.rtt_s * 1e3);
    }
    out << line << "\n";
  }
  return out.str();
}

std::vector<net::NodeId> TracerouteResult::responsive_nodes() const {
  std::vector<net::NodeId> out;
  for (const Hop& hop : hops) {
    if (!hop.silent) out.push_back(hop.node);
  }
  return out;
}

util::Result<Tracer::Asymmetry> Tracer::round_trip_asymmetry(
    net::NodeId src, net::NodeId dst) const {
  auto forward = trace(src, dst);
  if (!forward.ok()) return util::Error{forward.error()};
  auto reverse = trace(dst, src);
  if (!reverse.ok()) return util::Error{reverse.error()};
  // Compare intermediate routers only (endpoints trivially differ in role).
  auto middles = [](const TracerouteResult& result, net::NodeId endpoint) {
    std::vector<net::NodeId> out;
    for (net::NodeId node : result.responsive_nodes()) {
      if (node != endpoint) out.push_back(node);
    }
    return out;
  };
  const auto fwd = middles(forward.value(), dst);
  const auto rev = middles(reverse.value(), src);
  // Determinism audit: both sets are membership probes only — iteration
  // below walks the order-stable `fwd`/`rev` vectors, never the sets.
  const std::unordered_set<net::NodeId> fwd_set(fwd.begin(), fwd.end());
  const std::unordered_set<net::NodeId> rev_set(rev.begin(), rev.end());
  Asymmetry result;
  for (net::NodeId node : fwd) {
    if (!rev_set.contains(node)) result.forward_only.push_back(node);
  }
  for (net::NodeId node : rev) {
    if (!fwd_set.contains(node)) result.reverse_only.push_back(node);
  }
  result.asymmetric =
      !result.forward_only.empty() || !result.reverse_only.empty();
  return result;
}

RouteDiff Tracer::diff(const TracerouteResult& first,
                       const TracerouteResult& second) {
  RouteDiff diff;
  const auto a = first.responsive_nodes();
  const auto b = second.responsive_nodes();
  // Determinism audit: membership probes only; the diff lists are built by
  // walking `a` and `b` in path order, so hash order never escapes.
  const std::unordered_set<net::NodeId> in_a(a.begin(), a.end());
  const std::unordered_set<net::NodeId> in_b(b.begin(), b.end());

  for (net::NodeId n : a) {
    if (in_b.contains(n)) diff.shared_nodes.push_back(n);
    else diff.only_first.push_back(n);
  }
  for (net::NodeId n : b) {
    if (!in_a.contains(n)) diff.only_second.push_back(n);
  }

  // Divergence: the first node both paths visit whose *successor* differs
  // between the paths (paths from different sources share a middle segment
  // — vncv1rtr2 in Figs 5/6 — then split; the split point is what matters).
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!in_b.contains(a[i])) continue;
    const auto it = std::find(b.begin(), b.end(), a[i]);
    const net::NodeId next_a =
        i + 1 < a.size() ? a[i + 1] : net::kInvalidNode;
    const net::NodeId next_b =
        it + 1 != b.end() ? *(it + 1) : net::kInvalidNode;
    if (next_a != next_b) {
      diff.divergence_point = a[i];
      break;
    }
  }
  return diff;
}

}  // namespace droute::trace
