#include "net/topology_io.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <map>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "check/contract.h"

namespace droute::net {

namespace {

util::Error line_error(int line, const std::string& message) {
  return util::Error::make("line " + std::to_string(line) + ": " + message);
}

/// Splits a line into tokens, honouring double-quoted strings (quotes are
/// stripped; they may appear inside key="..." values).
std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::string current;
  bool in_quotes = false;
  bool token_open = false;
  for (char c : line) {
    if (c == '#' && !in_quotes) break;
    if (c == '"') {
      in_quotes = !in_quotes;
      token_open = true;
      continue;
    }
    if (!in_quotes && (c == ' ' || c == '\t')) {
      if (token_open) {
        tokens.push_back(current);
        current.clear();
        token_open = false;
      }
      continue;
    }
    current.push_back(c);
    token_open = true;
  }
  if (token_open) tokens.push_back(current);
  return tokens;
}

bool parse_double(const std::string& token, double* out) {
  char tail = 0;
  return std::sscanf(token.c_str(), "%lf%c", out, &tail) == 1;
}

/// A millisecond token read straight into seconds by lowering its decimal
/// exponent by 3 in the text ("21.87" -> "21.87e-3", "1e2" -> "1e-1"), so
/// the result is the correctly rounded value of the written decimal with no
/// second rounding from a division.
bool parse_ms_as_seconds(const std::string& token, double* seconds) {
  const std::size_t e = token.find_first_of("eE");
  int exponent = 0;
  if (e != std::string::npos) {
    const char* first = token.data() + e + 1;
    const char* last = token.data() + token.size();
    // from_chars takes no '+'; skip one unless a '-' follows it.
    if (last - first > 1 && *first == '+' && first[1] != '-') ++first;
    const auto [end, error] = std::from_chars(first, last, exponent);
    if (error != std::errc{} || end != last) return false;
  }
  return parse_double(
      token.substr(0, e) + "e" + std::to_string(exponent - 3), seconds);
}

/// The shortest fixed-point text that parses back to exactly `value`.
std::string number_text(double value) {
  char buf[512];  // longest shortest-fixed double is ~330 chars
  const auto end = std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::fixed).ptr;
  return std::string(buf, end);
}

/// `seconds` written in milliseconds: number_text(seconds) with its decimal
/// point moved three places right, which parse_ms_as_seconds() undoes
/// exactly (multiplying by 1e3 would round).
std::string ms_text(double seconds) {
  std::string text = number_text(seconds);
  std::size_t point = text.find('.');
  if (point == std::string::npos) {
    point = text.size();
  } else {
    text.erase(point, 1);
  }
  point += 3;
  if (text.size() < point) text.append(point - text.size(), '0');
  if (point < text.size()) text.insert(point, ".");
  while (point > 1 && text[0] == '0') {  // "0021.87" -> "21.87"
    text.erase(0, 1);
    --point;
  }
  return text;
}

/// Splits "key=value" -> (key, value); plain flags yield (token, "").
std::pair<std::string, std::string> split_kv(const std::string& token) {
  const auto eq = token.find('=');
  if (eq == std::string::npos) return {token, ""};
  return {token.substr(0, eq), token.substr(eq + 1)};
}

}  // namespace

util::Result<Topology> parse_topology(const std::string& text) {
  Topology::Builder builder;
  std::map<std::string, AsId> ases;
  std::map<std::string, NodeId> nodes;
  // First link declared from each node to each next hop (override via=).
  std::map<std::pair<NodeId, NodeId>, LinkId> links;

  // Lines are split by hand: reading them through an istringstream would
  // initialise the iostream locale, ~1 MB of resident memory in every
  // process that builds a World.
  int line_no = 0;
  for (std::size_t begin = 0; begin < text.size();) {
    const std::size_t newline = std::min(text.find('\n', begin), text.size());
    const std::string_view line(text.data() + begin, newline - begin);
    begin = newline + 1;
    ++line_no;
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& directive = tokens[0];

    if (directive == "as") {
      if (tokens.size() != 2) return line_error(line_no, "as <name>");
      if (ases.contains(tokens[1])) {
        return line_error(line_no, "duplicate AS " + tokens[1]);
      }
      ases[tokens[1]] = builder.add_as(tokens[1]);

    } else if (directive == "relate") {
      if (tokens.size() != 4) {
        return line_error(line_no, "relate <as> <rel> <as>");
      }
      const auto a = ases.find(tokens[1]);
      const auto b = ases.find(tokens[3]);
      if (a == ases.end() || b == ases.end()) {
        return line_error(line_no, "relate references undeclared AS");
      }
      AsRelation rel;
      if (tokens[2] == "customer") rel = AsRelation::kCustomer;
      else if (tokens[2] == "peer") rel = AsRelation::kPeer;
      else if (tokens[2] == "provider") rel = AsRelation::kProvider;
      else return line_error(line_no, "unknown relation " + tokens[2]);
      builder.relate(a->second, b->second, rel);

    } else if (directive == "node") {
      if (tokens.size() < 6) {
        return line_error(line_no, "node <name> <kind> <as> <lat> <lon> ...");
      }
      const std::string& name = tokens[1];
      if (nodes.contains(name)) {
        return line_error(line_no, "duplicate node " + name);
      }
      const bool is_host = tokens[2] == "host";
      if (!is_host && tokens[2] != "router") {
        return line_error(line_no, "node kind must be host|router");
      }
      const auto as = ases.find(tokens[3]);
      if (as == ases.end()) {
        return line_error(line_no, "node references undeclared AS");
      }
      geo::Coord coord;
      if (!parse_double(tokens[4], &coord.lat_deg) ||
          !parse_double(tokens[5], &coord.lon_deg)) {
        return line_error(line_no, "bad coordinates");
      }
      std::string city, tag;
      double middlebox = 0.0;
      for (std::size_t i = 6; i < tokens.size(); ++i) {
        const auto [key, value] = split_kv(tokens[i]);
        if (key == "city") city = value;
        else if (key == "tag") tag = value;
        else if (key == "middlebox") {
          if (!parse_double(value, &middlebox) || middlebox < 0) {
            return line_error(line_no, "bad middlebox rate");
          }
        } else {
          return line_error(line_no, "unknown node option " + key);
        }
      }
      const NodeId id =
          is_host ? builder.add_host(as->second, name, coord, city, tag)
                  : builder.add_router(as->second, name, coord, city);
      if (middlebox > 0) builder.middlebox(id, middlebox);
      nodes[name] = id;

    } else if (directive == "link") {
      if (tokens.size() < 5) {
        return line_error(line_no,
                          "link <src> <dst> cap=<mbps> delay_ms=<ms> ...");
      }
      const auto src = nodes.find(tokens[1]);
      const auto dst = nodes.find(tokens[2]);
      if (src == nodes.end() || dst == nodes.end()) {
        return line_error(line_no, "link references undeclared node");
      }
      double cap = 0, delay_s = -1;
      LinkOpts opts;
      bool duplex = false;
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        const auto [key, value] = split_kv(tokens[i]);
        if (key == "cap") {
          if (!parse_double(value, &cap)) {
            return line_error(line_no, "bad cap");
          }
        } else if (key == "delay_ms") {
          if (!parse_ms_as_seconds(value, &delay_s)) {
            return line_error(line_no, "bad delay_ms");
          }
        } else if (key == "loss") {
          if (!parse_double(value, &opts.loss_rate)) {
            return line_error(line_no, "bad loss");
          }
        } else if (key == "policer") {
          if (!parse_double(value, &opts.policer_per_flow_mbps)) {
            return line_error(line_no, "bad policer");
          }
        } else if (key == "duplex" && value.empty()) {
          duplex = true;
        } else {
          return line_error(line_no, "unknown link option " + key);
        }
      }
      if (cap <= 0 || delay_s < 0) {
        return line_error(line_no, "link needs cap>0 and delay_ms>=0");
      }
      links.try_emplace({src->second, dst->second},
                        builder.add_link(src->second, dst->second, cap,
                                         delay_s, opts));
      if (duplex) {
        links.try_emplace({dst->second, src->second},
                          builder.add_link(dst->second, src->second, cap,
                                           delay_s, opts));
      }

    } else if (directive == "override") {
      if (tokens.size() < 2) {
        return line_error(line_no,
                          "override <at> src_tag=<tag> dst_as=<as> via=<node>");
      }
      const auto at = nodes.find(tokens[1]);
      if (at == nodes.end()) {
        return line_error(line_no, "override references undeclared node");
      }
      EgressOverride ov;
      ov.at = at->second;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        const auto [key, value] = split_kv(tokens[i]);
        if (key == "src_tag") {
          ov.src_tag = value;
        } else if (key == "dst_as") {
          const auto as = ases.find(value);
          if (as == ases.end()) {
            return line_error(line_no, "override references undeclared AS");
          }
          ov.dst_as = as->second;
        } else if (key == "via") {
          const auto next = nodes.find(value);
          if (next == nodes.end()) {
            return line_error(line_no, "override references undeclared node");
          }
          const auto link = links.find({ov.at, next->second});
          if (link == links.end()) {
            return line_error(line_no, "via " + value +
                                           " is not a link out of " + tokens[1]);
          }
          ov.use_link = link->second;
        } else {
          return line_error(line_no, "unknown override option " + key);
        }
      }
      if (ov.src_tag.empty() || ov.dst_as == kInvalidAs ||
          ov.use_link == kInvalidLink) {
        return line_error(line_no, "override needs src_tag=, dst_as= and via=");
      }
      builder.add_override(std::move(ov));

    } else {
      return line_error(line_no, "unknown directive " + directive);
    }
  }

  auto built = std::move(builder).build();
  if (!built.ok()) {
    return util::Error::make("validation: " + built.error().message);
  }
  return std::move(built).value();
}

std::string serialize_topology(const Topology& topo) {
  std::ostringstream out;
  out << "# droute topology, " << topo.as_count() << " ASes, "
      << topo.node_count() << " nodes, " << topo.link_count() << " links\n";
  for (std::size_t i = 0; i < topo.as_count(); ++i) {
    out << "as " << topo.as_info(static_cast<AsId>(i)).name << "\n";
  }
  // Each adjacency was declared once but recorded with its converse; emit
  // only the customer/peer canonical direction to avoid duplicates.
  for (const auto& adj : topo.as_adjacencies()) {
    if (adj.rel == AsRelation::kCustomer ||
        (adj.rel == AsRelation::kPeer && adj.first < adj.second)) {
      out << "relate " << topo.as_info(adj.first).name << " "
          << (adj.rel == AsRelation::kCustomer ? "customer" : "peer") << " "
          << topo.as_info(adj.second).name << "\n";
    }
  }
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    const Node& node = topo.node(static_cast<NodeId>(i));
    out << "node " << node.name << " "
        << (node.kind == NodeKind::kHost ? "host" : "router") << " "
        << topo.as_info(node.as_id).name << " "
        << number_text(node.coord.lat_deg) << " "
        << number_text(node.coord.lon_deg);
    const auto location = topo.registry().lookup(node.name);
    if (location && location->city != "unknown") {
      out << " city=\"" << location->city << "\"";
    }
    if (!node.tag.empty()) out << " tag=" << node.tag;
    if (node.middlebox_per_flow_mbps > 0) {
      out << " middlebox=" << number_text(node.middlebox_per_flow_mbps);
    }
    out << "\n";
  }
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    const Link& link = topo.link(static_cast<LinkId>(i));
    out << "link " << topo.node(link.src).name << " "
        << topo.node(link.dst).name
        << " cap=" << number_text(link.capacity_mbps)
        << " delay_ms=" << ms_text(link.prop_delay_s);
    if (link.loss_rate > 0) out << " loss=" << number_text(link.loss_rate);
    if (link.policer_per_flow_mbps > 0) {
      out << " policer=" << number_text(link.policer_per_flow_mbps);
    }
    out << "\n";
  }
  for (const EgressOverride& ov : topo.overrides()) {
    DROUTE_CHECK(!ov.src_tag.empty() && ov.src_prefix_bits == 0,
                 "serialize_topology: only tag-matched overrides have a file "
                 "syntax");
    out << "override " << topo.node(ov.at).name << " src_tag=" << ov.src_tag
        << " dst_as=" << topo.as_info(ov.dst_as).name
        << " via=" << topo.node(topo.link(ov.use_link).dst).name << "\n";
  }
  return out.str();
}

}  // namespace droute::net
