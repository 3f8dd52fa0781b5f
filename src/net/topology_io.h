// Plain-text topology format: the built-in scenario's network
// (data/north_america.topo, compiled into droute_scenario) and any WAN a
// downstream user defines without recompiling.
//
// Line-based, '#' comments, whitespace-separated tokens:
//
//   as <name>
//   relate <as> customer|peer|provider <as>     # what the 2nd AS is to the 1st
//   node <name> host|router <as> <lat> <lon> [city="..."] [tag=...]
//        [middlebox=<mbps>]
//   link <src> <dst> cap=<mbps> delay_ms=<ms> [loss=<p>] [policer=<mbps>]
//        [duplex]
//   override <at> src_tag=<tag> dst_as=<as> via=<next-hop>
//
// An `override` line installs an EgressOverride (topology.h): traffic from
// sources tagged <tag> toward dst_as leaves router <at> over its first
// declared link to <next-hop>, so it must come after that link. Overrides
// that match on a source prefix have no file syntax; build them with
// Topology::Builder::add_override (serialize_topology refuses them).
//
// Decoding is strict: unknown directives, dangling names, malformed numbers
// and constraint violations (via Topology::Builder / validate()) all fail
// with a line-numbered error.
#pragma once

#include <string>

#include "net/topology.h"
#include "util/result.h"

namespace droute::net {

/// Parses a topology document. Errors carry the offending line number.
[[nodiscard]] util::Result<Topology> parse_topology(const std::string& text);

/// Serializes a topology to the same format. Every number is written as the
/// shortest text that parses back to the same double, so parse_topology
/// reproduces every rate, delay and coordinate bit for bit. Every override
/// must match by tag alone (src_tag set, src_prefix_bits == 0); a CheckError
/// is thrown otherwise.
std::string serialize_topology(const Topology& topo);

}  // namespace droute::net
