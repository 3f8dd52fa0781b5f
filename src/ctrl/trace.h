// DecisionTrace: the controller's append-only audit log.
//
// Every epoch tick, probe result, TIV flag, steering decision, session
// completion, and network event lands here as one text line. All doubles go
// through util::format_double (%.17g round-trip), so two same-seed runs
// produce byte-identical serialize() output — the determinism contract
// ctrl_test and the proptest digest both assert.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ctrl/steering.h"
#include "net/topology.h"

namespace droute::ctrl {

class DecisionTrace {
 public:
  void note_epoch(std::uint64_t epoch, double at_s, int probes_launched,
                  std::uint64_t budget_spent_bytes);
  void note_probe(net::NodeId client, const PathSpec& path, bool ok,
                  double mbps, double elapsed_s, std::uint64_t epoch);
  /// A tiv line comes in two parts: the text up to and including
  /// " epoch=", which a caller may cache while the flag's numbers hold, and
  /// the epoch note_tiv appends.
  static std::string tiv_line_prefix(net::NodeId client, net::NodeId provider,
                                     const PathSpec& path, double path_mbps,
                                     double direct_mbps);
  void note_tiv(const std::string& prefix, std::uint64_t epoch);
  void note_steer(net::NodeId client, std::uint64_t bytes,
                  const Decision& decision);
  void note_session(net::NodeId client, const PathSpec& path, bool success,
                    double mbps, double elapsed_s);
  void note_event(double at_s, const std::string& what);

  std::size_t lines() const { return lines_.size(); }

  /// Full trace text: a version header plus one line per note.
  std::string serialize() const;

  /// FNV-1a of serialize()'s bytes, hashed without building the string —
  /// cheap byte-identity check for tests and the chaos digest.
  std::uint64_t fnv1a() const;

 private:
  std::vector<std::string> lines_;
};

}  // namespace droute::ctrl
