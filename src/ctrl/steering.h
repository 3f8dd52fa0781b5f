// The decision-source seam between the control plane and the data plane.
//
// ctrl::Steering is the interface transfer::DetourEngine::steered_task
// consults when a new upload session starts: given (client, bytes), it names
// the path — direct, one DTN relay, or a bounded relay chain — the session
// should ride, and DetourEngine runs that chain. ctrl::Controller is the
// online implementation; StaticSteering pins a fixed path (the "what the
// paper hardcoded" baseline and the bench oracle's building block).
//
// This header is deliberately dependency-light (net ids only, everything
// inline) so the transfer layer can take a Steering& and a PathSpec without
// linking droute_ctrl — the control plane depends on the data plane, not
// the other way around.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/topology.h"

namespace droute::ctrl {

/// A candidate path from a client to the provider front-end: the ordered
/// DTN relays a session is staged through. Empty = the direct path.
struct PathSpec {
  std::vector<net::NodeId> relays;

  bool direct() const { return relays.empty(); }
  int relay_hops() const { return static_cast<int>(relays.size()); }

  /// Stable display/serialization label: "direct", "via 4", "via 4>7".
  std::string label() const {
    if (relays.empty()) return "direct";
    std::string out = "via ";
    for (std::size_t i = 0; i < relays.size(); ++i) {
      if (i > 0) out += ">";
      out += std::to_string(relays[i]);
    }
    return out;
  }

  friend bool operator==(const PathSpec& a, const PathSpec& b) {
    return a.relays == b.relays;
  }
  friend bool operator<(const PathSpec& a, const PathSpec& b) {
    return a.relays < b.relays;
  }
};

/// One steering decision, with enough context to audit it afterwards (the
/// ctrl_no_dead_steer property re-validates decisions against the live
/// topology, and DecisionTrace serializes them byte-identically).
struct Decision {
  PathSpec path;
  std::uint64_t epoch = 0;      // controller epoch the decision was made in
  double at_s = 0.0;            // simulated decision time
  double expected_mbps = 0.0;   // estimator mean for the chosen path (0 = none)
  double benefit_usd = 0.0;     // cost-model net benefit vs direct (0 for direct)
  bool routable = true;         // false: no live path existed; direct fallback
  bool switched = false;        // the client's incumbent path changed
  std::string reason;
};

/// Abstract decision source for new upload sessions.
class Steering {
 public:
  virtual ~Steering() = default;

  /// Chooses the path a new `bytes`-sized upload session from `client`
  /// should take to the provider front-end.
  virtual Decision steer(net::NodeId client, std::uint64_t bytes) = 0;

  /// Feedback channel: a steered session finished. Implementations may fold
  /// the observed goodput into their estimates; the default ignores it.
  virtual void observe_session(net::NodeId client, const Decision& decision,
                               std::uint64_t bytes, double elapsed_s,
                               bool success) {
    (void)client;
    (void)decision;
    (void)bytes;
    (void)elapsed_s;
    (void)success;
  }
};

/// Pins every session to one fixed path. The static-direct baseline of
/// bench_ctrl_recovery is StaticSteering{{}}; the oracle arms pin relays.
class StaticSteering final : public Steering {
 public:
  StaticSteering() = default;
  explicit StaticSteering(PathSpec path) : path_(std::move(path)) {}

  Decision steer(net::NodeId client, std::uint64_t bytes) override {
    (void)client;
    (void)bytes;
    Decision decision;
    decision.path = path_;
    decision.reason = "static";
    return decision;
  }

 private:
  PathSpec path_;
};

}  // namespace droute::ctrl
