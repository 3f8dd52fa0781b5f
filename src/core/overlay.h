// OverlayTable — the deployed artifact of detour planning: for every
// (client, provider) pair, which route traffic should take right now.
// This is the "full-fledged overlay network" bookkeeping of Sec III-D,
// fed by DetourPlanner and RouteAdvisor decisions.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/advisor.h"

namespace droute::core {

/// A routing entry: direct, or via a named intermediate.
struct OverlayEntry {
  std::string client;
  std::string provider;
  std::string route_key;     // "direct" or "via <node>"
  double expected_s = 0.0;   // predicted transfer time when installed
  Confidence confidence = Confidence::kClear;
  std::uint64_t decided_for_bytes = 0;  // payload size the decision targeted
};

class OverlayTable {
 public:
  /// Installs/replaces the route for (client, provider).
  void install(OverlayEntry entry);

  std::optional<OverlayEntry> lookup(const std::string& client,
                                     const std::string& provider) const;

  /// Removes the entry, falling back to direct-by-default semantics.
  bool evict(const std::string& client, const std::string& provider);

  std::vector<OverlayEntry> entries() const;
  std::size_t size() const { return table_.size(); }

  /// Human-readable dump (used by the overlay example and Table V bench).
  std::string render() const;

 private:
  std::map<std::pair<std::string, std::string>, OverlayEntry> table_;
};

}  // namespace droute::core
