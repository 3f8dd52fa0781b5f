// RouteAdvisor — turns measured route statistics into a recommendation,
// implementing the paper's decision logic (Sec III-B):
//   * prefer the route with the lowest mean transfer time;
//   * BUT if the winner is a detour whose +/- 1 stddev error bar overlaps the
//     direct route's, fall back to direct ("because of this significant
//     overlap, we may not choose to rely on any detours");
//   * a route with both lower mean and lower variance is strictly preferred.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "stats/descriptive.h"
#include "stats/overlap.h"

namespace droute::core {

struct RouteStats {
  std::string key;              // e.g. "direct", "via UAlberta"
  stats::Summary summary;
  bool is_direct = false;
};

enum class Confidence { kClear, kOverlapping };

struct Recommendation {
  std::string route_key;
  double expected_s = 0.0;
  Confidence confidence = Confidence::kClear;
  std::string reason;
};

class RouteAdvisor {
 public:
  struct Options {
    /// Apply the paper's conservatism: overlapping detours lose to direct.
    bool prefer_direct_on_overlap = true;
    /// Minimum relative gain a detour must show over direct to be chosen
    /// even when clear of overlap (0 = any gain).
    double min_detour_gain = 0.0;
  };

  RouteAdvisor() : options_(Options{}) {}
  explicit RouteAdvisor(Options options) : options_(options) {}

  /// Recommends among candidate routes; exactly one must be marked direct.
  /// Empty candidates are a programming error.
  Recommendation recommend(const std::vector<RouteStats>& candidates) const;

 private:
  Options options_;
};

/// Per-size recommendation table for one (client, provider) pair: the
/// machine-readable version of the paper's Table I cells with their
/// file-size exception footnotes.
struct SizeTable {
  std::map<std::uint64_t, Recommendation> by_size;

  /// The most common recommended route across sizes (the table cell), plus
  /// the sizes deviating from it (the footnote).
  std::string dominant_route() const;
  std::vector<std::uint64_t> exceptions() const;
};

}  // namespace droute::core
