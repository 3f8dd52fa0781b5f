#include "core/advisor.h"

#include <algorithm>

#include "check/contract.h"
#include "util/result.h"

namespace droute::core {

Recommendation RouteAdvisor::recommend(
    const std::vector<RouteStats>& candidates) const {
  DROUTE_CHECK(!candidates.empty(), "RouteAdvisor: no candidates");
  const auto direct_it =
      std::find_if(candidates.begin(), candidates.end(),
                   [](const RouteStats& r) { return r.is_direct; });
  DROUTE_CHECK(direct_it != candidates.end(),
               "RouteAdvisor: a direct candidate is required");

  const RouteStats* best = &candidates.front();
  for (const RouteStats& candidate : candidates) {
    if (candidate.summary.mean < best->summary.mean) best = &candidate;
  }

  Recommendation decision;
  decision.route_key = best->key;
  decision.expected_s = best->summary.mean;

  if (best->is_direct) {
    decision.confidence = Confidence::kClear;
    decision.reason = "direct route has the lowest mean transfer time";
    return decision;
  }

  const stats::Interval best_iv{best->summary.mean, best->summary.stddev};
  const stats::Interval direct_iv{direct_it->summary.mean,
                                  direct_it->summary.stddev};
  // The shared Sec III-B verdict (stats::judge_lower_better) — the same
  // decision the online ctrl::PathEstimator applies per epoch.
  const stats::SignificanceDecision verdict = stats::judge_lower_better(
      best_iv, direct_iv,
      {.prefer_baseline_on_overlap = options_.prefer_direct_on_overlap,
       .min_gain = options_.min_detour_gain});

  if (!verdict.choose_candidate) {
    decision.route_key = direct_it->key;
    decision.expected_s = direct_it->summary.mean;
    decision.confidence = Confidence::kOverlapping;
    decision.reason =
        verdict.overlap ? "detour error bars overlap direct; keeping direct "
                          "(paper Sec III-B conservatism)"
                        : "detour gain below configured threshold";
    return decision;
  }

  decision.confidence =
      verdict.overlap ? Confidence::kOverlapping : Confidence::kClear;
  decision.reason =
      "detour beats direct by " +
      std::to_string(static_cast<int>(verdict.gain * 100.0)) + "%";
  return decision;
}

std::string SizeTable::dominant_route() const {
  std::map<std::string, int> votes;
  for (const auto& [size, decision] : by_size) ++votes[decision.route_key];
  std::string best;
  int best_votes = -1;
  for (const auto& [route, count] : votes) {
    if (count > best_votes) {
      best = route;
      best_votes = count;
    }
  }
  return best;
}

std::vector<std::uint64_t> SizeTable::exceptions() const {
  const std::string dominant = dominant_route();
  std::vector<std::uint64_t> out;
  for (const auto& [size, decision] : by_size) {
    if (decision.route_key != dominant) out.push_back(size);
  }
  return out;
}

}  // namespace droute::core
