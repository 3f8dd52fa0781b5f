// Error-bar overlap analysis — the paper's significance heuristic
// (Sec III-B, Table IV): two routes whose mean +/- 1 stddev intervals
// overlap are considered statistically indistinguishable, in which case the
// conservative choice is the direct route ("unsure benefits of the detours").
#pragma once

#include <cstdint>

namespace droute::stats {

struct Interval {
  double mean = 0.0;
  double stddev = 0.0;

  double low() const { return mean - stddev; }
  double high() const { return mean + stddev; }
};

/// True when the two +/- 1 stddev error bars overlap (the paper's test).
bool error_bars_overlap(const Interval& a, const Interval& b);

/// How a candidate route compares to the direct baseline under the paper's
/// Sec III-B heuristic: the one shared verdict behind both the offline
/// core::RouteAdvisor's Recommendation and the online ctrl::PathEstimator.
enum class Significance : std::uint8_t {
  kCandidateBetter,     // error bars clear of each other, candidate wins
  kIndistinguishable,   // bars overlap: "unsure benefits of the detours"
  kBaselineBetter,      // baseline mean is at least as good
};

struct SignificanceOptions {
  /// The paper's conservatism: an overlapping candidate loses to the
  /// baseline even when its mean is better.
  bool prefer_baseline_on_overlap = true;
  /// Minimum relative mean improvement the candidate must show over the
  /// baseline to be chosen even when clear of overlap (0 = any gain).
  double min_gain = 0.0;
};

struct SignificanceDecision {
  Significance significance = Significance::kBaselineBetter;
  bool choose_candidate = false;  // the composed verdict, options applied
  bool overlap = false;           // raw error-bar overlap
  double gain = 0.0;              // relative mean improvement of candidate
};

/// Judges `candidate` against `baseline` where LOWER means are better
/// (transfer times). Encodes: pick the better mean, but fall back to the
/// baseline when the +/- 1 stddev bars overlap (if configured) or the gain
/// is below the threshold.
SignificanceDecision judge_lower_better(const Interval& candidate,
                                        const Interval& baseline,
                                        const SignificanceOptions& options = {});

/// Same decision where HIGHER means are better (throughputs); the gain is
/// the candidate's relative improvement over the baseline mean.
SignificanceDecision judge_higher_better(
    const Interval& candidate, const Interval& baseline,
    const SignificanceOptions& options = {});

}  // namespace droute::stats
