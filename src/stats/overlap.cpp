#include "stats/overlap.h"

namespace droute::stats {

bool error_bars_overlap(const Interval& a, const Interval& b) {
  return a.low() <= b.high() && b.low() <= a.high();
}

namespace {

// The shared verdict core: callers supply the direction-independent facts
// (is the candidate's mean strictly better, do the bars overlap, and the
// relative gain), the options compose them into the paper's decision.
SignificanceDecision compose_verdict(bool candidate_mean_better, bool overlap,
                                     double gain,
                                     const SignificanceOptions& options) {
  SignificanceDecision decision;
  decision.overlap = overlap;
  decision.gain = gain;
  if (!candidate_mean_better) {
    decision.significance = Significance::kBaselineBetter;
    return decision;
  }
  decision.significance = overlap ? Significance::kIndistinguishable
                                  : Significance::kCandidateBetter;
  decision.choose_candidate =
      !(overlap && options.prefer_baseline_on_overlap) &&
      gain >= options.min_gain;
  return decision;
}

}  // namespace

SignificanceDecision judge_lower_better(const Interval& candidate,
                                        const Interval& baseline,
                                        const SignificanceOptions& options) {
  const double gain = baseline.mean != 0.0
                          ? (baseline.mean - candidate.mean) / baseline.mean
                          : 0.0;
  return compose_verdict(candidate.mean < baseline.mean,
                         error_bars_overlap(candidate, baseline), gain,
                         options);
}

SignificanceDecision judge_higher_better(const Interval& candidate,
                                         const Interval& baseline,
                                         const SignificanceOptions& options) {
  const double gain = baseline.mean != 0.0
                          ? (candidate.mean - baseline.mean) / baseline.mean
                          : 0.0;
  return compose_verdict(candidate.mean > baseline.mean,
                         error_bars_overlap(candidate, baseline), gain,
                         options);
}

}  // namespace droute::stats
