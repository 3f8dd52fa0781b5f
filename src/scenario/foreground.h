// What every scenario world shares to run one foreground transfer: the
// simulated-time cap it is driven under (sim::drive) and the fold of the
// engine task's join into the Result<double> a campaign records.
#pragma once

#include "util/result.h"

namespace droute::scenario {

inline constexpr double kForegroundDeadlineS = 36000.0;  // simulated-time cap

// Folds an engine task's join result into the campaign's Result<double>:
// Task-level errors (escaped exceptions, cancellation) and domain failures
// both surface as errors; success yields the transfer's elapsed seconds.
template <typename R>
[[nodiscard]] util::Result<double> fold_elapsed(const util::Result<R>& joined) {
  if (!joined.ok()) return util::Error{joined.error()};
  if (!joined.value().success) return util::Error::make(joined.value().error);
  return joined.value().duration_s();
}

}  // namespace droute::scenario
