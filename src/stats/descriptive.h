// Descriptive statistics for measurement series.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace droute::stats {

struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;   // sample standard deviation (n-1), paper's error bars
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
};

/// Summarizes a series. Empty input yields a zero Summary; a single sample
/// has stddev 0.
Summary summarize(std::span<const double> samples);

/// Sample mean.
double mean(std::span<const double> samples);

/// Sample standard deviation (n-1 denominator); 0 for n < 2.
double sample_stddev(std::span<const double> samples);

/// The paper's protocol: of `samples` (in run order), drop the first
/// (count - keep_last) warm-up runs and summarize the rest. If there are
/// fewer than keep_last samples, all are kept.
Summary keep_last_summary(std::span<const double> samples,
                          std::size_t keep_last);

}  // namespace droute::stats
