#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

namespace droute::stats {

double mean(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

double sample_stddev(std::span<const double> samples) {
  if (samples.size() < 2) return 0.0;
  const double m = mean(samples);
  double accum = 0.0;
  for (double s : samples) accum += (s - m) * (s - m);
  return std::sqrt(accum / static_cast<double>(samples.size() - 1));
}

Summary summarize(std::span<const double> samples) {
  Summary summary;
  if (samples.empty()) return summary;
  summary.count = samples.size();
  summary.mean = mean(samples);
  summary.stddev = sample_stddev(samples);
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  summary.min = sorted.front();
  summary.max = sorted.back();
  const std::size_t n = sorted.size();
  summary.median = n % 2 == 1 ? sorted[n / 2]
                              : (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0;
  return summary;
}

Summary keep_last_summary(std::span<const double> samples,
                          std::size_t keep_last) {
  if (samples.size() <= keep_last) return summarize(samples);
  return summarize(samples.subspan(samples.size() - keep_last));
}

}  // namespace droute::stats
