// Client-workload generator: a day in the life of a cloud-storage user
// population, in the spirit of the passive measurements the paper cites
// (Drago et al. [4][8]): Poisson session arrivals, a geometric number of
// files per session, and heavy-tailed (log-normal, clamped) file sizes.
// Drives ctrl::BatchScheduler in bench_ext_scheduler.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace droute::measure {

struct WorkloadProfile {
  double mean_session_interarrival_s = 300.0;
  double mean_files_per_session = 3.0;      // geometric, >= 1
  double file_size_mean_mb = 12.0;          // log-normal mean
  double file_size_cv = 1.8;                // heavy tail
  std::uint64_t min_bytes = 100 * 1000;
  std::uint64_t max_bytes = 200 * 1000 * 1000;
  /// Seconds between files within one session (user think time).
  double intra_session_gap_s = 20.0;
};

struct WorkloadItem {
  double at_s = 0.0;           // submission time from workload start
  std::uint64_t bytes = 0;
};

/// Generates all items arriving within [0, horizon_s). Deterministic per
/// RNG state; items are returned in nondecreasing submission order.
std::vector<WorkloadItem> generate_workload(util::Rng& rng,
                                            const WorkloadProfile& profile,
                                            double horizon_s);

}  // namespace droute::measure
