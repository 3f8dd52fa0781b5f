// The benchmark's own arithmetic: percentile selection, failure accounting
// and the per-layer ratio derivations. Header-only and free of droute
// dependencies so tests/stats_test.cpp can pin every rule.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; with fewer, the "p99" of a run is just its maximum.
inline constexpr std::size_t kMinTailSamples = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples.
inline std::size_t nearest_rank(std::size_t n, double p) {
  // p * n first: exact for the integer percentiles used here.
  const double rank = std::ceil(p * static_cast<double>(n) / 100.0);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

/// Smallest sample count for which percentile `p` has kMinTailSamples
/// samples beyond it (20 for p50, 100 for p90, 1000 for p99).
inline std::size_t min_samples_for(double p) {
  std::size_t n = kMinTailSamples + 1;
  while (n - nearest_rank(n, p) < kMinTailSamples) ++n;
  return n;
}

/// Nearest-rank percentile of `samples`, or nullopt when the tail beyond it
/// holds fewer than kMinTailSamples samples.
inline std::optional<double> percentile(std::vector<double> samples,
                                        double p) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  const std::size_t rank = nearest_rank(n, p);
  if (n - rank < kMinTailSamples) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// num / den, 0 when the denominator is 0 (a layer that did no work).
inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Attempted/failed op accounting. An op that fails for several reasons
/// (a run error *and* a failed output check) counts once.
struct OpTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::uint64_t ops, std::uint64_t failed_ops) {
    attempted += ops;
    failed += std::min(failed_ops, ops);
  }
  double fail_ratio() const {
    return ratio(static_cast<double>(failed), static_cast<double>(attempted));
  }
};

/// Failed ops of one group of `ops` ops (a grid cell, a round of uploads)
/// with `errors` individually failed ops: a failed output check on the
/// group fails every op in it.
inline std::uint64_t group_failures(std::uint64_t ops, std::uint64_t errors,
                                    bool check_failed) {
  return check_failed ? ops : std::min(errors, ops);
}

/// sim.dead_entry_ratio: cancelled heap entries as a share of all heap
/// entries, taken at the sample where the backlog peaked.
inline double dead_entry_ratio(std::size_t backlog, std::size_t pending) {
  return ratio(static_cast<double>(backlog),
               static_cast<double>(backlog + pending));
}

/// Payload megabytes (10^6 bytes) per second.
inline double megabytes_per_s(std::uint64_t bytes, double seconds) {
  return ratio(static_cast<double>(bytes) / 1e6, seconds);
}

/// Mebibytes (2^20 bytes) per second.
inline double mebibytes_per_s(std::uint64_t bytes, double seconds) {
  return ratio(static_cast<double>(bytes) / (1024.0 * 1024.0), seconds);
}

/// Running total of host time spent in one layer's calls.
struct Tally {
  std::uint64_t calls = 0;
  double seconds = 0.0;

  void add(double s) {
    ++calls;
    seconds += s;
  }
  double mean_ms() const { return ratio(seconds * 1e3, static_cast<double>(calls)); }
  double mean_us() const { return ratio(seconds * 1e6, static_cast<double>(calls)); }
};

/// FNV-1a accumulator for outcome digests.
struct Digest {
  std::uint64_t value = 0xcbf29ce484222325ull;

  void add_bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      value ^= bytes[i];
      value *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void add(const T& v) {
    add_bytes(&v, sizeof v);
  }
};

}  // namespace perfbench
