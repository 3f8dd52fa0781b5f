// DetourPlanner — the automatic detour selection the paper names as missing
// ("we have not implemented an automatic detour selection algorithm",
// Sec III-B).
//
// Strategy: probe every candidate route with a small payload a few times,
// fit the affine cost model  t(size) = overhead + size / rate  per route
// (two probe sizes suffice), then predict the transfer time of the real
// payload and recommend through RouteAdvisor. The probe budget is charged
// and reported so callers can weigh probing cost against expected savings.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "measure/campaign.h"
#include "util/result.h"

namespace droute::core {

/// Affine route cost model fitted from probes.
struct RouteModel {
  std::string key;
  double overhead_s = 0.0;        // per-transfer fixed cost
  double rate_bytes_per_s = 0.0;  // asymptotic throughput
  double residual = 0.0;          // mean abs error of the fit, seconds
  double r_squared = 0.0;         // OLS goodness of fit (1 = affine route)

  double predict_s(std::uint64_t bytes) const {
    return overhead_s + static_cast<double>(bytes) / rate_bytes_per_s;
  }
};

struct PlannerReport {
  Recommendation decision;
  std::vector<RouteModel> models;      // one per candidate, probe-fitted
  double probe_cost_s = 0.0;           // total simulated time spent probing
  std::uint64_t probe_bytes = 0;       // total payload probed
};

class DetourPlanner {
 public:
  struct Options {
    std::uint64_t small_probe_bytes = 2 * 1000 * 1000;   // 2 MB
    std::uint64_t large_probe_bytes = 10 * 1000 * 1000;  // 10 MB
    int probes_per_size = 2;
    RouteAdvisor::Options advisor;
    std::uint64_t probe_seed = 0x9120be;  // seed for probe-run derivation
  };

  explicit DetourPlanner(Options options);

  /// Registers a candidate. Exactly one must be the direct route.
  void add_candidate(const std::string& key, measure::TransferFn fn,
                     bool is_direct);

  /// Probes all candidates and recommends a route for `target_bytes`.
  [[nodiscard]]
  util::Result<PlannerReport> plan(std::uint64_t target_bytes) const;

 private:
  struct Candidate {
    std::string key;
    measure::TransferFn fn;
    bool is_direct;
  };

  Options options_;
  std::vector<Candidate> candidates_;
};

}  // namespace droute::core
