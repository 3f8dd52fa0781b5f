// Path-quality estimator: per-(client, provider, path) EWMA throughput and
// latency estimates, with the paper's Sec III-B error-bar-overlap
// significance heuristic (stats::judge_higher_better) applied online.
//
// Each probe or steered-session sample updates an exponentially weighted
// mean and variance; the sqrt of the EW variance plays the role of the
// per-run stddev in the paper's offline protocol, so "are these two paths
// distinguishable" is the same overlap test RouteAdvisor applies to
// campaign summaries. flag_tivs() lists the relay paths whose throughput is
// significantly ABOVE direct — online throughput triangle-inequality
// violations, the phenomenon the whole paper is about (Sec III).
//
// Storage is one vector indexed by a dense PathId, plus a permutation that
// lists the ids in key order. The keyed observe/lookup/flag_tivs API finds a
// key by binary search over that permutation; ctrl::Controller registers its
// candidate paths once and addresses their stats by id.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ctrl/steering.h"
#include "net/topology.h"
#include "stats/overlap.h"

namespace droute::ctrl {

struct EstimatorConfig {
  /// EWMA weight of the newest sample (both mean and variance).
  double alpha = 0.3;
};

/// Rolling estimate for one (client, provider, path) triple.
struct PathStats {
  double mean_mbps = 0.0;
  double var_mbps2 = 0.0;      // EW variance of the throughput samples
  double mean_elapsed_s = 0.0; // EWMA of end-to-end sample latency
  std::size_t samples = 0;
  std::uint64_t last_epoch = 0;  // epoch of the newest sample

  stats::Interval interval() const;
};

/// One online throughput TIV: a relay path significantly faster than direct.
struct TivFlag {
  net::NodeId client = net::kInvalidNode;
  net::NodeId provider = net::kInvalidNode;
  PathSpec path;
  double path_mbps = 0.0;
  double direct_mbps = 0.0;
};

/// Dense handle of one (client, provider, path) key: an index into the
/// estimator's storage. Ids are handed out in insertion order and stay
/// valid for the estimator's lifetime (reset() keeps every key).
using PathId = std::uint32_t;

class PathEstimator {
 public:
  PathEstimator() = default;
  explicit PathEstimator(EstimatorConfig config) : config_(config) {}

  // Dense API: the controller registers its candidate paths once and then
  // addresses their stats by PathId.

  /// The id of (client, provider, path), adding a never-sampled entry when
  /// the key is new. Adding a relay path also adds the pair's direct path.
  PathId add_path(net::NodeId client, net::NodeId provider,
                  const PathSpec& path);

  /// Folds one throughput/latency sample into entry `id`. Deterministic:
  /// plain arithmetic.
  void observe(PathId id, double mbps, double elapsed_s, std::uint64_t epoch);

  /// Entry `id`'s estimate; samples == 0 when never sampled since reset().
  const PathStats& stats(PathId id) const { return entries_[id].stats; }
  net::NodeId client(PathId id) const { return entries_[id].client; }
  const PathSpec& path(PathId id) const { return entries_[id].path; }
  /// The id of entry `id`'s (client, provider) direct path.
  PathId direct_of(PathId id) const { return entries_[id].direct; }
  /// Moves whenever stats(id) changes, so anything derived from stats(id)
  /// may be cached until it does.
  std::uint64_t revision(PathId id) const { return entries_[id].revision; }
  /// Every id, sorted by key (client, provider, then path): the order
  /// flag_tivs() reports in.
  const std::vector<PathId>& key_order() const { return order_; }
  std::size_t size() const { return entries_.size(); }

  /// True when `id` is a sampled relay path whose throughput is
  /// significantly better than its sampled direct path's under `options`.
  bool is_tiv(PathId id, const stats::SignificanceOptions& options) const;

  // Keyed API.

  /// Folds one sample into the (client, provider, path) estimate.
  void observe(net::NodeId client, net::NodeId provider, const PathSpec& path,
               double mbps, double elapsed_s, std::uint64_t epoch) {
    observe(add_path(client, provider, path), mbps, elapsed_s, epoch);
  }

  /// The current estimate, or nullptr when the path was never sampled
  /// (since the last reset()). The pointer is valid until a key is added.
  const PathStats* lookup(net::NodeId client, net::NodeId provider,
                          const PathSpec& path) const;

  /// All relay paths whose throughput estimate is significantly better than
  /// the same (client, provider)'s direct estimate under `options` — the
  /// per-epoch TIV scan. Deterministic order (sorted by key).
  std::vector<TivFlag> flag_tivs(
      const stats::SignificanceOptions& options = {}) const;

  /// Forgets every estimate, in O(paths); keys and ids stay. The controller
  /// calls this on network events: mixing pre- and post-event samples into
  /// one EWMA inflates the variance until the overlap test can no longer
  /// distinguish anything.
  void reset();

  /// Number of paths sampled since the last reset().
  std::size_t tracked_paths() const;

 private:
  struct Entry {
    net::NodeId client;
    net::NodeId provider;
    PathSpec path;
    PathId direct;
    PathStats stats;
    std::uint64_t revision = 0;
  };

  std::optional<PathId> find(net::NodeId client, net::NodeId provider,
                             const PathSpec& path) const;
  // Position in order_ where the key belongs (lower bound).
  std::vector<PathId>::const_iterator find_slot(net::NodeId client,
                                                net::NodeId provider,
                                                const PathSpec& path) const;

  EstimatorConfig config_;
  std::vector<Entry> entries_;  // indexed by PathId
  std::vector<PathId> order_;   // ids sorted by key
};

}  // namespace droute::ctrl
