#include "ctrl/estimator.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <tuple>

#include "check/contract.h"

namespace droute::ctrl {

stats::Interval PathStats::interval() const {
  return {mean_mbps, std::sqrt(std::max(0.0, var_mbps2))};
}

std::vector<PathId>::const_iterator PathEstimator::find_slot(
    net::NodeId client, net::NodeId provider, const PathSpec& path) const {
  return std::lower_bound(order_.begin(), order_.end(),
                          std::tie(client, provider, path),
                          [this](PathId id, const auto& key) {
                            const Entry& e = entries_[id];
                            return std::tie(e.client, e.provider, e.path) <
                                   key;
                          });
}

std::optional<PathId> PathEstimator::find(net::NodeId client,
                                          net::NodeId provider,
                                          const PathSpec& path) const {
  const auto slot = find_slot(client, provider, path);
  if (slot == order_.end()) return std::nullopt;
  const Entry& e = entries_[*slot];
  if (std::tie(e.client, e.provider, e.path) !=
      std::tie(client, provider, path)) {
    return std::nullopt;
  }
  return *slot;
}

PathId PathEstimator::add_path(net::NodeId client, net::NodeId provider,
                               const PathSpec& path) {
  if (const auto found = find(client, provider, path)) return *found;
  const PathId direct = path.direct()
                            ? static_cast<PathId>(entries_.size())
                            : add_path(client, provider, PathSpec{});
  const auto id = static_cast<PathId>(entries_.size());
  order_.insert(find_slot(client, provider, path), id);
  entries_.push_back({client, provider, path, direct, PathStats{}, 0});
  return id;
}

void PathEstimator::observe(PathId id, double mbps, double elapsed_s,
                            std::uint64_t epoch) {
  DROUTE_DCHECK(mbps >= 0.0 && elapsed_s >= 0.0,
                "PathEstimator: negative sample");
  Entry& entry = entries_[id];
  PathStats& st = entry.stats;
  if (st.samples == 0) {
    st.mean_mbps = mbps;
    st.var_mbps2 = 0.0;
    st.mean_elapsed_s = elapsed_s;
  } else {
    // Exponentially weighted mean and variance (West 1979): the variance
    // update uses the pre-update deviation times the post-update increment,
    // which keeps it unbiased under the EW weighting.
    const double alpha = config_.alpha;
    const double diff = mbps - st.mean_mbps;
    const double incr = alpha * diff;
    st.mean_mbps += incr;
    st.var_mbps2 = (1.0 - alpha) * (st.var_mbps2 + diff * incr);
    st.mean_elapsed_s += alpha * (elapsed_s - st.mean_elapsed_s);
  }
  ++st.samples;
  st.last_epoch = epoch;
  ++entry.revision;
}

const PathStats* PathEstimator::lookup(net::NodeId client,
                                       net::NodeId provider,
                                       const PathSpec& path) const {
  const auto id = find(client, provider, path);
  if (!id || entries_[*id].stats.samples == 0) return nullptr;
  return &entries_[*id].stats;
}

bool PathEstimator::is_tiv(PathId id,
                           const stats::SignificanceOptions& options) const {
  const Entry& e = entries_[id];
  if (e.path.direct() || e.stats.samples == 0) return false;
  const PathStats& direct = entries_[e.direct].stats;
  if (direct.samples == 0) return false;
  return stats::judge_higher_better(e.stats.interval(), direct.interval(),
                                    options)
             .significance == stats::Significance::kCandidateBetter;
}

std::vector<TivFlag> PathEstimator::flag_tivs(
    const stats::SignificanceOptions& options) const {
  std::vector<TivFlag> flags;
  for (const PathId id : order_) {
    if (!is_tiv(id, options)) continue;
    const Entry& e = entries_[id];
    flags.push_back({e.client, e.provider, e.path, e.stats.mean_mbps,
                     entries_[e.direct].stats.mean_mbps});
  }
  return flags;
}

void PathEstimator::reset() {
  for (Entry& e : entries_) {
    if (e.stats.samples == 0) continue;
    e.stats = PathStats{};
    ++e.revision;
  }
}

std::size_t PathEstimator::tracked_paths() const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [](const Entry& e) { return e.stats.samples > 0; }));
}

}  // namespace droute::ctrl
