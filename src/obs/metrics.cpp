#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "check/contract.h"

namespace droute::obs {

namespace {

void update_extreme_min(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

void update_extreme_max(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value > current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

std::vector<double> geometric(double first, double factor, int steps) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(steps));
  double edge = first;
  for (int i = 0; i < steps; ++i) {
    bounds.push_back(edge);
    edge *= factor;
  }
  return bounds;
}

}  // namespace

double HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t bucket = 0; bucket < counts.size(); ++bucket) {
    const std::uint64_t in_bucket = counts[bucket];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) < target) {
      cumulative += in_bucket;
      continue;
    }
    // Interpolate within [lower, upper], clamped to the observed extremes so
    // sparse buckets don't report values no sample ever reached.
    double lower = bucket == 0 ? min : bounds[bucket - 1];
    double upper = bucket < bounds.size() ? bounds[bucket] : max;
    lower = std::max(lower, min);
    upper = std::min(upper, max);
    if (upper < lower) upper = lower;
    const double fraction =
        (target - static_cast<double>(cumulative)) /
        static_cast<double>(in_bucket);
    return lower + fraction * (upper - lower);
  }
  return max;
}

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)),
      bounds_(std::move(bounds)),
      bucket_counts_(bounds_.size() + 1),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  DROUTE_CHECK(!bounds_.empty(), "histogram needs at least one bucket edge: ",
               name_);
  DROUTE_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()),
               "histogram bounds must ascend: ", name_);
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  bucket_counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  update_extreme_min(min_, value);
  update_extreme_max(max_, value);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.reserve(bucket_counts_.size());
  for (const auto& bucket : bucket_counts_) {
    snap.counts.push_back(bucket.load(std::memory_order_relaxed));
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.min = snap.count > 0 ? min_.load(std::memory_order_relaxed) : 0.0;
  snap.max = snap.count > 0 ? max_.load(std::memory_order_relaxed) : 0.0;
  return snap;
}

const std::vector<double>& duration_bounds_s() {
  // 1 ms doubling up to ~4194 s: covers chunk acks through whole campaigns.
  static const std::vector<double> bounds = geometric(1e-3, 2.0, 23);
  return bounds;
}

const std::vector<double>& size_bounds_bytes() {
  // 1 KiB ×4 up to 16 GiB.
  static const std::vector<double> bounds = geometric(1024.0, 4.0, 13);
  return bounds;
}

const std::vector<double>& rate_bounds_mbps() {
  // 0.1 Mbps doubling up to ~6554 Mbps.
  static const std::vector<double> bounds = geometric(0.1, 2.0, 17);
  return bounds;
}

const std::vector<double>& ratio_bounds() {
  static const std::vector<double> bounds = [] {
    std::vector<double> edges;
    for (int i = 1; i <= 20; ++i) {
      edges.push_back(static_cast<double>(i) * 0.05);
    }
    return edges;
  }();
  return bounds;
}

Counter* Registry::counter(std::string_view name) {
  DROUTE_CHECK(!name.empty(), "empty metric name");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name),
                           std::make_unique<Counter>(std::string(name)))
             .first;
  }
  return it->second.get();
}

Gauge* Registry::gauge(std::string_view name) {
  DROUTE_CHECK(!name.empty(), "empty metric name");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name),
                         std::make_unique<Gauge>(std::string(name)))
             .first;
  }
  return it->second.get();
}

Histogram* Registry::histogram(std::string_view name,
                               const std::vector<double>& bounds) {
  DROUTE_CHECK(!name.empty(), "empty metric name");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::string(name), bounds))
             .first;
  }
  return it->second.get();
}

std::vector<const Counter*> Registry::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const Counter*> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) out.push_back(counter.get());
  return out;
}

std::vector<const Gauge*> Registry::gauges() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const Gauge*> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) out.push_back(gauge.get());
  return out;
}

std::vector<const Histogram*> Registry::histograms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const Histogram*> out;
  out.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.push_back(histogram.get());
  }
  return out;
}

}  // namespace droute::obs
