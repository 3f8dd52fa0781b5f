// Zero-dependency metrics substrate for droute::obs.
//
// Three instrument kinds, all safe for concurrent mutation:
//   Counter   — monotonically increasing u64 (events, bytes, retries).
//   Gauge     — last-write-wins double (queue depth, pool stats).
//   Histogram — fixed-bucket distribution with exact count/sum/min/max and
//               interpolated percentiles (p50/p95/p99) derived from buckets.
//
// A Registry owns every instrument and hands out stable raw pointers; call
// sites cache the handle once (typically at construction) and mutate through
// it lock-free afterwards. Instruments are never destroyed before their
// Registry, so a handle is valid for the Registry's whole lifetime.
//
// Naming convention (enforced by tools/lint.py, documented in DESIGN.md §9):
// keys are `subsystem.noun_verb` with lowercase dotted segments; counters
// end in `_total`, histograms end in a unit suffix (_s, _bytes, _mbps,
// _ratio), gauges carry neither.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace droute::obs {

class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  void add(double delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Point-in-time copy of a histogram's state; percentiles interpolate
/// linearly inside the bucket the target rank falls into, clamped to the
/// exact observed [min, max].
struct HistogramSnapshot {
  std::vector<double> bounds;          // ascending upper edges
  std::vector<std::uint64_t> counts;   // bounds.size() + 1 (overflow last)
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // meaningful only when count > 0
  double max = 0.0;

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  /// p in [0, 100]; returns 0 when empty.
  double percentile(double p) const;
  double p50() const { return percentile(50.0); }
  double p95() const { return percentile(95.0); }
  double p99() const { return percentile(99.0); }
};

class Histogram {
 public:
  /// `bounds` are ascending upper bucket edges; values above the last edge
  /// land in an implicit overflow bucket.
  Histogram(std::string name, std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double value);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  const std::vector<double>& bounds() const { return bounds_; }

  HistogramSnapshot snapshot() const;

 private:
  std::string name_;
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> bucket_counts_;  // bounds_.size()+1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Default bucket edges per unit family (geometric; see DESIGN.md §9).
const std::vector<double>& duration_bounds_s();   // 1 ms .. ~4200 s
const std::vector<double>& size_bounds_bytes();   // 1 KiB .. 16 GiB
const std::vector<double>& rate_bounds_mbps();    // 0.1 .. ~6554 Mbps
const std::vector<double>& ratio_bounds();        // 0.05 .. 1.00

/// Owns every instrument; lookups are keyed by full metric name and create
/// on first use. Returned pointers are stable until the Registry dies.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  /// `bounds` apply only on first creation; later lookups of the same name
  /// return the existing instrument regardless of the bounds argument.
  Histogram* histogram(std::string_view name,
                       const std::vector<double>& bounds = duration_bounds_s());

  /// Enumeration for exporters, sorted by name (deterministic dumps).
  std::vector<const Counter*> counters() const;
  std::vector<const Gauge*> gauges() const;
  std::vector<const Histogram*> histograms() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace droute::obs
