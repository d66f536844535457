// Solver metrics: named counters, gauges and fixed-bucket histograms.
//
// Hot solver loops (simplex pivots, DP cells, B&B nodes) must be able to
// count events without serializing on a lock.  Every counter and histogram
// bucket is therefore sharded: writers pick a shard by a per-thread index
// and do ONE relaxed atomic add; readers aggregate across shards when a
// snapshot is taken.  Metric registration (name -> object) goes through a
// mutex, so instrumentation sites cache the returned reference (function-
// local static) and never touch the map again.
//
// Runtime switch: obs::set_enabled(false) turns recording into a single
// relaxed load.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace cubisg::obs {

/// Runtime master switch for metric recording (default on).
bool enabled();
void set_enabled(bool on);

namespace detail {

/// Shard count: a power of two so the thread hash is a mask.  16 shards
/// keep false sharing negligible without bloating small registries.
inline constexpr std::size_t kShards = 16;

/// Stable per-thread shard index in [0, kShards).
std::size_t shard_index();

/// One cache line per shard so concurrent writers do not false-share.
struct alignas(64) Cell {
  std::atomic<std::int64_t> value{0};
};

/// Lock-free add for doubles (no fetch_add guarantee pre-C++20 on all
/// targets; a CAS loop is portable and uncontended in practice).
inline void atomic_add_double(std::atomic<double>& a, double delta) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + delta,
                                  std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// Monotonic event count.
class Counter {
 public:
  void add(std::int64_t delta = 1) {
    if (!enabled()) return;
    shards_[detail::shard_index()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  /// Aggregated value (sums shards; racing writers may land just after).
  std::int64_t value() const;
  const std::string& name() const { return name_; }
  void reset();

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  std::string name_;
  detail::Cell shards_[detail::kShards];
};

/// Last-write-wins instantaneous value (e.g. a queue depth).
class Gauge {
 public:
  void set(double v) {
    if (!enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void add(double delta) {
    if (!enabled()) return;
    detail::atomic_add_double(value_, delta);
  }

  double value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  friend class Registry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are ascending upper edges; one
/// overflow bucket is appended implicitly.  Records are sharded like
/// counters — one relaxed bucket increment plus count/sum upkeep.
class Histogram {
 public:
  void record(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  const std::string& name() const { return name_; }
  /// Aggregated per-bucket counts (bounds().size() + 1 entries).
  std::vector<std::int64_t> bucket_counts() const;
  std::int64_t count() const;
  double sum() const;
  void reset();

  /// Default bucket edges for latencies in seconds: 1us .. 10s decades.
  static std::vector<double> latency_bounds_seconds();

 private:
  friend class Registry;
  Histogram(std::string name, std::vector<double> bounds);

  struct Shard {
    std::unique_ptr<std::atomic<std::int64_t>[]> counts;
    alignas(64) std::atomic<std::int64_t> count{0};
    std::atomic<double> sum{0.0};
  };

  std::string name_;
  std::vector<double> bounds_;
  Shard shards_[detail::kShards];
};

// ---- snapshots ---------------------------------------------------------

struct CounterSnapshot {
  std::string name;
  std::int64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};

struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::int64_t> counts;  ///< bounds.size() + 1 (overflow last)
  std::int64_t count = 0;
  double sum = 0.0;
};

/// Point-in-time aggregate of every registered metric.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Counter value by name (0 when absent).
  std::int64_t counter(const std::string& name) const;
  /// Histogram by name (nullptr when absent).
  const HistogramSnapshot* histogram(const std::string& name) const;

  /// This snapshot minus `baseline`: counters and histogram counts/sums
  /// subtract (clamped at 0 for counts); gauges keep their current value.
  /// Metrics absent from the baseline pass through unchanged.
  MetricsSnapshot delta_since(const MetricsSnapshot& baseline) const;

  std::string to_json() const;
};

/// Name -> metric map.  References returned are stable for the process
/// lifetime; instrumentation sites cache them in function-local statics.
///
/// Each name belongs to exactly one metric kind: re-registering an
/// existing name as a different kind throws std::logic_error instead of
/// silently creating a second family that would collapse onto the same
/// exposition name (and be dropped by the Prometheus serializer).
class Registry {
 public:
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` is used on first registration only; empty = latency decades.
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = {});

  MetricsSnapshot snapshot() const;
  /// Zeroes every value; identities (and cached references) stay valid.
  void reset();

  /// Fork support: holds/releases the registration mutex around fork()
  /// so a forked worker child never inherits it locked (recording itself
  /// is lock-free; only name lookup takes the mutex).
  void fork_lock();
  void fork_unlock();

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

// ---- per-solve telemetry ----------------------------------------------

/// Snapshot of solver activity over one solve: the metric deltas recorded
/// between SolveScope construction and finish().  Concurrent solves share
/// the global registry, so deltas attribute activity from overlapping
/// solves to each other; per-solve isolation is future work.
struct SolveTelemetry {
  MetricsSnapshot metrics;
  double wall_seconds = 0.0;

  std::int64_t counter(const std::string& name) const {
    return metrics.counter(name);
  }
  std::string to_json() const;
};

/// RAII baseline capture for SolveTelemetry.
class SolveScope {
 public:
  SolveScope();
  /// Metric deltas since construction plus elapsed wall time.
  SolveTelemetry finish() const;

 private:
  MetricsSnapshot baseline_;
  std::int64_t start_ns_ = 0;
};

}  // namespace cubisg::obs
