#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/json.hpp"

namespace cubisg::obs {

using detail::append_double;
using detail::append_escaped;

namespace {

std::atomic<bool> g_enabled{true};

/// Round-robin thread -> shard assignment; cheaper and better distributed
/// than hashing std::thread::id.
std::atomic<std::size_t> g_next_shard{0};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

namespace detail {

std::size_t shard_index() {
  thread_local const std::size_t idx =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  return idx;
}

}  // namespace detail

// ---- Counter -----------------------------------------------------------

std::int64_t Counter::value() const {
  std::int64_t total = 0;
  for (const detail::Cell& s : shards_) {
    total += s.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::reset() {
  for (detail::Cell& s : shards_) {
    s.value.store(0, std::memory_order_relaxed);
  }
}

// ---- Histogram ---------------------------------------------------------

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)), bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = latency_bounds_seconds();
  std::sort(bounds_.begin(), bounds_.end());
  const std::size_t n = bounds_.size() + 1;
  for (Shard& s : shards_) {
    s.counts = std::make_unique<std::atomic<std::int64_t>[]>(n);
    for (std::size_t b = 0; b < n; ++b) {
      s.counts[b].store(0, std::memory_order_relaxed);
    }
  }
}

std::vector<double> Histogram::latency_bounds_seconds() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0};
}

void Histogram::record(double v) {
  if (!enabled()) return;
  const std::size_t bucket =
      static_cast<std::size_t>(std::upper_bound(bounds_.begin(),
                                                bounds_.end(), v) -
                               bounds_.begin());
  Shard& s = shards_[detail::shard_index()];
  s.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add_double(s.sum, v);
}

std::vector<std::int64_t> Histogram::bucket_counts() const {
  std::vector<std::int64_t> out(bounds_.size() + 1, 0);
  for (const Shard& s : shards_) {
    for (std::size_t b = 0; b < out.size(); ++b) {
      out[b] += s.counts[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::int64_t Histogram::count() const {
  std::int64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::sum() const {
  double total = 0.0;
  for (const Shard& s : shards_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::reset() {
  for (Shard& s : shards_) {
    for (std::size_t b = 0; b <= bounds_.size(); ++b) {
      s.counts[b].store(0, std::memory_order_relaxed);
    }
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0.0, std::memory_order_relaxed);
  }
}

// ---- Registry ----------------------------------------------------------

struct Registry::Impl {
  mutable std::mutex mutex;
  // std::map: stable addresses and deterministic (sorted) snapshot order.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
  /// Metric-family hygiene: every registered name maps to exactly one
  /// kind.  Before this map, registering "x" as a counter and again as a
  /// gauge silently created two families that collapsed onto one
  /// exposition name — the serializer dropped whichever sorted second.
  std::map<std::string, const char*> kinds;

  /// Records `name` as `kind`; throws std::logic_error on a conflict.
  /// Call with `mutex` held.
  void check_kind(const std::string& name, const char* kind) {
    auto [it, inserted] = kinds.emplace(name, kind);
    if (!inserted && std::strcmp(it->second, kind) != 0) {
      throw std::logic_error("metric '" + name + "' already registered as " +
                             it->second + ", cannot re-register as " + kind);
    }
  }
};

Registry::Impl& Registry::impl() const {
  // Intentionally immortal: metrics are recorded from static-destruction
  // paths (e.g. the global thread pool draining at exit), so the registry
  // must outlive every other static.
  static Impl* instance = new Impl();
  return *instance;
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter& Registry::counter(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  im.check_kind(name, "counter");
  auto& slot = im.counters[name];
  if (!slot) slot.reset(new Counter(name));
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  im.check_kind(name, "gauge");
  auto& slot = im.gauges[name];
  if (!slot) slot.reset(new Gauge(name));
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  im.check_kind(name, "histogram");
  auto& slot = im.histograms[name];
  if (!slot) slot.reset(new Histogram(name, std::move(bounds)));
  return *slot;
}

MetricsSnapshot Registry::snapshot() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  MetricsSnapshot out;
  out.counters.reserve(im.counters.size());
  for (const auto& [name, c] : im.counters) {
    out.counters.push_back({name, c->value()});
  }
  out.gauges.reserve(im.gauges.size());
  for (const auto& [name, g] : im.gauges) {
    out.gauges.push_back({name, g->value()});
  }
  out.histograms.reserve(im.histograms.size());
  for (const auto& [name, h] : im.histograms) {
    out.histograms.push_back(
        {name, h->bounds(), h->bucket_counts(), h->count(), h->sum()});
  }
  return out;
}

void Registry::reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  for (auto& [name, c] : im.counters) c->reset();
  for (auto& [name, g] : im.gauges) g->reset();
  for (auto& [name, h] : im.histograms) h->reset();
}

void Registry::fork_lock() { impl().mutex.lock(); }
void Registry::fork_unlock() { impl().mutex.unlock(); }

// ---- MetricsSnapshot ---------------------------------------------------

std::int64_t MetricsSnapshot::counter(const std::string& name) const {
  for (const CounterSnapshot& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    const std::string& name) const {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

MetricsSnapshot MetricsSnapshot::delta_since(
    const MetricsSnapshot& baseline) const {
  MetricsSnapshot out = *this;
  for (CounterSnapshot& c : out.counters) {
    c.value = std::max<std::int64_t>(0, c.value - baseline.counter(c.name));
  }
  for (HistogramSnapshot& h : out.histograms) {
    const HistogramSnapshot* base = baseline.histogram(h.name);
    if (base == nullptr || base->counts.size() != h.counts.size()) continue;
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      h.counts[b] = std::max<std::int64_t>(0, h.counts[b] - base->counts[b]);
    }
    h.count = std::max<std::int64_t>(0, h.count - base->count);
    h.sum -= base->sum;
  }
  return out;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const CounterSnapshot& c : counters) {
    if (!first) out += ',';
    first = false;
    append_escaped(out, c.name);
    out += ':';
    out += std::to_string(c.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const GaugeSnapshot& g : gauges) {
    if (!first) out += ',';
    first = false;
    append_escaped(out, g.name);
    out += ':';
    append_double(out, g.value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const HistogramSnapshot& h : histograms) {
    if (!first) out += ',';
    first = false;
    append_escaped(out, h.name);
    out += ":{\"bounds\":[";
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      if (b) out += ',';
      append_double(out, h.bounds[b]);
    }
    out += "],\"counts\":[";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      if (b) out += ',';
      out += std::to_string(h.counts[b]);
    }
    out += "],\"count\":";
    out += std::to_string(h.count);
    out += ",\"sum\":";
    append_double(out, h.sum);
    out += '}';
  }
  out += "}}";
  return out;
}

// ---- SolveTelemetry ----------------------------------------------------

std::string SolveTelemetry::to_json() const {
  std::string out = "{\"wall_seconds\":";
  append_double(out, wall_seconds);
  out += ",\"metrics\":";
  out += metrics.to_json();
  out += '}';
  return out;
}

SolveScope::SolveScope()
    : baseline_(Registry::global().snapshot()), start_ns_(now_ns()) {}

SolveTelemetry SolveScope::finish() const {
  SolveTelemetry t;
  t.metrics = Registry::global().snapshot().delta_since(baseline_);
  t.wall_seconds = static_cast<double>(now_ns() - start_ns_) * 1e-9;
  return t;
}

}  // namespace cubisg::obs
