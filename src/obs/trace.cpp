#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>

namespace cubisg::obs {

namespace {

std::atomic<bool> g_trace_enabled{false};
std::atomic<bool> g_phase_accounting{false};

/// Events completed by one thread.  The owning thread appends under the
/// buffer's mutex (uncontended unless an export is in flight); exporters
/// lock each buffer briefly while copying.  shared_ptr keeps buffers of
/// exited threads alive until the trace is read.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  int tid = 0;
};

struct TraceState {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  int next_tid = 0;
};

TraceState& state() {
  // Immortal for the same reason as the metrics registry: spans can close
  // during static destruction (worker threads exiting at process exit).
  static TraceState* s = new TraceState();
  return *s;
}

std::int64_t epoch_ns() {
  static const std::int64_t epoch =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return epoch;
}

std::int64_t now_rel_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() -
         epoch_ns();
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    b->tid = s.next_tid++;
    s.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

thread_local int t_depth = 0;
thread_local std::uint64_t t_job = 0;

// Per-thread phase table: small and fixed so accounting stays allocation-
// free on the solve path.  Names are string literals, so pointer identity
// usually hits before the strcmp fallback (literals may not be merged
// across translation units).
struct PhaseSlot {
  const char* name = nullptr;
  std::int64_t total_ns = 0;
  std::int64_t count = 0;
};
constexpr int kPhaseSlots = 48;
thread_local PhaseSlot t_phases[kPhaseSlots];
thread_local int t_phase_count = 0;

void accumulate_phase(const char* name, std::int64_t dur_ns) {
  for (int i = 0; i < t_phase_count; ++i) {
    if (t_phases[i].name == name ||
        std::strcmp(t_phases[i].name, name) == 0) {
      t_phases[i].total_ns += dur_ns;
      ++t_phases[i].count;
      return;
    }
  }
  if (t_phase_count < kPhaseSlots) {
    t_phases[t_phase_count++] = {name, dur_ns, 1};
  }
  // Table full: drop.  48 slots comfortably covers the solver's span
  // taxonomy; a dropped name only shortens a slow-solve breakdown.
}

}  // namespace

bool trace_enabled() {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

void set_trace_enabled(bool on) {
  if (on) epoch_ns();  // pin the epoch before the first span
  g_trace_enabled.store(on, std::memory_order_relaxed);
}

bool phase_accounting_enabled() {
  return g_phase_accounting.load(std::memory_order_relaxed);
}

void set_phase_accounting_enabled(bool on) {
  g_phase_accounting.store(on, std::memory_order_relaxed);
}

void begin_phase_accounting() { t_phase_count = 0; }

std::vector<PhaseTotal> collect_phase_accounting() {
  std::vector<PhaseTotal> out;
  out.reserve(static_cast<std::size_t>(t_phase_count));
  for (int i = 0; i < t_phase_count; ++i) {
    out.push_back({t_phases[i].name, t_phases[i].total_ns,
                   t_phases[i].count});
  }
  return out;
}

std::int64_t trace_now_ns() { return now_rel_ns(); }

std::uint64_t current_trace_job() { return t_job; }

void set_current_trace_job(std::uint64_t job) { t_job = job; }

void record_trace_event(const char* name, std::int64_t start_ns,
                        std::int64_t dur_ns, std::uint64_t job) {
  if (!trace_enabled()) return;
  ThreadBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back({name, start_ns, dur_ns, buf.tid, 0, job});
}

namespace detail {

bool span_capture_enabled() {
  return trace_enabled() || phase_accounting_enabled();
}

void begin_span(const char* /*name*/, std::int64_t& start_ns, int& depth) {
  depth = t_depth++;
  start_ns = now_rel_ns();
}

void end_span(const char* name, std::int64_t start_ns, int depth) {
  const std::int64_t end_ns = now_rel_ns();
  --t_depth;
  if (phase_accounting_enabled()) {
    accumulate_phase(name, end_ns - start_ns);
  }
  if (!trace_enabled()) return;
  ThreadBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back(
      {name, start_ns, end_ns - start_ns, buf.tid, depth, t_job});
}

}  // namespace detail

std::vector<TraceEvent> collect_trace_events() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    buffers = s.buffers;
  }
  std::vector<TraceEvent> out;
  for (const auto& buf : buffers) {
    std::lock_guard<std::mutex> lock(buf->mutex);
    out.insert(out.end(), buf->events.begin(), buf->events.end());
  }
  return out;
}

void clear_trace() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    buffers = s.buffers;
  }
  for (const auto& buf : buffers) {
    std::lock_guard<std::mutex> lock(buf->mutex);
    buf->events.clear();
  }
}

}  // namespace cubisg::obs
