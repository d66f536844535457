// Phase tracing: RAII spans recording nested solver-phase timings.
//
// A TraceSpan marks one phase (binary-search round, P1 feasibility check,
// MILP solve, simplex solve, ...).  Spans nest lexically; each completed
// span appends one event to a per-thread buffer (the only synchronization
// is that buffer's own, uncontended, mutex), so tracing costs ~one clock
// read per span boundary when on and one relaxed load when off.
//
// Collection is OFF by default — hot paths construct spans unconditionally
// and the disabled constructor is a no-op — because long solves with
// per-node spans would otherwise grow the buffers without bound.  Enable
// with set_trace_enabled(true) (the CLI does this for --trace-out), then
// export via trace_to_chrome_json() / write_trace_json() and load the file
// in chrome://tracing or https://ui.perfetto.dev.
//
// Two orthogonal extensions ride on the span machinery:
//
//  * Job tagging.  A thread can carry a current job id (TraceJobScope);
//    every span closed while the scope is active records that id, so a
//    multi-worker engine trace can be filtered to one SolveJob across
//    queue-wait, execute, and nested solver phases.
//
//  * Phase accounting.  Independently of full trace collection, a thread
//    can accumulate per-name span totals into a small thread-local table
//    (begin_phase_accounting / collect_phase_accounting).  The job log
//    (obs/job_log.hpp) uses this to attach a per-phase breakdown to slow
//    jobs without paying for whole-process trace buffers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>


namespace cubisg::obs {

/// Runtime switch for span collection (default off).
bool trace_enabled();
void set_trace_enabled(bool on);

/// One completed span.  Timestamps are steady-clock nanoseconds relative
/// to the trace epoch (first use in the process).
struct TraceEvent {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  int tid = 0;    ///< dense per-thread id assigned at first span
  int depth = 0;  ///< nesting depth within the thread (0 = top level)
  std::uint64_t job = 0;  ///< engine job id (0 = not part of a job)
};

/// Nanoseconds since the trace epoch (pins the epoch on first call).
/// Use for manual events recorded via record_trace_event().
std::int64_t trace_now_ns();

/// Records one already-timed event on the calling thread's buffer (no-op
/// when tracing is off).  Used for spans whose start predates the thread
/// that completes them, e.g. engine queue-wait measured from admission on
/// the submitting thread to pickup on the worker.
void record_trace_event(const char* name, std::int64_t start_ns,
                        std::int64_t dur_ns, std::uint64_t job);

// ---- job tagging -------------------------------------------------------

/// Current job id for spans closed on this thread (0 = none).
std::uint64_t current_trace_job();
void set_current_trace_job(std::uint64_t job);

/// RAII: tags every span closed on this thread with `job` for the scope's
/// lifetime, restoring the previous id on destruction.
class TraceJobScope {
 public:
  explicit TraceJobScope(std::uint64_t job) {
    prev_ = current_trace_job();
    set_current_trace_job(job);
  }
  ~TraceJobScope() { set_current_trace_job(prev_); }
  TraceJobScope(const TraceJobScope&) = delete;
  TraceJobScope& operator=(const TraceJobScope&) = delete;

 private:
  std::uint64_t prev_ = 0;
};

// ---- phase accounting --------------------------------------------------

/// Total time spent in spans of one name on one thread since the last
/// begin_phase_accounting() call.
struct PhaseTotal {
  std::string name;
  std::int64_t total_ns = 0;
  std::int64_t count = 0;
};

/// Runtime switch for per-thread phase accumulation (default off).  Spans
/// become active when either tracing or accounting is on.
bool phase_accounting_enabled();
void set_phase_accounting_enabled(bool on);

/// Clears the calling thread's phase table (call at job start).
void begin_phase_accounting();

/// Snapshot of the calling thread's phase table since the last begin.
std::vector<PhaseTotal> collect_phase_accounting();

namespace detail {
bool span_capture_enabled();
void begin_span(const char* name, std::int64_t& start_ns, int& depth);
void end_span(const char* name, std::int64_t start_ns, int depth);
}  // namespace detail

/// RAII scope: records [construction, destruction) as one trace event.
/// `name` must outlive the span (string literals in practice).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (detail::span_capture_enabled()) {
      name_ = name;
      detail::begin_span(name_, start_ns_, depth_);
    }
  }

  ~TraceSpan() {
    if (name_ != nullptr) detail::end_span(name_, start_ns_, depth_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;  ///< null = inactive (tracing was off)
  std::int64_t start_ns_ = 0;
  int depth_ = 0;
};

/// All completed events so far, across every thread (started-but-open
/// spans are not included).
std::vector<TraceEvent> collect_trace_events();

/// Drops every completed event (open spans still record on destruction).
void clear_trace();

// ---- export (trace_export.cpp) ----------------------------------------

/// Chrome trace-event JSON ("X" complete events); load via chrome://tracing
/// or https://ui.perfetto.dev.
std::string trace_to_chrome_json();

/// Writes trace_to_chrome_json() to `path`; false on I/O failure.
bool write_trace_json(const std::string& path);

}  // namespace cubisg::obs
