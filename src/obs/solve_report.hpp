// Per-solve convergence reports: a bounded ring of structured records.
//
// Each CUBIS solve publishes one SolveReport — the binary-search
// trajectory over the defender-utility threshold c (bracket and P1
// feasibility outcomes per multisection round) plus the B&B/simplex
// totals attributed by the solve's SolveScope delta.  The global buffer
// keeps the most recent `capacity` reports; the HTTP exporter serves
// them as JSON at GET /solvez so a live solve's convergence is visible
// mid-run without waiting for the process to exit.
//
// Recording is once per solve (one mutex acquisition), far off any hot
// path, so it stays active even when metric recording is disabled at
// runtime.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace cubisg::obs {

/// One multisection round of the binary search over c.
struct BinarySearchRound {
  double lo = 0.0;      ///< bracket lower bound after the round
  double hi = 0.0;      ///< bracket upper bound after the round
  int feasible = 0;     ///< candidate thresholds proven P1-feasible
  int infeasible = 0;   ///< candidate thresholds proven P1-infeasible

  double gap() const { return hi - lo; }
};

/// Structured record of one defender solve.
struct SolveReport {
  std::int64_t id = 0;  ///< monotonically increasing, assigned on add()
  std::string solver;
  std::string status;
  /// True when the solve was cut short by its SolveBudget (deadline,
  /// cancellation or node/iteration cap) and the coverage below is the
  /// best incumbent rather than the converged optimum.
  bool budget_stop = false;
  /// Wall-clock budget the caller armed (0 = none).
  double deadline_seconds = 0.0;
  std::size_t targets = 0;
  double wall_seconds = 0.0;
  double lb = 0.0;  ///< final bracket on c
  double ub = 0.0;
  double worst_case_utility = 0.0;
  int binary_steps = 0;
  std::int64_t feasibility_checks = 0;
  std::int64_t milp_nodes = 0;
  std::int64_t incumbent_updates = 0;
  std::int64_t simplex_iters = 0;
  std::vector<BinarySearchRound> trajectory;

  double gap() const { return ub - lb; }
  std::string to_json() const;
};

/// The most recent report published from the calling thread (id == 0
/// when the thread has never published).  Solvers publish on the thread
/// that ran the solve, and engine workers run one job at a time, so right
/// after a solve this is that job's report — no ring scan, no race with
/// other workers.  The flight recorder uses this to attach the full
/// report to a slow-solve entry.
SolveReport last_solve_report_on_this_thread();

/// Thread-safe bounded ring buffer of the most recent reports.
class SolveReportBuffer {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;

  explicit SolveReportBuffer(std::size_t capacity = kDefaultCapacity);

  /// Process-wide buffer the solvers publish into.  Intentionally
  /// immortal (like the metrics registry) so late publishes during
  /// static destruction stay safe.
  static SolveReportBuffer& global();

  /// Stores the report (evicting the oldest when full); returns its id.
  std::int64_t add(SolveReport report);

  /// The retained reports, oldest first.
  std::vector<SolveReport> recent() const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  /// Count of every report ever added (retained or evicted).
  std::int64_t total_recorded() const;
  void clear();

  /// {"total": N, "capacity": C, "reports": [...oldest first...]}
  std::string to_json() const;

  /// Fork support: holds/releases the ring mutex around fork() so a
  /// forked worker child (which publishes its own solve reports) never
  /// inherits it locked.
  void fork_lock() { mutex_.lock(); }
  void fork_unlock() { mutex_.unlock(); }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<SolveReport> ring_;  ///< guarded by mutex_
  std::size_t next_ = 0;           ///< guarded; eviction cursor when full
  std::int64_t total_ = 0;         ///< guarded; id source
};

}  // namespace cubisg::obs
