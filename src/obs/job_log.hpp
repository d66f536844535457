// The job log: one structured record per finished job, kept in one
// bounded ring keyed by job id.
//
// Every engine job (thread or process isolation, retried or not, cache
// hit or solved) leaves exactly one JobRecord, written at the engine's
// single terminal point; the CLI's one-shot `solve` writes a job-0
// record.  A record carries the job's identity and fate (id, tag, worker,
// attempts, status, cache verdict, queue/solve seconds), the solution
// summary the solver returned (bracket, binary-search trajectory, B&B and
// simplex totals), and — when they apply — the forensics of a slow job
// (per-phase totals, budget state) and the shadow/verify audit verdict.
//
// The HTTP exporter serves three views of the one ring:
//   GET /solvez  every retained record
//   GET /slowz   records whose solve met the armed latency SLO
//   GET /auditz  records whose audit verdict failed
// and the CLI flushes the latter two to --slow-solve-out / --audit-out.
//
// Retention: the ring holds kCapacity records.  When full it evicts the
// oldest record that is neither slow nor audit-failed, and only when every
// record is flagged the oldest one outright — so a burst of ordinary
// traffic cannot flush a slow solve or an audit failure out of view.
//
// Records are built by the caller outside the lock and moved in; add()
// renders no JSON (views render on demand, outside the lock).  Nothing
// here may be reached from a forked worker child: process-isolated jobs
// are recorded by the parent when their outcome arrives.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hpp"  // PhaseTotal

namespace cubisg::obs {

/// How the solve cache served a job.
enum class CacheVerdict {
  kMiss,        ///< solved cold (or the cache was off)
  kHit,         ///< served from an exact fingerprint match, no solve ran
  kTransplant,  ///< solved warm from a cached donor's tables
};

const char* to_string(CacheVerdict verdict);

/// One independent-verifier verdict (audit::record_outcome).
struct AuditVerdict {
  std::string worst_code;  ///< most severe audit code name ("ok" if clean)
  std::string detail;      ///< "; "-joined finding details
  int findings = 0;        ///< 0 = the solution audited clean
  double max_residual = 0.0;
  double recomputed_worst_case = 0.0;
  double verify_seconds = 0.0;

  bool failed() const { return findings > 0; }
};

/// Everything the log keeps about one job.
struct JobRecord {
  /// One binary-search round, copied from the solution certificate: the
  /// bracket after the round and its P1 sign counts.
  struct Round {
    double lo = 0.0;
    double hi = 0.0;
    int feasible = 0;
    int infeasible = 0;
  };

  std::int64_t id = 0;       ///< log-assigned on add(), monotonic
  std::uint64_t job_id = 0;  ///< engine job id (0 = one-shot CLI command)
  std::string tag;

  // The job.  job_status is empty on an audit-only record (a verdict whose
  // job record was already evicted, or a one-shot `verify`).
  std::string job_status;  ///< "completed", "failed", "worker-crashed", ...
  std::size_t worker = 0;
  int attempts = 1;
  CacheVerdict cache = CacheVerdict::kMiss;
  double queue_seconds = 0.0;
  double solve_seconds = 0.0;
  /// Wall-clock budget the job ran under (0 = none).
  double deadline_seconds = 0.0;

  // The returned solution (has_solution: the job completed).
  std::string solver;
  bool has_solution = false;
  std::string status;        ///< SolverStatus name
  bool budget_stop = false;  ///< coverage is a budget-stopped incumbent
  std::size_t targets = 0;
  double wall_seconds = 0.0;
  double lb = 0.0;  ///< final bracket on c
  double ub = 0.0;
  double worst_case_utility = 0.0;
  int binary_steps = 0;
  std::int64_t milp_nodes = 0;
  std::int64_t feasibility_checks = 0;
  std::int64_t incumbent_updates = 0;
  std::int64_t simplex_iters = 0;
  std::vector<Round> trajectory;  ///< oldest round first

  // Slow-job forensics (slow: the solve met the SLO armed at the time).
  bool slow = false;
  double slo_seconds = 0.0;
  std::int64_t budget_nodes = 0;
  std::int64_t budget_iterations = 0;
  bool budget_cancelled = false;
  std::vector<PhaseTotal> phases;  ///< per-phase totals, solving thread

  std::optional<AuditVerdict> audit;

  bool audit_failed() const { return audit && audit->failed(); }
  /// Flagged records outlive unflagged ones in the ring (see file header).
  bool flagged() const { return slow || audit_failed(); }
  std::string to_json() const;
};

/// The three served views of the ring.
enum class JobView {
  kAll,          ///< /solvez {"total","capacity","reports":[...]}
  kSlow,         ///< /slowz {"armed","slo_seconds","total","capacity",
                 ///<        "entries":[...]}
  kFailedAudit,  ///< /auditz {"total","capacity","failures":[...]}
};

/// Thread-safe bounded ring of JobRecords.
class JobLog {
 public:
  static constexpr std::size_t kCapacity = 64;

  explicit JobLog(std::size_t capacity = kCapacity);

  /// Process-wide log.  Intentionally immortal (like the metrics
  /// registry) so jobs finishing during static destruction stay safe.
  static JobLog& global();

  /// Arms the slow-job SLO (seconds) and enables trace phase accounting
  /// so slow records can carry a per-phase breakdown.
  void arm(double slo_seconds);
  /// Disarms and turns phase accounting back off.  Records are retained.
  void disarm();
  bool armed() const;
  double slo_seconds() const;
  /// True when armed and `solve_seconds` meets the SLO: the caller then
  /// marks its record slow and attaches phases and budget state.
  bool over_slo(double solve_seconds) const;

  /// Stores the record (evicting per the retention rule when full);
  /// returns its id.
  std::int64_t add(JobRecord record);

  /// Attaches an audit verdict to the newest retained record of `job_id`.
  /// When there is none (evicted, or job_id 0) a failed verdict is stored
  /// as an audit-only record carrying `tag` and `solver`; a clean one is
  /// dropped.  Returns the id of the record holding the verdict (0 when
  /// dropped).
  std::int64_t attach_audit(std::uint64_t job_id, const std::string& tag,
                            const std::string& solver, AuditVerdict verdict);

  /// Retained records in `view`, oldest first.
  std::vector<JobRecord> recent(JobView view = JobView::kAll) const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  /// Records ever counted in `view` (retained or evicted).
  std::int64_t total(JobView view = JobView::kAll) const;
  /// Drops every retained record; totals and ids keep counting.
  void clear();

  /// The view's JSON document (top-level keys listed on JobView).
  std::string to_json(JobView view) const;
  /// Writes to_json(view) to `path`; false on I/O failure.
  bool write_json(JobView view, const std::string& path) const;

 private:
  /// Inserts under the lock; returns the id.  `evicted` receives the
  /// displaced record so it is destroyed after the lock is released.
  std::int64_t insert_locked(JobRecord&& record, JobRecord& evicted);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<JobRecord> ring_;           ///< guarded; oldest first
  std::int64_t total_ = 0;               ///< guarded; id source
  std::int64_t slow_total_ = 0;          ///< guarded
  std::int64_t failed_audit_total_ = 0;  ///< guarded
  // Atomics: over_slo() is polled once per finished job.
  std::atomic<bool> armed_{false};
  std::atomic<double> slo_seconds_{0.0};
};

}  // namespace cubisg::obs
