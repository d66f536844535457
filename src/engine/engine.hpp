// Concurrent solve engine: a bounded MPMC job queue feeding a fixed pool
// of worker threads, each pinning one long-lived SolveWorkspace that is
// reused across jobs (allocation capacity survives between solves, values
// never do — see core/workspace.hpp, so results are identical to fresh
// one-shot solves).
//
// Lifecycle and semantics:
//  * The solver is shared, immutable configuration: one DefenderSolver
//    instance serves every worker concurrently (solve() is const).
//  * Admission is non-blocking with backpressure: try_submit() rejects
//    with std::nullopt when the queue is full, mirroring the HTTP
//    exporter's 503 overload behavior; submit() blocks for space instead.
//  * Every job gets a typed JobOutcome through a std::future: kCompleted
//    carries the DefenderSolution (including budget-stop statuses — the
//    solver returning is completion), kFailed carries the escaped
//    exception's message, kCancelled marks jobs drained after cancel_all()
//    without ever starting.
//  * cancel_all() is async-signal-safe (relaxed atomic stores only): it
//    latches the cancelled flag and trips every worker's per-job
//    SolveBudget, so in-flight solves unwind at their next safe point and
//    queued jobs drain as kCancelled.  Workers poll the queue with a
//    bounded 50 ms wait, so no condition-variable notify is needed from a
//    signal handler.
//
// Metrics (obs registry / Prometheus endpoint):
//   engine.queue_depth                 gauge, jobs waiting for a worker
//   engine.jobs_accepted_total         admitted by try_submit/submit
//   engine.jobs_rejected_total         bounced on a full queue
//   engine.jobs_completed_total        solver returned a solution
//   engine.jobs_failed_total           solve escaped with an exception
//   engine.jobs_cancelled_total        drained without starting
//   engine.solve_latency               histogram of solve wall seconds
//   engine.queue_wait_seconds          histogram, admission -> pickup
//   engine.slow_solves_total           solves over the job log's armed SLO
//   engine.jobs_retried_total          transient-failure re-attempts
//   engine.jobs_quarantined_total      jobs that kept crashing workers
//   engine.worker_crashes_total        worker processes that died mid-job
//   engine.worker_restarts_total       worker processes respawned
//   engine.workers_alive               gauge, live worker processes
//
// Isolation: by default jobs run on the worker thread (kThread).  With
// EngineOptions::isolation = kProcess, each worker thread instead drives
// a forked child process (engine/process_pool.hpp) through a supervisor
// (engine/supervisor.hpp) that detects crashes, respawns with capped
// exponential backoff, SIGKILLs wedged children past deadline + grace,
// and quarantines jobs that crash their worker repeatedly.  Process-mode
// jobs must carry SolveJob::scenario (the child re-reads the model from
// its lossless text form); jobs without one fall back to in-process
// execution.  Clean process-mode solves are bitwise-identical to thread
// mode except for wall_seconds and telemetry attribution.
//
// Per-job tracing: when span collection is on, every job's id is carried
// into the trace — the worker emits an "engine.queue_wait" span covering
// admission -> pickup and an "engine.execute" span around the solve, and
// every nested solver span (cubis.*, milp.*, lp.*) closed during the job
// is tagged with the id (TraceJobScope), so a merged multi-worker Chrome
// trace can be filtered to one job across its whole lifetime.
//
// Per-job records: every job that reaches the terminal point (any status
// except jobs drained as kCancelled without starting) files exactly one
// obs::JobRecord into obs::JobLog::global() via record_job() — thread and
// process isolation, retried jobs and cache hits alike — before
// on_outcome fires.  Jobs whose solve met the log's armed SLO are marked
// slow and carry per-phase totals and budget state (served at GET /slowz;
// in process mode the phases cover only the parent side of the job).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "behavior/bounds.hpp"
#include "common/budget.hpp"
#include "common/timer.hpp"
#include "core/solvers.hpp"
#include "engine/solve_cache.hpp"
#include "games/security_game.hpp"

namespace cubisg::behavior {
struct Scenario;
}  // namespace cubisg::behavior

namespace cubisg::engine {

struct SolveJob;
struct JobOutcome;
class Supervisor;
struct CacheSeedFrame;
struct CacheDonorFrame;

/// Where jobs execute.
enum class IsolationMode {
  kThread,   ///< on the worker thread itself (default)
  kProcess,  ///< in a forked, crash-contained worker child process
};

/// Retry behavior for failed jobs.  Transient failures — numeric-issue
/// solve statuses, escaped non-deterministic exceptions, fault-injected
/// failures, worker crashes — are worth re-attempting; deterministic
/// ones (infeasible model, malformed input) fail identically every time
/// and are never retried.
struct RetryPolicy {
  /// Solve attempts per job for transient failures.  1 = no retry
  /// (default), matching the historical fail-fast behavior.
  int max_attempts = 1;
  /// Worker crashes a single job may absorb before it is quarantined
  /// (process isolation only; counted separately from max_attempts).
  /// 0 = the first crash fails the job with kWorkerCrashed.
  int max_crashes = 2;
  /// Backoff between attempts/respawns: initial * 2^n, capped, jittered
  /// deterministically (+/-25%) so respawning workers do not stampede.
  double backoff_initial_ms = 50.0;
  double backoff_max_ms = 2000.0;
};

/// Engine sizing.  All knobs are fixed at construction.
struct EngineOptions {
  std::size_t workers = 1;         ///< worker threads (min 1)
  std::size_t queue_capacity = 64; ///< jobs waiting beyond the workers
  /// Applied to jobs that do not set their own (0 = unbudgeted).
  double default_deadline_seconds = 0.0;
  std::int64_t default_max_nodes = 0;
  /// Job execution isolation.  kProcess silently degrades to kThread
  /// (with one warning log) when process_isolation_available() is false.
  IsolationMode isolation = IsolationMode::kThread;
  RetryPolicy retry;
  /// Process mode: a worker child silent for this long mid-job is
  /// presumed wedged at the protocol layer and SIGKILLed (children
  /// heartbeat every ~200 ms while solving).
  double heartbeat_timeout_seconds = 5.0;
  /// Process mode: how far past a job's cooperative deadline (or a
  /// cancel request) a child may run before SIGKILL.
  double kill_grace_seconds = 1.0;
  /// Invoked on the worker thread after a job's final outcome is built
  /// (any status except jobs drained as kCancelled without starting) —
  /// once per job, after retries — after the job's record is filed in
  /// obs::JobLog and before the future is fulfilled.  serve/batch wire the shadow auditor's observe() here.  Must be
  /// cheap; exceptions are swallowed — the engine stays audit-free,
  /// observers are advisory.  Null = disabled.
  std::function<void(const SolveJob&, const JobOutcome&)> on_outcome;
  /// Cross-solve memoization (engine/solve_cache.hpp).  Only jobs that
  /// carry a SolveJob::scenario participate — the scenario is the
  /// fingerprint source.  solver_config must be the canonical config
  /// string of the engine's solver (core::canonical_solver_config); it
  /// is folded into every fingerprint so caches never serve results
  /// across differently-configured solvers.
  struct CacheOptions {
    CacheMode mode = CacheMode::kOff;
    std::size_t entries = 256;  ///< total LRU capacity (--cache-entries)
    std::size_t shards = 0;     ///< 0 = auto
    std::string solver_config;
  } cache;
};

/// One solve request.  shared_ptr ownership keeps the problem alive for
/// the duration of the job regardless of what the submitter does next
/// (aliasing constructors let a single Scenario own both pointees).
struct SolveJob {
  std::shared_ptr<const games::SecurityGame> game;
  std::shared_ptr<const behavior::AttractivenessBounds> bounds;
  /// Required for process isolation: the child reconstructs the problem
  /// from the scenario's lossless text form.  Jobs without one run
  /// in-process even under IsolationMode::kProcess.
  std::shared_ptr<const behavior::Scenario> scenario;
  double deadline_seconds = 0.0;  ///< 0 = engine default
  std::int64_t max_nodes = 0;     ///< 0 = engine default
  std::string tag;                ///< caller label (e.g. scenario path)
};

enum class JobStatus {
  kCompleted,  ///< the solver returned (solution.status may be a budget stop)
  kFailed,     ///< the solve escaped with an exception
  kCancelled,  ///< drained after cancel_all() without starting
  /// Process isolation: the worker child died mid-job (crash, SIGKILL
  /// after a wedge) and the crash-retry budget was exhausted or zero.
  kWorkerCrashed,
  /// Process isolation: this job crashed its worker more than
  /// RetryPolicy::max_crashes times — poison input, set aside so the
  /// rest of the batch can finish.
  kQuarantined,
};

/// Typed per-job result delivered through the submit future.
struct JobOutcome {
  std::uint64_t id = 0;
  JobStatus status = JobStatus::kFailed;
  core::DefenderSolution solution;  ///< valid when kCompleted
  std::string error;                ///< exception text when kFailed
  std::string tag;
  double queue_seconds = 0.0;  ///< admission -> worker pickup
  double solve_seconds = 0.0;  ///< worker pickup -> outcome
  std::size_t worker = 0;      ///< index of the worker that ran the job
  int attempts = 1;            ///< solve attempts consumed (retries + 1)
  int crashes = 0;             ///< worker crashes this job absorbed
  /// kFailed only: the failure class the retry policy saw.  Transient
  /// failures exhaust RetryPolicy::max_attempts first; deterministic
  /// ones fail on the first attempt.
  bool transient = false;
  /// Served from the solve cache without running a solve.  The id, tag,
  /// worker and queue_seconds above are THIS job's (re-stamped), never
  /// the original producer's.
  bool cache_hit = false;
  /// The solve ran seeded by a cached donor's tables (and the seed was
  /// not rejected).  The solution is still bitwise-identical to a cold
  /// solve — this only records that the warm start was consumed.
  bool cache_transplant = false;
};

/// Builds the job's obs::JobRecord — identity, fate, cache verdict, the
/// returned solution's summary and certificate rounds — and files it into
/// obs::JobLog::global(); returns the record id.  When the job ran a
/// solve that met the log's armed SLO, the record is marked slow, gets
/// the calling thread's phase totals and `budget`'s state, and
/// engine.slow_solves_total advances.  The engine calls this once per job
/// at its terminal point; the CLI's one-shot `solve` calls it for job 0.
std::int64_t record_job(const JobOutcome& outcome, const SolveBudget& budget,
                        double deadline_seconds);

/// The engine.  Construction starts the workers; destruction (or
/// shutdown()) drains the queue and joins them.
class SolveEngine {
 public:
  SolveEngine(std::shared_ptr<const core::DefenderSolver> solver,
              EngineOptions options = {});
  ~SolveEngine();

  SolveEngine(const SolveEngine&) = delete;
  SolveEngine& operator=(const SolveEngine&) = delete;

  /// Non-blocking admission: nullopt (and one engine.jobs_rejected_total)
  /// when the queue is at capacity or the engine is shutting down.
  std::optional<std::future<JobOutcome>> try_submit(SolveJob job);

  /// Blocking admission: waits for queue space.  Throws std::runtime_error
  /// if the engine shuts down while waiting.
  std::future<JobOutcome> submit(SolveJob job);

  /// Cancels every in-flight and queued job.  Async-signal-safe: relaxed
  /// atomic stores only (the worker array is fixed at construction).
  /// Queued jobs drain as kCancelled; running solves unwind with a
  /// kCancelled solution status.  The engine accepts no new work after.
  void cancel_all() noexcept;

  /// Drains the queue, joins the workers.  Idempotent.
  void shutdown();

  std::size_t queue_depth() const;
  std::size_t num_workers() const { return workers_.size(); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// True when jobs run in forked worker processes (isolation was
  /// requested *and* available; false after a degrade to threads).
  bool process_mode() const { return supervisor_ != nullptr; }

  /// The cross-solve cache, or null when EngineOptions::cache.mode is
  /// kOff.  Exposed for /cachez-style introspection and tests; safe to
  /// read concurrently with running jobs.
  SolveCache* cache() const { return cache_.get(); }

  /// Stable per-worker budget storage (valid for the engine's lifetime).
  /// Exposed so a signal handler can reach every in-flight job's budget
  /// through a pre-registered table instead of a single active-solve slot.
  SolveBudget& worker_budget(std::size_t i) { return workers_[i]->budget; }

 private:
  struct Item {
    SolveJob job;
    std::promise<JobOutcome> promise;
    std::uint64_t id = 0;
    Timer queued;  ///< started at admission
    /// Trace-epoch timestamp of admission (-1 when tracing was off): the
    /// worker that picks the job up emits the queue-wait span from it.
    std::int64_t trace_enqueue_ns = -1;
  };

  struct Worker {
    SolveBudget budget;
    std::thread thread;
  };

  void run_worker(std::size_t index);
  /// The solve path of one job: attempts (with retries) on the worker
  /// thread or its child process, then the cache bookkeeping.
  JobOutcome solve_job(
      Item& item, std::size_t index, core::SolveWorkspace& workspace,
      SolveBudget& budget, const std::optional<core::Fingerprint>& fp,
      const std::shared_ptr<const core::TransplantSeed>& seed);
  JobOutcome execute(Item& item, std::size_t index,
                     core::SolveWorkspace& workspace, SolveBudget& budget,
                     const std::shared_ptr<const core::TransplantSeed>& seed);
  JobOutcome execute_process(Item& item, std::size_t index,
                             SolveBudget& budget,
                             const CacheSeedFrame* cache_seed,
                             CacheDonorFrame* cache_donor);
  /// The job's own budget, else the engine default (0 = none).
  double deadline_for(const SolveJob& job) const;
  std::int64_t max_nodes_for(const SolveJob& job) const;
  /// True when `outcome` is worth another attempt under the retry policy.
  bool retryable(const JobOutcome& outcome) const;
  /// Sleeps the capped, jittered backoff before attempt `attempt` + 1;
  /// returns early (false) if the engine is cancelled or stopping.
  bool backoff_before_retry(int attempt);
  std::future<JobOutcome> enqueue_locked(SolveJob&& job);

  std::shared_ptr<const core::DefenderSolver> solver_;
  EngineOptions opt_;
  /// Non-null iff process isolation is active (see process_mode()).
  std::unique_ptr<Supervisor> supervisor_;
  /// Non-null iff cache.mode != kOff.
  std::unique_ptr<SolveCache> cache_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< queue became non-empty / stop
  std::condition_variable space_cv_;  ///< queue gained capacity
  std::deque<Item> queue_;
  bool stop_ = false;
  std::uint64_t next_id_ = 1;
  std::atomic<bool> cancelled_{false};

  /// Fixed at construction (never resized): cancel_all() walks it from a
  /// signal handler.
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace cubisg::engine
