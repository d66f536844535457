#include "engine/engine.hpp"

#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

#include "behavior/scenario.hpp"
#include "common/errors.hpp"
#include "common/log.hpp"
#include "core/workspace.hpp"
#include "engine/process_pool.hpp"
#include "engine/supervisor.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/solve_report.hpp"
#include "obs/trace.hpp"

namespace cubisg::engine {

namespace {

using namespace std::chrono_literals;

/// Registry handles for the engine, resolved once.
struct EngineMetrics {
  obs::Gauge& queue_depth =
      obs::Registry::global().gauge("engine.queue_depth");
  obs::Counter& accepted =
      obs::Registry::global().counter("engine.jobs_accepted_total");
  obs::Counter& rejected =
      obs::Registry::global().counter("engine.jobs_rejected_total");
  obs::Counter& completed =
      obs::Registry::global().counter("engine.jobs_completed_total");
  obs::Counter& failed =
      obs::Registry::global().counter("engine.jobs_failed_total");
  obs::Counter& cancelled =
      obs::Registry::global().counter("engine.jobs_cancelled_total");
  obs::Histogram& solve_latency =
      obs::Registry::global().histogram("engine.solve_latency");
  obs::Histogram& queue_wait =
      obs::Registry::global().histogram("engine.queue_wait_seconds");
  obs::Counter& slow_solves =
      obs::Registry::global().counter("engine.slow_solves_total");
  obs::Counter& retried =
      obs::Registry::global().counter("engine.jobs_retried_total");
  obs::Counter& quarantined =
      obs::Registry::global().counter("engine.jobs_quarantined_total");

  static EngineMetrics& get() {
    static EngineMetrics m;
    return m;
  }
};

/// Workers poll with a bounded wait instead of an unbounded one so a
/// signal-handler cancel_all() (which cannot notify a condition variable)
/// is observed within one poll period.
constexpr auto kPollPeriod = 50ms;

}  // namespace

SolveEngine::SolveEngine(std::shared_ptr<const core::DefenderSolver> solver,
                         EngineOptions options)
    : solver_(std::move(solver)), opt_(options) {
  if (solver_ == nullptr) {
    throw InvalidModelError("SolveEngine: null solver");
  }
  if (opt_.workers == 0) opt_.workers = 1;
  if (opt_.queue_capacity == 0) opt_.queue_capacity = 1;
  if (opt_.retry.max_attempts < 1) opt_.retry.max_attempts = 1;
  if (opt_.retry.max_crashes < 0) opt_.retry.max_crashes = 0;
  EngineMetrics::get();  // resolve before any signal handler runs
  if (opt_.isolation == IsolationMode::kProcess) {
    if (!process_isolation_available()) {
      CUBISG_LOG(LogLevel::kWarn)
          << "engine: process isolation unavailable on this build/platform; "
             "falling back to threads";
      opt_.isolation = IsolationMode::kThread;
    } else {
      // Fork the worker children before this process grows its own
      // worker threads: the fork guard has less to protect and the
      // children inherit the smallest possible thread/lock footprint.
      Supervisor::Options sup;
      sup.workers = opt_.workers;
      sup.retry = opt_.retry;
      sup.heartbeat_timeout_seconds = opt_.heartbeat_timeout_seconds;
      sup.kill_grace_seconds = opt_.kill_grace_seconds;
      sup.solver = solver_;
      supervisor_ = std::make_unique<Supervisor>(std::move(sup));
    }
  }
  if (opt_.cache.mode != CacheMode::kOff) {
    cache_ = std::make_unique<SolveCache>(opt_.cache.mode, opt_.cache.entries,
                                          opt_.cache.shards);
  }
  workers_.reserve(opt_.workers);
  for (std::size_t i = 0; i < opt_.workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // The worker array is complete (cancel_all may walk it) before any
  // thread starts.
  for (std::size_t i = 0; i < opt_.workers; ++i) {
    workers_[i]->thread = std::thread([this, i] { run_worker(i); });
  }
}

SolveEngine::~SolveEngine() { shutdown(); }

std::future<JobOutcome> SolveEngine::enqueue_locked(SolveJob&& job) {
  Item item;
  item.job = std::move(job);
  item.id = next_id_++;
  if (obs::trace_enabled()) item.trace_enqueue_ns = obs::trace_now_ns();
  std::future<JobOutcome> future = item.promise.get_future();
  queue_.push_back(std::move(item));
  EngineMetrics::get().accepted.add(1);
  EngineMetrics::get().queue_depth.set(static_cast<double>(queue_.size()));
  return future;
}

std::optional<std::future<JobOutcome>> SolveEngine::try_submit(SolveJob job) {
  std::future<JobOutcome> future;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ || cancelled() || queue_.size() >= opt_.queue_capacity) {
      EngineMetrics::get().rejected.add(1);
      return std::nullopt;
    }
    future = enqueue_locked(std::move(job));
  }
  work_cv_.notify_one();
  return future;
}

std::future<JobOutcome> SolveEngine::submit(SolveJob job) {
  std::future<JobOutcome> future;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Bounded waits for the same reason as the workers: a signal-handler
    // cancel cannot notify, and the submitter must still unblock.
    while (!stop_ && !cancelled() && queue_.size() >= opt_.queue_capacity) {
      space_cv_.wait_for(lock, kPollPeriod);
    }
    if (stop_ || cancelled()) {
      EngineMetrics::get().rejected.add(1);
      throw std::runtime_error(
          "SolveEngine: submit after shutdown/cancel");
    }
    future = enqueue_locked(std::move(job));
  }
  work_cv_.notify_one();
  return future;
}

void SolveEngine::cancel_all() noexcept {
  // Async-signal-safe: relaxed stores into pre-allocated storage only.
  cancelled_.store(true, std::memory_order_relaxed);
  for (const auto& w : workers_) w->budget.request_cancel();
}

void SolveEngine::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

std::size_t SolveEngine::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void SolveEngine::run_worker(std::size_t index) {
  // One long-lived workspace per worker, reused across every job this
  // worker runs (the capacity-only reuse contract keeps results identical
  // to fresh solves).
  core::SolveWorkspace workspace;
  SolveBudget& budget = workers_[index]->budget;
  // Opt this worker into wall-clock sampling for the profiler's lifetime
  // (no-op unless/until profiling starts).
  obs::ProfiledThreadScope profiled;
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (queue_.empty() && !stop_) {
        work_cv_.wait_for(lock, kPollPeriod);
      }
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      item = std::move(queue_.front());
      queue_.pop_front();
      EngineMetrics::get().queue_depth.set(
          static_cast<double>(queue_.size()));
    }
    space_cv_.notify_one();

    // Queue-wait bookkeeping happens once per job, ahead of the attempt
    // loop, so retries never double-record the admission -> pickup wait.
    const double queue_seconds = item.queued.seconds();
    EngineMetrics::get().queue_wait.record(queue_seconds);
    if (item.trace_enqueue_ns >= 0) {
      obs::record_trace_event("engine.queue_wait", item.trace_enqueue_ns,
                              obs::trace_now_ns() - item.trace_enqueue_ns,
                              item.id);
    }
    if (cancelled()) {
      // Drain without starting: satisfy the promise, skip the solve (and
      // the on_outcome hook — the job never ran).
      JobOutcome outcome;
      outcome.id = item.id;
      outcome.tag = item.job.tag;
      outcome.worker = index;
      outcome.queue_seconds = queue_seconds;
      outcome.status = JobStatus::kCancelled;
      EngineMetrics::get().cancelled.add(1);
      item.promise.set_value(std::move(outcome));
      continue;
    }

    // Cross-solve cache: one fingerprint per scenario-carrying job.  An
    // exact hit skips the solve entirely; the outcome is re-stamped with
    // THIS job's id/tag/worker, so a cached result never resurfaces
    // under a stale identity (the --resume regression test pins this).
    std::optional<core::Fingerprint> fp;
    std::shared_ptr<const core::TransplantSeed> seed;
    if (cache_ != nullptr && item.job.scenario != nullptr) {
      fp = core::fingerprint_scenario(*item.job.scenario,
                                      opt_.cache.solver_config);
      core::DefenderSolution hit;
      if (cache_->lookup_exact(*fp, hit)) {
        JobOutcome outcome;
        outcome.id = item.id;
        outcome.tag = item.job.tag;
        outcome.worker = index;
        outcome.queue_seconds = queue_seconds;
        outcome.status = JobStatus::kCompleted;
        outcome.solution = std::move(hit);
        outcome.cache_hit = true;
        EngineMetrics::get().completed.add(1);
        if (opt_.on_outcome) {
          try {
            opt_.on_outcome(item.job, outcome);
          } catch (...) {
          }
        }
        item.promise.set_value(std::move(outcome));
        continue;
      }
      if (cache_->mode() == CacheMode::kTransplant) {
        seed = make_transplant_seed(cache_->nearest(*fp), *fp);
      }
    }

    // Process-mode cache plumbing: the seed crosses the wire ahead of
    // the job; a donor frame (stats + harvested tables) comes back after
    // the result.  Thread mode uses the workspace fields directly.
    const bool process_job =
        supervisor_ != nullptr && item.job.scenario != nullptr;
    CacheSeedFrame seed_frame;
    const CacheSeedFrame* seed_frame_ptr = nullptr;
    CacheDonorFrame donor_frame;
    CacheDonorFrame* donor_frame_ptr = nullptr;
    if (process_job && fp.has_value() &&
        cache_->mode() == CacheMode::kTransplant) {
      if (seed != nullptr) {
        seed_frame.id = item.id;
        seed_frame.tables = seed->donor->tables;
        seed_frame.adopt = seed->adopt;
        seed_frame_ptr = &seed_frame;
      }
      donor_frame_ptr = &donor_frame;
    }

    // Attempt loop: transient failures (numeric trouble, escaped
    // non-deterministic exceptions, fault-injected faults) re-solve up
    // to retry.max_attempts with capped backoff.  Worker-crash retries
    // happen one level down, inside Supervisor::run_job.
    JobOutcome outcome;
    for (int attempt = 1;; ++attempt) {
      outcome = process_job
                    ? execute_process(item, index, budget, seed_frame_ptr,
                                      donor_frame_ptr)
                    : execute(item, index, workspace, budget, seed);
      outcome.attempts = attempt;
      outcome.queue_seconds = queue_seconds;
      if (attempt >= opt_.retry.max_attempts || !retryable(outcome) ||
          cancelled()) {
        break;
      }
      EngineMetrics::get().retried.add(1);
      CUBISG_LOG(LogLevel::kWarn)
          << "engine: job " << item.id << " transient failure (attempt "
          << attempt << "/" << opt_.retry.max_attempts << "): "
          << (outcome.error.empty() ? "numeric issue" : outcome.error)
          << "; retrying";
      if (!backoff_before_retry(attempt)) break;
    }

    // Cache bookkeeping after the final attempt: transplant counters,
    // donor harvest, insert.  Only clean optimal completions are cached
    // (budget stops and numeric trouble are run-specific, not reusable).
    if (cache_ != nullptr && fp.has_value()) {
      bool transplant_used = false;
      bool transplant_rejected = false;
      std::shared_ptr<core::TransplantDonor> harvested;
      const bool optimal = outcome.status == JobStatus::kCompleted &&
                           outcome.solution.status == SolverStatus::kOptimal;
      if (process_job) {
        transplant_used = donor_frame.used && !donor_frame.rejected;
        transplant_rejected = donor_frame.rejected;
        if (optimal && donor_frame.has_tables) {
          harvested = std::make_shared<core::TransplantDonor>();
          harvested->tables = std::move(donor_frame.tables);
        }
      } else {
        const core::TransplantStats& st = workspace.transplant_stats;
        transplant_used = seed != nullptr && st.used && !st.rejected;
        transplant_rejected = seed != nullptr && st.rejected;
        if (optimal && cache_->mode() == CacheMode::kTransplant &&
            workspace.tables_token != 0) {
          harvested = std::make_shared<core::TransplantDonor>();
          harvested->tables = workspace.tables;
          // The MILP skeleton is only trustworthy when the lanes were
          // rebuilt by this very solve (token 2) — see SolveWorkspace.
          if (workspace.tables_token == 2 &&
              !workspace.cubis_lanes.empty() &&
              workspace.cubis_lanes[0]->milp != nullptr) {
            const core::MilpStepCache& sk = *workspace.cubis_lanes[0]->milp;
            harvested->has_skeleton = true;
            harvested->skeleton_resources = item.job.game->resources();
            // Donor-compatibility: the skeleton's budget and cap rows
            // encode the polytope, so consumers adopt it only when their
            // own polytope descriptor matches.
            harvested->skeleton_space =
                item.job.scenario != nullptr &&
                        !item.job.scenario->coverage.is_default()
                    ? item.job.scenario->coverage.descriptor()
                    : std::string("simplex");
            harvested->skeleton_model = sk.model();
            harvested->skeleton_layout = sk.layout();
            harvested->skeleton_rows = sk.rows();
          }
        }
      }
      if (transplant_used) {
        cache_->count_transplant();
        outcome.cache_transplant = true;
      }
      if (transplant_rejected) cache_->count_transplant_reject();
      if (optimal) {
        if (harvested != nullptr) {
          harvested->blocks = fp->blocks;
          harvested->compat = fp->compat;
        }
        cache_->insert(*fp, outcome.solution, std::move(harvested));
      }
      workspace.transplant_seed.reset();
    }

    // Terminal counting happens once per job, after retries, so the
    // completed/failed totals match job counts exactly as before.
    switch (outcome.status) {
      case JobStatus::kCompleted:
        EngineMetrics::get().completed.add(1);
        break;
      case JobStatus::kCancelled:
        EngineMetrics::get().cancelled.add(1);
        break;
      case JobStatus::kQuarantined:
        // engine.jobs_quarantined_total is bumped by the supervisor at
        // the quarantine decision; not double-counted here.
        break;
      case JobStatus::kFailed:
      case JobStatus::kWorkerCrashed:
        EngineMetrics::get().failed.add(1);
        break;
    }
    if (opt_.on_outcome) {
      try {
        opt_.on_outcome(item.job, outcome);
      } catch (...) {
        // Observers are advisory: a throwing hook must not fail the job.
      }
    }
    item.promise.set_value(std::move(outcome));
  }
}

bool SolveEngine::retryable(const JobOutcome& outcome) const {
  if (outcome.status == JobStatus::kFailed) return outcome.transient;
  if (outcome.status == JobStatus::kCompleted) {
    // A solver that *returned* kNumericalIssue hit non-deterministic
    // numeric trouble past its internal retry ladder; a fresh attempt
    // (fresh workspace state, fresh perturbations) can succeed.
    return outcome.solution.status == SolverStatus::kNumericalIssue;
  }
  return false;  // cancelled / crashed / quarantined are final
}

bool SolveEngine::backoff_before_retry(int attempt) {
  double ms = opt_.retry.backoff_initial_ms;
  for (int i = 1; i < attempt; ++i) ms *= 2.0;
  if (ms > opt_.retry.backoff_max_ms) ms = opt_.retry.backoff_max_ms;
  Timer timer;
  while (timer.millis() < ms) {
    if (cancelled()) return false;
    std::this_thread::sleep_for(5ms);
  }
  return true;
}

JobOutcome SolveEngine::execute_process(Item& item, std::size_t index,
                                        SolveBudget& budget,
                                        const CacheSeedFrame* cache_seed,
                                        CacheDonorFrame* cache_donor) {
  // The parent-side budget is a cancellation mirror only: the child
  // enforces the deadline/node caps cooperatively on its own budget, and
  // the supervisor adds the non-cooperative SIGKILL backstop.
  budget.reset();
  if (cancelled()) budget.request_cancel();
  const double deadline = item.job.deadline_seconds > 0.0
                              ? item.job.deadline_seconds
                              : opt_.default_deadline_seconds;
  const std::int64_t max_nodes =
      item.job.max_nodes > 0 ? item.job.max_nodes : opt_.default_max_nodes;
  obs::TraceJobScope job_scope(item.id);
  obs::TraceSpan span("engine.execute");
  JobOutcome out =
      supervisor_->run_job(index, item.job, item.id, deadline, max_nodes,
                           budget, cancelled_, cache_seed, cache_donor);
  if (out.status == JobStatus::kCompleted) {
    EngineMetrics::get().solve_latency.record(out.solve_seconds);
  } else if (!out.error.empty()) {
    CUBISG_LOG(LogLevel::kError)
        << "engine: job " << out.id << " failed: " << out.error;
  }
  return out;
}

JobOutcome SolveEngine::execute(
    Item& item, std::size_t index, core::SolveWorkspace& workspace,
    SolveBudget& budget,
    const std::shared_ptr<const core::TransplantSeed>& seed) {
  JobOutcome out;
  out.id = item.id;
  out.tag = item.job.tag;  // copied, not moved: retries reuse the item
  out.worker = index;
  out.queue_seconds = item.queued.seconds();

  budget.reset();
  const double deadline = item.job.deadline_seconds > 0.0
                              ? item.job.deadline_seconds
                              : opt_.default_deadline_seconds;
  if (deadline > 0.0) budget.set_deadline_after(deadline);
  const std::int64_t max_nodes =
      item.job.max_nodes > 0 ? item.job.max_nodes : opt_.default_max_nodes;
  if (max_nodes > 0) budget.set_node_limit(max_nodes);
  // Close the reset race: a cancel_all between reset() and here must
  // still trip this job's budget.
  if (cancelled()) budget.request_cancel();

  // Cross-solve transplant: install this attempt's seed and zero the
  // stats/token so a reused workspace can never leak a previous job's
  // transplant state into this job's accounting or donor harvest.
  workspace.transplant_seed = seed;
  workspace.transplant_stats = {};
  workspace.tables_token = 0;

  // Everything the solver records during this job — nested spans, the
  // published SolveReport — is attributable to this job id.
  obs::TraceJobScope job_scope(item.id);
  obs::begin_phase_accounting();
  const std::int64_t report_before =
      obs::last_solve_report_on_this_thread().id;

  Timer solve_timer;
  {
    obs::TraceSpan span("engine.execute");
    try {
      core::SolveContext ctx{*item.job.game, *item.job.bounds, &budget,
                             &workspace};
      // Coverage polytope: jobs built from a scenario announce its space
      // (null = the paper's simplex, the legacy bitwise path).  The
      // scenario shared_ptr outlives the solve, so the pointer is stable.
      if (item.job.scenario != nullptr &&
          !item.job.scenario->coverage.is_default()) {
        ctx.space = &item.job.scenario->coverage;
      }
      out.solution = solver_->solve(ctx);
      out.status = JobStatus::kCompleted;
      out.solve_seconds = solve_timer.seconds();
      EngineMetrics::get().solve_latency.record(out.solve_seconds);
    } catch (const InvalidModelError& e) {
      // Deterministic: the same model fails the same way on any retry.
      out.status = JobStatus::kFailed;
      out.transient = false;
      out.error = e.what();
      out.solve_seconds = solve_timer.seconds();
      CUBISG_LOG(LogLevel::kError)
          << "engine: job " << out.id << " failed: " << out.error;
    } catch (const std::exception& e) {
      out.status = JobStatus::kFailed;
      out.transient = true;
      out.error = e.what();
      out.solve_seconds = solve_timer.seconds();
      CUBISG_LOG(LogLevel::kError)
          << "engine: job " << out.id << " failed: " << out.error;
    }
  }

  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  if (recorder.armed() && out.solve_seconds >= recorder.slo_seconds()) {
    EngineMetrics::get().slow_solves.add(1);
    obs::FlightEntry entry;
    entry.job_id = out.id;
    entry.tag = out.tag;
    entry.worker = index;
    entry.queue_seconds = out.queue_seconds;
    entry.solve_seconds = out.solve_seconds;
    entry.slo_seconds = recorder.slo_seconds();
    entry.budget_deadline_seconds = budget.deadline_seconds();
    entry.budget_nodes = budget.nodes_charged();
    entry.budget_iterations = budget.iterations_charged();
    entry.budget_cancelled = budget.cancel_requested();
    entry.phases = obs::collect_phase_accounting();
    obs::SolveReport report = obs::last_solve_report_on_this_thread();
    if (report.id != report_before) {
      entry.has_report = true;
      entry.report = std::move(report);
    }
    recorder.record(std::move(entry));
  }
  return out;
}

}  // namespace cubisg::engine
