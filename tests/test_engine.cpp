// Concurrent solve engine: one immutable solver instance shared by N
// worker threads must produce bitwise-identical solutions to sequential
// one-shot solves (the config/workspace split's headline guarantee), and
// the queue must honor backpressure, cancellation, drain-on-shutdown and
// the metrics contract.  tsan-labelled: the shared-solver hammering test
// is the data-race headline for the whole refactor.
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "behavior/bounds.hpp"
#include "common/errors.hpp"
#include "common/rng.hpp"
#include "core/cubis.hpp"
#include "engine/engine.hpp"
#include "games/generators.hpp"
#include "obs/job_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cubisg::engine {
namespace {

using behavior::SuqrIntervalBounds;
using behavior::SuqrWeightIntervals;

/// One shared problem instance with engine-compatible ownership.
struct Instance {
  std::shared_ptr<const games::SecurityGame> game;
  std::shared_ptr<const behavior::SuqrIntervalBounds> bounds;
};

Instance make_instance(std::uint64_t seed, std::size_t targets,
                       double resources, double width) {
  Rng rng(seed);
  auto ug = std::make_shared<games::UncertainGame>(
      games::random_uncertain_game(rng, targets, resources, width));
  Instance inst;
  inst.game = std::shared_ptr<const games::SecurityGame>(ug, &ug->game);
  inst.bounds = std::make_shared<SuqrIntervalBounds>(
      SuqrWeightIntervals{}, ug->attacker_intervals);
  return inst;
}

SolveJob job_for(const Instance& inst) {
  SolveJob job;
  job.game = inst.game;
  job.bounds = inst.bounds;
  return job;
}

/// Bitwise equality: the whole point of the workspace contract is that
/// reuse and concurrency change NOTHING, so no tolerance is allowed.
void expect_identical(const core::DefenderSolution& got,
                      const core::DefenderSolution& want) {
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.worst_case_utility, want.worst_case_utility);
  EXPECT_EQ(got.lb, want.lb);
  EXPECT_EQ(got.ub, want.ub);
  EXPECT_EQ(got.binary_steps, want.binary_steps);
  ASSERT_EQ(got.strategy.size(), want.strategy.size());
  for (std::size_t i = 0; i < want.strategy.size(); ++i) {
    EXPECT_EQ(got.strategy[i], want.strategy[i]) << "target " << i;
  }
}

/// Test solver whose solve() blocks on an external gate — lets the tests
/// pin a worker deterministically to exercise backpressure and rejection.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  int entered = 0;

  void wait_entered(int n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered >= n; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
};

class StallSolver final : public core::DefenderSolver {
 public:
  explicit StallSolver(Gate* gate) : gate_(gate) {}
  std::string name() const override { return "stall"; }
  core::DefenderSolution solve(const core::SolveContext& ctx) const override {
    {
      std::unique_lock<std::mutex> lock(gate_->mu);
      ++gate_->entered;
      gate_->cv.notify_all();
      gate_->cv.wait(lock, [&] { return gate_->open; });
    }
    core::DefenderSolution sol;
    sol.status = SolverStatus::kOptimal;
    sol.strategy.assign(ctx.game.num_targets(), 0.0);
    return sol;
  }

 private:
  Gate* gate_;
};

// ---------------------------------------------------------------------------
// Headline: a single CUBIS instance driven concurrently from 8 threads
// yields solutions bitwise-identical to sequential solves on the same
// problems.  Three instance shapes interleave so every worker's pinned
// workspace is also reused across differing sizes mid-stream.
TEST(Engine, ConcurrentSolvesMatchSequentialBitwise) {
  const std::vector<Instance> instances = {
      make_instance(1001, 50, 15.0, 2.0),
      make_instance(1002, 20, 6.0, 1.5),
      make_instance(1003, 35, 10.0, 1.0),
  };
  core::CubisOptions opt;
  opt.segments = 10;
  opt.epsilon = 1e-3;
  auto solver = std::make_shared<core::CubisSolver>(opt);

  // Sequential oracle: fresh solve per instance, no workspace.
  std::vector<core::DefenderSolution> want;
  for (const Instance& inst : instances) {
    want.push_back(solver->solve({*inst.game, *inst.bounds}));
  }

  EngineOptions eopt;
  eopt.workers = 8;
  eopt.queue_capacity = 64;
  SolveEngine eng(solver, eopt);
  constexpr int kJobs = 48;
  std::vector<std::future<JobOutcome>> futures;
  futures.reserve(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    futures.push_back(eng.submit(job_for(instances[j % instances.size()])));
  }
  for (int j = 0; j < kJobs; ++j) {
    JobOutcome out = futures[static_cast<std::size_t>(j)].get();
    ASSERT_EQ(out.status, JobStatus::kCompleted) << out.error;
    expect_identical(out.solution, want[j % instances.size()]);
  }
  eng.shutdown();
}

// Same guarantee with the MILP step backend, whose per-round skeleton and
// warm-start basis are the most reuse-sensitive state in the workspace.
TEST(Engine, MilpBackendMatchesSequentialAcrossShapes) {
  const std::vector<Instance> instances = {
      make_instance(2001, 12, 4.0, 1.5),
      make_instance(2002, 8, 2.5, 2.0),
  };
  core::CubisOptions opt;
  opt.segments = 6;
  opt.epsilon = 1e-2;
  opt.backend = core::StepBackend::kMilp;
  auto solver = std::make_shared<core::CubisSolver>(opt);

  std::vector<core::DefenderSolution> want;
  for (const Instance& inst : instances) {
    want.push_back(solver->solve({*inst.game, *inst.bounds}));
  }

  EngineOptions eopt;
  eopt.workers = 2;
  SolveEngine eng(solver, eopt);
  std::vector<std::future<JobOutcome>> futures;
  for (int j = 0; j < 12; ++j) {
    futures.push_back(eng.submit(job_for(instances[j % 2])));
  }
  for (int j = 0; j < 12; ++j) {
    JobOutcome out = futures[static_cast<std::size_t>(j)].get();
    ASSERT_EQ(out.status, JobStatus::kCompleted) << out.error;
    expect_identical(out.solution, want[static_cast<std::size_t>(j % 2)]);
  }
}

// Backpressure: with the single worker pinned and the queue full,
// try_submit must reject (and count the rejection) rather than block or
// grow the queue — the in-process mirror of the HTTP exporter's 503.
TEST(Engine, TrySubmitRejectsWhenQueueFull) {
  Gate gate;
  auto solver = std::make_shared<StallSolver>(&gate);
  const Instance inst = make_instance(3001, 5, 2.0, 1.0);

  obs::Counter& rejected =
      obs::Registry::global().counter("engine.jobs_rejected_total");
  const std::int64_t rejected_before = rejected.value();

  EngineOptions eopt;
  eopt.workers = 1;
  eopt.queue_capacity = 2;
  SolveEngine eng(solver, eopt);

  auto running = eng.try_submit(job_for(inst));
  ASSERT_TRUE(running.has_value());
  gate.wait_entered(1);  // worker is now pinned inside solve()

  auto q1 = eng.try_submit(job_for(inst));
  auto q2 = eng.try_submit(job_for(inst));
  ASSERT_TRUE(q1.has_value());
  ASSERT_TRUE(q2.has_value());
  EXPECT_EQ(eng.queue_depth(), 2u);

  auto overflow = eng.try_submit(job_for(inst));
  EXPECT_FALSE(overflow.has_value());
  EXPECT_EQ(rejected.value(), rejected_before + 1);

  gate.release();
  EXPECT_EQ(running->get().status, JobStatus::kCompleted);
  EXPECT_EQ(q1->get().status, JobStatus::kCompleted);
  EXPECT_EQ(q2->get().status, JobStatus::kCompleted);
}

// cancel_all: queued jobs drain as kCancelled (their futures still
// resolve), the running solve's budget trips, and no new work is admitted.
TEST(Engine, CancelAllDrainsQueueAndRejectsNewWork) {
  Gate gate;
  auto solver = std::make_shared<StallSolver>(&gate);
  const Instance inst = make_instance(3002, 5, 2.0, 1.0);

  EngineOptions eopt;
  eopt.workers = 1;
  eopt.queue_capacity = 8;
  SolveEngine eng(solver, eopt);

  auto running = eng.try_submit(job_for(inst));
  ASSERT_TRUE(running.has_value());
  gate.wait_entered(1);
  auto queued = eng.try_submit(job_for(inst));
  ASSERT_TRUE(queued.has_value());

  eng.cancel_all();
  EXPECT_TRUE(eng.cancelled());
  // Every worker budget is tripped, including the pinned one's.
  EXPECT_TRUE(eng.worker_budget(0).cancel_requested());

  EXPECT_FALSE(eng.try_submit(job_for(inst)).has_value());
  EXPECT_THROW(eng.submit(job_for(inst)), std::runtime_error);

  gate.release();
  EXPECT_EQ(running->get().status, JobStatus::kCompleted);
  EXPECT_EQ(queued->get().status, JobStatus::kCancelled);
}

// Shutdown drains: jobs already admitted complete before workers exit,
// and the destructor path is idempotent with explicit shutdown.
TEST(Engine, ShutdownDrainsAdmittedJobs) {
  const Instance inst = make_instance(3003, 10, 3.0, 1.0);
  core::CubisOptions opt;
  opt.segments = 5;
  auto solver = std::make_shared<core::CubisSolver>(opt);

  std::vector<std::future<JobOutcome>> futures;
  {
    SolveEngine eng(solver, {2, 16, 0.0, 0});
    for (int j = 0; j < 8; ++j) {
      futures.push_back(eng.submit(job_for(inst)));
    }
    eng.shutdown();  // explicit; destructor repeats it harmlessly
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, JobStatus::kCompleted);
  }
}

// Metrics contract: accepted/completed counters and the queue-depth gauge
// reconcile with the work actually done (deltas — the registry is global).
TEST(Engine, MetricsAccountForEveryJob) {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& accepted = reg.counter("engine.jobs_accepted_total");
  obs::Counter& completed = reg.counter("engine.jobs_completed_total");
  const std::int64_t accepted_before = accepted.value();
  const std::int64_t completed_before = completed.value();

  const Instance inst = make_instance(3004, 8, 2.0, 1.0);
  core::CubisOptions opt;
  opt.segments = 5;
  auto solver = std::make_shared<core::CubisSolver>(opt);
  SolveEngine eng(solver, {2, 16, 0.0, 0});
  std::vector<std::future<JobOutcome>> futures;
  for (int j = 0; j < 6; ++j) futures.push_back(eng.submit(job_for(inst)));
  for (auto& f : futures) EXPECT_EQ(f.get().status, JobStatus::kCompleted);
  eng.shutdown();

  EXPECT_EQ(accepted.value(), accepted_before + 6);
  EXPECT_EQ(completed.value(), completed_before + 6);
  EXPECT_EQ(reg.gauge("engine.queue_depth").value(), 0.0);
}

// Per-job budget: a deadline on the job (not the engine default) trips the
// solve, which completes with a budget status rather than failing.
TEST(Engine, PerJobDeadlineProducesBudgetStatus) {
  const Instance inst = make_instance(3005, 60, 18.0, 2.0);
  core::CubisOptions opt;
  opt.segments = 25;
  opt.epsilon = 1e-9;  // effectively unbounded without the deadline
  auto solver = std::make_shared<core::CubisSolver>(opt);
  SolveEngine eng(solver, {1, 4, 0.0, 0});
  SolveJob job = job_for(inst);
  job.deadline_seconds = 1e-9;
  JobOutcome out = eng.submit(std::move(job)).get();
  ASSERT_EQ(out.status, JobStatus::kCompleted);
  EXPECT_EQ(out.solution.status, SolverStatus::kDeadlineExceeded);
}

TEST(Engine, NullSolverThrows) {
  EXPECT_THROW(SolveEngine(nullptr, {}), InvalidModelError);
}

// Per-job tracing: with collection on, every job run by a multi-worker
// engine leaves an "engine.queue_wait" and an "engine.execute" event
// tagged with its job id, mergeable across workers in one Chrome trace.
TEST(Engine, TraceEventsKeyedByJobIdAcrossWorkers) {
  const Instance inst = make_instance(4001, 12, 4.0, 1.5);
  core::CubisOptions opt;
  opt.segments = 5;
  auto solver = std::make_shared<core::CubisSolver>(opt);

  const std::int64_t waits_before = obs::Registry::global()
                                        .histogram("engine.queue_wait_seconds")
                                        .count();
  obs::set_trace_enabled(true);
  obs::clear_trace();
  constexpr int kJobs = 12;
  std::vector<std::uint64_t> job_ids;
  {
    SolveEngine eng(solver, {4, 16, 0.0, 0});
    std::vector<std::future<JobOutcome>> futures;
    for (int j = 0; j < kJobs; ++j) {
      futures.push_back(eng.submit(job_for(inst)));
    }
    for (auto& f : futures) {
      JobOutcome out = f.get();
      ASSERT_EQ(out.status, JobStatus::kCompleted) << out.error;
      job_ids.push_back(out.id);
    }
    eng.shutdown();
  }
  obs::set_trace_enabled(false);

  // The queue-wait histogram saw every job.
  EXPECT_EQ(obs::Registry::global()
                .histogram("engine.queue_wait_seconds")
                .count(),
            waits_before + kJobs);

  std::map<std::uint64_t, int> queue_waits;
  std::map<std::uint64_t, int> executes;
  std::map<int, std::int64_t> last_end_by_tid;
  for (const obs::TraceEvent& e : obs::collect_trace_events()) {
    if (e.name == std::string("engine.queue_wait")) ++queue_waits[e.job];
    if (e.name == std::string("engine.execute")) ++executes[e.job];
    // Completion timestamps stay monotonic within each worker thread.
    const std::int64_t end_ns = e.start_ns + e.dur_ns;
    auto it = last_end_by_tid.find(e.tid);
    if (it != last_end_by_tid.end()) EXPECT_GE(end_ns, it->second);
    last_end_by_tid[e.tid] = end_ns;
  }
  for (std::uint64_t id : job_ids) {
    EXPECT_EQ(queue_waits[id], 1) << "job " << id;
    EXPECT_EQ(executes[id], 1) << "job " << id;
  }
  obs::clear_trace();
}

// Slow jobs: with a 0-second SLO armed, every engine solve is "slow" —
// the job's one record lands in the /slowz view carrying the job id,
// worker, phase breakdown and the solution summary, and the slow-solve
// counter advances.
TEST(Engine, SlowJobsLandInTheSlowView) {
  const Instance inst = make_instance(4002, 10, 3.0, 1.0);
  core::CubisOptions opt;
  opt.segments = 5;
  auto solver = std::make_shared<core::CubisSolver>(opt);

  obs::JobLog& log = obs::JobLog::global();
  log.clear();
  log.arm(0.0);  // every solve meets the SLO threshold
  const std::int64_t slow_before = obs::Registry::global()
                                       .counter("engine.slow_solves_total")
                                       .value();
  std::uint64_t job_id = 0;
  {
    SolveEngine eng(solver, {2, 8, 0.0, 0});
    SolveJob job = job_for(inst);
    job.tag = "flight-test";
    JobOutcome out = eng.submit(std::move(job)).get();
    ASSERT_EQ(out.status, JobStatus::kCompleted) << out.error;
    job_id = out.id;
    eng.shutdown();
  }
  log.disarm();

  EXPECT_EQ(obs::Registry::global()
                .counter("engine.slow_solves_total")
                .value(),
            slow_before + 1);
  const std::vector<obs::JobRecord> entries = log.recent(obs::JobView::kSlow);
  ASSERT_EQ(entries.size(), 1u);
  const obs::JobRecord& entry = entries.front();
  EXPECT_EQ(entry.job_id, job_id);
  EXPECT_EQ(entry.tag, "flight-test");
  EXPECT_GT(entry.solve_seconds, 0.0);
  EXPECT_DOUBLE_EQ(entry.slo_seconds, 0.0);
  EXPECT_TRUE(entry.has_solution);
  EXPECT_EQ(entry.solver, "cubis-dp");
  EXPECT_FALSE(entry.trajectory.empty());
  EXPECT_FALSE(entry.phases.empty());
  log.clear();
}

}  // namespace
}  // namespace cubisg::engine
