// Engine -> job log: every job that reaches the engine's terminal point
// files exactly one obs::JobRecord, whatever path it took — process
// isolation, an exact cache hit, a retried attempt.  Deliberately NOT
// tsan-labelled: the process-isolation test forks a multi-threaded
// process, which TSan does not support.
#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "behavior/scenario.hpp"
#include "common/rng.hpp"
#include "core/cubis.hpp"
#include "engine/engine.hpp"
#include "engine/process_pool.hpp"
#include "games/generators.hpp"
#include "obs/job_log.hpp"
#include "obs/metrics.hpp"

namespace cubisg::engine {
namespace {

std::shared_ptr<behavior::Scenario> make_scenario(std::uint64_t seed,
                                                  std::size_t targets) {
  Rng rng(seed);
  return std::make_shared<behavior::Scenario>(behavior::Scenario{
      games::random_uncertain_game(rng, targets, targets / 3.0, 1.0),
      behavior::SuqrWeightIntervals{}, behavior::IntervalMode::kExactBox});
}

SolveJob job_for(const std::shared_ptr<behavior::Scenario>& scn,
                 std::string tag) {
  SolveJob job;
  job.game =
      std::shared_ptr<const games::SecurityGame>(scn, &scn->game.game);
  job.bounds =
      std::make_shared<behavior::SuqrIntervalBounds>(scn->make_bounds());
  job.scenario = scn;
  job.tag = std::move(tag);
  return job;
}

std::shared_ptr<const core::DefenderSolver> make_solver() {
  core::CubisOptions opt;
  opt.segments = 5;
  return std::make_shared<core::CubisSolver>(opt);
}

std::int64_t slow_solves() {
  return obs::Registry::global().counter("engine.slow_solves_total").value();
}

/// Resets the global log around each test; disarms on the way out.
struct LogGuard {
  LogGuard() { obs::JobLog::global().clear(); }
  ~LogGuard() {
    obs::JobLog::global().disarm();
    obs::JobLog::global().clear();
  }
};

// Process isolation used to leave /slowz and /solvez empty: the child's
// solve report died with the child and the parent never checked the SLO.
// Now the parent records every isolated job, and each one over a 0 s SLO
// is in the slow view and the slow-solve counter.
TEST(JobRecords, ProcessIsolatedJobsLandInTheSlowView) {
  if (!process_isolation_available()) {
    GTEST_SKIP() << "process isolation not available on this build";
  }
  LogGuard guard;
  obs::JobLog& log = obs::JobLog::global();
  log.arm(0.0);
  const std::int64_t slow_before = slow_solves();
  constexpr int kJobs = 5;
  std::vector<std::uint64_t> ids;
  {
    EngineOptions eopt;
    eopt.workers = 2;
    eopt.isolation = IsolationMode::kProcess;
    SolveEngine eng(make_solver(), eopt);
    ASSERT_TRUE(eng.process_mode());
    std::vector<std::future<JobOutcome>> futures;
    for (int j = 0; j < kJobs; ++j) {
      futures.push_back(eng.submit(job_for(
          make_scenario(7100 + static_cast<std::uint64_t>(j), 12),
          "isolated-" + std::to_string(j))));
    }
    for (auto& f : futures) {
      const JobOutcome out = f.get();
      ASSERT_EQ(out.status, JobStatus::kCompleted) << out.error;
      ids.push_back(out.id);
    }
    eng.shutdown();
  }
  EXPECT_EQ(slow_solves() - slow_before, kJobs);
  const std::vector<obs::JobRecord> slow = log.recent(obs::JobView::kSlow);
  ASSERT_EQ(slow.size(), static_cast<std::size_t>(kJobs));
  EXPECT_EQ(log.recent().size(), static_cast<std::size_t>(kJobs));
  for (const obs::JobRecord& r : slow) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), r.job_id), ids.end());
    EXPECT_EQ(r.job_status, "completed");
    EXPECT_EQ(r.attempts, 1);
    EXPECT_TRUE(r.has_solution);
    EXPECT_EQ(r.solver, "cubis-dp");
    EXPECT_EQ(r.status, "optimal");
    EXPECT_FALSE(r.trajectory.empty());  // rounds crossed the wire
    EXPECT_GT(r.solve_seconds, 0.0);
    // Phase totals cover the parent side of the job only.
    bool saw_execute = false;
    for (const obs::PhaseTotal& p : r.phases) {
      saw_execute = saw_execute || p.name == "engine.execute";
    }
    EXPECT_TRUE(saw_execute);
  }
}

// An exact cache hit runs no solve but is still a job: it files a record
// with cache verdict "hit" and the cached solution's summary, and is
// never counted slow (there was no solve to be slow).
TEST(JobRecords, ExactCacheHitIsRecorded) {
  LogGuard guard;
  obs::JobLog& log = obs::JobLog::global();
  log.arm(0.0);
  const std::int64_t slow_before = slow_solves();
  const auto scn = make_scenario(7200, 10);
  JobOutcome first;
  JobOutcome second;
  {
    EngineOptions eopt;
    eopt.cache.mode = CacheMode::kExact;
    eopt.cache.solver_config = "job-records-test";
    SolveEngine eng(make_solver(), eopt);
    first = eng.submit(job_for(scn, "cold")).get();
    second = eng.submit(job_for(scn, "hit")).get();
    eng.shutdown();
  }
  ASSERT_EQ(first.status, JobStatus::kCompleted) << first.error;
  ASSERT_TRUE(second.cache_hit);
  EXPECT_EQ(slow_solves() - slow_before, 1);
  const std::vector<obs::JobRecord> all = log.recent();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].job_id, first.id);
  EXPECT_EQ(obs::to_string(all[0].cache), std::string("miss"));
  EXPECT_TRUE(all[0].slow);
  const obs::JobRecord& hit = all[1];
  EXPECT_EQ(hit.job_id, second.id);
  EXPECT_EQ(hit.tag, "hit");
  EXPECT_EQ(obs::to_string(hit.cache), std::string("hit"));
  EXPECT_EQ(hit.job_status, "completed");
  EXPECT_FALSE(hit.slow);
  EXPECT_TRUE(hit.has_solution);
  EXPECT_EQ(hit.lb, second.solution.lb);
  EXPECT_EQ(hit.ub, second.solution.ub);
  EXPECT_EQ(hit.trajectory.size(), second.solution.certificate.rounds.size());
  EXPECT_NE(log.to_json(obs::JobView::kAll).find("\"cache\":\"hit\""),
            std::string::npos);
}

/// Throws a transient error on its first call, then solves normally.
class FlakyOnceSolver final : public core::DefenderSolver {
 public:
  std::string name() const override { return "flaky-once"; }
  core::DefenderSolution solve(const core::SolveContext& ctx) const override {
    if (calls_.fetch_add(1) == 0) {
      throw std::runtime_error("transient test failure");
    }
    return inner_->solve(ctx);
  }

 private:
  std::shared_ptr<const core::DefenderSolver> inner_ = make_solver();
  mutable std::atomic<int> calls_{0};
};

// A retried job is one job: one record, carrying the attempts it took.
TEST(JobRecords, RetriedJobLeavesOneRecord) {
  LogGuard guard;
  JobOutcome out;
  {
    EngineOptions eopt;
    eopt.retry.max_attempts = 3;
    eopt.retry.backoff_initial_ms = 1.0;
    SolveEngine eng(std::make_shared<FlakyOnceSolver>(), eopt);
    out = eng.submit(job_for(make_scenario(7300, 8), "flaky")).get();
    eng.shutdown();
  }
  ASSERT_EQ(out.status, JobStatus::kCompleted) << out.error;
  ASSERT_EQ(out.attempts, 2);
  const std::vector<obs::JobRecord> all = obs::JobLog::global().recent();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].job_id, out.id);
  EXPECT_EQ(all[0].tag, "flaky");
  EXPECT_EQ(all[0].attempts, 2);
  EXPECT_EQ(all[0].job_status, "completed");
}

}  // namespace
}  // namespace cubisg::engine
