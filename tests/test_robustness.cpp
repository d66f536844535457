// Resilience-layer tests: SolveBudget semantics, the deterministic
// fault-injection hooks, graceful degradation of every pipeline layer
// (simplex pivots -> B&B nodes -> CUBIS rounds), the numeric-failure
// recovery ladder, degenerate inputs and malformed model files.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "behavior/bounds.hpp"
#include "common/budget.hpp"
#include "common/errors.hpp"
#include "common/fault_inject.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/cubis.hpp"
#include "core/round_cache.hpp"
#include "games/generators.hpp"
#include "lp/io.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "milp/branch_and_bound.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace cubisg {
namespace {

using behavior::SuqrIntervalBounds;
using behavior::SuqrWeightIntervals;

/// Disarms every fault site on scope exit so one test cannot leak an
/// armed fault into the next.
struct FaultGuard {
  FaultGuard() { faultinject::disarm_all(); }
  ~FaultGuard() { faultinject::disarm_all(); }
};

struct Fixture {
  games::UncertainGame ug;
  SuqrIntervalBounds bounds;
  Fixture(std::uint64_t seed, std::size_t t, double r, double width)
      : ug(make(seed, t, r, width)),
        bounds(SuqrWeightIntervals{}, ug.attacker_intervals) {}
  static games::UncertainGame make(std::uint64_t seed, std::size_t t,
                                   double r, double width) {
    Rng rng(seed);
    return games::random_uncertain_game(rng, t, r, width);
  }
  core::SolveContext ctx(const SolveBudget* budget = nullptr) const {
    return core::SolveContext{ug.game, bounds, budget};
  }
};

/// The paper-faithful small LP used to drive simplex through the
/// budget/recovery paths: max 3x + 5y with three <= rows.
lp::Model textbook_lp() {
  lp::Model m;
  m.set_objective_sense(lp::Objective::kMaximize);
  const int x = m.add_col("x", 0.0, lp::kInf, 3.0);
  const int y = m.add_col("y", 0.0, lp::kInf, 5.0);
  int r0 = m.add_row("r0", lp::Sense::kLe, 4.0);
  m.set_coeff(r0, x, 1.0);
  int r1 = m.add_row("r1", lp::Sense::kLe, 12.0);
  m.set_coeff(r1, y, 2.0);
  int r2 = m.add_row("r2", lp::Sense::kLe, 18.0);
  m.set_coeff(r2, x, 3.0);
  m.set_coeff(r2, y, 2.0);
  return m;
}

/// Small knapsack MILP: max sum v_j z_j subject to sum w_j z_j <= 10.
lp::Model knapsack_milp() {
  lp::Model m;
  m.set_objective_sense(lp::Objective::kMaximize);
  const double v[] = {6, 5, 4, 3, 2, 7};
  const double w[] = {5, 4, 3, 2, 1, 6};
  const int row = m.add_row("cap", lp::Sense::kLe, 10.0);
  for (int j = 0; j < 6; ++j) {
    const int z = m.add_col("z" + std::to_string(j), 0.0, 1.0, v[j]);
    m.set_integer(z);
    m.set_coeff(row, z, w[j]);
  }
  return m;
}

// ---- SolveBudget unit semantics ---------------------------------------

TEST(SolveBudget, UnarmedNeverTrips) {
  SolveBudget b;
  EXPECT_FALSE(b.exceeded().has_value());
  EXPECT_TRUE(b.ok());
  EXPECT_FALSE(b.has_deadline());
  EXPECT_TRUE(std::isinf(b.remaining_seconds()));
}

TEST(SolveBudget, ExpiredDeadlineTripsAndLatches) {
  SolveBudget b;
  b.set_deadline_after(-1.0);  // already past
  auto stop = b.exceeded();
  ASSERT_TRUE(stop.has_value());
  EXPECT_EQ(*stop, SolverStatus::kDeadlineExceeded);
  // Sticky: a later cancellation cannot change the latched verdict, so
  // every concurrently-unwinding layer reports the same reason.
  b.request_cancel();
  EXPECT_EQ(*b.exceeded(), SolverStatus::kDeadlineExceeded);
}

TEST(SolveBudget, CancellationWinsWhenFirst) {
  SolveBudget b;
  b.request_cancel();
  ASSERT_TRUE(b.exceeded().has_value());
  EXPECT_EQ(*b.exceeded(), SolverStatus::kCancelled);
  EXPECT_TRUE(b.cancel_requested());
}

TEST(SolveBudget, NodeAndIterationCapsTripAsIterLimit) {
  SolveBudget b;
  b.set_node_limit(5);
  b.charge_nodes(4);
  EXPECT_FALSE(b.exceeded().has_value());
  b.charge_nodes(1);
  ASSERT_TRUE(b.exceeded().has_value());
  EXPECT_EQ(*b.exceeded(), SolverStatus::kIterLimit);

  SolveBudget b2;
  b2.set_iteration_limit(3);
  b2.charge_iterations(3);
  ASSERT_TRUE(b2.exceeded().has_value());
  EXPECT_EQ(*b2.exceeded(), SolverStatus::kIterLimit);
}

TEST(SolveBudget, ResetRearmsForServeLoopReuse) {
  SolveBudget b;
  b.set_deadline_after(-1.0);
  b.request_cancel();
  ASSERT_TRUE(b.exceeded().has_value());
  b.reset();
  EXPECT_FALSE(b.exceeded().has_value());
  EXPECT_FALSE(b.has_deadline());
  EXPECT_EQ(b.nodes_charged(), 0);
  EXPECT_DOUBLE_EQ(b.deadline_seconds(), 0.0);
}

TEST(SolveBudget, RemainingSecondsTracksDeadline) {
  SolveBudget b;
  b.set_deadline_after(30.0);
  EXPECT_TRUE(b.has_deadline());
  EXPECT_GT(b.remaining_seconds(), 25.0);
  EXPECT_LE(b.remaining_seconds(), 30.0);
  EXPECT_DOUBLE_EQ(b.deadline_seconds(), 30.0);
}

// ---- fault-injection hook ---------------------------------------------

TEST(FaultInject, FireCountAndSkipWindows) {
  if (!faultinject::compiled_in()) GTEST_SKIP() << "compiled out";
  FaultGuard guard;
  const auto site = faultinject::Site::kLuFactorize;
  faultinject::arm(site, /*fire_count=*/2, /*skip=*/1);
  EXPECT_FALSE(faultinject::should_fail(site));  // skipped
  EXPECT_TRUE(faultinject::should_fail(site));
  EXPECT_TRUE(faultinject::should_fail(site));
  EXPECT_FALSE(faultinject::should_fail(site));  // window exhausted
  EXPECT_EQ(faultinject::fire_count(site), 2);
}

TEST(FaultInject, DisarmStopsFiring) {
  if (!faultinject::compiled_in()) GTEST_SKIP() << "compiled out";
  FaultGuard guard;
  const auto site = faultinject::Site::kModelIo;
  faultinject::arm(site, -1);  // forever
  EXPECT_TRUE(faultinject::should_fail(site));
  faultinject::disarm(site);
  EXPECT_FALSE(faultinject::should_fail(site));
}

TEST(FaultInject, UnarmedSitesNeverFire) {
  FaultGuard guard;
  for (int i = 0; i < static_cast<int>(faultinject::Site::kCount); ++i) {
    EXPECT_FALSE(faultinject::should_fail(static_cast<faultinject::Site>(i)));
  }
}

TEST(FaultInject, ArmFromEnvParsesSpec) {
  if (!faultinject::compiled_in()) GTEST_SKIP() << "compiled out";
  FaultGuard guard;
  ::setenv("CUBISG_FAULT_INJECT", "model-io:2,cubis-deadline:1:1", 1);
  faultinject::arm_from_env();
  ::unsetenv("CUBISG_FAULT_INJECT");
  EXPECT_TRUE(faultinject::should_fail(faultinject::Site::kModelIo));
  EXPECT_TRUE(faultinject::should_fail(faultinject::Site::kModelIo));
  EXPECT_FALSE(faultinject::should_fail(faultinject::Site::kModelIo));
  // cubis-deadline: one skip, then one fire.
  EXPECT_FALSE(faultinject::should_fail(faultinject::Site::kCubisDeadline));
  EXPECT_TRUE(faultinject::should_fail(faultinject::Site::kCubisDeadline));
}

TEST(FaultInject, SiteNamesAreStable) {
  EXPECT_STREQ(faultinject::site_name(faultinject::Site::kLuFactorize),
               "lu-factorize");
  EXPECT_STREQ(faultinject::site_name(faultinject::Site::kPoolSubmit),
               "pool-submit");
}

// ---- simplex: budget stop + recovery ladder ----------------------------

TEST(SimplexBudget, ExpiredDeadlineReturnsTypedStatus) {
  SolveBudget budget;
  budget.set_deadline_after(-1.0);
  lp::SimplexOptions opt;
  opt.budget = &budget;
  lp::LpSolution s = lp::solve_lp(textbook_lp(), opt);
  EXPECT_EQ(s.status, SolverStatus::kDeadlineExceeded);
}

TEST(SimplexBudget, CancellationReturnsTypedStatus) {
  SolveBudget budget;
  budget.request_cancel();
  lp::SimplexOptions opt;
  opt.budget = &budget;
  lp::LpSolution s = lp::solve_lp(textbook_lp(), opt);
  EXPECT_EQ(s.status, SolverStatus::kCancelled);
}

TEST(SimplexBudget, IterationsAreChargedToTheToken) {
  SolveBudget budget;
  lp::SimplexOptions opt;
  opt.budget = &budget;
  lp::LpSolution s = lp::solve_lp(textbook_lp(), opt);
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(budget.iterations_charged(), s.iterations);
}

TEST(SimplexRecovery, TransientSingularFactorizationRecovers) {
  if (!faultinject::compiled_in()) GTEST_SKIP() << "compiled out";
  FaultGuard guard;
  obs::Counter& retries =
      obs::Registry::global().counter("solve.numeric_retries_total");
  const std::int64_t before = retries.value();
  // Three fires exhaust the in-solver soft restarts; the recovery ladder's
  // first rung (Bland + refactorize-every-pivot) then runs clean.
  faultinject::arm(faultinject::Site::kLuFactorize, 3);
  lp::LpSolution s = lp::solve_lp(textbook_lp());
  EXPECT_TRUE(s.optimal()) << to_string(s.status);
  EXPECT_NEAR(s.objective, 36.0, 1e-6);
  EXPECT_GE(retries.value() - before, 1);
}

TEST(SimplexRecovery, PersistentSingularityDegradesToTypedStatus) {
  if (!faultinject::compiled_in()) GTEST_SKIP() << "compiled out";
  FaultGuard guard;
  faultinject::arm(faultinject::Site::kLuFactorize, -1);  // every attempt
  lp::LpSolution s;
  EXPECT_NO_THROW(s = lp::solve_lp(textbook_lp()));
  EXPECT_EQ(s.status, SolverStatus::kNumericalIssue);
}

TEST(SimplexFault, InjectedDeadlineAtPivotCheckpoint) {
  if (!faultinject::compiled_in()) GTEST_SKIP() << "compiled out";
  FaultGuard guard;
  faultinject::arm(faultinject::Site::kSimplexDeadline, -1);
  lp::LpSolution s = lp::solve_lp(textbook_lp());
  EXPECT_EQ(s.status, SolverStatus::kDeadlineExceeded);
}

// ---- branch and bound: budget stop -------------------------------------

TEST(MilpBudget, ExpiredDeadlineUnwindsWithBoundBookkeeping) {
  SolveBudget budget;
  budget.set_deadline_after(-1.0);
  milp::MilpOptions opt;
  opt.budget = &budget;
  milp::MilpSolution s = milp::solve_milp(knapsack_milp(), opt);
  EXPECT_EQ(s.status, SolverStatus::kDeadlineExceeded);
}

TEST(MilpBudget, NodeCapTripsViaSharedToken) {
  SolveBudget budget;
  budget.set_node_limit(1);
  milp::MilpOptions opt;
  opt.budget = &budget;
  milp::MilpSolution s = milp::solve_milp(knapsack_milp(), opt);
  EXPECT_EQ(s.status, SolverStatus::kIterLimit);
  EXPECT_GE(budget.nodes_charged(), 1);
}

TEST(MilpBudget, UnbudgetedSolveStillOptimal) {
  milp::MilpSolution s = milp::solve_milp(knapsack_milp());
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 14.0, 1e-6);  // {z1,z2,z3,z4}: weight 10, value 14
}

TEST(MilpFault, InjectedDeadlineAtNodeCheckpoint) {
  if (!faultinject::compiled_in()) GTEST_SKIP() << "compiled out";
  FaultGuard guard;
  faultinject::arm(faultinject::Site::kMilpDeadline, -1);
  milp::MilpSolution s = milp::solve_milp(knapsack_milp());
  EXPECT_EQ(s.status, SolverStatus::kDeadlineExceeded);
}

// ---- CUBIS: graceful degradation ---------------------------------------

TEST(CubisBudget, ExpiredDeadlineReturnsIncumbentAndBracket) {
  Fixture f(21, 6, 2.0, 1.0);
  SolveBudget budget;
  budget.set_deadline_after(-1.0);
  core::CubisSolver solver;
  core::DefenderSolution sol = solver.solve(f.ctx(&budget));
  EXPECT_EQ(sol.status, SolverStatus::kDeadlineExceeded);
  EXPECT_FALSE(sol.ok());
  // Degraded, not empty: the uniform fallback incumbent and the trivial
  // payoff-range bracket are still a certified answer.
  ASSERT_EQ(sol.strategy.size(), 6u);
  EXPECT_LE(sol.lb, sol.ub);
  double total = 0.0;
  for (double xi : sol.strategy) {
    EXPECT_GE(xi, -1e-12);
    EXPECT_LE(xi, 1.0 + 1e-12);
    total += xi;
  }
  EXPECT_LE(total, 2.0 + 1e-9);
}

TEST(CubisBudget, CancellationReturnsIncumbent) {
  Fixture f(22, 6, 2.0, 1.0);
  SolveBudget budget;
  budget.request_cancel();
  core::CubisSolver solver;
  core::DefenderSolution sol = solver.solve(f.ctx(&budget));
  EXPECT_EQ(sol.status, SolverStatus::kCancelled);
  EXPECT_EQ(sol.strategy.size(), 6u);
}

TEST(CubisBudget, DeadlineBoundedSolveReturnsWithinBudgetPlusGrace) {
  // A deliberately heavy instance (many targets, fine grid, epsilon far
  // below reachability) so the deadline must trip mid-search.
  Fixture f(23, 200, 60.0, 1.5);
  core::CubisOptions opt;
  opt.segments = 40;
  opt.epsilon = 1e-12;
  // The deadline is two binary-search rounds on this instance, timed
  // here on the warm path the solve takes (the fastest of three).
  // Reaching epsilon from the payoff-range bracket takes ~45 rounds, so
  // the search cannot finish inside the deadline however fast the step
  // kernel is.
  double round_sec = 0.0;
  {
    const core::SolveContext ctx = f.ctx();
    const core::StepTables tables = core::build_step_tables(ctx, opt.segments);
    core::RoundReuse lane(tables, /*milp_backend=*/false);
    const double c = 0.5 * (f.ug.game.min_defender_penalty() +
                            f.ug.game.max_defender_reward());
    for (int rep = 0; rep < 3; ++rep) {
      Timer round_timer;
      (void)core::cubis_step(ctx, c, opt, &tables, &lane);
      const double sec = round_timer.seconds();
      round_sec = rep == 0 ? sec : std::min(round_sec, sec);
    }
  }
  SolveBudget budget;
  const double deadline_sec = 2.0 * round_sec;
  budget.set_deadline_after(deadline_sec);
  Timer timer;
  core::DefenderSolution sol = core::CubisSolver(opt).solve(f.ctx(&budget));
  const double wall = timer.seconds();
  EXPECT_EQ(sol.status, SolverStatus::kDeadlineExceeded);
  // Grace = one binary-search round on this instance (the DP steps are
  // not internally interruptible) plus top-up/eval; generous CI margin.
  EXPECT_LT(wall, deadline_sec + 5.0);
  // The incumbent is feasible and the bracket is sane.
  ASSERT_EQ(sol.strategy.size(), 200u);
  double total = 0.0;
  for (double xi : sol.strategy) {
    EXPECT_GE(xi, -1e-12);
    EXPECT_LE(xi, 1.0 + 1e-12);
    total += xi;
  }
  EXPECT_LE(total, 60.0 + 1e-6);
  EXPECT_LE(sol.lb, sol.ub);
  EXPECT_GT(sol.ub - sol.lb, opt.epsilon);  // genuinely unconverged
}

TEST(CubisBudget, InterruptedBracketContainsTheTrueThreshold) {
  if (!faultinject::compiled_in()) GTEST_SKIP() << "compiled out";
  Fixture f(24, 6, 2.0, 1.0);
  core::CubisOptions opt;
  opt.segments = 12;
  opt.epsilon = 1e-4;
  // Reference: the converged bracket.
  core::DefenderSolution full = core::CubisSolver(opt).solve(f.ctx());
  ASSERT_TRUE(full.ok());
  // Interrupted run: the injected deadline fires at the start of round 3.
  FaultGuard guard;
  faultinject::arm(faultinject::Site::kCubisDeadline, 1, /*skip=*/2);
  core::DefenderSolution cut = core::CubisSolver(opt).solve(f.ctx());
  EXPECT_EQ(cut.status, SolverStatus::kDeadlineExceeded);
  // Monotonicity: every partial-round verdict stays valid, so the wide
  // bracket must contain the converged one.
  EXPECT_LE(cut.lb, full.lb + 1e-9);
  EXPECT_GE(cut.ub, full.ub - 1e-9);
  EXPECT_GE(full.lb, cut.lb - 1e-9);
}

TEST(CubisFault, ForcedInfeasibleStepReportsInfeasible) {
  if (!faultinject::compiled_in()) GTEST_SKIP() << "compiled out";
  FaultGuard guard;
  faultinject::arm(faultinject::Site::kCubisStepInfeasible, -1);
  Fixture f(25, 5, 2.0, 1.0);
  core::DefenderSolution sol;
  EXPECT_NO_THROW(sol = core::CubisSolver().solve(f.ctx()));
  EXPECT_EQ(sol.status, SolverStatus::kInfeasible);
}

TEST(CubisFault, StepAllocationFailureDegradesToNumericalIssue) {
  if (!faultinject::compiled_in()) GTEST_SKIP() << "compiled out";
  FaultGuard guard;
  faultinject::arm(faultinject::Site::kStepAlloc, 1);
  Fixture f(26, 5, 2.0, 1.0);
  core::DefenderSolution sol;
  EXPECT_NO_THROW(sol = core::CubisSolver().solve(f.ctx()));
  EXPECT_EQ(sol.status, SolverStatus::kNumericalIssue);
  EXPECT_EQ(sol.strategy.size(), 5u);  // incumbent survives
}

TEST(CubisFault, SimplexDeadlinePropagatesThroughMilpBackend) {
  if (!faultinject::compiled_in()) GTEST_SKIP() << "compiled out";
  FaultGuard guard;
  faultinject::arm(faultinject::Site::kSimplexDeadline, -1);
  Fixture f(27, 3, 1.0, 0.5);
  core::CubisOptions opt;
  opt.backend = core::StepBackend::kMilp;
  opt.segments = 5;
  opt.warm_start_from_dp = false;
  core::DefenderSolution sol = core::CubisSolver(opt).solve(f.ctx());
  EXPECT_EQ(sol.status, SolverStatus::kDeadlineExceeded);
  EXPECT_EQ(sol.strategy.size(), 3u);
}

TEST(CubisBudget, MultisectionRoundHonorsCancellation) {
  Fixture f(28, 8, 3.0, 1.0);
  core::CubisOptions opt;
  opt.parallel_sections = 4;
  SolveBudget budget;
  budget.request_cancel();
  core::DefenderSolution sol = core::CubisSolver(opt).solve(f.ctx(&budget));
  EXPECT_EQ(sol.status, SolverStatus::kCancelled);
}

// ---- degenerate inputs --------------------------------------------------

TEST(Degenerate, SingleTargetSolves) {
  Fixture f(31, 1, 1.0, 1.0);
  core::DefenderSolution sol = core::CubisSolver().solve(f.ctx());
  ASSERT_TRUE(sol.ok()) << to_string(sol.status);
  ASSERT_EQ(sol.strategy.size(), 1u);
  EXPECT_GE(sol.strategy[0], -1e-12);
  EXPECT_LE(sol.strategy[0], 1.0 + 1e-12);
}

TEST(Degenerate, ZeroResourcesSolves) {
  Fixture f(32, 4, 0.0, 1.0);
  core::DefenderSolution sol;
  EXPECT_NO_THROW(sol = core::CubisSolver().solve(f.ctx()));
  ASSERT_TRUE(sol.ok()) << to_string(sol.status);
  for (double xi : sol.strategy) EXPECT_NEAR(xi, 0.0, 1e-9);
}

TEST(Degenerate, ResourcesCoverEveryTarget) {
  // R == T: full coverage is affordable; no crash, xi stays in [0, 1].
  Fixture f(33, 4, 4.0, 1.0);
  core::DefenderSolution sol;
  EXPECT_NO_THROW(sol = core::CubisSolver().solve(f.ctx()));
  ASSERT_TRUE(sol.ok()) << to_string(sol.status);
  for (double xi : sol.strategy) {
    EXPECT_GE(xi, -1e-12);
    EXPECT_LE(xi, 1.0 + 1e-12);
  }
}

TEST(Degenerate, OversizedResourcesAreTypedError) {
  // R > T is malformed input: a typed validation error, never a crash.
  EXPECT_THROW(Fixture(33, 4, 5.0, 1.0), InvalidModelError);
}

TEST(Degenerate, CollapsedIntervalsSolve) {
  // Width 0: L == U everywhere — the uncertainty set is a point.
  Fixture f(34, 5, 2.0, 0.0);
  core::DefenderSolution sol;
  EXPECT_NO_THROW(sol = core::CubisSolver().solve(f.ctx()));
  ASSERT_TRUE(sol.ok()) << to_string(sol.status);
  EXPECT_LE(sol.lb, sol.ub);
}

// ---- malformed model files ----------------------------------------------

TEST(ModelIo, GarbageHeaderIsTypedError) {
  std::istringstream is("not-a-model 7\n");
  EXPECT_THROW(lp::read_model(is), InvalidModelError);
}

TEST(ModelIo, TruncatedBodyIsTypedError) {
  std::istringstream is("cubisg-model 1\nsense max\ncols 3\nx 0 1 1 0\n");
  EXPECT_THROW(lp::read_model(is), InvalidModelError);
}

TEST(ModelIo, MissingFileIsTypedError) {
  EXPECT_THROW(lp::load_model("/nonexistent/cubisg-does-not-exist.lp"),
               InvalidModelError);
}

TEST(ModelIo, InjectedIoFailureIsTypedError) {
  if (!faultinject::compiled_in()) GTEST_SKIP() << "compiled out";
  FaultGuard guard;
  const std::string path =
      ::testing::TempDir() + "/cubisg_robustness_model.lp";
  ASSERT_TRUE(lp::save_model(path, textbook_lp()));
  faultinject::arm(faultinject::Site::kModelIo, 1);
  EXPECT_THROW(lp::load_model(path), InvalidModelError);
  // Disarmed window over: the same file now loads.
  lp::Model m = lp::load_model(path);
  EXPECT_EQ(m.num_cols(), 2);
}

// ---- thread pool shutdown fallback -------------------------------------

TEST(PoolShutdown, SubmitThrowsTypedErrorWhenDraining) {
  if (!faultinject::compiled_in()) GTEST_SKIP() << "compiled out";
  FaultGuard guard;
  ThreadPool pool(2);
  faultinject::arm(faultinject::Site::kPoolSubmit, -1);
  EXPECT_THROW(pool.submit([] {}), PoolShutdownError);
}

TEST(PoolShutdown, ParallelForFallsBackToInlineExecution) {
  if (!faultinject::compiled_in()) GTEST_SKIP() << "compiled out";
  FaultGuard guard;
  ThreadPool pool(2);
  faultinject::arm(faultinject::Site::kPoolSubmit, -1);
  std::atomic<int> hits{0};
  EXPECT_NO_THROW(
      parallel_for(pool, 0, 100, [&](std::size_t) { ++hits; }));
  EXPECT_EQ(hits.load(), 100);  // every index ran, just not in the pool
}

TEST(PoolShutdown, PartialSubmissionStillCompletesAllWork) {
  if (!faultinject::compiled_in()) GTEST_SKIP() << "compiled out";
  FaultGuard guard;
  ThreadPool pool(4);
  // First two submits succeed, the rest throw: the tail must run inline.
  faultinject::arm(faultinject::Site::kPoolSubmit, -1, /*skip=*/2);
  std::atomic<int> hits{0};
  EXPECT_NO_THROW(parallel_for(pool, 0, 64,
                               [&](std::size_t) { ++hits; },
                               /*grain=*/1));
  EXPECT_EQ(hits.load(), 64);
}

TEST(PoolShutdown, SolveSurvivesPoolDrainFallback) {
  if (!faultinject::compiled_in()) GTEST_SKIP() << "compiled out";
  FaultGuard guard;
  faultinject::arm(faultinject::Site::kPoolSubmit, -1);
  Fixture f(35, 6, 2.0, 1.0);
  core::CubisOptions opt;
  opt.parallel_sections = 4;  // multisection forced through parallel_map
  core::DefenderSolution sol;
  EXPECT_NO_THROW(sol = core::CubisSolver(opt).solve(f.ctx()));
  EXPECT_TRUE(sol.ok()) << to_string(sol.status);
}

// ---- status plumbing ----------------------------------------------------

TEST(Status, BudgetStopClassifierAndNames) {
  EXPECT_TRUE(is_budget_stop(SolverStatus::kDeadlineExceeded));
  EXPECT_TRUE(is_budget_stop(SolverStatus::kCancelled));
  EXPECT_TRUE(is_budget_stop(SolverStatus::kIterLimit));
  EXPECT_TRUE(is_budget_stop(SolverStatus::kTimeLimit));
  EXPECT_FALSE(is_budget_stop(SolverStatus::kOptimal));
  EXPECT_FALSE(is_budget_stop(SolverStatus::kInfeasible));
  EXPECT_EQ(to_string(SolverStatus::kDeadlineExceeded), "deadline-exceeded");
  EXPECT_EQ(to_string(SolverStatus::kCancelled), "cancelled");
}

TEST(Status, PerStatusCountersRecorded) {
  obs::Counter& deadline_total =
      obs::Registry::global().counter("solve.deadline_exceeded_total");
  const std::int64_t before = deadline_total.value();
  Fixture f(36, 5, 2.0, 1.0);
  SolveBudget budget;
  budget.set_deadline_after(-1.0);
  core::CubisSolver().solve(f.ctx(&budget));
  EXPECT_GE(deadline_total.value() - before, 1);
}

}  // namespace
}  // namespace cubisg
