// End-to-end tests for the CUBIS solver: paper pins, theoretical
// guarantees (Theorem 1 bookkeeping), backend agreement and robustness
// dominance over baselines.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "behavior/bounds.hpp"
#include "common/rng.hpp"
#include "core/cubis.hpp"
#include "obs/metrics.hpp"
#include "core/gradient.hpp"
#include "core/maximin.hpp"
#include "core/pasaq.hpp"
#include "core/worst_case.hpp"
#include "games/generators.hpp"
#include "games/coverage_space.hpp"

namespace cubisg::core {
namespace {

using behavior::IntervalMode;
using behavior::SuqrIntervalBounds;
using behavior::SuqrWeightIntervals;

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
  SolveContext ctx() const { return SolveContext{ug.game, bounds}; }
};

TEST(Cubis, Table1RobustStrategyMatchesPaper) {
  // The paper's Section III example: the robust strategy is (0.46, 0.54).
  auto ug = games::table1_game();
  SuqrIntervalBounds b(SuqrWeightIntervals{}, ug.attacker_intervals,
                       IntervalMode::kPaperCorners);
  CubisOptions opt;
  opt.segments = 50;
  opt.epsilon = 1e-4;
  CubisSolver solver(opt);
  DefenderSolution sol = solver.solve({ug.game, b});
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.strategy[0], 0.46, 1e-6);
  EXPECT_NEAR(sol.strategy[1], 0.54, 1e-6);
}

TEST(Cubis, BinarySearchBracketIsValid) {
  Fixture f(11, 6, 2.0, 1.0);
  CubisOptions opt;
  opt.segments = 10;
  opt.epsilon = 1e-3;
  CubisSolver solver(opt);
  DefenderSolution sol = solver.solve(f.ctx());
  ASSERT_TRUE(sol.ok());
  EXPECT_LE(sol.lb, sol.ub);
  EXPECT_LE(sol.ub - sol.lb, opt.epsilon + 1e-12);
  EXPECT_GE(sol.lb, f.ug.game.min_defender_penalty() - 1e-9);
  EXPECT_LE(sol.ub, f.ug.game.max_defender_reward() + 1e-9);
  EXPECT_GT(sol.binary_steps, 5);
}

TEST(Cubis, StrategyRespectsBudgetAndBounds) {
  Fixture f(12, 8, 3.0, 1.5);
  CubisSolver solver;
  DefenderSolution sol = solver.solve(f.ctx());
  ASSERT_TRUE(sol.ok());
  double total = 0.0;
  for (double xi : sol.strategy) {
    EXPECT_GE(xi, -1e-12);
    EXPECT_LE(xi, 1.0 + 1e-12);
    total += xi;
  }
  EXPECT_LE(total, 3.0 + 1e-9);
}

TEST(Cubis, Lemma2LowerBoundHolds) {
  // Lemma 2: the realized worst case of the returned strategy is at least
  // lb - O(1/K).  Estimate the O(1/K) constant generously from the payoff
  // scale.
  for (std::uint64_t seed : {13, 14, 15}) {
    Fixture f(seed, 6, 2.0, 1.0);
    CubisOptions opt;
    opt.segments = 20;
    opt.epsilon = 1e-3;
    CubisSolver solver(opt);
    DefenderSolution sol = solver.solve(f.ctx());
    ASSERT_TRUE(sol.ok());
    const double payoff_scale = f.ug.game.max_defender_reward() -
                                f.ug.game.min_defender_penalty();
    const double slack =
        10.0 * payoff_scale / static_cast<double>(opt.segments);
    EXPECT_GE(sol.worst_case_utility, sol.lb - slack) << "seed " << seed;
  }
}

TEST(Cubis, QualityImprovesWithK) {
  Fixture f(16, 5, 2.0, 1.2);
  double w_small = 0.0, w_large = 0.0;
  {
    CubisOptions opt;
    opt.segments = 3;
    opt.epsilon = 1e-4;
    w_small = CubisSolver(opt).solve(f.ctx()).worst_case_utility;
  }
  {
    CubisOptions opt;
    opt.segments = 40;
    opt.epsilon = 1e-4;
    w_large = CubisSolver(opt).solve(f.ctx()).worst_case_utility;
  }
  EXPECT_GE(w_large, w_small - 1e-6);
}

TEST(Cubis, DpAndMilpBackendsAgree) {
  // The MILP optimizes min(f1~, f2~) pointwise, the DP its chord
  // under-approximation; both are O(1/K)-exact, and the MILP step value
  // must dominate the DP step value.
  for (std::uint64_t seed : {21, 22}) {
    Fixture f(seed, 4, 2.0, 1.0);
    const double c = 0.5 * (f.ug.game.min_defender_penalty() +
                            f.ug.game.max_defender_reward());
    CubisOptions dp_opt;
    dp_opt.segments = 8;
    dp_opt.backend = StepBackend::kDp;
    CubisOptions milp_opt = dp_opt;
    milp_opt.backend = StepBackend::kMilp;

    StepResult dp = cubis_step(f.ctx(), c, dp_opt);
    StepResult milp = cubis_step(f.ctx(), c, milp_opt);
    ASSERT_EQ(dp.status, SolverStatus::kOptimal);
    ASSERT_EQ(milp.status, SolverStatus::kOptimal);
    const bool dp_feasible = dp.objective >= -1e-9;
    const bool milp_feasible = !milp.x.empty();
    // MILP >= DP: if DP finds a feasible point the MILP must as well.
    if (dp_feasible) {
      EXPECT_TRUE(milp_feasible) << "seed " << seed;
    }
  }
}

TEST(Cubis, FullSolveBackendsAgreeOnSmallGame) {
  Fixture f(23, 3, 1.0, 1.0);
  CubisOptions dp_opt;
  dp_opt.segments = 6;
  dp_opt.epsilon = 1e-2;
  CubisOptions milp_opt = dp_opt;
  milp_opt.backend = StepBackend::kMilp;

  DefenderSolution dp = CubisSolver(dp_opt).solve(f.ctx());
  DefenderSolution milp = CubisSolver(milp_opt).solve(f.ctx());
  ASSERT_TRUE(dp.ok());
  ASSERT_TRUE(milp.ok());
  // Both are O(eps + 1/K)-optimal: values must be close; the MILP may be
  // slightly better (it can exploit off-grid kink points).
  const double tol = 10.0 / 6.0 + 2 * 1e-2 + 0.5;  // generous O(eps + 1/K)
  EXPECT_NEAR(dp.worst_case_utility, milp.worst_case_utility, tol);
  EXPECT_GE(milp.lb, dp.lb - 1e-6);
}

TEST(Cubis, DominatesBaselinesInWorstCase) {
  // The headline claim: CUBIS beats the midpoint baseline and uniform in
  // worst-case utility (up to the approximation slack).
  int cubis_wins_midpoint = 0;
  int cubis_wins_uniform = 0;
  const int kTrials = 6;
  for (std::uint64_t seed = 31; seed < 31 + kTrials; ++seed) {
    Fixture f(seed, 8, 3.0, 1.5);
    CubisOptions opt;
    opt.segments = 20;
    opt.epsilon = 1e-3;
    DefenderSolution robust = CubisSolver(opt).solve(f.ctx());
    DefenderSolution mid = PasaqSolver().solve(f.ctx());
    DefenderSolution uni = UniformSolver().solve(f.ctx());
    ASSERT_TRUE(robust.ok());
    const double slack = 1e-6;
    if (robust.worst_case_utility >= mid.worst_case_utility - slack) {
      ++cubis_wins_midpoint;
    }
    if (robust.worst_case_utility >= uni.worst_case_utility - slack) {
      ++cubis_wins_uniform;
    }
  }
  // Allow one grid-resolution upset out of six.
  EXPECT_GE(cubis_wins_midpoint, kTrials - 1);
  EXPECT_GE(cubis_wins_uniform, kTrials - 1);
}

TEST(Cubis, CloseToGradientAscentOptimum) {
  // The multi-start gradient solver optimizes the exact W(x); CUBIS must
  // come within O(eps + 1/K) of it.
  Fixture f(41, 5, 2.0, 1.0);
  CubisOptions opt;
  opt.segments = 25;
  opt.epsilon = 1e-3;
  DefenderSolution cub = CubisSolver(opt).solve(f.ctx());
  GradientOptions gopt;
  gopt.num_starts = 6;
  DefenderSolution grad = GradientSolver(gopt).solve(f.ctx());
  const double payoff_scale = f.ug.game.max_defender_reward() -
                              f.ug.game.min_defender_penalty();
  const double slack = 2.0 * payoff_scale / 25.0 + 0.01;
  EXPECT_GE(cub.worst_case_utility, grad.worst_case_utility - slack);
}

TEST(Cubis, ZeroWidthMatchesMidpointBaseline) {
  // With no uncertainty at all — point payoff intervals AND point weight
  // intervals — the robust and non-robust problems coincide.
  Rng rng(42);
  auto ug = games::random_uncertain_game(rng, 5, 2.0, 0.0);
  SuqrWeightIntervals w;
  w.w1 = Interval(-4.0);
  w.w2 = Interval(0.75);
  w.w3 = Interval(0.65);
  SuqrIntervalBounds bounds(w, ug.attacker_intervals);
  SolveContext ctx{ug.game, bounds};
  CubisOptions opt;
  opt.segments = 20;
  opt.epsilon = 1e-4;
  DefenderSolution robust = CubisSolver(opt).solve(ctx);
  PasaqOptions popt;
  popt.segments = 20;
  popt.epsilon = 1e-4;
  DefenderSolution mid = PasaqSolver(popt).solve(ctx);
  EXPECT_NEAR(robust.worst_case_utility, mid.worst_case_utility, 0.05);
}

TEST(Cubis, SingleTargetGame) {
  games::UncertainGame ug{
      games::SecurityGame({{3.0, -5.0, 5.0, -3.0}}, 1.0),
      {{Interval(2.0, 4.0), Interval(-6.0, -4.0)}}};
  SuqrIntervalBounds b(SuqrWeightIntervals{}, ug.attacker_intervals);
  CubisSolver solver;
  DefenderSolution sol = solver.solve({ug.game, b});
  ASSERT_TRUE(sol.ok());
  // Full coverage of the only target: W = Rd = 5.
  EXPECT_NEAR(sol.strategy[0], 1.0, 1e-9);
  EXPECT_NEAR(sol.worst_case_utility, 5.0, 1e-6);
}

TEST(Cubis, ZeroResources) {
  Fixture f(43, 4, 0.0, 1.0);
  CubisSolver solver;
  DefenderSolution sol = solver.solve(f.ctx());
  ASSERT_TRUE(sol.ok());
  for (double xi : sol.strategy) EXPECT_NEAR(xi, 0.0, 1e-12);
}

TEST(Cubis, FullCoverageResources) {
  // R = T: full coverage is available but not necessarily optimal — a
  // pessimistic adversary can be baited by leaving a low-stakes target
  // slightly attractive.  The solution must be at least as good as full
  // coverage and stay within budget.
  Fixture f(44, 4, 4.0, 1.0);
  CubisSolver solver;
  DefenderSolution sol = solver.solve(f.ctx());
  ASSERT_TRUE(sol.ok());
  double total = 0.0;
  for (double xi : sol.strategy) {
    EXPECT_GE(xi, -1e-12);
    EXPECT_LE(xi, 1.0 + 1e-12);
    total += xi;
  }
  EXPECT_LE(total, 4.0 + 1e-9);
  const std::vector<double> full(4, 1.0);
  EXPECT_GE(sol.worst_case_utility,
            worst_case_utility(f.ug.game, f.bounds, full) - 1e-9);
}

TEST(Cubis, OptionsValidation) {
  CubisOptions bad;
  bad.segments = 0;
  EXPECT_THROW(CubisSolver{bad}, InvalidModelError);
  CubisOptions bad2;
  bad2.epsilon = 0.0;
  EXPECT_THROW(CubisSolver{bad2}, InvalidModelError);
}

TEST(Cubis, PolishNeverHurtsAndUsuallyHelps) {
  // The gradient polish extension must be monotone: the polished strategy
  // is kept only when its exact worst case is at least as good.
  for (std::uint64_t seed : {61, 62, 63}) {
    Fixture f(seed, 6, 2.0, 1.5);
    CubisOptions plain;
    plain.segments = 10;
    CubisOptions polished = plain;
    polished.polish_iterations = 30;
    DefenderSolution a = CubisSolver(plain).solve(f.ctx());
    DefenderSolution b = CubisSolver(polished).solve(f.ctx());
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_GE(b.worst_case_utility, a.worst_case_utility - 1e-9)
        << "seed " << seed;
  }
}

TEST(Cubis, PolishRecoversTable1GridResidual) {
  // On Table I the exact optimum (the maximin equalizer, W ~ 0.636) sits
  // off the K=50 grid (grid best: 0.56); polish must recover it.
  auto ug = games::table1_game();
  SuqrIntervalBounds b(SuqrWeightIntervals{}, ug.attacker_intervals,
                       IntervalMode::kPaperCorners);
  CubisOptions opt;
  opt.segments = 50;
  opt.epsilon = 1e-4;
  opt.polish_iterations = 50;
  DefenderSolution sol = CubisSolver(opt).solve({ug.game, b});
  ASSERT_TRUE(sol.ok());
  EXPECT_GT(sol.worst_case_utility, 0.62);
}

TEST(Cubis, LocalAscentImprovesWorstCase) {
  Fixture f(64, 5, 2.0, 1.0);
  std::vector<double> x0 = games::CoverageSpace::simplex(5, 2.0).uniform_seed();
  const double w0 = worst_case_utility(f.ug.game, f.bounds, x0);
  GradientOptions gopt;
  gopt.max_iterations = 50;
  auto [x1, w1] = local_ascent(f.ctx(), x0, gopt);
  EXPECT_GE(w1, w0 - 1e-12);
  EXPECT_NEAR(w1, worst_case_utility(f.ug.game, f.bounds, x1), 1e-9);
}

TEST(Cubis, MultisectionMatchesBisection) {
  // k-section search must land in the same epsilon-bracket as bisection
  // (Proposition 1 monotonicity) while spending fewer rounds.
  for (std::uint64_t seed : {71, 72}) {
    Fixture f(seed, 6, 2.0, 1.2);
    CubisOptions seq;
    seq.segments = 15;
    seq.epsilon = 1e-3;
    CubisOptions par = seq;
    par.parallel_sections = 4;
    DefenderSolution a = CubisSolver(seq).solve(f.ctx());
    DefenderSolution b = CubisSolver(par).solve(f.ctx());
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    // Both brackets contain the same threshold: they overlap within eps.
    EXPECT_NEAR(a.lb, b.lb, 2.0 * seq.epsilon) << "seed " << seed;
    EXPECT_LE(b.ub - b.lb, seq.epsilon + 1e-12);
    EXPECT_NEAR(a.worst_case_utility, b.worst_case_utility, 0.7);
  }
}

// The convergence report is the solution certificate: one round per
// multisection step, nested brackets ending at the solution's [lb, ub].
TEST(Cubis, SolvePublishesConvergenceReport) {
  Fixture f(81, 6, 2.0, 1.0);
  CubisOptions opt;
  opt.segments = 10;
  opt.epsilon = 1e-3;
  CubisSolver solver(opt);
  DefenderSolution sol = solver.solve(f.ctx());
  ASSERT_TRUE(sol.ok());

  const audit::SolutionCertificate& cert = sol.certificate;
  EXPECT_EQ(cert.solver, solver.name());
  EXPECT_TRUE(cert.bracket_converged);
  EXPECT_EQ(cert.targets, 6u);
  EXPECT_DOUBLE_EQ(cert.lb, sol.lb);
  EXPECT_DOUBLE_EQ(cert.ub, sol.ub);
  EXPECT_DOUBLE_EQ(cert.claimed_worst_case, sol.worst_case_utility);
  EXPECT_GE(sol.wall_seconds, 0.0);
  EXPECT_GT(sol.telemetry.counter("cubis.feasibility_checks_total"), 0);
  // The trajectory shrinks the bracket monotonically down to the final
  // lb/ub, and every round classifies at least one candidate threshold.
  ASSERT_FALSE(cert.rounds.empty());
  EXPECT_EQ(cert.rounds.size(), static_cast<std::size_t>(sol.binary_steps));
  double last_gap = cert.rounds.front().hi - cert.rounds.front().lo;
  for (const audit::CertificateRound& round : cert.rounds) {
    EXPECT_GE(round.feasible + round.infeasible, 1);
    EXPECT_LE(round.hi - round.lo, last_gap + 1e-12);
    last_gap = round.hi - round.lo;
  }
  EXPECT_DOUBLE_EQ(cert.rounds.back().lo, sol.lb);
  EXPECT_DOUBLE_EQ(cert.rounds.back().hi, sol.ub);
}

TEST(Cubis, NamesReflectBackend) {
  CubisOptions opt;
  EXPECT_EQ(CubisSolver(opt).name(), "cubis-dp");
  opt.backend = StepBackend::kMilp;
  EXPECT_EQ(CubisSolver(opt).name(), "cubis-milp");
}

}  // namespace
}  // namespace cubisg::core
