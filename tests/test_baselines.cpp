// Tests for the baseline solvers: midpoint PASAQ, maximin LP, multi-start
// projected gradient and uniform.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "behavior/bounds.hpp"
#include "behavior/suqr.hpp"
#include "common/rng.hpp"
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

// ---- uniform ---------------------------------------------------------

TEST(Uniform, ReturnsUniformCoverage) {
  Fixture f(50, 5, 2.0, 1.0);
  DefenderSolution sol = UniformSolver().solve(f.ctx());
  ASSERT_TRUE(sol.ok());
  for (double xi : sol.strategy) EXPECT_DOUBLE_EQ(xi, 0.4);
  // worst_case_utility is evaluated by the canonical evaluator.
  EXPECT_NEAR(sol.worst_case_utility,
              worst_case_utility(f.ug.game, f.bounds, sol.strategy), 1e-12);
}

// ---- maximin ---------------------------------------------------------

TEST(Maximin, EqualizesDefenderUtilitiesOnTable1) {
  auto ug = games::table1_game();
  SuqrIntervalBounds b(SuqrWeightIntervals{}, ug.attacker_intervals);
  DefenderSolution sol = MaximinSolver().solve({ug.game, b});
  ASSERT_TRUE(sol.ok());
  // Analytic equalizer for Ud1 = -3 + 8x, Ud2 = -7 + 14(1-x): x = 10/22.
  EXPECT_NEAR(sol.strategy[0], 10.0 / 22.0, 1e-7);
  EXPECT_NEAR(sol.solver_objective, -3.0 + 8.0 * 10.0 / 22.0, 1e-7);
}

TEST(Maximin, ObjectiveIsMinUtilityFloor) {
  Fixture f(51, 7, 3.0, 1.0);
  DefenderSolution sol = MaximinSolver().solve(f.ctx());
  ASSERT_TRUE(sol.ok());
  double floor_u = 1e18;
  for (std::size_t i = 0; i < 7; ++i) {
    floor_u = std::min(floor_u,
                       f.ug.game.defender_utility(i, sol.strategy[i]));
  }
  EXPECT_NEAR(floor_u, sol.solver_objective, 1e-7);
  // No strategy can have a higher floor (spot-check with uniform).
  auto uni = games::CoverageSpace::simplex(7, 3.0).uniform_seed();
  double uni_floor = 1e18;
  for (std::size_t i = 0; i < 7; ++i) {
    uni_floor = std::min(uni_floor, f.ug.game.defender_utility(i, uni[i]));
  }
  EXPECT_GE(sol.solver_objective, uni_floor - 1e-9);
}

TEST(Maximin, WorstCaseAtLeastFloor) {
  // The behavioral worst case can never dip below the attack-anywhere
  // floor: W(x) is a convex combination of the Ud_i(x_i).
  Fixture f(52, 6, 2.0, 2.0);
  DefenderSolution sol = MaximinSolver().solve(f.ctx());
  ASSERT_TRUE(sol.ok());
  EXPECT_GE(sol.worst_case_utility, sol.solver_objective - 1e-7);
}

// ---- midpoint PASAQ ----------------------------------------------------

TEST(Pasaq, Table1ParameterMidpointMatchesPaper) {
  // With the SUQR model at the box midpoints, the paper's midpoint
  // strategy (0.34, 0.66) is recovered.
  auto ug = games::table1_game();
  SuqrIntervalBounds b(SuqrWeightIntervals{}, ug.attacker_intervals,
                       IntervalMode::kPaperCorners);
  PasaqOptions opt;
  opt.segments = 50;
  opt.epsilon = 1e-4;
  opt.source = PasaqModelSource::kCustom;
  opt.model = std::make_shared<behavior::SuqrModel>(b.midpoint_model());
  DefenderSolution sol = PasaqSolver(opt).solve({ug.game, b});
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.strategy[0], 0.34, 1e-6);
  EXPECT_NEAR(sol.strategy[1], 0.66, 1e-6);
}

TEST(Pasaq, BelievedUtilityMatchesBinarySearchValue) {
  Fixture f(53, 6, 2.0, 1.0);
  PasaqOptions opt;
  opt.segments = 30;
  opt.epsilon = 1e-4;
  PasaqSolver solver(opt);
  DefenderSolution sol = solver.solve(f.ctx());
  ASSERT_TRUE(sol.ok());
  // The binary-search lb approximates the believed (midpoint-model)
  // utility of the returned strategy.
  const double believed = solver.believed_utility(f.ctx(), sol.strategy);
  EXPECT_NEAR(believed, sol.lb, 10.0 / 30.0 + 0.01);
}

TEST(Pasaq, OptimalForItsOwnModel) {
  // On its believed (midpoint) objective, PASAQ must beat uniform and
  // maximin strategies.
  Fixture f(54, 8, 3.0, 1.0);
  PasaqOptions opt;
  opt.segments = 30;
  PasaqSolver solver(opt);
  DefenderSolution sol = solver.solve(f.ctx());
  ASSERT_TRUE(sol.ok());
  const double own = solver.believed_utility(f.ctx(), sol.strategy);
  DefenderSolution uni = UniformSolver().solve(f.ctx());
  DefenderSolution mm = MaximinSolver().solve(f.ctx());
  const double slack = 10.0 / 30.0 + 0.01;  // O(1/K) approximation slack
  EXPECT_GE(own, solver.believed_utility(f.ctx(), uni.strategy) - slack);
  EXPECT_GE(own, solver.believed_utility(f.ctx(), mm.strategy) - slack);
}

TEST(Pasaq, CustomSourceRequiresModel) {
  PasaqOptions opt;
  opt.source = PasaqModelSource::kCustom;
  EXPECT_THROW(PasaqSolver{opt}, InvalidModelError);
  PasaqOptions opt2;
  opt2.segments = 0;
  EXPECT_THROW(PasaqSolver{opt2}, InvalidModelError);
}

// ---- gradient -----------------------------------------------------------

TEST(Gradient, ImprovesOnItsStartingPoints) {
  Fixture f(55, 6, 2.0, 1.2);
  GradientOptions opt;
  opt.num_starts = 4;
  DefenderSolution sol = GradientSolver(opt).solve(f.ctx());
  ASSERT_TRUE(sol.ok());
  const double uniform_w =
      worst_case_utility(f.ug.game, f.bounds,
                         games::CoverageSpace::simplex(6, 2.0).uniform_seed());
  EXPECT_GE(sol.worst_case_utility, uniform_w - 1e-9);
  EXPECT_TRUE(f.ug.game.is_feasible_strategy(sol.strategy, 1e-6));
}

TEST(Gradient, DeterministicForSeed) {
  Fixture f(56, 5, 2.0, 1.0);
  GradientOptions opt;
  opt.num_starts = 3;
  opt.seed = 999;
  DefenderSolution a = GradientSolver(opt).solve(f.ctx());
  DefenderSolution b = GradientSolver(opt).solve(f.ctx());
  ASSERT_EQ(a.strategy.size(), b.strategy.size());
  for (std::size_t i = 0; i < a.strategy.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.strategy[i], b.strategy[i]);
  }
}

TEST(Gradient, FindsEqualizerOnTable1) {
  // On Table I the exact robust optimum is the maximin equalizer
  // (x ~ 0.4545) with W ~ 0.636; gradient ascent must find it.
  auto ug = games::table1_game();
  SuqrIntervalBounds b(SuqrWeightIntervals{}, ug.attacker_intervals,
                       IntervalMode::kPaperCorners);
  GradientOptions opt;
  opt.num_starts = 6;
  DefenderSolution sol = GradientSolver(opt).solve({ug.game, b});
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.strategy[0], 10.0 / 22.0, 0.01);
  EXPECT_GT(sol.worst_case_utility, 0.6);
}

TEST(Gradient, RejectsBadOptions) {
  GradientOptions opt;
  opt.num_starts = 0;
  EXPECT_THROW(GradientSolver{opt}, InvalidModelError);
}

}  // namespace
}  // namespace cubisg::core
