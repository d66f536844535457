// Randomized stress tests: many small random instances pushed through
// independent implementations that must agree.  These are the suite's
// last line of defense against structural bugs that slip past the
// hand-written cases.
#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "behavior/bounds.hpp"
#include "behavior/scenario.hpp"
#include "common/rng.hpp"
#include "core/cubis.hpp"
#include "core/registry.hpp"
#include "core/worst_case.hpp"
#include "games/comb_sampling.hpp"
#include "games/generators.hpp"
#include "lp/io.hpp"
#include "lp/presolve.hpp"

namespace cubisg {
namespace {

struct FuzzSeed {
  std::uint64_t value;
};

class FuzzTest : public ::testing::TestWithParam<FuzzSeed> {};

TEST_P(FuzzTest, CubisBackendsAgreeOnTinyGames) {
  // Full CUBIS solves, DP vs paper-MILP step backend, on tiny instances
  // where both are fast.  Certified values must agree within the shared
  // O(eps + 1/K) budget, and the MILP lb must dominate the DP lb.
  Rng rng(GetParam().value);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t t = 2 + static_cast<std::size_t>(rng.uniform_int(0, 1));
    auto ug = games::random_uncertain_game(rng, t, 1.0,
                                           rng.uniform(0.0, 1.5));
    behavior::SuqrIntervalBounds bounds(behavior::SuqrWeightIntervals{},
                                        ug.attacker_intervals);
    core::SolveContext ctx{ug.game, bounds};
    core::CubisOptions dp;
    dp.segments = 5;
    dp.epsilon = 0.05;
    core::CubisOptions milp = dp;
    milp.backend = core::StepBackend::kMilp;
    auto a = core::CubisSolver(dp).solve(ctx);
    auto b = core::CubisSolver(milp).solve(ctx);
    ASSERT_TRUE(a.ok()) << trial;
    ASSERT_TRUE(b.ok()) << trial;
    EXPECT_GE(b.lb, a.lb - 1e-6) << "trial " << trial;
    const double scale = ug.game.max_defender_reward() -
                         ug.game.min_defender_penalty();
    EXPECT_NEAR(a.worst_case_utility, b.worst_case_utility,
                2.0 * scale / 5.0 + 0.2)
        << "trial " << trial;
  }
}

TEST_P(FuzzTest, PresolveAgreesWithPlainSolveOnStructuredModels) {
  // Models with deliberate presolve bait: fixed columns, singleton rows,
  // empty rows and columns.
  Rng rng(GetParam().value ^ 0x20);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 6));
    lp::Model m;
    m.set_objective_sense(rng.uniform() < 0.5 ? lp::Objective::kMinimize
                                              : lp::Objective::kMaximize);
    for (int j = 0; j < n; ++j) {
      double lo = rng.uniform(-2.0, 0.0);
      double hi = lo + rng.uniform(0.0, 3.0);
      if (rng.uniform() < 0.3) hi = lo;                    // fixed
      m.add_col("x" + std::to_string(j), lo, hi, rng.uniform(-2.0, 2.0));
    }
    const int rows = static_cast<int>(rng.uniform_int(1, 4));
    for (int r = 0; r < rows; ++r) {
      const double pick = rng.uniform();
      int row = m.add_row("r" + std::to_string(r),
                          pick < 0.4   ? lp::Sense::kLe
                          : pick < 0.8 ? lp::Sense::kGe
                                       : lp::Sense::kEq,
                          rng.uniform(-3.0, 3.0));
      const int fill = static_cast<int>(rng.uniform_int(0, n));
      for (int j = 0; j < fill; ++j) {
        m.set_coeff(row, j, rng.uniform(-2.0, 2.0));
      }
    }
    lp::LpSolution plain = lp::solve_lp(m);
    lp::LpSolution pres = lp::solve_lp_presolved(m);
    ASSERT_EQ(plain.status == SolverStatus::kInfeasible,
              pres.status == SolverStatus::kInfeasible)
        << "trial " << trial;
    if (plain.optimal() && pres.optimal()) {
      EXPECT_NEAR(plain.objective, pres.objective, 1e-6)
          << "trial " << trial;
      EXPECT_LE(m.max_violation(pres.x), 1e-7) << "trial " << trial;
    }
  }
}

TEST_P(FuzzTest, ScenarioAndModelRoundTripsAreLossless) {
  Rng rng(GetParam().value ^ 0x30);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t t = 1 + static_cast<std::size_t>(rng.uniform_int(0, 9));
    behavior::Scenario s{
        games::random_uncertain_game(rng, t, rng.uniform(0.0, t * 1.0),
                                     rng.uniform(0.0, 3.0)),
        behavior::SuqrWeightIntervals{},
        rng.uniform() < 0.5 ? behavior::IntervalMode::kPaperCorners
                            : behavior::IntervalMode::kExactBox};
    std::stringstream ss;
    behavior::write_scenario(ss, s);
    behavior::Scenario back = behavior::read_scenario(ss);
    for (std::size_t i = 0; i < t; ++i) {
      EXPECT_EQ(back.game.game.target(i).attacker_reward,
                s.game.game.target(i).attacker_reward);
      EXPECT_EQ(back.game.attacker_intervals[i].attacker_penalty,
                s.game.attacker_intervals[i].attacker_penalty);
    }
  }
}

TEST_P(FuzzTest, CombMarginalsSurviveEveryFeasibleCoverage) {
  Rng rng(GetParam().value ^ 0x40);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t t = 1 + static_cast<std::size_t>(rng.uniform_int(0, 14));
    std::vector<double> x(t);
    for (auto& v : x) v = rng.uniform(0.0, 1.0);
    auto mix = games::comb_decomposition(x);
    auto marg = games::mixture_marginals(t, mix);
    for (std::size_t i = 0; i < t; ++i) {
      EXPECT_NEAR(marg[i], x[i], 1e-10) << "trial " << trial;
    }
  }
}

TEST_P(FuzzTest, WorstCaseEvaluatorTrioOnExtremeWidths) {
  // Push the evaluators through very wide and very narrow intervals.
  Rng rng(GetParam().value ^ 0x50);
  for (double width : {0.0, 0.1, 4.0, 8.0}) {
    const std::size_t t = 2 + static_cast<std::size_t>(rng.uniform_int(0, 6));
    auto ug = games::random_uncertain_game(rng, t, 1.0, width);
    behavior::SuqrIntervalBounds bounds(behavior::SuqrWeightIntervals{},
                                        ug.attacker_intervals);
    std::vector<double> x(t, 1.0 / static_cast<double>(t));
    const double a = core::worst_case_utility(
        ug.game, bounds, x, core::WorstCaseMethod::kClosedForm);
    const double c = core::worst_case_utility(
        ug.game, bounds, x, core::WorstCaseMethod::kDualRoot);
    EXPECT_NEAR(a, c, 1e-6 * (1.0 + std::abs(a))) << "width " << width;
    EXPECT_TRUE(std::isfinite(a));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(FuzzSeed{9001}, FuzzSeed{9002},
                                           FuzzSeed{9003}, FuzzSeed{9004}),
                         [](const ::testing::TestParamInfo<FuzzSeed>& i) {
                           return "seed" + std::to_string(i.param.value);
                         });

}  // namespace
}  // namespace cubisg
