// Tests for the strong Stackelberg equilibrium solver.
#include <cmath>

#include <gtest/gtest.h>

#include "behavior/bounds.hpp"
#include "common/rng.hpp"
#include "core/sse.hpp"
#include "games/generators.hpp"
#include "games/coverage_space.hpp"

namespace cubisg::core {
namespace {

TEST(Sse, TwoTargetZeroSumEqualizesAttacker) {
  // Zero-sum 2-target game: the SSE coverage makes the attacker
  // indifferent (classic result).  Ua1 = 3 - 8x1, Ua2 = 7 - 14x2.
  games::SecurityGame g({{3.0, -5.0, 5.0, -3.0}, {7.0, -7.0, 7.0, -7.0}},
                        1.0);
  SseResult sse = solve_sse(g);
  ASSERT_EQ(sse.status, SolverStatus::kOptimal);
  const double ua1 = g.attacker_utility(0, sse.strategy[0]);
  const double ua2 = g.attacker_utility(1, sse.strategy[1]);
  EXPECT_NEAR(ua1, ua2, 1e-7);
  EXPECT_NEAR(sse.strategy[0] + sse.strategy[1], 1.0, 1e-9);
}

TEST(Sse, TieBreaksInDefendersFavor) {
  // Two identical targets for the attacker but different defender stakes:
  // the SSE assumption directs the attacker to the defender's preference.
  games::SecurityGame g({{5.0, -5.0, 1.0, -1.0}, {5.0, -5.0, 9.0, -1.0}},
                        1.0);
  std::vector<double> x{0.5, 0.5};
  // Equal attacker utilities; target 1 is better for the defender covered.
  EXPECT_NEAR(g.attacker_utility(0, 0.5), g.attacker_utility(1, 0.5), 1e-12);
  EXPECT_EQ(best_response_target(g, x), 1u);
}

TEST(Sse, BestResponsePicksMaxAttackerUtility) {
  games::SecurityGame g({{8.0, -1.0, 1.0, -8.0}, {2.0, -1.0, 1.0, -2.0}},
                        1.0);
  std::vector<double> none{0.0, 1.0};
  // Target 0 uncovered with reward 8 dominates covered target 1.
  EXPECT_EQ(best_response_target(g, none), 0u);
}

TEST(Sse, StrategyIsBestResponseConsistent) {
  // The equilibrium's attacked target must actually be a best response to
  // the equilibrium coverage.
  Rng rng(91);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t t = 2 + static_cast<std::size_t>(rng.uniform_int(0, 6));
    auto g = games::random_game(rng, t, 0.4 * static_cast<double>(t));
    SseResult sse = solve_sse(g);
    ASSERT_EQ(sse.status, SolverStatus::kOptimal) << "trial " << trial;
    const std::size_t br = best_response_target(g, sse.strategy);
    // The attacker utility of the chosen target must be maximal (allow a
    // numeric tie with the recorded one).
    EXPECT_NEAR(g.attacker_utility(br, sse.strategy[br]),
                g.attacker_utility(sse.attacked_target,
                                   sse.strategy[sse.attacked_target]),
                1e-6)
        << "trial " << trial;
    EXPECT_NEAR(sse.defender_utility,
                g.defender_utility(sse.attacked_target,
                                   sse.strategy[sse.attacked_target]),
                1e-6);
  }
}

TEST(Sse, DominatesUniformAgainstRationalAttacker) {
  // By optimality, the SSE defender utility is at least that of any other
  // strategy evaluated against a rational attacker.
  Rng rng(92);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t t = 3 + static_cast<std::size_t>(rng.uniform_int(0, 5));
    auto g = games::random_game(rng, t, 0.4 * static_cast<double>(t));
    SseResult sse = solve_sse(g);
    ASSERT_EQ(sse.status, SolverStatus::kOptimal);
    auto uni = games::CoverageSpace::simplex(t, g.resources()).uniform_seed();
    const std::size_t br = best_response_target(g, uni);
    EXPECT_GE(sse.defender_utility,
              g.defender_utility(br, uni[br]) - 1e-7)
        << "trial " << trial;
  }
}

TEST(Sse, SingleTarget) {
  games::SecurityGame g({{3.0, -5.0, 5.0, -3.0}}, 1.0);
  SseResult sse = solve_sse(g);
  ASSERT_EQ(sse.status, SolverStatus::kOptimal);
  EXPECT_NEAR(sse.strategy[0], 1.0, 1e-9);
  EXPECT_NEAR(sse.defender_utility, 5.0, 1e-9);
}

TEST(EpsilonResponse, MonotoneAndConvergesToFloor) {
  Rng rng(93);
  auto g = games::random_game(rng, 6, 2.0);
  auto x = games::CoverageSpace::simplex(6, 2.0).uniform_seed();
  double prev = std::numeric_limits<double>::infinity();
  for (double eps : {0.0, 0.5, 1.0, 2.0, 100.0}) {
    const double v = epsilon_response_utility(g, x, eps);
    EXPECT_LE(v, prev + 1e-12);
    prev = v;
  }
  // At huge epsilon: every target is in the deviation set.
  double floor_u = 1e18;
  for (std::size_t i = 0; i < 6; ++i) {
    floor_u = std::min(floor_u, g.defender_utility(i, x[i]));
  }
  EXPECT_NEAR(prev, floor_u, 1e-12);
  EXPECT_THROW(epsilon_response_utility(g, x, -1.0), InvalidModelError);
}

TEST(EpsilonResponse, SseIsFragileToAttackerImprecision) {
  // The SSE equalizes attacker utilities across its attack set, so even a
  // tiny epsilon lets the attacker pick the defender's WORST member: the
  // epsilon-response value drops from the (favorably tie-broken) SSE value
  // unless the attack set is defender-degenerate.
  Rng rng(94);
  int strictly_fragile = 0;
  for (int trial = 0; trial < 10; ++trial) {
    auto g = games::covariant_game(rng, 6, 2.0, 0.0);  // non-zero-sum
    SseResult sse = solve_sse(g);
    const double tie_broken = sse.defender_utility;
    const double pessimistic = epsilon_response_utility(g, sse.strategy,
                                                        1e-6);
    EXPECT_LE(pessimistic, tie_broken + 1e-7);
    if (pessimistic < tie_broken - 1e-6) ++strictly_fragile;
  }
  EXPECT_GE(strictly_fragile, 5);  // fragility is the norm, not the edge
}

TEST(Sse, SolverAdaptorEvaluatesWorstCase) {
  auto ug = games::table1_game();
  behavior::SuqrIntervalBounds b(behavior::SuqrWeightIntervals{},
                                 ug.attacker_intervals);
  SseSolver solver;
  DefenderSolution sol = solver.solve({ug.game, b});
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(solver.name(), "sse-rational");
  // On this zero-sum-like 2-target game the SSE equalizer is also the
  // behavioral worst-case optimum.
  EXPECT_NEAR(sol.strategy[0], 10.0 / 22.0, 1e-6);
  EXPECT_GT(sol.worst_case_utility, 0.6);
}

}  // namespace
}  // namespace cubisg::core
