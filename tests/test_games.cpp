// Tests for the SSG model, generators, strategy-space operations and the
// coverage-polytope abstraction.
#include <cmath>
#include <numeric>
#include <optional>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "games/coverage_space.hpp"
#include "games/generators.hpp"
#include "games/security_game.hpp"

namespace cubisg::games {
namespace {

SecurityGame two_target_game() {
  return SecurityGame({{3.0, -5.0, 5.0, -3.0}, {7.0, -7.0, 7.0, -7.0}}, 1.0);
}

TEST(SecurityGame, UtilitiesMatchEquations) {
  SecurityGame g = two_target_game();
  // Eq. 1: Ud = x Rd + (1-x) Pd;  Eq. 2: Ua = x Pa + (1-x) Ra.
  EXPECT_DOUBLE_EQ(g.defender_utility(0, 0.0), -3.0);
  EXPECT_DOUBLE_EQ(g.defender_utility(0, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(g.defender_utility(0, 0.25), 0.25 * 5.0 + 0.75 * -3.0);
  EXPECT_DOUBLE_EQ(g.attacker_utility(0, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(g.attacker_utility(0, 1.0), -5.0);
  EXPECT_DOUBLE_EQ(g.attacker_utility(1, 0.5), 0.5 * -7.0 + 0.5 * 7.0);
}

TEST(SecurityGame, VectorUtilitiesAndExtremes) {
  SecurityGame g = two_target_game();
  auto u = g.defender_utilities(std::vector<double>{0.5, 0.5});
  ASSERT_EQ(u.size(), 2u);
  EXPECT_DOUBLE_EQ(u[0], 1.0);
  EXPECT_DOUBLE_EQ(u[1], 0.0);
  EXPECT_DOUBLE_EQ(g.min_defender_penalty(), -7.0);
  EXPECT_DOUBLE_EQ(g.max_defender_reward(), 7.0);
}

TEST(SecurityGame, ValidatesInput) {
  EXPECT_THROW(SecurityGame({}, 1.0), InvalidModelError);
  // Attacker reward must exceed penalty.
  EXPECT_THROW(SecurityGame({{-1.0, 1.0, 2.0, -2.0}}, 0.5),
               InvalidModelError);
  // Defender reward must exceed penalty.
  EXPECT_THROW(SecurityGame({{3.0, -3.0, -4.0, 4.0}}, 0.5),
               InvalidModelError);
  // Resources within [0, T].
  EXPECT_THROW(SecurityGame({{3.0, -3.0, 3.0, -3.0}}, 2.0),
               InvalidModelError);
  EXPECT_THROW(SecurityGame({{3.0, -3.0, 3.0, -3.0}}, -1.0),
               InvalidModelError);
  // NaN payoffs rejected.
  EXPECT_THROW(SecurityGame({{std::nan(""), -3.0, 3.0, -3.0}}, 0.5),
               InvalidModelError);
}

TEST(SecurityGame, FeasibilityCheck) {
  SecurityGame g = two_target_game();
  EXPECT_TRUE(g.is_feasible_strategy(std::vector<double>{0.4, 0.6}));
  EXPECT_FALSE(g.is_feasible_strategy(std::vector<double>{0.4, 0.4}));
  EXPECT_FALSE(g.is_feasible_strategy(std::vector<double>{1.4, -0.4}));
  EXPECT_FALSE(g.is_feasible_strategy(std::vector<double>{1.0}));
}

TEST(Generators, RandomGameRespectsRangesAndSeed) {
  Rng rng1(5), rng2(5);
  auto g1 = random_game(rng1, 10, 3.0);
  auto g2 = random_game(rng2, 10, 3.0);
  EXPECT_EQ(g1.num_targets(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(g1.target(i).attacker_reward,
                     g2.target(i).attacker_reward);
    EXPECT_GE(g1.target(i).attacker_reward, 1.0);
    EXPECT_LE(g1.target(i).attacker_reward, 10.0);
    EXPECT_LE(g1.target(i).attacker_penalty, -1.0);
    // zero-sum default
    EXPECT_DOUBLE_EQ(g1.target(i).defender_reward,
                     -g1.target(i).attacker_penalty);
  }
}

TEST(Generators, NonZeroSumDrawsDefenderIndependently) {
  Rng rng(6);
  GeneratorOptions opt;
  opt.zero_sum = false;
  auto g = random_game(rng, 50, 5.0, opt);
  int mirrored = 0;
  for (std::size_t i = 0; i < g.num_targets(); ++i) {
    if (g.target(i).defender_reward == -g.target(i).attacker_penalty) {
      ++mirrored;
    }
  }
  EXPECT_LT(mirrored, 5);
}

TEST(Generators, UncertainGameIntervalsCoverMidpoints) {
  Rng rng(7);
  auto ug = random_uncertain_game(rng, 8, 2.0, 1.0);
  ASSERT_EQ(ug.attacker_intervals.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    const auto& iv = ug.attacker_intervals[i];
    EXPECT_TRUE(iv.attacker_reward.contains(ug.game.target(i).attacker_reward));
    EXPECT_TRUE(
        iv.attacker_penalty.contains(ug.game.target(i).attacker_penalty));
    EXPECT_GT(iv.attacker_reward.lo(), 0.0);
    EXPECT_LT(iv.attacker_penalty.hi(), 0.0);
  }
}

TEST(Generators, ZeroWidthCollapsesIntervals) {
  Rng rng(8);
  auto ug = random_uncertain_game(rng, 5, 2.0, 0.0);
  for (const auto& iv : ug.attacker_intervals) {
    EXPECT_TRUE(iv.attacker_reward.is_point());
    EXPECT_TRUE(iv.attacker_penalty.is_point());
  }
}

TEST(Generators, Table1MatchesPaper) {
  auto ug = table1_game();
  EXPECT_EQ(ug.game.num_targets(), 2u);
  EXPECT_DOUBLE_EQ(ug.game.resources(), 1.0);
  EXPECT_EQ(ug.attacker_intervals[0].attacker_reward, Interval(1.0, 5.0));
  EXPECT_EQ(ug.attacker_intervals[0].attacker_penalty, Interval(-7.0, -3.0));
  EXPECT_EQ(ug.attacker_intervals[1].attacker_reward, Interval(5.0, 9.0));
  EXPECT_EQ(ug.attacker_intervals[1].attacker_penalty, Interval(-9.0, -5.0));
  // Zero-sum mirror of interval midpoints.
  EXPECT_DOUBLE_EQ(ug.game.target(0).attacker_reward, 3.0);
  EXPECT_DOUBLE_EQ(ug.game.target(0).defender_reward, 5.0);
  EXPECT_DOUBLE_EQ(ug.game.target(0).defender_penalty, -3.0);
}

TEST(Generators, WildlifeGridShapesPayoffsByDensity) {
  Rng rng(9);
  auto ug = wildlife_grid_game(rng, 4, 5, 3.0, 0.5);
  EXPECT_EQ(ug.game.num_targets(), 20u);
  double min_r = 1e9, max_r = -1e9;
  for (std::size_t i = 0; i < 20; ++i) {
    min_r = std::min(min_r, ug.game.target(i).attacker_reward);
    max_r = std::max(max_r, ug.game.target(i).attacker_reward);
  }
  // Hotspots must create real contrast between cells.
  EXPECT_GT(max_r - min_r, 1.0);
}

TEST(PessimisticDefender, LowersPayoffsExactly) {
  SecurityGame g = two_target_game();
  std::vector<DefenderPayoffIntervals> iv = {
      {Interval(4.0, 6.0), Interval(-4.0, -2.0)},
      {Interval(6.0, 8.0), Interval(-8.0, -6.0)},
  };
  SecurityGame p = pessimistic_defender_game(g, iv);
  EXPECT_DOUBLE_EQ(p.target(0).defender_reward, 4.0);
  EXPECT_DOUBLE_EQ(p.target(0).defender_penalty, -4.0);
  EXPECT_DOUBLE_EQ(p.target(1).defender_reward, 6.0);
  // Attacker payoffs untouched.
  EXPECT_DOUBLE_EQ(p.target(0).attacker_reward, 3.0);
  // Pointwise lower envelope: Ud is lower for every coverage level.
  for (double x = 0.0; x <= 1.0; x += 0.25) {
    EXPECT_LE(p.defender_utility(0, x), g.defender_utility(0, x) + 1e-12);
  }
}

TEST(PessimisticDefender, PointIntervalsAreIdentity) {
  SecurityGame g = two_target_game();
  std::vector<DefenderPayoffIntervals> iv = {
      {Interval(g.target(0).defender_reward),
       Interval(g.target(0).defender_penalty)},
      {Interval(g.target(1).defender_reward),
       Interval(g.target(1).defender_penalty)},
  };
  SecurityGame p = pessimistic_defender_game(g, iv);
  EXPECT_DOUBLE_EQ(p.target(1).defender_penalty,
                   g.target(1).defender_penalty);
}

TEST(PessimisticDefender, Validation) {
  SecurityGame g = two_target_game();
  // Wrong count.
  EXPECT_THROW(pessimistic_defender_game(
                   g, std::vector<DefenderPayoffIntervals>{}),
               InvalidModelError);
  // Nominal payoff outside its interval.
  std::vector<DefenderPayoffIntervals> off = {
      {Interval(8.0, 9.0), Interval(-4.0, -2.0)},
      {Interval(6.0, 8.0), Interval(-8.0, -6.0)},
  };
  EXPECT_THROW(pessimistic_defender_game(g, off), InvalidModelError);
  // Interval lows violate reward > penalty.
  std::vector<DefenderPayoffIntervals> crossed = {
      {Interval(-5.0, 6.0), Interval(-4.0, -2.0)},
      {Interval(6.0, 8.0), Interval(-8.0, -6.0)},
  };
  EXPECT_THROW(pessimistic_defender_game(g, crossed), InvalidModelError);
}

TEST(StrategySpace, UniformStrategy) {
  auto x = CoverageSpace::simplex(4, 3.0).uniform_seed();
  ASSERT_EQ(x.size(), 4u);
  for (double xi : x) EXPECT_DOUBLE_EQ(xi, 0.75);
  EXPECT_THROW(CoverageSpace::simplex(0, 1.0).uniform_seed(),
               std::invalid_argument);
}

TEST(StrategySpace, ProjectionIsFeasible) {
  Rng rng(10);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 9));
    const double r = rng.uniform(0.0, static_cast<double>(n));
    std::vector<double> v(n);
    for (auto& vi : v) vi = rng.uniform(-2.0, 3.0);
    auto x = CoverageSpace::simplex(v.size(), r).project(v);
    double sum = 0.0;
    for (double xi : x) {
      EXPECT_GE(xi, -1e-12);
      EXPECT_LE(xi, 1.0 + 1e-12);
      sum += xi;
    }
    EXPECT_NEAR(sum, r, 1e-9);
  }
}

TEST(StrategySpace, ProjectionIsIdempotent) {
  std::vector<double> v{0.2, 0.5, 0.3};
  auto x = CoverageSpace::simplex(v.size(), 1.0).project(v);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], v[i], 1e-9);
}

TEST(StrategySpace, ProjectionMinimizesDistance) {
  // Reference check against a fine grid search on a 2d instance.
  std::vector<double> v{1.4, -0.2};
  auto x = CoverageSpace::simplex(v.size(), 1.0).project(v);
  double best = 1e18;
  std::vector<double> best_x(2);
  for (int i = 0; i <= 1000; ++i) {
    const double a = i / 1000.0;
    const double b = 1.0 - a;
    if (b < 0.0 || b > 1.0) continue;
    const double d = (a - v[0]) * (a - v[0]) + (b - v[1]) * (b - v[1]);
    if (d < best) {
      best = d;
      best_x = {a, b};
    }
  }
  EXPECT_NEAR(x[0], best_x[0], 1e-3);
  EXPECT_NEAR(x[1], best_x[1], 1e-3);
}

TEST(StrategySpace, GreedyCoversWorstTargetsFirst) {
  std::vector<double> penalties{-1.0, -9.0, -5.0};
  auto x =
      CoverageSpace::simplex(penalties.size(), 1.5).greedy_seed(penalties);
  EXPECT_DOUBLE_EQ(x[1], 1.0);   // worst penalty gets full coverage
  EXPECT_DOUBLE_EQ(x[2], 0.5);   // next worst gets the remainder
  EXPECT_DOUBLE_EQ(x[0], 0.0);
}

// ---- simplex projection edge cases (historically untested). ----

TEST(StrategySpace, ProjectionWithZeroResourcesIsAllZeros) {
  std::vector<double> v{0.9, -0.3, 2.0, 0.5};
  auto x = CoverageSpace::simplex(v.size(), 0.0).project(v);
  ASSERT_EQ(x.size(), 4u);
  for (double xi : x) EXPECT_DOUBLE_EQ(xi, 0.0);
}

TEST(StrategySpace, ProjectionSaturatesWhenResourcesEqualTargets) {
  // R = T: the box clamp saturates every coordinate at 1 and the budget
  // row is tight at the corner.
  std::vector<double> v{-1.0, 0.2, 5.0};
  auto x = CoverageSpace::simplex(v.size(), 3.0).project(v);
  for (double xi : x) EXPECT_DOUBLE_EQ(xi, 1.0);
  // R > T has no feasible point: the factory rejects it up front.
  EXPECT_THROW(CoverageSpace::simplex(v.size(), 3.0 + 1e-6).project(v),
               std::invalid_argument);
}

TEST(StrategySpace, ProjectionOfEqualInputsIsEqualAndDeterministic) {
  // All-equal input: every coordinate gets R/T and repeated calls are
  // bitwise identical.  (Exact within-vector ties are NOT guaranteed:
  // the pinned legacy arithmetic dumps the residual of the tau
  // bisection onto a prefix of the coordinates, so the low-order ~1e-14
  // can differ between coordinates -- but never between calls.)
  std::vector<double> v(8, 0.37);
  const auto a = CoverageSpace::simplex(v.size(), 2.0).project(v);
  const auto b = CoverageSpace::simplex(v.size(), 2.0).project(v);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "projection must be deterministic";
    EXPECT_NEAR(a[i], 0.25, 1e-12);
    EXPECT_NEAR(a[i], a[0], 1e-12) << "equal inputs stay tied";
  }
}

TEST(StrategySpace, GreedyTieOrderingIsPinnedToTargetIndex) {
  // Equal penalties: coverage is assigned in ascending target index, a
  // pinned ordering warm starts and goldens rely on.
  std::vector<double> penalties{-4.0, -4.0, -4.0};
  auto x =
      CoverageSpace::simplex(penalties.size(), 1.5).greedy_seed(penalties);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 0.5);
  EXPECT_DOUBLE_EQ(x[2], 0.0);
}

// ---- CoverageSpace: the polytope abstraction. ----

TEST(CoverageSpace, SimplexMatchesOneGroupGroupedBitwise) {
  // The simplex instance keeps the legacy single-budget arithmetic; a
  // grouped space with every target in one group and the same budget runs
  // the general per-group code.  Both describe the same polytope, and the
  // general code reduces to the legacy arithmetic step for step.
  Rng rng(77);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 9));
    const double r = rng.uniform(0.0, static_cast<double>(n));
    const CoverageSpace space = CoverageSpace::simplex(n, r);
    ASSERT_TRUE(space.is_simplex());
    const CoverageSpace one_group =
        CoverageSpace::grouped(std::vector<std::size_t>(n, 0), {r});
    ASSERT_FALSE(one_group.is_simplex());
    const auto u1 = space.uniform_seed();
    const auto u2 = one_group.uniform_seed();
    std::vector<double> v(n), pen(n);
    for (auto& vi : v) vi = rng.uniform(-2.0, 3.0);
    for (auto& p : pen) p = rng.uniform(-9.0, -1.0);
    const auto p1 = space.project(v);
    const auto p2 = one_group.project(v);
    const auto g1 = space.greedy_seed(pen);
    const auto g2 = one_group.greedy_seed(pen);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(u1[i], u2[i]);
      EXPECT_EQ(p1[i], p2[i]);
      EXPECT_EQ(g1[i], g2[i]);
    }
  }
}

TEST(CoverageSpace, DescriptorRoundTripsEveryFamily) {
  const std::vector<CoverageSpace> spaces = {
      CoverageSpace::grouped({0, 0, 1, 1}, {1.0, 1.5}),
      CoverageSpace::multi_defender({2, 3}, {1.0, 2.0}),
      CoverageSpace::patrol_graph({0, 0, 1, 1}, {1.0, 1.5},
                                  {1.0, 0.0, 1.0, 1.0}),
  };
  for (const CoverageSpace& s : spaces) {
    const std::string d = s.descriptor();
    EXPECT_EQ(d.find(' '), std::string::npos)
        << "descriptor must be a single token: " << d;
    const std::optional<CoverageSpace> back =
        CoverageSpace::from_descriptor(d);
    ASSERT_TRUE(back.has_value()) << d;
    EXPECT_TRUE(*back == s) << d;
    EXPECT_EQ(back->descriptor(), d);
  }
  // The simplex is shape-less on the wire: it renders as "simplex" and
  // parses back to the default sentinel (consumers derive T and R from
  // the game itself).  Empty behaves the same for legacy certificates.
  EXPECT_EQ(CoverageSpace::simplex(4, 1.5).descriptor(), "simplex");
  const auto sentinel = CoverageSpace::from_descriptor("simplex");
  ASSERT_TRUE(sentinel.has_value());
  EXPECT_TRUE(sentinel->is_default());
  const auto empty = CoverageSpace::from_descriptor("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->is_default());
  EXPECT_FALSE(CoverageSpace::from_descriptor("grouped;nonsense").has_value());
  EXPECT_FALSE(CoverageSpace::from_descriptor("bogus;g=0;b=1").has_value());
}

TEST(CoverageSpace, DescriptorDistinguishesBudgetsAndCaps) {
  // The cache-aliasing regression at the games layer: same groups,
  // different per-slot budgets (or caps) must never share a descriptor.
  const auto a = CoverageSpace::grouped({0, 0, 1, 1}, {1.0, 1.0});
  const auto b = CoverageSpace::grouped({0, 0, 1, 1}, {1.5, 0.5});
  EXPECT_NE(a.descriptor(), b.descriptor());
  const auto c = CoverageSpace::patrol_graph({0, 0, 1, 1}, {1.0, 1.0},
                                             {1.0, 1.0, 1.0, 1.0});
  const auto d = CoverageSpace::patrol_graph({0, 0, 1, 1}, {1.0, 1.0},
                                             {1.0, 1.0, 1.0, 0.5});
  EXPECT_NE(c.descriptor(), d.descriptor());
  EXPECT_NE(a.descriptor(), c.descriptor());
}

TEST(CoverageSpace, ValidatesInput) {
  EXPECT_THROW(CoverageSpace::simplex(0, 1.0), std::invalid_argument);
  EXPECT_THROW(CoverageSpace::simplex(2, 3.0), std::invalid_argument);
  EXPECT_THROW(CoverageSpace::grouped({}, {1.0}), std::invalid_argument);
  EXPECT_THROW(CoverageSpace::grouped({0, 2}, {1.0, 1.0}),
               std::invalid_argument);  // group id out of range
  EXPECT_THROW(CoverageSpace::grouped({0, 1}, {1.0, -0.5}),
               std::invalid_argument);  // negative budget
  EXPECT_THROW(CoverageSpace::grouped({0, 0, 1}, {1.0, 1.5}),
               std::invalid_argument);  // budget exceeds group capacity
  EXPECT_THROW(
      CoverageSpace::patrol_graph({0, 1}, {1.0, 1.0}, {1.0, 1.5}),
      std::invalid_argument);  // cap out of [0, 1]
  EXPECT_THROW(
      CoverageSpace::patrol_graph({0, 1}, {1.0, 1.0}, {1.0, 0.5}),
      std::invalid_argument);  // budget exceeds reachable capacity
}

TEST(CoverageSpace, GroupedProjectionHitsBudgetsAndCaps) {
  const auto space = CoverageSpace::patrol_graph(
      {0, 0, 0, 1, 1, 1}, {1.5, 1.0}, {1.0, 0.5, 1.0, 1.0, 0.0, 1.0});
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> v(6);
    for (auto& vi : v) vi = rng.uniform(-1.0, 2.0);
    const auto x = space.project(v);
    double g0 = x[0] + x[1] + x[2];
    double g1 = x[3] + x[4] + x[5];
    EXPECT_NEAR(g0, 1.5, 1e-9);
    EXPECT_NEAR(g1, 1.0, 1e-9);
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_GE(x[i], -1e-12);
      EXPECT_LE(x[i], space.cap(i) + 1e-12);
    }
    EXPECT_DOUBLE_EQ(x[4], 0.0);  // cap 0 forces the coordinate to 0
    EXPECT_TRUE(space.is_feasible(x, 1e-9));
  }
}

TEST(CoverageSpace, ResidualsMeasureViolations) {
  const auto space = CoverageSpace::grouped({0, 0, 1, 1}, {1.0, 1.0});
  double budget_over = 0.0;
  double box_over = 0.0;
  space.residuals(std::vector<double>{0.8, 0.5, 0.2, 0.3}, budget_over,
                  box_over);
  EXPECT_NEAR(budget_over, 0.3, 1e-12);  // group 0 over by 0.3
  EXPECT_DOUBLE_EQ(box_over, 0.0);
  space.residuals(std::vector<double>{1.2, -0.1, 0.2, 0.3}, budget_over,
                  box_over);
  EXPECT_NEAR(box_over, 0.2, 1e-12);
}

TEST(Generators, MultiDefenderFamilyIsConsistent) {
  Rng rng(31);
  const FamilyGame fg = multi_defender_uncertain_game(rng, 3, 4, 1.2, 1.0);
  EXPECT_EQ(fg.game.game.num_targets(), 12u);
  EXPECT_EQ(fg.coverage.num_targets(), 12u);
  EXPECT_EQ(fg.coverage.num_groups(), 3u);
  EXPECT_EQ(fg.coverage.family(), CoverageFamily::kMultiDefender);
  EXPECT_NEAR(fg.coverage.total_budget(), fg.game.game.resources(), 1e-12);
  // Contiguous defender blocks.
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(fg.coverage.group_of(i), i / 4);
  }
}

TEST(Generators, PatrolGraphFamilyEncodesReachability) {
  Rng rng(32);
  const std::size_t locations = 5;
  const std::size_t slots = 3;
  const FamilyGame fg =
      patrol_graph_uncertain_game(rng, locations, slots, 2.0, 1.0);
  EXPECT_EQ(fg.game.game.num_targets(), locations * slots);
  EXPECT_EQ(fg.coverage.family(), CoverageFamily::kPatrolGraph);
  EXPECT_TRUE(fg.coverage.has_caps());
  EXPECT_NEAR(fg.coverage.total_budget(), fg.game.game.resources(), 1e-12);
  for (std::size_t s = 0; s < slots; ++s) {
    const std::size_t reachable = std::min(locations, s + 1);
    EXPECT_LE(fg.coverage.budget(s),
              static_cast<double>(reachable) + 1e-12);
    for (std::size_t l = 0; l < locations; ++l) {
      const std::size_t i = s * locations + l;
      EXPECT_EQ(fg.coverage.group_of(i), s);
      EXPECT_DOUBLE_EQ(fg.coverage.cap(i), l <= s ? 1.0 : 0.0);
    }
  }
}

}  // namespace
}  // namespace cubisg::games
