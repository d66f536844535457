// Tests for the scheduled-patrol extension (grouped budgets), the QR-lambda
// bounds, and the ORIGAMI SSE algorithm.
#include <cmath>

#include <gtest/gtest.h>

#include "behavior/bounds.hpp"
#include "common/rng.hpp"
#include "core/cubis.hpp"
#include "core/origami.hpp"
#include "core/sse.hpp"
#include "core/step_solver.hpp"
#include "core/worst_case.hpp"
#include "games/generators.hpp"
#include "games/schedule.hpp"
#include "reference_dp.hpp"

namespace cubisg {
namespace {

using behavior::SuqrIntervalBounds;
using behavior::SuqrWeightIntervals;

// ---- grouped step solver ---------------------------------------------

TEST(GroupedStep, MatchesIndependentDps) {
  // Two groups with distinct functions: the grouped solve must equal the
  // sum of the per-group solves.
  auto up = [](double x) { return 2.0 * x; };
  auto down = [](double x) { return -x; };
  std::vector<core::PiecewiseLinear> phi{
      core::PiecewiseLinear(up, 4), core::PiecewiseLinear(down, 4),
      core::PiecewiseLinear(up, 4), core::PiecewiseLinear(up, 4)};
  std::vector<std::size_t> groups{0, 0, 1, 1};
  std::vector<double> budgets{1.0, 1.0};
  auto grouped = testing::solve_step_dp_grouped(phi, groups, budgets);

  auto g0 = testing::solve_step_dp({phi[0], phi[1]}, 1.0);
  auto g1 = testing::solve_step_dp({phi[2], phi[3]}, 1.0);
  EXPECT_NEAR(grouped.objective, g0.objective + g1.objective, 1e-12);
  EXPECT_NEAR(grouped.x[0], g0.x[0], 1e-12);
  EXPECT_NEAR(grouped.x[3], g1.x[1], 1e-12);
}

TEST(GroupedStep, BudgetBindsPerGroup) {
  // All targets want coverage; each group only has one unit.
  auto up = [](double x) { return x; };
  std::vector<core::PiecewiseLinear> phi(4, core::PiecewiseLinear(up, 5));
  std::vector<std::size_t> groups{0, 0, 1, 1};
  std::vector<double> budgets{1.0, 1.0};
  auto r = testing::solve_step_dp_grouped(phi, groups, budgets);
  EXPECT_NEAR(r.x[0] + r.x[1], 1.0, 1e-12);
  EXPECT_NEAR(r.x[2] + r.x[3], 1.0, 1e-12);
}

TEST(GroupedStep, Validation) {
  auto up = [](double x) { return x; };
  std::vector<core::PiecewiseLinear> phi(2, core::PiecewiseLinear(up, 4));
  EXPECT_THROW(testing::solve_step_dp_grouped(phi, {0}, {1.0}),
               InvalidModelError);  // groups size mismatch
  EXPECT_THROW(testing::solve_step_dp_grouped(phi, {0, 5}, {1.0}),
               InvalidModelError);  // group id out of range
  EXPECT_THROW(testing::solve_step_dp_grouped(phi, {0, 0}, {}),
               InvalidModelError);  // no budgets
}

// ---- scheduled games ----------------------------------------------------

games::UncertainGame base_game(std::uint64_t seed) {
  Rng rng(seed);
  return games::random_uncertain_game(rng, 4, 2.0, 1.0);
}

TEST(Schedule, UnrollShapes) {
  auto base = base_game(1);
  auto sched = games::unroll_schedule(base, 3, 2.0);
  EXPECT_EQ(sched.flattened.game.num_targets(), 12u);
  EXPECT_DOUBLE_EQ(sched.flattened.game.resources(), 6.0);
  EXPECT_EQ(sched.locations, 4u);
  EXPECT_EQ(sched.slots, 3u);
  EXPECT_EQ(sched.flat_index(2, 1), 6u);
  EXPECT_EQ(sched.group_of(6), 1u);
  auto groups = sched.target_groups();
  EXPECT_EQ(groups.size(), 12u);
  EXPECT_EQ(groups[11], 2u);
  auto budgets = sched.group_budgets();
  ASSERT_EQ(budgets.size(), 3u);
  EXPECT_DOUBLE_EQ(budgets[0], 2.0);
}

TEST(Schedule, RoundTripProperties) {
  // flat_index / group_of are inverses over the whole grid, the groups
  // vector agrees with group_of, and the per-slot budgets sum to the
  // flattened game's resources.
  auto base = base_game(9);
  auto sched = games::unroll_schedule(base, 3, 2.0);
  const auto groups = sched.target_groups();
  for (std::size_t s = 0; s < sched.slots; ++s) {
    for (std::size_t l = 0; l < sched.locations; ++l) {
      const std::size_t flat = sched.flat_index(l, s);
      ASSERT_LT(flat, sched.flattened.game.num_targets());
      EXPECT_EQ(sched.group_of(flat), s);
      EXPECT_EQ(groups[flat], s);
      // Recover the location: flat_index is slot-major.
      EXPECT_EQ(flat % sched.locations, l);
    }
  }
  const auto budgets = sched.group_budgets();
  double total = 0.0;
  for (double b : budgets) total += b;
  EXPECT_NEAR(total, sched.flattened.game.resources(), 1e-12);

  // The CoverageSpace view carries the same shape.
  const games::CoverageSpace space = sched.coverage_space();
  EXPECT_EQ(space.num_targets(), sched.flattened.game.num_targets());
  EXPECT_EQ(space.num_groups(), sched.slots);
  EXPECT_NEAR(space.total_budget(), sched.flattened.game.resources(),
              1e-12);
  for (std::size_t flat = 0; flat < space.num_targets(); ++flat) {
    EXPECT_EQ(space.group_of(flat), sched.group_of(flat));
  }
}

TEST(Schedule, RewardDriftScalesSlots) {
  auto base = base_game(2);
  auto sched = games::unroll_schedule(base, 2, 1.0, {1.0, 2.0});
  for (std::size_t l = 0; l < 4; ++l) {
    const double r0 =
        sched.flattened.game.target(sched.flat_index(l, 0)).attacker_reward;
    const double r1 =
        sched.flattened.game.target(sched.flat_index(l, 1)).attacker_reward;
    EXPECT_NEAR(r1, 2.0 * r0, 1e-12);
    // Interval endpoints scale too.
    EXPECT_NEAR(sched.flattened.attacker_intervals[sched.flat_index(l, 1)]
                    .attacker_reward.hi(),
                2.0 * sched.flattened.attacker_intervals[sched.flat_index(
                          l, 0)].attacker_reward.hi(),
                1e-12);
  }
}

TEST(Schedule, UnrollValidation) {
  auto base = base_game(3);
  EXPECT_THROW(games::unroll_schedule(base, 0, 1.0), InvalidModelError);
  EXPECT_THROW(games::unroll_schedule(base, 2, 1.0, {1.0}),
               InvalidModelError);
  EXPECT_THROW(games::unroll_schedule(base, 2, 1.0, {1.0, -1.0}),
               InvalidModelError);
}

TEST(Schedule, CubisRespectsPerSlotBudgets) {
  auto base = base_game(4);
  auto sched = games::unroll_schedule(base, 3, 1.0, {1.0, 1.5, 0.7});
  SuqrIntervalBounds bounds(SuqrWeightIntervals{},
                            sched.flattened.attacker_intervals);
  core::CubisOptions opt;
  opt.segments = 10;
  const games::CoverageSpace space = sched.coverage_space();
  core::SolveContext ctx{sched.flattened.game, bounds};
  ctx.space = &space;
  core::DefenderSolution sol = core::CubisSolver(opt).solve(ctx);
  ASSERT_TRUE(sol.ok());
  for (std::size_t d = 0; d < 3; ++d) {
    double used = 0.0;
    for (std::size_t l = 0; l < 4; ++l) {
      used += sol.strategy[sched.flat_index(l, d)];
    }
    EXPECT_LE(used, 1.0 + 1e-9) << "slot " << d;
  }
}

TEST(Schedule, GroupBudgetValidationInSolver) {
  auto base = base_game(5);
  auto sched = games::unroll_schedule(base, 2, 1.0);
  SuqrIntervalBounds bounds(SuqrWeightIntervals{},
                            sched.flattened.attacker_intervals);
  core::SolveContext ctx{sched.flattened.game, bounds};
  // A space over the wrong number of targets (2, the game has 8) is
  // rejected by the solve, through effective_space.
  const games::CoverageSpace wrong_size =
      games::CoverageSpace::grouped({0, 1}, {1.0, 1.0});
  ctx.space = &wrong_size;
  EXPECT_THROW(core::CubisSolver().solve(ctx), InvalidModelError);
  // A slot budget above its slot's capacity (4 locations, 5 units) is
  // rejected when the space is built.
  EXPECT_THROW(
      games::CoverageSpace::grouped(sched.target_groups(), {5.0, 5.0}),
      std::invalid_argument);
}

TEST(Schedule, UniformDriftMatchesSingleSlotReplication) {
  // With no drift, the optimal per-slot coverage equals the single-slot
  // optimum replicated (slots are identical and independent).
  auto base = base_game(6);
  SuqrIntervalBounds base_bounds(SuqrWeightIntervals{},
                                 base.attacker_intervals);
  core::CubisOptions single;
  single.segments = 10;
  auto sol1 = core::CubisSolver(single).solve({base.game, base_bounds});

  auto sched = games::unroll_schedule(base, 2, 2.0);
  SuqrIntervalBounds bounds(SuqrWeightIntervals{},
                            sched.flattened.attacker_intervals);
  core::CubisOptions opt;
  opt.segments = 10;
  const games::CoverageSpace space = sched.coverage_space();
  core::SolveContext ctx{sched.flattened.game, bounds};
  ctx.space = &space;
  auto sol2 = core::CubisSolver(opt).solve(ctx);
  ASSERT_TRUE(sol2.ok());
  // Worst case: the attacker has twice as many (identical) options, so
  // the scheduled worst case equals the single-slot one (up to grid noise).
  EXPECT_NEAR(sol2.worst_case_utility, sol1.worst_case_utility, 0.4);
}

// ---- QR-lambda bounds ----------------------------------------------------

TEST(QrLambdaBounds, OrderedPositiveDecreasing) {
  auto ug = games::table1_game();
  behavior::QrLambdaBounds b(Interval(0.2, 1.2), ug.attacker_intervals);
  for (std::size_t i = 0; i < 2; ++i) {
    double pl = b.lower(i, 0.0), pu = b.upper(i, 0.0);
    EXPECT_GT(pl, 0.0);
    EXPECT_LE(pl, pu);
    for (double x = 0.1; x <= 1.0; x += 0.1) {
      EXPECT_GT(b.lower(i, x), 0.0);
      EXPECT_LE(b.lower(i, x), b.upper(i, x) + 1e-15);
      EXPECT_LE(b.lower(i, x), pl + 1e-12);  // non-increasing
      EXPECT_LE(b.upper(i, x), pu + 1e-12);
      pl = b.lower(i, x);
      pu = b.upper(i, x);
    }
  }
}

TEST(QrLambdaBounds, ContainsEverySampledQrModel) {
  auto ug = games::table1_game();
  Interval lambda(0.3, 1.0);
  behavior::QrLambdaBounds b(lambda, ug.attacker_intervals);
  Rng rng(41);
  for (int s = 0; s < 64; ++s) {
    const double lam = rng.uniform(lambda.lo(), lambda.hi());
    // Sample payoffs inside the boxes and form the exact QR value.
    for (double x : {0.0, 0.3, 0.7, 1.0}) {
      for (std::size_t i = 0; i < 2; ++i) {
        const auto& iv = ug.attacker_intervals[i];
        const double ra = rng.uniform(iv.attacker_reward.lo(),
                                      iv.attacker_reward.hi());
        const double pa = rng.uniform(iv.attacker_penalty.lo(),
                                      iv.attacker_penalty.hi());
        const double ua = x * pa + (1.0 - x) * ra;
        const double f = std::exp(lam * ua);
        EXPECT_GE(f, b.lower(i, x) * (1 - 1e-12));
        EXPECT_LE(f, b.upper(i, x) * (1 + 1e-12));
      }
    }
  }
}

TEST(QrLambdaBounds, WorksInsideCubis) {
  auto ug = games::table1_game();
  behavior::QrLambdaBounds b(Interval(0.2, 1.0), ug.attacker_intervals);
  core::CubisOptions opt;
  opt.segments = 20;
  auto sol = core::CubisSolver(opt).solve({ug.game, b});
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(std::isfinite(sol.worst_case_utility));
  // Must beat the uniform strategy.
  EXPECT_GE(sol.worst_case_utility,
            core::worst_case_utility(ug.game, b,
                                     std::vector<double>{0.5, 0.5}) -
                0.3);
}

TEST(QrLambdaBounds, Validation) {
  auto ug = games::table1_game();
  EXPECT_THROW(behavior::QrLambdaBounds(Interval(0.0, 1.0),
                                        ug.attacker_intervals),
               InvalidModelError);
  EXPECT_THROW(behavior::QrLambdaBounds(Interval(0.5, 1.0), {}),
               InvalidModelError);
}

// ---- ORIGAMI ---------------------------------------------------------

struct OrigamiSeed {
  std::uint64_t value;
};
class OrigamiTest : public ::testing::TestWithParam<OrigamiSeed> {};

TEST_P(OrigamiTest, MatchesMultipleLpsSse) {
  Rng rng(GetParam().value);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t t = 2 + static_cast<std::size_t>(rng.uniform_int(0, 8));
    const double r = 1.0 + std::floor(rng.uniform(0.0, t - 1.0));
    auto g = games::covariant_game(rng, t, r, rng.uniform(0.0, 1.0));
    auto lp = core::solve_sse(g);
    auto ori = core::solve_origami(g);
    ASSERT_EQ(lp.status, SolverStatus::kOptimal);
    ASSERT_EQ(ori.status, SolverStatus::kOptimal);
    EXPECT_NEAR(ori.defender_utility, lp.defender_utility, 1e-5)
        << "trial " << trial << " T=" << t << " R=" << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrigamiTest,
                         ::testing::Values(OrigamiSeed{301}, OrigamiSeed{302},
                                           OrigamiSeed{303}),
                         [](const ::testing::TestParamInfo<OrigamiSeed>& i) {
                           return "seed" + std::to_string(i.param.value);
                         });

TEST(Origami, AttackSetIsIndifferent) {
  Rng rng(310);
  auto g = games::random_game(rng, 8, 3.0);
  auto ori = core::solve_origami(g);
  ASSERT_EQ(ori.status, SolverStatus::kOptimal);
  for (std::size_t i : ori.attack_set) {
    const double ua = g.attacker_utility(i, ori.strategy[i]);
    // Saturated targets may sit below the common utility; others match it.
    if (ori.strategy[i] < 1.0 - 1e-9) {
      EXPECT_NEAR(ua, ori.attacker_utility, 1e-7) << "target " << i;
    } else {
      EXPECT_LE(ua, ori.attacker_utility + 1e-7);
    }
  }
  // Targets outside the set are strictly less attractive.
  for (std::size_t i = 0; i < 8; ++i) {
    if (std::find(ori.attack_set.begin(), ori.attack_set.end(), i) ==
        ori.attack_set.end()) {
      EXPECT_LE(g.attacker_utility(i, ori.strategy[i]),
                ori.attacker_utility + 1e-7);
      EXPECT_NEAR(ori.strategy[i], 0.0, 1e-12);
    }
  }
}

TEST(Origami, UsesFullBudgetWhenBeneficial) {
  Rng rng(311);
  auto g = games::random_game(rng, 6, 2.0);
  auto ori = core::solve_origami(g);
  double total = 0.0;
  for (double xi : ori.strategy) total += xi;
  EXPECT_LE(total, 2.0 + 1e-9);
}

}  // namespace
}  // namespace cubisg
