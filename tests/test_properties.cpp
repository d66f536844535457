// Heavier randomized property sweeps across module boundaries.  These
// encode the structural invariants the algorithm design relies on, beyond
// what the per-module suites check.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "behavior/attacker_sim.hpp"
#include "behavior/bounds.hpp"
#include "common/rng.hpp"
#include "core/cubis.hpp"
#include "core/hfunction.hpp"
#include "core/maximin.hpp"
#include "core/sse.hpp"
#include "core/worst_case.hpp"
#include "games/comb_sampling.hpp"
#include "games/generators.hpp"
#include "games/coverage_space.hpp"

namespace cubisg {
namespace {

using behavior::SuqrIntervalBounds;
using behavior::SuqrWeightIntervals;

struct Instance {
  games::UncertainGame ug;
  SuqrIntervalBounds bounds;
  static Instance make(std::uint64_t seed, std::size_t t, double r,
                       double width) {
    Rng rng(seed);
    auto ug = games::random_uncertain_game(rng, t, r, width);
    SuqrIntervalBounds b(SuqrWeightIntervals{}, ug.attacker_intervals);
    return {std::move(ug), std::move(b)};
  }
};

struct Seed {
  std::uint64_t value;
};

class PropertyTest : public ::testing::TestWithParam<Seed> {};

TEST_P(PropertyTest, CubisValueMonotoneInResources) {
  // More resources can never hurt the optimal worst case.
  Rng rng(GetParam().value);
  const std::size_t t = 4 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  const double width = rng.uniform(0.5, 2.0);
  double prev = -std::numeric_limits<double>::infinity();
  for (double r = 1.0; r <= static_cast<double>(t); r += 1.0) {
    Rng game_rng(GetParam().value ^ 0x1234);  // same game each r
    auto ug = games::random_uncertain_game(game_rng, t, r, width);
    SuqrIntervalBounds bounds(SuqrWeightIntervals{}, ug.attacker_intervals);
    core::CubisOptions opt;
    opt.segments = 10;
    opt.polish_iterations = 20;
    auto sol = core::CubisSolver(opt).solve({ug.game, bounds});
    ASSERT_TRUE(sol.ok());
    // Allow grid slack: the coarse grid can mis-rank nearby budgets.
    EXPECT_GE(sol.worst_case_utility, prev - 0.35) << "r=" << r;
    prev = std::max(prev, sol.worst_case_utility);
  }
}

TEST_P(PropertyTest, WorstCaseBetweenFloorAndMidpointEverywhere) {
  // For ANY strategy: min_i Ud_i(x_i) <= W(x) <= midpoint-model EU.
  Rng rng(GetParam().value ^ 0xAA);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t t = 2 + static_cast<std::size_t>(rng.uniform_int(0, 8));
    const double r = 1.0 + std::floor(rng.uniform(0.0, t - 1.0));
    Instance in = Instance::make(rng(), t, r, rng.uniform(0.0, 2.0));
    std::vector<double> raw(t);
    for (auto& v : raw) v = rng.uniform(0.0, 1.0);
    auto x = games::CoverageSpace::simplex(raw.size(), r).project(raw);

    const double w = core::worst_case_utility(in.ug.game, in.bounds, x);
    double floor_u = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < t; ++i) {
      floor_u = std::min(floor_u, in.ug.game.defender_utility(i, x[i]));
    }
    behavior::SuqrModel mid = in.bounds.midpoint_model();
    const double mid_eu =
        behavior::defender_expected_utility(in.ug.game, mid, x);
    EXPECT_GE(w, floor_u - 1e-9) << "trial " << trial;
    EXPECT_LE(w, mid_eu + 1e-9) << "trial " << trial;
  }
}

TEST_P(PropertyTest, SampledTypesNeverUndercutCertifiedWorstCase) {
  // Every SUQR type inside the box yields utility >= W(x): the interval
  // worst case is a true certificate.
  Rng rng(GetParam().value ^ 0xBB);
  Instance in = Instance::make(rng(), 6, 2.0, 1.5);
  Rng pop_rng(rng());
  behavior::SampledSuqrPopulation pop(SuqrWeightIntervals{},
                                      in.ug.attacker_intervals, 64, pop_rng);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> raw(6);
    for (auto& v : raw) v = rng.uniform(0.0, 1.0);
    auto x = games::CoverageSpace::simplex(raw.size(), 2.0).project(raw);
    const double w = core::worst_case_utility(in.ug.game, in.bounds, x);
    EXPECT_GE(pop.min_defender_utility(in.ug.game, x), w - 1e-7);
  }
}

TEST_P(PropertyTest, DualityRootConsistentWithPropositionOne) {
  // Proposition 1's monotone structure: the step feasibility threshold of
  // a FIXED x equals W(x); G(x, beta(c), c) >= 0 iff c <= W(x).
  Rng rng(GetParam().value ^ 0xCC);
  Instance in = Instance::make(rng(), 5, 2.0, 1.0);
  std::vector<double> raw(5);
  for (auto& v : raw) v = rng.uniform(0.0, 1.0);
  auto x = games::CoverageSpace::simplex(raw.size(), 2.0).project(raw);
  const double w = core::worst_case_utility(in.ug.game, in.bounds, x);
  const core::PointData p = core::evaluate_point(in.ug.game, in.bounds, x);
  for (double delta : {-0.5, -0.1, -0.01}) {
    EXPECT_GE(core::g_at(p, w + delta), 0.0) << delta;
  }
  for (double delta : {0.01, 0.1, 0.5}) {
    EXPECT_LE(core::g_at(p, w + delta), 0.0) << delta;
  }
}

TEST_P(PropertyTest, MilpStepDominatesDpStepAndBothBracketTruth) {
  // For random (game, c): DP step value <= MILP step value, and both are
  // within O(1/K) of each other.
  Rng rng(GetParam().value ^ 0xDD);
  Instance in = Instance::make(rng(), 3, 1.0, 1.0);
  core::SolveContext ctx{in.ug.game, in.bounds};
  const double c = rng.uniform(in.ug.game.min_defender_penalty(),
                               in.ug.game.max_defender_reward());
  core::CubisOptions dp_opt;
  dp_opt.segments = 6;
  core::CubisOptions milp_opt = dp_opt;
  milp_opt.backend = core::StepBackend::kMilp;
  milp_opt.milp.max_nodes = 50000;

  auto dp = core::cubis_step(ctx, c, dp_opt);
  auto milp = core::cubis_step(ctx, c, milp_opt);
  ASSERT_EQ(dp.status, SolverStatus::kOptimal);
  ASSERT_EQ(milp.status, SolverStatus::kOptimal);
  if (dp.objective >= -1e-9) {
    // DP found a feasible point; the MILP must agree (it dominates).
    EXPECT_FALSE(milp.x.empty());
  }
}

TEST_P(PropertyTest, CombSamplingPreservesExpectedUtilityLinearly) {
  // The defender's utility against ANY fixed attack distribution is linear
  // in coverage, so executing the comb mixture achieves exactly the
  // marginal strategy's expected utility.
  Rng rng(GetParam().value ^ 0xEE);
  const std::size_t t = 4 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  Instance in = Instance::make(rng(), t, 2.0, 1.0);
  std::vector<double> raw(t);
  for (auto& v : raw) v = rng.uniform(0.0, 1.0);
  auto x = games::CoverageSpace::simplex(raw.size(), 2.0).project(raw);

  // A fixed attack distribution (the worst case at x, say).
  auto wc = core::worst_case(in.ug.game, in.bounds, x);
  double marginal_eu = 0.0;
  for (std::size_t i = 0; i < t; ++i) {
    marginal_eu += wc.attack_q[i] * in.ug.game.defender_utility(i, x[i]);
  }
  // The mixture's expected utility against the same attack distribution.
  auto mix = games::comb_decomposition(x);
  double mixture_eu = 0.0;
  for (const auto& alloc : mix) {
    std::vector<double> pure(t, 0.0);
    for (std::size_t i : alloc.covered) pure[i] = 1.0;
    for (std::size_t i = 0; i < t; ++i) {
      mixture_eu += alloc.probability * wc.attack_q[i] *
                    in.ug.game.defender_utility(i, pure[i]);
    }
  }
  EXPECT_NEAR(mixture_eu, marginal_eu, 1e-9);
}

TEST_P(PropertyTest, SseDefenderUtilityUpperBoundsRobustValue) {
  // Against a RATIONAL attacker with favorable tie-breaking, the SSE value
  // is the best the defender can do; the behavioral worst case of any
  // strategy cannot certify more than ... (no general order). Instead check
  // internal consistency: re-solving SSE on the same game is deterministic
  // and its utility matches the induced best response.
  Rng rng(GetParam().value ^ 0xFF);
  auto game = games::covariant_game(rng, 6, 2.0, rng.uniform(0.0, 1.0));
  auto a = core::solve_sse(game);
  auto b = core::solve_sse(game);
  ASSERT_EQ(a.status, SolverStatus::kOptimal);
  EXPECT_DOUBLE_EQ(a.defender_utility, b.defender_utility);
  const std::size_t br = core::best_response_target(game, a.strategy);
  EXPECT_NEAR(game.defender_utility(br, a.strategy[br]),
              a.defender_utility, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PropertyTest,
    ::testing::Values(Seed{201}, Seed{202}, Seed{203}, Seed{204}, Seed{205}),
    [](const ::testing::TestParamInfo<Seed>& pinfo) {
      return "seed" + std::to_string(pinfo.param.value);
    });

TEST_P(PropertyTest, PessimisticDefenderGameCertifiesBothUncertainties) {
  // CUBIS on the pessimistic-payoff transform lower-bounds the utility
  // under ANY defender payoff realization in the intervals AND any
  // behavior in the attractiveness box.
  Rng rng(GetParam().value ^ 0x77);
  Instance in = Instance::make(rng(), 5, 2.0, 1.0);
  std::vector<games::DefenderPayoffIntervals> dps;
  for (std::size_t i = 0; i < 5; ++i) {
    const auto& p = in.ug.game.target(i);
    dps.push_back({Interval(p.defender_reward - 0.5,
                            p.defender_reward + 0.5),
                   Interval(p.defender_penalty - 0.5,
                            p.defender_penalty + 0.5)});
  }
  games::SecurityGame pess =
      games::pessimistic_defender_game(in.ug.game, dps);
  core::CubisOptions opt;
  opt.segments = 15;
  auto sol = core::CubisSolver(opt).solve({pess, in.bounds});
  ASSERT_TRUE(sol.ok());

  // Sample defender payoff realizations inside the intervals; the
  // behavioral worst case under each realization must clear the
  // certificate.
  for (int s = 0; s < 5; ++s) {
    std::vector<games::TargetPayoffs> realized(5);
    for (std::size_t i = 0; i < 5; ++i) {
      realized[i] = in.ug.game.target(i);
      realized[i].defender_reward =
          rng.uniform(dps[i].reward.lo(), dps[i].reward.hi());
      realized[i].defender_penalty =
          rng.uniform(dps[i].penalty.lo(), dps[i].penalty.hi());
    }
    games::SecurityGame sampled(realized, 2.0);
    const double w =
        core::worst_case_utility(sampled, in.bounds, sol.strategy);
    EXPECT_GE(w, sol.worst_case_utility - 1e-7) << "sample " << s;
  }
}

// ---- failure injection -----------------------------------------------

TEST(FailureInjection, TinyAttractivenessBoundsStayFinite) {
  // Extremely deterring weights push L, U toward 0; the evaluators must
  // stay finite (log-space where it matters).
  auto ug = games::table1_game();
  SuqrWeightIntervals w;
  w.w1 = Interval(-40.0, -35.0);
  SuqrIntervalBounds bounds(w, ug.attacker_intervals);
  std::vector<double> x{0.5, 0.5};
  const double v = core::worst_case_utility(ug.game, bounds, x);
  EXPECT_TRUE(std::isfinite(v));
}

TEST(FailureInjection, HugePayoffsDoNotOverflowSolvers) {
  std::vector<games::TargetPayoffs> payoffs = {
      {9.0, -8.0, 1e5, -1e5}, {5.0, -3.0, 2e5, -2e5}};
  games::UncertainGame ug{
      games::SecurityGame(payoffs, 1.0),
      {{Interval(8.0, 10.0), Interval(-9.0, -7.0)},
       {Interval(4.0, 6.0), Interval(-4.0, -2.0)}}};
  SuqrIntervalBounds bounds(SuqrWeightIntervals{}, ug.attacker_intervals);
  core::CubisOptions opt;
  opt.segments = 10;
  auto sol = core::CubisSolver(opt).solve({ug.game, bounds});
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(std::isfinite(sol.worst_case_utility));
  EXPECT_LE(sol.ub - sol.lb, opt.epsilon + 1e-9);
}

TEST(FailureInjection, KEqualsOneStillSolves) {
  // A single piecewise segment: maximal approximation error, but the
  // solver must remain well-defined and within the coarse bound.
  Rng rng(303);
  auto ug = games::random_uncertain_game(rng, 4, 2.0, 1.0);
  SuqrIntervalBounds bounds(SuqrWeightIntervals{}, ug.attacker_intervals);
  core::CubisOptions opt;
  opt.segments = 1;
  auto sol = core::CubisSolver(opt).solve({ug.game, bounds});
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(std::isfinite(sol.worst_case_utility));
}

TEST(FailureInjection, MismatchedBoundsRejected) {
  auto ug = games::table1_game();
  // Bounds for 3 targets against a 2-target game.
  std::vector<games::IntervalPayoffs> wrong = {
      {Interval(1.0, 5.0), Interval(-7.0, -3.0)},
      {Interval(5.0, 9.0), Interval(-9.0, -5.0)},
      {Interval(2.0, 4.0), Interval(-5.0, -4.0)}};
  SuqrIntervalBounds bounds(SuqrWeightIntervals{}, wrong);
  std::vector<double> x{0.5, 0.5};
  EXPECT_THROW(core::worst_case_utility(ug.game, bounds, x),
               InvalidModelError);
}

TEST(FailureInjection, MaximinHandlesIdenticalTargets) {
  // Fully degenerate game: all targets identical.
  std::vector<games::TargetPayoffs> payoffs(5, {4.0, -4.0, 4.0, -4.0});
  games::SecurityGame game(payoffs, 2.0);
  behavior::PointBounds bounds(std::make_shared<behavior::SuqrModel>(
      behavior::SuqrWeights{}, game));
  auto sol = core::MaximinSolver().solve({game, bounds});
  ASSERT_TRUE(sol.ok());
  for (double xi : sol.strategy) EXPECT_NEAR(xi, 0.4, 1e-7);
}

}  // namespace
}  // namespace cubisg
