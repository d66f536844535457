// Tests for the worst-case evaluators (the inner problem of maximin (5))
// and the H/G function machinery.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "behavior/bounds.hpp"
#include "behavior/suqr.hpp"
#include "common/rng.hpp"
#include "core/hfunction.hpp"
#include "core/worst_case.hpp"
#include "games/generators.hpp"
#include "games/coverage_space.hpp"

namespace cubisg::core {
namespace {

using behavior::IntervalMode;
using behavior::SuqrIntervalBounds;
using behavior::SuqrWeightIntervals;

struct WcFixture {
  games::UncertainGame ug;
  std::shared_ptr<SuqrIntervalBounds> bounds;
  WcFixture(std::uint64_t seed, std::size_t targets, double resources,
        double width)
      : ug(make(seed, targets, resources, width)),
        bounds(std::make_shared<SuqrIntervalBounds>(SuqrWeightIntervals{},
                                                    ug.attacker_intervals)) {}
  static games::UncertainGame make(std::uint64_t seed, std::size_t targets,
                                   double resources, double width) {
    Rng rng(seed);
    return games::random_uncertain_game(rng, targets, resources, width);
  }
};

TEST(HFunction, HandGConsistent) {
  PointData p;
  p.u = {1.0, -2.0};
  p.L = {0.5, 1.0};
  p.U = {2.0, 3.0};
  std::vector<double> beta{0.0, 0.5};
  // H = (sum L u - sum (U-L) beta) / sum L
  const double num = 0.5 * 1.0 + 1.0 * -2.0 - (1.5 * 0.0 + 2.0 * 0.5);
  EXPECT_NEAR(h_value(p, beta), num / 1.5, 1e-12);
  // G(c) is the numerator of H - c scaled by sum L.
  const double c = -1.0;
  EXPECT_NEAR(g_value(p, beta, c), (h_value(p, beta) - c) * 1.5, 1e-12);
}

TEST(HFunction, BetaOfProposition3) {
  PointData p;
  p.u = {1.0, -2.0, 0.5};
  p.L = {1.0, 1.0, 1.0};
  p.U = {2.0, 2.0, 2.0};
  auto beta = beta_of(p, 0.0);
  EXPECT_DOUBLE_EQ(beta[0], 0.0);   // u >= c
  EXPECT_DOUBLE_EQ(beta[1], 2.0);   // c - u = 2
  EXPECT_DOUBLE_EQ(beta[2], 0.0);
}

TEST(HFunction, GAtStrictlyDecreasingInC) {
  WcFixture s(1, 6, 2.0, 1.0);
  std::vector<double> x = games::CoverageSpace::simplex(6, 2.0).uniform_seed();
  PointData p = evaluate_point(s.ug.game, *s.bounds, x);
  double prev = g_at(p, -10.0);
  for (double c = -9.5; c <= 10.0; c += 0.5) {
    const double cur = g_at(p, c);
    EXPECT_LT(cur, prev);
    prev = cur;
  }
}

TEST(WorstCase, EvaluatorsAgreeOnTable1) {
  auto ug = games::table1_game();
  SuqrIntervalBounds b(SuqrWeightIntervals{}, ug.attacker_intervals,
                       IntervalMode::kPaperCorners);
  for (double x1 : {0.1, 0.34, 0.46, 0.9}) {
    std::vector<double> x{x1, 1.0 - x1};
    const double a = worst_case_utility(ug.game, b, x,
                                        WorstCaseMethod::kClosedForm);
    const double lp = worst_case_utility(ug.game, b, x,
                                         WorstCaseMethod::kInnerLp);
    const double root = worst_case_utility(ug.game, b, x,
                                           WorstCaseMethod::kDualRoot);
    EXPECT_NEAR(a, lp, 1e-7);
    EXPECT_NEAR(a, root, 1e-7);
  }
}

struct EvaluatorCase {
  std::uint64_t seed;
};

class WorstCaseRandomTest : public ::testing::TestWithParam<EvaluatorCase> {};

TEST_P(WorstCaseRandomTest, EvaluatorsAgreeOnRandomGames) {
  Rng rng(GetParam().seed);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t t = 2 + static_cast<std::size_t>(rng.uniform_int(0, 8));
    const double r =
        static_cast<double>(rng.uniform_int(1, static_cast<int>(t) - 1));
    const double width = rng.uniform(0.0, 2.0);
    auto ug = games::random_uncertain_game(rng, t, r, width);
    SuqrIntervalBounds b(SuqrWeightIntervals{}, ug.attacker_intervals);
    std::vector<double> raw(t);
    for (auto& v : raw) v = rng.uniform(0.0, 1.0);
    auto x = games::CoverageSpace::simplex(raw.size(), r).project(raw);

    const double a = worst_case_utility(ug.game, b, x,
                                        WorstCaseMethod::kClosedForm);
    const double lp = worst_case_utility(ug.game, b, x,
                                         WorstCaseMethod::kInnerLp);
    const double root = worst_case_utility(ug.game, b, x,
                                           WorstCaseMethod::kDualRoot);
    EXPECT_NEAR(a, lp, 1e-6 * (1.0 + std::abs(a))) << "trial " << trial;
    EXPECT_NEAR(a, root, 1e-6 * (1.0 + std::abs(a))) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, WorstCaseRandomTest,
    ::testing::Values(EvaluatorCase{101}, EvaluatorCase{102},
                      EvaluatorCase{103}, EvaluatorCase{104},
                      EvaluatorCase{105}, EvaluatorCase{106}),
    [](const ::testing::TestParamInfo<EvaluatorCase>& pinfo) {
      return "seed" + std::to_string(pinfo.param.seed);
    });

TEST(WorstCase, WorstLeqMidpointLeqBest) {
  WcFixture s(2, 8, 3.0, 1.5);
  std::vector<double> x = games::CoverageSpace::simplex(8, 3.0).uniform_seed();
  const double worst = worst_case_utility(s.ug.game, *s.bounds, x);
  const double best = best_case_utility(s.ug.game, *s.bounds, x);
  // Midpoint-model expected utility must lie between the extremes.
  behavior::SuqrModel mid = s.bounds->midpoint_model();
  const double mid_eu = behavior::defender_expected_utility(s.ug.game, mid, x);
  EXPECT_LE(worst, mid_eu + 1e-9);
  EXPECT_LE(mid_eu, best + 1e-9);
  EXPECT_LT(worst, best);  // nondegenerate intervals separate them
}

TEST(WorstCase, ZeroWidthRecoversPointModel) {
  // With degenerate intervals the worst case equals the point-model
  // expected utility exactly.
  WcFixture s(3, 5, 2.0, 0.0);
  auto model = std::make_shared<behavior::SuqrModel>(
      behavior::SuqrWeights{-4.0, 0.75, 0.65}, s.ug.game);
  behavior::PointBounds pb(model);
  std::vector<double> x = games::CoverageSpace::simplex(5, 2.0).uniform_seed();
  const double w = worst_case_utility(s.ug.game, pb, x);
  const double eu = behavior::defender_expected_utility(s.ug.game, *model, x);
  EXPECT_NEAR(w, eu, 1e-9);
  EXPECT_NEAR(best_case_utility(s.ug.game, pb, x), eu, 1e-9);
}

TEST(WorstCase, MonotoneInIntervalWidth) {
  // Wider uncertainty can only hurt the worst case.
  WcFixture s(4, 6, 2.0, 1.5);
  std::vector<double> x = games::CoverageSpace::simplex(6, 2.0).uniform_seed();
  double prev = std::numeric_limits<double>::infinity();
  for (double factor : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    behavior::ScaledBounds sb(s.bounds, factor);
    const double w = worst_case_utility(s.ug.game, sb, x);
    EXPECT_LE(w, prev + 1e-9);
    prev = w;
  }
}

TEST(WorstCase, WitnessIsConsistent) {
  // The returned attack distribution and attractiveness must reproduce the
  // reported value and respect the interval bounds.
  WcFixture s(5, 7, 3.0, 1.0);
  std::vector<double> x = games::CoverageSpace::simplex(7, 3.0).uniform_seed();
  WorstCaseResult r = worst_case(s.ug.game, *s.bounds, x);
  PointData p = evaluate_point(s.ug.game, *s.bounds, x);
  double q_sum = 0.0;
  double value = 0.0;
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_GE(r.worst_f[i], p.L[i] * (1 - 1e-12));
    EXPECT_LE(r.worst_f[i], p.U[i] * (1 + 1e-12));
    q_sum += r.attack_q[i];
    value += r.attack_q[i] * p.u[i];
  }
  EXPECT_NEAR(q_sum, 1.0, 1e-9);
  EXPECT_NEAR(value, r.value, 1e-9);
}

TEST(WorstCase, DualRootEqualsInnerLpOptimum) {
  // LP duality (Eqs. 6-14): the root of G equals the inner LP minimum.
  WcFixture s(6, 4, 1.0, 2.0);
  std::vector<double> x = games::CoverageSpace::simplex(4, 1.0).uniform_seed();
  const double lp = worst_case_utility(s.ug.game, *s.bounds, x,
                                       WorstCaseMethod::kInnerLp);
  PointData p = evaluate_point(s.ug.game, *s.bounds, x);
  EXPECT_NEAR(g_at(p, lp), 0.0, 1e-6 * (1.0 + std::abs(lp)));
}

TEST(WorstCase, SingleTargetIsDeterministic) {
  // With one target the attack distribution is forced: W = Ud(x).
  games::UncertainGame ug{
      games::SecurityGame({{3.0, -5.0, 5.0, -3.0}}, 0.5),
      {{Interval(2.0, 4.0), Interval(-6.0, -4.0)}}};
  SuqrIntervalBounds b(SuqrWeightIntervals{}, ug.attacker_intervals);
  std::vector<double> x{0.5};
  EXPECT_NEAR(worst_case_utility(ug.game, b, x),
              ug.game.defender_utility(0, 0.5), 1e-9);
}

TEST(ExecutionNoise, ZeroDeltaIsExact) {
  WcFixture s(8, 5, 2.0, 1.0);
  std::vector<double> x = games::CoverageSpace::simplex(5, 2.0).uniform_seed();
  Rng rng(1);
  auto rep = worst_case_under_execution_noise(s.ug.game, *s.bounds, x, 0.0,
                                              10, rng);
  EXPECT_DOUBLE_EQ(rep.mean, rep.nominal);
  EXPECT_DOUBLE_EQ(rep.min, rep.nominal);
}

TEST(ExecutionNoise, MinBelowMeanAndDegradesWithDelta) {
  WcFixture s(9, 6, 2.0, 1.0);
  std::vector<double> x = games::CoverageSpace::simplex(6, 2.0).uniform_seed();
  Rng rng(2);
  auto small = worst_case_under_execution_noise(s.ug.game, *s.bounds, x,
                                                0.02, 200, rng);
  Rng rng2(2);
  auto large = worst_case_under_execution_noise(s.ug.game, *s.bounds, x,
                                                0.2, 200, rng2);
  EXPECT_LE(small.min, small.mean + 1e-12);
  EXPECT_LE(large.min, large.mean + 1e-12);
  // Bigger execution error hurts the worst draw (same noise stream).
  EXPECT_LT(large.min, small.min);
}

TEST(ExecutionNoise, Validation) {
  WcFixture s(10, 3, 1.0, 1.0);
  std::vector<double> x = games::CoverageSpace::simplex(3, 1.0).uniform_seed();
  Rng rng(3);
  EXPECT_THROW(worst_case_under_execution_noise(s.ug.game, *s.bounds, x,
                                                -0.1, 10, rng),
               InvalidModelError);
  EXPECT_THROW(worst_case_under_execution_noise(s.ug.game, *s.bounds, x,
                                                0.1, 0, rng),
               InvalidModelError);
}

TEST(WorstCase, RejectsMalformedInput) {
  WcFixture s(7, 3, 1.0, 1.0);
  std::vector<double> wrong_size{0.5, 0.5};
  EXPECT_THROW(worst_case_utility(s.ug.game, *s.bounds, wrong_size),
               InvalidModelError);
}

}  // namespace
}  // namespace cubisg::core
