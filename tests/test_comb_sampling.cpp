// Tests for comb sampling (marginal coverage -> implementable patrols).
#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "games/comb_sampling.hpp"
#include "games/coverage_space.hpp"

namespace cubisg::games {
namespace {

TEST(CombSampling, DecompositionReproducesMarginalsExactly) {
  std::vector<double> x{0.46, 0.54};
  auto mix = comb_decomposition(x);
  auto marg = mixture_marginals(2, mix);
  EXPECT_NEAR(marg[0], 0.46, 1e-12);
  EXPECT_NEAR(marg[1], 0.54, 1e-12);
  double total = 0.0;
  for (const auto& a : mix) total += a.probability;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(CombSampling, ResourceBoundHolds) {
  // sum x = 2.3 -> every pure allocation patrols at most ceil(2.3) = 3.
  std::vector<double> x{0.7, 0.6, 0.5, 0.3, 0.2};
  auto mix = comb_decomposition(x);
  for (const auto& a : mix) {
    EXPECT_LE(a.covered.size(), 3u);
  }
  auto marg = mixture_marginals(5, mix);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(marg[i], x[i], 1e-12);
}

TEST(CombSampling, IntegerBudgetUsesExactlyRTargets) {
  // sum x = 2 exactly: every allocation has exactly 2 targets.
  std::vector<double> x{0.5, 0.5, 0.5, 0.5};
  auto mix = comb_decomposition(x);
  for (const auto& a : mix) EXPECT_EQ(a.covered.size(), 2u);
}

TEST(CombSampling, DegenerateCases) {
  // All-zero coverage: a single empty patrol.
  std::vector<double> zero{0.0, 0.0, 0.0};
  auto mix = comb_decomposition(zero);
  ASSERT_EQ(mix.size(), 1u);
  EXPECT_TRUE(mix[0].covered.empty());
  EXPECT_NEAR(mix[0].probability, 1.0, 1e-12);

  // Full coverage: one patrol covering everything.
  std::vector<double> full{1.0, 1.0};
  auto fmix = comb_decomposition(full);
  ASSERT_EQ(fmix.size(), 1u);
  EXPECT_EQ(fmix[0].covered.size(), 2u);
}

TEST(CombSampling, RejectsOutOfRangeCoverage) {
  EXPECT_THROW(comb_decomposition(std::vector<double>{1.5, 0.2}),
               InvalidModelError);
  EXPECT_THROW(comb_decomposition(std::vector<double>{-0.2, 0.2}),
               InvalidModelError);
}

TEST(CombSampling, MixtureIsSmall) {
  // At most T+1 distinct allocations regardless of the marginal.
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t t = 2 + static_cast<std::size_t>(rng.uniform_int(0, 18));
    std::vector<double> raw(t);
    for (auto& v : raw) v = rng.uniform(0.0, 1.0);
    const double r = rng.uniform(0.5, static_cast<double>(t) * 0.8);
    auto x = CoverageSpace::simplex(raw.size(), r).project(raw);
    auto mix = comb_decomposition(x);
    EXPECT_LE(mix.size(), t + 1);
  }
}

TEST(CombSampling, RandomMarginalsRoundTrip) {
  Rng rng(78);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t t = 1 + static_cast<std::size_t>(rng.uniform_int(0, 11));
    std::vector<double> x(t);
    for (auto& v : x) v = rng.uniform(0.0, 1.0);
    auto mix = comb_decomposition(x);
    auto marg = mixture_marginals(t, mix);
    for (std::size_t i = 0; i < t; ++i) {
      EXPECT_NEAR(marg[i], x[i], 1e-10) << "trial " << trial;
    }
  }
}

TEST(CombSampling, MonteCarloMatchesDecomposition) {
  std::vector<double> x{0.3, 0.8, 0.4, 0.5};
  Rng rng(79);
  std::vector<double> freq(4, 0.0);
  const int kDraws = 200000;
  for (int d = 0; d < kDraws; ++d) {
    for (std::size_t i : comb_sample(x, rng)) freq[i] += 1.0;
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(freq[i] / kDraws, x[i], 0.01);
  }
}

TEST(CombSampling, SampleConsistentWithDecomposition) {
  // The allocation at offset u must be one of the decomposition's pure
  // strategies.
  std::vector<double> x{0.25, 0.5, 0.75, 0.5};
  auto mix = comb_decomposition(x);
  Rng rng(80);
  for (int d = 0; d < 200; ++d) {
    auto patrol = comb_sample(x, rng.uniform());
    const bool found = std::any_of(
        mix.begin(), mix.end(),
        [&](const PureAllocation& a) { return a.covered == patrol; });
    EXPECT_TRUE(found);
  }
}

TEST(CombSampling, MarginalsRejectOutOfRangeTarget) {
  std::vector<PureAllocation> bad{{{5}, 1.0}};
  EXPECT_THROW(mixture_marginals(3, bad), InvalidModelError);
}

}  // namespace
}  // namespace cubisg::games
