// Tests for route-constrained patrol decomposition.
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "games/comb_sampling.hpp"
#include "games/routes.hpp"
#include "games/coverage_space.hpp"

namespace cubisg::games {
namespace {

TEST(Routes, WindowRoutesOnLineAndCycle) {
  auto line = window_routes(5, 2, false);
  ASSERT_EQ(line.size(), 4u);
  EXPECT_EQ(line[0].covered, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(line[3].covered, (std::vector<std::size_t>{3, 4}));

  auto cycle = window_routes(5, 2, true);
  ASSERT_EQ(cycle.size(), 5u);
  EXPECT_EQ(cycle[4].covered, (std::vector<std::size_t>{0, 4}));  // wraps

  EXPECT_THROW(window_routes(5, 0), InvalidModelError);
  EXPECT_THROW(window_routes(5, 6), InvalidModelError);
}

TEST(Routes, AllKSubsets) {
  auto subsets = all_k_subsets(5, 2);
  EXPECT_EQ(subsets.size(), 10u);  // C(5,2)
  EXPECT_THROW(all_k_subsets(3, 4), InvalidModelError);
  EXPECT_THROW(all_k_subsets(50, 25), InvalidModelError);  // too many
}

TEST(Routes, KnownMixtureRoundTrips) {
  // Build a marginal from a known mixture of windows, then recover a
  // mixture achieving it exactly.
  auto routes = window_routes(6, 2, false);
  std::vector<double> x(6, 0.0);
  // 0.6 of route {0,1}, 0.4 of route {2,3}, 1.0 of route {4,5}: 2 units.
  for (std::size_t i : routes[0].covered) x[i] += 0.6;
  for (std::size_t i : routes[2].covered) x[i] += 0.4;
  for (std::size_t i : routes[4].covered) x[i] += 1.0;

  RouteMixture mix = marginal_to_route_mixture(routes, x, 2.0);
  EXPECT_NEAR(mix.deviation, 0.0, 1e-9);
  auto marg = route_mixture_marginals(routes, mix, 6);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(marg[i], x[i], 1e-8) << "target " << i;
  }
}

TEST(Routes, DetectsUnimplementableMarginal) {
  // Windows of width 2 always cover targets in adjacent pairs; a marginal
  // demanding coverage 1 on targets 0 and 2 but 0 on target 1 cannot be
  // expressed with a single unit.
  auto routes = window_routes(3, 2, false);  // {0,1}, {1,2}
  std::vector<double> x{1.0, 0.0, 1.0};
  RouteMixture mix = marginal_to_route_mixture(routes, x, 1.0);
  EXPECT_GT(mix.deviation, 0.3);
}

TEST(Routes, SingletonWindowsMatchCombSampling) {
  // Width-1 windows make every box-simplex marginal implementable —
  // the same guarantee comb sampling provides.
  Rng rng(31);
  auto routes = window_routes(7, 1, false);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> raw(7);
    for (auto& v : raw) v = rng.uniform(0.0, 1.0);
    auto x = CoverageSpace::simplex(raw.size(), 3.0).project(raw);
    RouteMixture mix = marginal_to_route_mixture(routes, x, 3.0);
    EXPECT_NEAR(mix.deviation, 0.0, 1e-8) << "trial " << trial;
    // And comb sampling agrees it is implementable.
    auto comb = comb_decomposition(x);
    auto marg = mixture_marginals(7, comb);
    for (std::size_t i = 0; i < 7; ++i) EXPECT_NEAR(marg[i], x[i], 1e-10);
  }
}

TEST(Routes, BudgetBindsMixture) {
  auto routes = window_routes(4, 2, false);
  std::vector<double> x(4, 1.0);  // wants full coverage: needs 2 units
  RouteMixture under = marginal_to_route_mixture(routes, x, 1.0);
  EXPECT_GT(under.deviation, 0.2);  // cannot do it with one unit
  RouteMixture enough = marginal_to_route_mixture(routes, x, 2.0);
  EXPECT_NEAR(enough.deviation, 0.0, 1e-8);
}

TEST(Routes, Validation) {
  std::vector<PatrolRoute> routes{{{0, 9}}};
  std::vector<double> x{0.5, 0.5};
  EXPECT_THROW(marginal_to_route_mixture(routes, x, 1.0),
               InvalidModelError);  // target 9 out of range
  EXPECT_THROW(
      marginal_to_route_mixture(std::vector<PatrolRoute>{}, x, 1.0),
      InvalidModelError);
}

TEST(Routes, CycleWindowsCoverUniformMarginal) {
  // On a cycle, the uniform marginal R*w/T per target is implementable by
  // an equal mixture of all windows.
  auto routes = window_routes(6, 3, true);
  std::vector<double> x(6, 2.0 * 3.0 / 6.0);  // R=2 units, width 3
  RouteMixture mix = marginal_to_route_mixture(routes, x, 2.0);
  EXPECT_NEAR(mix.deviation, 0.0, 1e-8);
}

}  // namespace
}  // namespace cubisg::games
