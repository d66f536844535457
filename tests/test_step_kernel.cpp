// ISA oracle for the flat step DP: every forward-pass variant the host
// can run (baseline always) must reproduce the reference DPs of
// reference_dp.hpp bitwise — objective and coverage — on seeded random
// phi over simplex, grouped, multi-defender and capped (patrol-graph)
// polytopes, including ties, cap 0, a zero budget and budgets below K.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/step_solver.hpp"
#include "games/coverage_space.hpp"
#include "reference_dp.hpp"

namespace cubisg::core {
namespace {

/// Random breakpoints.  `coarse` draws from five values, so equal sums —
/// and hence tie-breaks — are common.
std::vector<double> random_phi(Rng& rng, std::size_t t_count,
                               std::size_t k_count, bool coarse) {
  static constexpr double kCoarse[] = {-1.0, 0.0, 0.5, 1.0, 2.0};
  std::vector<double> phi(t_count * (k_count + 1));
  for (double& v : phi) {
    v = coarse ? kCoarse[rng.uniform_int(0, 4)] : rng.uniform(-3.0, 3.0);
  }
  return phi;
}

std::vector<PiecewiseLinear> as_functions(const std::vector<double>& phi,
                                          std::size_t t_count,
                                          std::size_t k_count) {
  std::vector<PiecewiseLinear> fs;
  const std::size_t kp1 = k_count + 1;
  for (std::size_t i = 0; i < t_count; ++i) {
    fs.emplace_back(std::vector<double>(
        phi.begin() + static_cast<std::ptrdiff_t>(i * kp1),
        phi.begin() + static_cast<std::ptrdiff_t>((i + 1) * kp1)));
  }
  return fs;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bitwise(const StepResult& got, const StepResult& ref,
                    const std::string& tag) {
  ASSERT_EQ(got.status, ref.status) << tag;
  EXPECT_EQ(bits(got.objective), bits(ref.objective))
      << tag << " objective " << got.objective << " vs " << ref.objective;
  ASSERT_EQ(got.x.size(), ref.x.size()) << tag;
  for (std::size_t i = 0; i < ref.x.size(); ++i) {
    EXPECT_EQ(bits(got.x[i]), bits(ref.x[i])) << tag << " target " << i;
  }
}

/// A random budget for `members` targets: a zero budget, a sub-K one
/// (units < K), integral, or fractional.
double random_budget(Rng& rng, std::size_t members) {
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return 0.0;
    case 1:
      return rng.uniform(0.05, 0.95);
    case 2:
      return static_cast<double>(
          rng.uniform_int(1, static_cast<std::int64_t>(members)));
    default:
      return rng.uniform(0.3, static_cast<double>(members));
  }
}

/// Random polytope over `t_count` targets of the given family.  Grouped
/// ids are drawn independently, so groups interleave (non-contiguous
/// rows) and some may be empty; patrol-graph caps include 0 and 1.
games::CoverageSpace random_space(Rng& rng, games::CoverageFamily family,
                                  std::size_t t_count) {
  using games::CoverageFamily;
  using games::CoverageSpace;
  if (family == CoverageFamily::kSimplex) {
    return CoverageSpace::simplex(t_count, random_budget(rng, t_count));
  }
  const std::size_t num_groups = std::min<std::size_t>(
      t_count, 1 + static_cast<std::size_t>(rng.uniform_int(0, 3)));
  const auto any_group = [&] {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(num_groups - 1)));
  };
  if (family == CoverageFamily::kMultiDefender) {
    std::vector<std::size_t> blocks(num_groups, 1);
    for (std::size_t i = num_groups; i < t_count; ++i) ++blocks[any_group()];
    std::vector<double> budgets;
    for (std::size_t b : blocks) budgets.push_back(random_budget(rng, b));
    return CoverageSpace::multi_defender(blocks, budgets);
  }
  std::vector<std::size_t> groups(t_count);
  std::vector<std::size_t> sizes(num_groups, 0);
  for (std::size_t& g : groups) ++sizes[g = any_group()];
  std::vector<double> budgets;
  for (std::size_t size : sizes) {
    budgets.push_back(size == 0 ? 0.0 : random_budget(rng, size));
  }
  if (family == CoverageFamily::kGrouped) {
    return CoverageSpace::grouped(groups, budgets);
  }
  std::vector<double> caps(t_count);
  std::vector<double> cap_sum(num_groups, 0.0);
  for (std::size_t i = 0; i < t_count; ++i) {
    const int kind = static_cast<int>(rng.uniform_int(0, 3));
    caps[i] = kind == 0 ? 0.0 : kind == 1 ? 1.0 : rng.uniform(0.0, 1.0);
    cap_sum[groups[i]] += caps[i];
  }
  // patrol_graph requires every group's caps to cover its budget.
  for (std::size_t g = 0; g < num_groups; ++g) {
    budgets[g] = std::min(budgets[g], cap_sum[g]);
  }
  return CoverageSpace::patrol_graph(groups, budgets, caps);
}

TEST(StepKernelIsa, BaselineAlwaysAvailableAndDispatchIsWidest) {
  const std::vector<DpIsa> isas = dp_supported_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), DpIsa::kBaseline);
  EXPECT_EQ(dp_kernel_isa(), isas.back());
  EXPECT_EQ(DpScratch{}.isa, dp_kernel_isa());
  EXPECT_STREQ(to_string(DpIsa::kBaseline), "baseline");
  EXPECT_STREQ(to_string(DpIsa::kAvx2), "avx2");
  EXPECT_STREQ(to_string(DpIsa::kAvx512f), "avx512f");
}

TEST(StepKernelIsa, EveryVariantMatchesReferenceOnEveryPolytope) {
  using games::CoverageFamily;
  const CoverageFamily families[] = {
      CoverageFamily::kSimplex, CoverageFamily::kGrouped,
      CoverageFamily::kMultiDefender, CoverageFamily::kPatrolGraph};
  for (const DpIsa isa : dp_supported_isas()) {
    Rng rng(4242);  // same draws for every variant
    DpScratch scratch;  // reused across trials, like a solver lane
    scratch.isa = isa;
    for (int trial = 0; trial < 400; ++trial) {
      const CoverageFamily family = families[trial % 4];
      const std::size_t t_count =
          1 + static_cast<std::size_t>(rng.uniform_int(0, 24));
      const std::size_t k_count =
          1 + static_cast<std::size_t>(rng.uniform_int(0, 11));
      const bool coarse = rng.uniform() < 0.5;
      const std::vector<double> phi =
          random_phi(rng, t_count, k_count, coarse);
      const games::CoverageSpace space =
          random_space(rng, family, t_count);
      const std::string tag = std::string(to_string(isa)) + " trial " +
                              std::to_string(trial) + " " +
                              space.descriptor();
      const std::vector<PiecewiseLinear> fs =
          as_functions(phi, t_count, k_count);
      expect_bitwise(solve_step_dp_flat_space(phi.data(), t_count, k_count,
                                              space, scratch),
                     testing::solve_step_dp_space(fs, space), tag);
    }
  }
}

TEST(StepKernelIsa, EveryVariantMatchesReferenceOnWideTables) {
  // Rows hundreds of units wide, so the vector loops run their main body
  // and their tails (T=60, K=20: up to 1200 units).
  for (const DpIsa isa : dp_supported_isas()) {
    Rng rng(99);
    DpScratch scratch;
    scratch.isa = isa;
    for (int trial = 0; trial < 6; ++trial) {
      const std::size_t t_count = 60;
      const std::size_t k_count = 20;
      const std::vector<double> phi =
          random_phi(rng, t_count, k_count, trial % 2 == 0);
      const double budget = rng.uniform(1.0, 60.0);
      const std::string tag =
          std::string(to_string(isa)) + " wide trial " + std::to_string(trial);
      expect_bitwise(solve_step_dp_flat(phi.data(), t_count, k_count, budget,
                                        scratch),
                     testing::solve_step_dp(
                         as_functions(phi, t_count, k_count), budget),
                     tag);
    }
  }
}

TEST(StepKernelIsa, RejectsEmptyAndMismatchedInput) {
  DpScratch scratch;
  const std::vector<double> phi(6, 1.0);
  EXPECT_THROW(solve_step_dp_flat(phi.data(), 0, 2, 1.0, scratch),
               InvalidModelError);
  EXPECT_THROW(solve_step_dp_flat(phi.data(), 2, 0, 1.0, scratch),
               InvalidModelError);
  const games::CoverageSpace space =
      games::CoverageSpace::grouped({0, 1, 1}, {1.0, 1.0});
  EXPECT_THROW(solve_step_dp_flat_space(phi.data(), 2, 2, space, scratch),
               InvalidModelError);
}

}  // namespace
}  // namespace cubisg::core
