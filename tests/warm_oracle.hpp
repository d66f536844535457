// Warm/fresh differential oracle for CUBIS: the same solve with
// reuse_rounds on (RoundCache lanes) and off (the fresh per-round path)
// must agree bitwise on the strategy, the bracket, the step count and
// every certificate round, and the warm path must build no
// PiecewiseLinear at all.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/cubis.hpp"
#include "obs/metrics.hpp"

namespace cubisg::testing {

inline std::uint64_t double_bits(double v) {
  return std::bit_cast<std::uint64_t>(v);
}

inline void expect_warm_matches_fresh_bitwise(const core::SolveContext& ctx,
                                              core::CubisOptions opt,
                                              const std::string& tag) {
  opt.reuse_rounds = true;
  const core::DefenderSolution warm = core::CubisSolver(opt).solve(ctx);
  opt.reuse_rounds = false;
  const core::DefenderSolution fresh = core::CubisSolver(opt).solve(ctx);
  ASSERT_TRUE(warm.ok()) << tag;
  ASSERT_TRUE(fresh.ok()) << tag;
  EXPECT_EQ(warm.binary_steps, fresh.binary_steps) << tag;
  EXPECT_EQ(double_bits(warm.lb), double_bits(fresh.lb)) << tag;
  EXPECT_EQ(double_bits(warm.ub), double_bits(fresh.ub)) << tag;
  ASSERT_EQ(warm.strategy.size(), fresh.strategy.size()) << tag;
  for (std::size_t i = 0; i < warm.strategy.size(); ++i) {
    EXPECT_EQ(double_bits(warm.strategy[i]), double_bits(fresh.strategy[i]))
        << tag << " target " << i;
  }
  const auto& wr = warm.certificate.rounds;
  const auto& fr = fresh.certificate.rounds;
  ASSERT_EQ(wr.size(), fr.size()) << tag;
  ASSERT_FALSE(wr.empty()) << tag;
  for (std::size_t r = 0; r < wr.size(); ++r) {
    EXPECT_EQ(double_bits(wr[r].lo), double_bits(fr[r].lo)) << tag << " r" << r;
    EXPECT_EQ(double_bits(wr[r].hi), double_bits(fr[r].hi)) << tag << " r" << r;
    EXPECT_EQ(wr[r].feasible, fr[r].feasible) << tag << " round " << r;
    EXPECT_EQ(wr[r].infeasible, fr[r].infeasible) << tag << " round " << r;
  }
  // Warm rounds rebuild flat tables only; the fresh path builds f1 and
  // f2 per target per round.
  EXPECT_EQ(warm.telemetry.counter("piecewise.functions_built"), 0) << tag;
  EXPECT_GT(fresh.telemetry.counter("piecewise.functions_built"), 0) << tag;
}

}  // namespace cubisg::testing
