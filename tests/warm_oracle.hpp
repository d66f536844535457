// Warm/fresh differential oracle for CUBIS: the same solve with
// reuse_rounds on (RoundCache lanes) and off (the fresh per-round path)
// must agree bitwise on the bracket, the step count and every
// certificate round.  On the DP backend the strategy is bitwise equal too
// and the warm path builds no PiecewiseLinear at all.  On the MILP
// backend the strategy agrees within 1e-9 (the patched skeleton and the
// carried root basis may pivot to the same vertex by a different route),
// and each lane builds its f1/f2 views and its skeleton once: 2*T
// functions per lane, against 2*T per step on the fresh path, and one
// skeleton patch per later round.
#pragma once

#include <algorithm>
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
  const bool milp = opt.backend == core::StepBackend::kMilp;
  EXPECT_EQ(warm.binary_steps, fresh.binary_steps) << tag;
  EXPECT_EQ(double_bits(warm.lb), double_bits(fresh.lb)) << tag;
  EXPECT_EQ(double_bits(warm.ub), double_bits(fresh.ub)) << tag;
  ASSERT_EQ(warm.strategy.size(), fresh.strategy.size()) << tag;
  for (std::size_t i = 0; i < warm.strategy.size(); ++i) {
    if (milp) {
      EXPECT_NEAR(warm.strategy[i], fresh.strategy[i], 1e-9)
          << tag << " target " << i;
    } else {
      EXPECT_EQ(double_bits(warm.strategy[i]),
                double_bits(fresh.strategy[i]))
          << tag << " target " << i;
    }
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
  // The fresh path builds f1 and f2 per target per step.  Warm DP rounds
  // rebuild flat tables only; a warm MILP lane builds its f1/f2 views once
  // and rewrites them in place every round.
  const auto per_pass =
      static_cast<std::int64_t>(2 * ctx.game.num_targets());
  const auto lanes =
      static_cast<std::int64_t>(std::max(1, opt.parallel_sections));
  EXPECT_EQ(warm.telemetry.counter("piecewise.functions_built"),
            milp ? per_pass * lanes : 0)
      << tag;
  EXPECT_EQ(fresh.telemetry.counter("piecewise.functions_built"),
            per_pass * fresh.binary_steps)
      << tag;
  // Each MILP lane assembles its skeleton in its first round and patches
  // it in every later one; nothing else patches a model.
  EXPECT_EQ(warm.telemetry.counter("milp.model_patches_total"),
            milp ? warm.binary_steps - lanes : 0)
      << tag;
  EXPECT_EQ(fresh.telemetry.counter("milp.model_patches_total"), 0) << tag;
}

}  // namespace cubisg::testing
