// Differential correctness harness for the warm-started binary search
// (CubisOptions::reuse_rounds).  The reuse path — affine breakpoint cache,
// patched MILP skeleton, cross-round root basis — must be behaviorally
// indistinguishable from the fresh per-round path it replaces, so every
// test here solves the same instance twice (reuse on / reuse off) and pins
// the results against each other.  The fresh path is the oracle.
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "behavior/bounds.hpp"
#include "common/fault_inject.hpp"
#include "common/rng.hpp"
#include "core/cubis.hpp"
#include "core/round_cache.hpp"
#include "core/worst_case.hpp"
#include "games/generators.hpp"
#include "lp/simplex.hpp"
#include "obs/metrics.hpp"
#include "warm_oracle.hpp"

namespace cubisg::core {
namespace {

using behavior::SuqrIntervalBounds;
using behavior::SuqrWeightIntervals;

struct Fixture {
  games::UncertainGame ug;
  SuqrIntervalBounds bounds;
  Fixture(std::uint64_t seed, std::size_t t, double r, double width)
      : ug(make(seed, t, r, width)),
        bounds(SuqrWeightIntervals{}, ug.attacker_intervals) {}
  static games::UncertainGame make(std::uint64_t seed, std::size_t t,
                                   double r, double width) {
    Rng rng(seed);
    return games::random_uncertain_game(rng, t, r, width);
  }
  SolveContext ctx() const { return SolveContext{ug.game, bounds}; }
};

DefenderSolution solve_with(const Fixture& f, CubisOptions opt, bool reuse) {
  opt.reuse_rounds = reuse;
  return CubisSolver(opt).solve(f.ctx());
}

void expect_equivalent(const DefenderSolution& warm,
                       const DefenderSolution& cold, const std::string& tag,
                       double strategy_tol = 1e-9) {
  ASSERT_TRUE(warm.ok()) << tag;
  ASSERT_TRUE(cold.ok()) << tag;
  // Same verdict sequence => same bracket and step count.
  EXPECT_EQ(warm.binary_steps, cold.binary_steps) << tag;
  EXPECT_NEAR(warm.lb, cold.lb, 1e-9) << tag;
  EXPECT_NEAR(warm.ub, cold.ub, 1e-9) << tag;
  EXPECT_NEAR(warm.worst_case_utility, cold.worst_case_utility, 1e-9) << tag;
  ASSERT_EQ(warm.strategy.size(), cold.strategy.size()) << tag;
  for (std::size_t i = 0; i < warm.strategy.size(); ++i) {
    EXPECT_NEAR(warm.strategy[i], cold.strategy[i], strategy_tol)
        << tag << " target " << i;
  }
}

// ---- end-to-end differential: reuse on == reuse off ----------------------

TEST(WarmStartDifferential, DpBackendMatchesFreshPathOnFixtureGames) {
  struct Case {
    std::uint64_t seed;
    std::size_t targets;
    double resources;
    double width;
  };
  const Case cases[] = {
      {21, 4, 1.0, 0.8},  {22, 6, 2.0, 1.0},  {23, 8, 3.0, 1.5},
      {24, 10, 2.5, 0.5}, {25, 12, 4.0, 2.0},
  };
  for (const Case& c : cases) {
    Fixture f(c.seed, c.targets, c.resources, c.width);
    CubisOptions opt;
    opt.segments = 10;
    opt.epsilon = 1e-3;
    expect_equivalent(solve_with(f, opt, true), solve_with(f, opt, false),
                      "seed " + std::to_string(c.seed));
  }
}

TEST(WarmStartDifferential, MilpBackendMatchesFreshPath) {
  for (std::uint64_t seed : {31, 32, 33}) {
    Fixture f(seed, 4, 1.5, 1.0);
    CubisOptions opt;
    opt.backend = StepBackend::kMilp;
    opt.segments = 5;
    opt.epsilon = 5e-3;
    expect_equivalent(solve_with(f, opt, true), solve_with(f, opt, false),
                      "milp seed " + std::to_string(seed));
  }
}

TEST(WarmStartDifferential, MilpBackendWithoutDpSeedMatchesFreshPath) {
  // Without the DP incumbent the branch-and-bound search actually runs, so
  // this exercises the patched skeleton + root basis under real pivoting.
  for (std::uint64_t seed : {41, 42}) {
    Fixture f(seed, 4, 1.5, 1.2);
    CubisOptions opt;
    opt.backend = StepBackend::kMilp;
    opt.warm_start_from_dp = false;
    opt.segments = 4;
    opt.epsilon = 1e-2;
    expect_equivalent(solve_with(f, opt, true), solve_with(f, opt, false),
                      "milp-noseed seed " + std::to_string(seed));
  }
}

TEST(WarmStartDifferential, MultisectionLanesMatchFreshPath) {
  Fixture f(51, 6, 2.0, 1.0);
  CubisOptions opt;
  opt.segments = 10;
  opt.epsilon = 1e-3;
  opt.parallel_sections = 3;  // one reuse slot per lane
  expect_equivalent(solve_with(f, opt, true), solve_with(f, opt, false),
                    "multisection");
}

TEST(WarmStartDifferential, PolishAndTopUpComposeWithReuse) {
  Fixture f(52, 6, 2.0, 1.0);
  CubisOptions opt;
  opt.segments = 10;
  opt.epsilon = 1e-3;
  opt.polish_iterations = 10;
  expect_equivalent(solve_with(f, opt, true), solve_with(f, opt, false),
                    "polish");
}

TEST(WarmStartDifferential, GroupedBudgetsWarmMatchesFreshBitwise) {
  // The DP lanes serve grouped polytopes too: warm rounds must reproduce
  // the fresh per-group DPs bitwise, with no function built.  Interleaved
  // groups exercise the kernel's gathered (non-contiguous) rows.
  Fixture f(53, 6, 2.0, 1.0);
  CubisOptions opt;
  opt.segments = 10;
  opt.epsilon = 1e-3;
  const games::CoverageSpace grouped =
      games::CoverageSpace::grouped({0, 0, 0, 1, 1, 1}, {1.0, 1.0});
  SolveContext ctx = f.ctx();
  ctx.space = &grouped;
  testing::expect_warm_matches_fresh_bitwise(ctx, opt, "grouped");
  const games::CoverageSpace interleaved =
      games::CoverageSpace::grouped({0, 1, 0, 1, 1, 0}, {1.0, 1.0});
  ctx.space = &interleaved;
  testing::expect_warm_matches_fresh_bitwise(ctx, opt, "interleaved");
}

// ---- step-level differential: bitwise on the DP backend ------------------

TEST(WarmStartDifferential, CachedStepIsBitwiseIdenticalOnDpBackend) {
  Fixture f(61, 8, 3.0, 1.5);
  const SolveContext ctx = f.ctx();
  CubisOptions opt;
  opt.segments = 10;
  const StepTables tables = build_step_tables(ctx, opt.segments);
  RoundReuse reuse(tables, /*milp_backend=*/false);
  // Sweep c across the payoff range, reusing one slot across rounds the
  // way the solver does.
  const double lo = f.ug.game.min_defender_penalty();
  const double hi = f.ug.game.max_defender_reward();
  for (int s = 0; s <= 20; ++s) {
    const double c = lo + (hi - lo) * s / 20.0;
    const StepResult fresh = cubis_step(ctx, c, opt, &tables);
    const StepResult cached = cubis_step(ctx, c, opt, &tables, &reuse);
    ASSERT_EQ(cached.status, fresh.status) << "c=" << c;
    // The flat DP evaluates the same candidate sums from the same doubles:
    // bit-for-bit equality, not just tolerance.
    EXPECT_EQ(cached.objective, fresh.objective) << "c=" << c;
    ASSERT_EQ(cached.x.size(), fresh.x.size());
    for (std::size_t i = 0; i < fresh.x.size(); ++i) {
      EXPECT_EQ(cached.x[i], fresh.x[i]) << "c=" << c << " target " << i;
    }
  }
}

TEST(WarmStartDifferential, ReuseSegmentMismatchIsRejected) {
  Fixture f(62, 4, 1.0, 1.0);
  const SolveContext ctx = f.ctx();
  CubisOptions opt;
  opt.segments = 10;
  const StepTables tables = build_step_tables(ctx, opt.segments);
  RoundReuse reuse(tables, false);
  opt.segments = 5;
  const StepTables tables5 = build_step_tables(ctx, 5);
  EXPECT_THROW(cubis_step(ctx, 0.0, opt, &tables5, &reuse),
               InvalidModelError);
}

// ---- LP warm-vs-cold equivalence on seeded random models -----------------

TEST(WarmStartLp, WarmStartFromPriorBasisMatchesColdSolve) {
  // 200 random LPs: solve cold, perturb the objective and RHS (the same
  // kind of patch the MILP skeleton applies between rounds), then solve
  // the patched model cold and warm (from the pre-perturbation basis).
  // Optimal objectives must agree to LP tolerance.
  Rng rng(404);
  int solved = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 6));
    const int rows = static_cast<int>(rng.uniform_int(1, 5));
    lp::Model m;
    m.set_objective_sense(rng.uniform() < 0.5 ? lp::Objective::kMinimize
                                              : lp::Objective::kMaximize);
    // Feasible by construction: every row's RHS gives slack to a random
    // interior point x0 (box bounds keep the LP bounded too), so the warm
    // path is exercised on ~all 200 draws instead of the lucky ones.
    std::vector<double> x0(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      const double lo = rng.uniform(-3.0, 0.0);
      const double hi = lo + rng.uniform(0.5, 5.0);
      m.add_col("x" + std::to_string(j), lo, hi, rng.uniform(-2.0, 2.0));
      x0[static_cast<std::size_t>(j)] = rng.uniform(lo, hi);
    }
    std::vector<lp::Sense> senses;
    for (int r = 0; r < rows; ++r) {
      const lp::Sense sense =
          rng.uniform() < 0.7 ? lp::Sense::kLe : lp::Sense::kGe;
      senses.push_back(sense);
      const int row = m.add_row("r" + std::to_string(r), sense, 0.0);
      double ax0 = 0.0;
      for (int j = 0; j < n; ++j) {
        if (rng.uniform() < 0.8) {
          const double a = rng.uniform(-2.0, 2.0);
          m.set_coeff(row, j, a);
          ax0 += a * x0[static_cast<std::size_t>(j)];
        }
      }
      const double slack = rng.uniform(0.0, 2.0);
      m.set_row_rhs(row, sense == lp::Sense::kLe ? ax0 + slack
                                                 : ax0 - slack);
    }
    const lp::LpSolution base = lp::solve_lp(m);
    ASSERT_TRUE(base.optimal()) << "trial " << trial;

    // Patch: new objective coefficients and RHS, same constraint shape
    // (RHS stays feasible for x0, mirroring the MILP skeleton's patches).
    for (int j = 0; j < n; ++j) {
      m.set_col_objective(j, rng.uniform(-2.0, 2.0));
    }
    for (int r = 0; r < rows; ++r) {
      double ax0 = 0.0;
      for (const lp::RowEntry& e : m.row_entries(r)) {
        ax0 += e.value * x0[static_cast<std::size_t>(e.col)];
      }
      const double slack = rng.uniform(0.0, 2.0);
      m.set_row_rhs(r, senses[static_cast<std::size_t>(r)] == lp::Sense::kLe
                           ? ax0 + slack
                           : ax0 - slack);
    }
    const lp::LpSolution cold = lp::solve_lp(m);
    lp::SimplexOptions wopt;
    wopt.warm_positions = &base.positions;
    const lp::LpSolution warm = lp::solve_lp(m, wopt);
    ASSERT_EQ(warm.status, cold.status) << "trial " << trial;
    if (cold.optimal()) {
      EXPECT_NEAR(warm.objective, cold.objective, 1e-7) << "trial " << trial;
      EXPECT_LE(m.max_violation(warm.x), 1e-7) << "trial " << trial;
      ++solved;
    }
  }
  // The generator must actually exercise the warm path, not skip its way
  // through the loop.
  EXPECT_GE(solved, 100);
}

// ---- fault injection: forced warm-start rejection ------------------------

TEST(WarmStartFault, RejectedBasisFallsBackToColdStartSafely) {
  if (!faultinject::compiled_in()) GTEST_SKIP() << "fault hooks compiled out";
  lp::Model m;
  m.set_objective_sense(lp::Objective::kMaximize);
  m.add_col("x", 0.0, 2.0, 1.0);
  m.add_col("y", 0.0, 2.0, 1.0);
  const int r = m.add_row("cap", lp::Sense::kLe, 3.0);
  m.set_coeff(r, 0, 1.0);
  m.set_coeff(r, 1, 1.0);
  const lp::LpSolution base = lp::solve_lp(m);
  ASSERT_TRUE(base.optimal());

  faultinject::arm(faultinject::Site::kWarmStartReject, 1);
  lp::SimplexOptions wopt;
  wopt.warm_positions = &base.positions;
  const lp::LpSolution rejected = lp::solve_lp(m, wopt);
  faultinject::disarm_all();
  EXPECT_EQ(faultinject::fire_count(faultinject::Site::kWarmStartReject), 1);
  ASSERT_TRUE(rejected.optimal());
  EXPECT_NEAR(rejected.objective, base.objective, 1e-9);
}

TEST(WarmStartFault, SolveSurvivesWarmRejectMidSearch) {
  if (!faultinject::compiled_in()) GTEST_SKIP() << "fault hooks compiled out";
  Fixture f(71, 4, 1.5, 1.0);
  CubisOptions opt;
  opt.backend = StepBackend::kMilp;
  opt.warm_start_from_dp = false;
  opt.segments = 4;
  opt.epsilon = 1e-2;
  const DefenderSolution cold = solve_with(f, opt, false);
  // Reject every hinted basis: the reuse path must degrade to per-round
  // cold starts and still land on the oracle's answer.
  faultinject::arm(faultinject::Site::kWarmStartReject, -1);
  const DefenderSolution warm = solve_with(f, opt, true);
  faultinject::disarm_all();
  expect_equivalent(warm, cold, "fault-reject");
}

// ---- telemetry: the caches actually engage -------------------------------

TEST(WarmStartTelemetry, ReuseSkipsPerRoundFunctionBuilds) {
  Fixture f(81, 8, 3.0, 1.5);
  CubisOptions opt;
  opt.segments = 10;
  opt.epsilon = 1e-3;
  const DefenderSolution warm = solve_with(f, opt, true);
  const DefenderSolution cold = solve_with(f, opt, false);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(cold.ok());
  const auto warm_built = warm.telemetry.counter("piecewise.functions_built");
  const auto cold_built = cold.telemetry.counter("piecewise.functions_built");
  // Cold: 3 functions per target per round.  Warm DP: none at all (flat
  // axpy tables only); the acceptance gate is >= 10x, met with margin.
  EXPECT_GE(cold_built, 3 * 8);
  EXPECT_LE(warm_built * 10, cold_built);
  EXPECT_GT(warm.telemetry.counter("piecewise.cache_hits_total"), 0);
  EXPECT_EQ(cold.telemetry.counter("piecewise.cache_hits_total"), 0);
}

TEST(WarmStartTelemetry, MilpReusePatchesAndWarmStarts) {
  Fixture f(82, 4, 1.5, 1.0);
  CubisOptions opt;
  opt.backend = StepBackend::kMilp;
  opt.warm_start_from_dp = false;
  opt.segments = 4;
  opt.epsilon = 1e-2;
  const DefenderSolution warm = solve_with(f, opt, true);
  ASSERT_TRUE(warm.ok());
  ASSERT_GT(warm.binary_steps, 1);
  // Every round after the first patches instead of rebuilding...
  EXPECT_EQ(warm.telemetry.counter("milp.model_patches_total"),
            warm.binary_steps - 1);
  // ...and at least one root relaxation adopted the carried basis.
  EXPECT_GT(warm.telemetry.counter("simplex.warm_starts_total"), 0);
  const DefenderSolution cold = solve_with(f, opt, false);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.telemetry.counter("milp.model_patches_total"), 0);
}

}  // namespace
}  // namespace cubisg::core
