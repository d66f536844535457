// Tests for the piecewise-linear approximation machinery (Section IV.C)
// and the separable step solver.
#include <cmath>
#include <limits>
#include <functional>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/hfunction.hpp"
#include "core/piecewise.hpp"
#include "core/step_solver.hpp"
#include "reference_dp.hpp"

namespace cubisg::core {
namespace {

using testing::solve_step_dp;

TEST(Piecewise, ExactAtBreakpoints) {
  auto f = [](double x) { return std::exp(-2.0 * x); };
  PiecewiseLinear pl(f, 4);
  for (std::size_t k = 0; k <= 4; ++k) {
    const double x = k / 4.0;
    EXPECT_DOUBLE_EQ(pl.value_at_breakpoint(k), f(x));
    EXPECT_NEAR(pl.evaluate(x), f(x), 1e-12);
  }
}

TEST(Piecewise, SlopesMatchPaperFormula) {
  auto f = [](double x) { return x * x; };
  const std::size_t k_count = 5;
  PiecewiseLinear pl(f, k_count);
  for (std::size_t k = 0; k < k_count; ++k) {
    const double lo = static_cast<double>(k) / k_count;
    const double hi = static_cast<double>(k + 1) / k_count;
    // s_k = K * (f(k+1/K) - f(k/K))
    EXPECT_NEAR(pl.slope(k), k_count * (f(hi) - f(lo)), 1e-12);
  }
  EXPECT_THROW(pl.slope(5), std::out_of_range);
}

TEST(Piecewise, LinearFunctionIsReproducedExactly) {
  auto f = [](double x) { return 3.0 * x - 1.0; };
  PiecewiseLinear pl(f, 3);
  for (double x = 0.0; x <= 1.0; x += 0.05) {
    EXPECT_NEAR(pl.evaluate(x), f(x), 1e-12);
  }
}

TEST(Piecewise, ClampsOutOfRange) {
  auto f = [](double x) { return x; };
  PiecewiseLinear pl(f, 2);
  EXPECT_NEAR(pl.evaluate(-0.5), 0.0, 1e-12);
  EXPECT_NEAR(pl.evaluate(1.5), 1.0, 1e-12);
}

TEST(Piecewise, RejectsZeroSegments) {
  EXPECT_THROW(PiecewiseLinear([](double x) { return x; }, 0),
               std::invalid_argument);
}

TEST(Piecewise, Example1FromPaper) {
  // K=5, x=0.3: x_1 = 1/5, x_2 = 0.1, x_3 = x_4 = x_5 = 0.
  auto portions = segment_portions(0.3, 5);
  ASSERT_EQ(portions.size(), 5u);
  EXPECT_NEAR(portions[0], 0.2, 1e-12);
  EXPECT_NEAR(portions[1], 0.1, 1e-12);
  EXPECT_NEAR(portions[2], 0.0, 1e-12);
  EXPECT_NEAR(portions[3], 0.0, 1e-12);
  EXPECT_NEAR(portions[4], 0.0, 1e-12);
  EXPECT_NEAR(from_segment_portions(portions), 0.3, 1e-12);
}

TEST(Piecewise, SegmentPortionsRoundTrip) {
  Rng rng(55);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t k = 1 + static_cast<std::size_t>(rng.uniform_int(0, 19));
    const double x = rng.uniform(0.0, 1.0);
    auto portions = segment_portions(x, k);
    EXPECT_NEAR(from_segment_portions(portions), x, 1e-12);
    // Ordered filling: once a portion is partial, the rest must be zero.
    bool partial_seen = false;
    for (double p : portions) {
      if (partial_seen) {
        EXPECT_DOUBLE_EQ(p, 0.0);
      }
      if (p < 1.0 / static_cast<double>(k) - 1e-12) partial_seen = true;
    }
  }
}

TEST(Piecewise, SegmentPortionsRoundTripIsExact) {
  // The residual-segment construction pins from_segment_portions to
  // clamp(x) bit-for-bit, not just within tolerance: whole segments are
  // filled while fl(acc + seg) <= x, and the partial segment receives the
  // exact remainder x - acc (Sterbenz: the subtraction is exact).
  Rng rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t k = 1 + static_cast<std::size_t>(rng.uniform_int(0, 49));
    double x = rng.uniform(-0.2, 1.2);
    // Bias some draws onto and next to the grid, where rounding is hardest.
    if (trial % 3 == 0) {
      x = static_cast<double>(rng.uniform_int(0, static_cast<int>(k))) /
          static_cast<double>(k);
      if (trial % 6 == 0) x = std::nextafter(x, trial % 12 == 0 ? 2.0 : -1.0);
    }
    const double xc = std::min(1.0, std::max(0.0, x));
    auto portions = segment_portions(x, k);
    EXPECT_EQ(from_segment_portions(portions), xc)
        << "k=" << k << " x=" << x;
    // Every portion stays within [0, 1/K] up to the prefix-sum drift: the
    // residual is exact w.r.t. the ROUNDED running sum, which can sit a
    // few ulps (of magnitude ~1) below the real one — K additions drift at
    // most K/2 ulps.
    const double drift = static_cast<double>(k) *
                         std::numeric_limits<double>::epsilon();
    for (double p : portions) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0 / static_cast<double>(k) + drift);
    }
  }
}

TEST(Piecewise, RebuildAxpyMatchesDirectSamplingExactly) {
  // The RoundCache invariant: rebuild_axpy(L*Ud, L, c) must reproduce the
  // functor path f1_of(L, Ud, c) at every breakpoint bit-for-bit (both
  // compute L*Ud - c*L in the same order), and likewise for f2.  Exact
  // equality, not EXPECT_NEAR — the differential harness depends on it.
  Rng rng(88);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t k = 2 + static_cast<std::size_t>(rng.uniform_int(0, 18));
    std::vector<double> lo(k + 1), up(k + 1), ud(k + 1);
    std::vector<double> lud(k + 1), uud(k + 1);
    for (std::size_t j = 0; j <= k; ++j) {
      lo[j] = rng.uniform(0.0, 5.0);
      up[j] = lo[j] + rng.uniform(0.0, 3.0);
      ud[j] = rng.uniform(-10.0, 10.0);
      lud[j] = lo[j] * ud[j];
      uud[j] = up[j] * ud[j];
    }
    PiecewiseLinear f1(std::vector<double>(k + 1, 0.0));
    PiecewiseLinear f2(std::vector<double>(k + 1, 0.0));
    for (const double c : {-7.3, -1.0, 0.0, 0.5, 4.25, 11.0}) {
      f1.rebuild_axpy(lud, lo, c);
      f2.rebuild_axpy(uud, up, c);
      for (std::size_t j = 0; j <= k; ++j) {
        EXPECT_EQ(f1.value_at_breakpoint(j), f1_of(lo[j], ud[j], c))
            << "trial " << trial << " j=" << j << " c=" << c;
        EXPECT_EQ(f2.value_at_breakpoint(j), f2_of(up[j], ud[j], c))
            << "trial " << trial << " j=" << j << " c=" << c;
      }
    }
  }
}

TEST(Piecewise, RebuildMinOfIsPointwiseMin) {
  Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t k = 2 + static_cast<std::size_t>(rng.uniform_int(0, 10));
    std::vector<double> a(k + 1), b(k + 1);
    for (std::size_t j = 0; j <= k; ++j) {
      a[j] = rng.uniform(-5.0, 5.0);
      b[j] = rng.uniform(-5.0, 5.0);
    }
    const PiecewiseLinear fa{std::vector<double>(a)};
    const PiecewiseLinear fb{std::vector<double>(b)};
    PiecewiseLinear phi(std::vector<double>(k + 1, 0.0));
    phi.rebuild_min_of(fa, fb);
    for (std::size_t j = 0; j <= k; ++j) {
      EXPECT_EQ(phi.value_at_breakpoint(j), std::min(a[j], b[j]));
    }
  }
}

TEST(Piecewise, RebuildFromValuesMatchesValuesConstructor) {
  const std::vector<double> vals{1.0, -2.5, 0.25, 7.0};
  const PiecewiseLinear fresh{std::vector<double>(vals)};
  PiecewiseLinear rebuilt(std::vector<double>(4, 0.0));
  rebuilt.rebuild_from_values(vals);
  ASSERT_EQ(rebuilt.segments(), fresh.segments());
  for (std::size_t j = 0; j <= 3; ++j) {
    EXPECT_EQ(rebuilt.value_at_breakpoint(j), fresh.value_at_breakpoint(j));
    if (j < 3) {
      EXPECT_EQ(rebuilt.slope(j), fresh.slope(j));
    }
  }
  // Size mismatches are rejected rather than silently resized.
  EXPECT_THROW(rebuilt.rebuild_from_values(std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(PiecewiseLinear(std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(Piecewise, ApproximationErrorDecaysAsOneOverK) {
  // Lemma 1: error O(1/K) for differentiable functions.  For exp(-2x) the
  // chord error ~ max|f''|/(8K^2); we verify at least 1/K decay.
  auto f = [](double x) { return std::exp(-2.0 * x) * (3.0 * x - 1.0); };
  double prev_err = 1e9;
  for (std::size_t k : {2u, 4u, 8u, 16u, 32u}) {
    PiecewiseLinear pl(f, k);
    const double err = max_approximation_error(f, pl);
    EXPECT_LT(err, prev_err * 0.6);  // at least geometric decay
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-2);
}

// ---- step solver ----------------------------------------------------------

TEST(StepSolver, SingleTargetPicksBestBreakpoint) {
  // phi has an interior maximum at a breakpoint.
  auto phi = [](double x) { return -(x - 0.4) * (x - 0.4); };
  std::vector<PiecewiseLinear> fs{PiecewiseLinear(phi, 5)};
  StepResult r = solve_step_dp(fs, 1.0);
  EXPECT_EQ(r.status, SolverStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 0.4, 1e-12);
  EXPECT_NEAR(r.objective, 0.0, 1e-12);
}

TEST(StepSolver, RespectsBudget) {
  // Both targets want full coverage but the budget only allows one unit.
  auto up = [](double x) { return x; };
  std::vector<PiecewiseLinear> fs{PiecewiseLinear(up, 4),
                                  PiecewiseLinear(up, 4)};
  StepResult r = solve_step_dp(fs, 1.0);
  EXPECT_NEAR(r.x[0] + r.x[1], 1.0, 1e-12);
  EXPECT_NEAR(r.objective, 1.0, 1e-12);
}

TEST(StepSolver, PrefersSteeperTarget) {
  auto steep = [](double x) { return 5.0 * x; };
  auto flat = [](double x) { return 1.0 * x; };
  std::vector<PiecewiseLinear> fs{PiecewiseLinear(flat, 4),
                                  PiecewiseLinear(steep, 4)};
  StepResult r = solve_step_dp(fs, 1.0);
  EXPECT_NEAR(r.x[1], 1.0, 1e-12);
  EXPECT_NEAR(r.x[0], 0.0, 1e-12);
}

TEST(StepSolver, LeavesBudgetUnusedWhenHarmful) {
  // Coverage strictly hurts: optimum is x = 0 despite budget 2.
  auto down = [](double x) { return -x; };
  std::vector<PiecewiseLinear> fs{PiecewiseLinear(down, 4),
                                  PiecewiseLinear(down, 4),
                                  PiecewiseLinear(down, 4)};
  StepResult r = solve_step_dp(fs, 2.0);
  EXPECT_NEAR(r.objective, 0.0, 1e-12);
  for (double xi : r.x) EXPECT_NEAR(xi, 0.0, 1e-12);
}

TEST(StepSolver, MatchesExhaustiveGridSearch) {
  Rng rng(66);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t t_count = 2 + static_cast<std::size_t>(
        rng.uniform_int(0, 1));
    const std::size_t k_count = 3 + static_cast<std::size_t>(
        rng.uniform_int(0, 2));
    const double resources = 1.0;
    // Random piecewise values (non-concave in general).
    std::vector<std::vector<double>> vals(t_count);
    for (auto& v : vals) {
      v.resize(k_count + 1);
      for (auto& x : v) x = rng.uniform(-3.0, 3.0);
    }
    std::vector<PiecewiseLinear> fs;
    for (std::size_t i = 0; i < t_count; ++i) {
      fs.emplace_back(
          [&, i](double x) {
            return vals[i][static_cast<std::size_t>(
                std::llround(x * static_cast<double>(k_count)))];
          },
          k_count);
    }
    StepResult r = solve_step_dp(fs, resources);

    // Exhaustive: every grid assignment with total units <= R*K.
    const std::size_t units = static_cast<std::size_t>(
        std::llround(resources * static_cast<double>(k_count)));
    double best = -1e18;
    std::vector<std::size_t> take(t_count, 0);
    std::function<void(std::size_t, std::size_t, double)> rec =
        [&](std::size_t idx, std::size_t used, double acc) {
          if (idx == t_count) {
            best = std::max(best, acc);
            return;
          }
          for (std::size_t u = 0; u <= k_count && used + u <= units; ++u) {
            rec(idx + 1, used + u, acc + vals[idx][u]);
          }
        };
    rec(0, 0, 0.0);
    EXPECT_NEAR(r.objective, best, 1e-9) << "trial " << trial;
  }
}

TEST(StepSolver, FractionalBudgetFlooredConservatively) {
  // 0.5 * 3 = 1.5 units -> floored to 1 unit: the result stays feasible
  // (sum x <= 0.5) and under-approximates the true optimum by <= one
  // segment's worth.
  std::vector<PiecewiseLinear> fs{
      PiecewiseLinear([](double x) { return x; }, 3)};
  StepResult r = solve_step_dp(fs, 0.5);
  EXPECT_EQ(r.status, SolverStatus::kOptimal);
  EXPECT_LE(r.x[0], 0.5 + 1e-12);
  EXPECT_NEAR(r.x[0], 1.0 / 3.0, 1e-12);  // one grid unit
  EXPECT_LE(r.objective, 0.5);            // conservative vs true max 0.5
}

TEST(StepSolver, FlatDpMatchesReferenceDpBitwise) {
  // solve_step_dp_flat (the production kernel) promises bit-identical
  // objective AND coverage vector to the reference solve_step_dp,
  // including tie-breaks.
  Rng rng(111);
  DpScratch scratch;  // deliberately reused across trials, like the solver
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t t_count =
        1 + static_cast<std::size_t>(rng.uniform_int(0, 5));
    const std::size_t k_count =
        2 + static_cast<std::size_t>(rng.uniform_int(0, 5));
    // Mix integral and fractional budgets; duplicate values are common
    // with this coarse grid, so ties get exercised.
    const double resources =
        rng.uniform() < 0.5
            ? static_cast<double>(rng.uniform_int(
                  1, static_cast<int>(t_count)))
            : rng.uniform(0.3, static_cast<double>(t_count));
    std::vector<double> flat(t_count * (k_count + 1));
    for (double& v : flat) {
      v = rng.uniform() < 0.25 ? 0.0 : rng.uniform(-3.0, 3.0);
    }
    std::vector<PiecewiseLinear> fs;
    for (std::size_t i = 0; i < t_count; ++i) {
      fs.emplace_back(std::vector<double>(
          flat.begin() + static_cast<std::ptrdiff_t>(i * (k_count + 1)),
          flat.begin() + static_cast<std::ptrdiff_t>((i + 1) *
                                                     (k_count + 1))));
    }
    const StepResult ref = solve_step_dp(fs, resources);
    const StepResult got =
        solve_step_dp_flat(flat.data(), t_count, k_count, resources, scratch);
    ASSERT_EQ(got.status, ref.status) << "trial " << trial;
    EXPECT_EQ(got.objective, ref.objective) << "trial " << trial;
    ASSERT_EQ(got.x.size(), ref.x.size());
    for (std::size_t i = 0; i < t_count; ++i) {
      EXPECT_EQ(got.x[i], ref.x[i]) << "trial " << trial << " target " << i;
    }
  }
}

TEST(StepSolver, RejectsMismatchedSegments) {
  std::vector<PiecewiseLinear> fs{
      PiecewiseLinear([](double x) { return x; }, 3),
      PiecewiseLinear([](double x) { return x; }, 4)};
  EXPECT_THROW(solve_step_dp(fs, 1.0), InvalidModelError);
  EXPECT_THROW(solve_step_dp({}, 1.0), InvalidModelError);
}

}  // namespace
}  // namespace cubisg::core
