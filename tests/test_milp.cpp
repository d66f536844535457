// Unit and property tests for the branch-and-bound MILP solver.
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "lp/model.hpp"
#include "milp/branch_and_bound.hpp"
#include "obs/metrics.hpp"
#include "brute_force.hpp"

namespace cubisg::milp {
namespace {

using lp::kInf;
using lp::Model;
using lp::Objective;
using lp::Sense;
using cubisg::testing::brute_force_milp;

TEST(Milp, KnapsackSmall) {
  // max 8a + 11b + 6c + 4d st 5a + 7b + 4c + 3d <= 14, binary.
  // Optimum: a=0,b=1,c=1,d=1 -> 21.
  Model m;
  m.set_objective_sense(Objective::kMaximize);
  const double value[] = {8, 11, 6, 4};
  const double weight[] = {5, 7, 4, 3};
  int r = m.add_row("cap", Sense::kLe, 14.0);
  for (int j = 0; j < 4; ++j) {
    int col = m.add_col("b" + std::to_string(j), 0.0, 1.0, value[j]);
    m.set_integer(col);
    m.set_coeff(r, col, weight[j]);
  }
  MilpSolution s = solve_milp(m);
  ASSERT_TRUE(s.optimal()) << to_string(s.status);
  EXPECT_NEAR(s.objective, 21.0, 1e-8);
  EXPECT_NEAR(s.x[0], 0.0, 1e-6);
  EXPECT_NEAR(s.x[1], 1.0, 1e-6);
  EXPECT_NEAR(s.x[2], 1.0, 1e-6);
  EXPECT_NEAR(s.x[3], 1.0, 1e-6);
}

TEST(Milp, MixedIntegerContinuous) {
  // max x + 10y st x + 5y <= 10, x in [0, 8] continuous, y binary.
  // y=1 -> x <= 5 -> obj 15; y=0 -> x=8 -> 8.  Optimum 15.
  Model m;
  m.set_objective_sense(Objective::kMaximize);
  const int x = m.add_col("x", 0.0, 8.0, 1.0);
  const int y = m.add_col("y", 0.0, 1.0, 10.0);
  m.set_integer(y);
  int r = m.add_row("r", Sense::kLe, 10.0);
  m.set_coeff(r, x, 1.0);
  m.set_coeff(r, y, 5.0);
  MilpSolution s = solve_milp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 15.0, 1e-8);
  EXPECT_NEAR(s.x[y], 1.0, 1e-6);
  EXPECT_NEAR(s.x[x], 5.0, 1e-6);
}

TEST(Milp, GeneralIntegerVariables) {
  // max 3x + 2y, x,y integer in [0,5], 2x + y <= 7.
  // Candidates: x=3,y=1 -> 11; x=2,y=3 -> 12; x=1,y=5 -> 13. Optimum 13.
  Model m;
  m.set_objective_sense(Objective::kMaximize);
  const int x = m.add_col("x", 0.0, 5.0, 3.0);
  const int y = m.add_col("y", 0.0, 5.0, 2.0);
  m.set_integer(x);
  m.set_integer(y);
  int r = m.add_row("r", Sense::kLe, 7.0);
  m.set_coeff(r, x, 2.0);
  m.set_coeff(r, y, 1.0);
  MilpSolution s = solve_milp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 13.0, 1e-8);
}

TEST(Milp, InfeasibleInteger) {
  // x binary, 0.4 <= x <= 0.6 after row restrictions: no integer point.
  Model m;
  const int x = m.add_col("x", 0.0, 1.0, 1.0);
  m.set_integer(x);
  (void)x;
  int r0 = m.add_row("ge", Sense::kGe, 0.4);
  m.set_coeff(r0, x, 1.0);
  int r1 = m.add_row("le", Sense::kLe, 0.6);
  m.set_coeff(r1, x, 1.0);
  MilpSolution s = solve_milp(m);
  EXPECT_EQ(s.status, SolverStatus::kInfeasible);
  EXPECT_FALSE(s.has_solution());
}

TEST(Milp, PureLpPassthrough) {
  Model m;
  m.set_objective_sense(Objective::kMaximize);
  const int x = m.add_col("x", 0.0, 2.5, 1.0);
  (void)x;
  MilpSolution s = solve_milp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 2.5, 1e-9);
  EXPECT_EQ(s.nodes, 1);
}

TEST(Milp, SignQueryPositive) {
  // max of knapsack is 21; ask "is optimum >= 5?" -> early positive with a
  // witness solution.
  Model m;
  m.set_objective_sense(Objective::kMaximize);
  int r = m.add_row("cap", Sense::kLe, 14.0);
  const double value[] = {8, 11, 6, 4};
  const double weight[] = {5, 7, 4, 3};
  for (int j = 0; j < 4; ++j) {
    int col = m.add_col("b" + std::to_string(j), 0.0, 1.0, value[j]);
    m.set_integer(col);
    m.set_coeff(r, col, weight[j]);
  }
  MilpOptions opt;
  opt.sign_threshold = 5.0;
  MilpSolution s = solve_milp(m, opt);
  EXPECT_EQ(s.status, SolverStatus::kEarlyPositive);
  ASSERT_TRUE(s.has_solution());
  EXPECT_GE(m.objective_value(s.x), 5.0 - 1e-9);
  EXPECT_LE(m.max_violation(s.x), 1e-7);
}

TEST(Milp, SignQueryNegative) {
  Model m;
  m.set_objective_sense(Objective::kMaximize);
  int r = m.add_row("cap", Sense::kLe, 14.0);
  const double value[] = {8, 11, 6, 4};
  const double weight[] = {5, 7, 4, 3};
  for (int j = 0; j < 4; ++j) {
    int col = m.add_col("b" + std::to_string(j), 0.0, 1.0, value[j]);
    m.set_integer(col);
    m.set_coeff(r, col, weight[j]);
  }
  MilpOptions opt;
  opt.sign_threshold = 1000.0;  // unreachable
  MilpSolution s = solve_milp(m, opt);
  EXPECT_EQ(s.status, SolverStatus::kEarlyNegative);
}

TEST(Milp, WarmStartSeedsIncumbent) {
  Model m;
  m.set_objective_sense(Objective::kMaximize);
  int r = m.add_row("cap", Sense::kLe, 14.0);
  const double value[] = {8, 11, 6, 4};
  const double weight[] = {5, 7, 4, 3};
  for (int j = 0; j < 4; ++j) {
    int col = m.add_col("b" + std::to_string(j), 0.0, 1.0, value[j]);
    m.set_integer(col);
    m.set_coeff(r, col, weight[j]);
  }
  MilpOptions opt;
  opt.warm_start = std::vector<double>{0.0, 1.0, 1.0, 1.0};  // the optimum
  opt.sign_threshold = 21.0;
  MilpSolution s = solve_milp(m, opt);
  // The warm start already certifies >= 21: zero nodes required.
  EXPECT_EQ(s.status, SolverStatus::kEarlyPositive);
  EXPECT_EQ(s.nodes, 0);
}

TEST(Milp, NodeLimitReported) {
  // A knapsack sized so the proof takes more than one node.
  Rng rng(99);
  Model m;
  m.set_objective_sense(Objective::kMaximize);
  int r = m.add_row("cap", Sense::kLe, 25.0);
  for (int j = 0; j < 16; ++j) {
    int col = m.add_col("b" + std::to_string(j), 0.0, 1.0,
                        rng.uniform(1.0, 10.0));
    m.set_integer(col);
    m.set_coeff(r, col, rng.uniform(1.0, 10.0));
  }
  MilpOptions opt;
  opt.max_nodes = 2;
  MilpSolution s = solve_milp(m, opt);
  EXPECT_EQ(s.status, SolverStatus::kIterLimit);
  // The bound must still be a valid upper bound on any feasible solution.
  EXPECT_GE(s.best_bound, s.has_solution() ? s.objective : 0.0);
}

// ---- cross-solve root basis (MilpOptions::root_warm) ---------------------

Model knapsack4() {
  Model m;
  m.set_objective_sense(Objective::kMaximize);
  int r = m.add_row("cap", Sense::kLe, 14.0);
  const double value[] = {8, 11, 6, 4};
  const double weight[] = {5, 7, 4, 3};
  for (int j = 0; j < 4; ++j) {
    int col = m.add_col("b" + std::to_string(j), 0.0, 1.0, value[j]);
    m.set_integer(col);
    m.set_coeff(r, col, weight[j]);
  }
  return m;
}

/// Simplex solves that started from a warm basis hint, process-wide.
std::int64_t simplex_warm_starts() {
  return obs::Registry::global().counter("simplex.warm_starts_total").value();
}

void expect_bitwise_equal(const MilpSolution& a, const MilpSolution& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.x, b.x);
}

TEST(MilpRootWarm, FirstSolveWritesRootBasisBack) {
  const Model m = knapsack4();
  lp::WarmStart handle;
  MilpOptions opt;
  opt.root_warm = &handle;
  MilpSolution s = solve_milp(m, opt);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 21.0, 1e-8);
  EXPECT_EQ(handle.positions.size(),
            static_cast<std::size_t>(m.num_cols() + m.num_rows()));
}

TEST(MilpRootWarm, ResolveFromHandleIsBitwiseIdentical) {
  const Model m = knapsack4();
  lp::WarmStart handle;
  MilpOptions opt;
  opt.root_warm = &handle;
  const MilpSolution first = solve_milp(m, opt);
  ASSERT_FALSE(handle.empty());
  const std::int64_t warm_before = simplex_warm_starts();
  const MilpSolution again = solve_milp(m, opt);
  // Only the root LP takes a warm hint (deeper nodes are presolved).
  EXPECT_EQ(simplex_warm_starts() - warm_before, 1);
  expect_bitwise_equal(again, first);
}

TEST(MilpRootWarm, WrongLengthHandleIsIgnored) {
  const Model m = knapsack4();
  const MilpSolution cold = solve_milp(m);
  lp::WarmStart handle;
  MilpOptions opt;
  opt.root_warm = &handle;
  solve_milp(m, opt);
  handle.positions.pop_back();
  const std::int64_t warm_before = simplex_warm_starts();
  const MilpSolution s = solve_milp(m, opt);
  EXPECT_EQ(simplex_warm_starts() - warm_before, 0);
  expect_bitwise_equal(s, cold);
  // The handle is rewritten with the new root basis.
  EXPECT_EQ(handle.positions.size(),
            static_cast<std::size_t>(m.num_cols() + m.num_rows()));
}

// ---- randomized cross-check against exhaustive enumeration ---------------

struct RandomMilpCase {
  std::uint64_t seed;
};

class MilpRandomTest : public ::testing::TestWithParam<RandomMilpCase> {};

TEST_P(MilpRandomTest, MatchesExhaustive) {
  Rng rng(GetParam().seed ^ 0xBEEF);
  for (int trial = 0; trial < 25; ++trial) {
    const int n_bin = static_cast<int>(rng.uniform_int(1, 5));
    const int n_cont = static_cast<int>(rng.uniform_int(0, 2));
    const int rows = static_cast<int>(rng.uniform_int(1, 3));
    Model m;
    m.set_objective_sense(rng.uniform() < 0.5 ? Objective::kMinimize
                                              : Objective::kMaximize);
    for (int j = 0; j < n_bin; ++j) {
      int col = m.add_col("b" + std::to_string(j), 0.0, 1.0,
                          rng.uniform(-3.0, 3.0));
      m.set_integer(col);
    }
    for (int j = 0; j < n_cont; ++j) {
      const double lo = rng.uniform(-2.0, 0.0);
      m.add_col("x" + std::to_string(j), lo, lo + rng.uniform(0.5, 4.0),
                rng.uniform(-3.0, 3.0));
    }
    for (int r = 0; r < rows; ++r) {
      const double pick = rng.uniform();
      const Sense sense = pick < 0.45   ? Sense::kLe
                          : pick < 0.9 ? Sense::kGe
                                       : Sense::kEq;
      int row = m.add_row("r" + std::to_string(r), sense,
                          rng.uniform(-3.0, 3.0));
      for (int j = 0; j < m.num_cols(); ++j) {
        if (rng.uniform() < 0.8) {
          m.set_coeff(row, j, rng.uniform(-2.0, 2.0));
        }
      }
    }

    MilpSolution s = solve_milp(m);
    std::optional<double> ref = brute_force_milp(m);
    if (!ref) {
      EXPECT_EQ(s.status, SolverStatus::kInfeasible) << "trial " << trial;
      continue;
    }
    ASSERT_TRUE(s.optimal())
        << "trial " << trial << ": " << to_string(s.status);
    EXPECT_NEAR(s.objective, *ref, 1e-6) << "trial " << trial;
    EXPECT_LE(m.max_violation(s.x), 1e-7);
    for (int j = 0; j < m.num_cols(); ++j) {
      if (m.col_is_integer(j)) {
        EXPECT_NEAR(s.x[j], std::round(s.x[j]), 1e-6);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MilpRandomTest,
    ::testing::Values(RandomMilpCase{11}, RandomMilpCase{12},
                      RandomMilpCase{13}, RandomMilpCase{14},
                      RandomMilpCase{15}, RandomMilpCase{16}),
    [](const ::testing::TestParamInfo<RandomMilpCase>& pinfo) {
      return "seed" + std::to_string(pinfo.param.seed);
    });

}  // namespace
}  // namespace cubisg::milp
