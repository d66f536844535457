// Experiment S1 — google-benchmark microbenchmarks of the substrates the
// CUBIS pipeline is built on: LU, simplex, branch-and-bound, the thread
// pool, the worst-case evaluator and the DP step solver.
#include <benchmark/benchmark.h>

#include <vector>

#include "behavior/bounds.hpp"
#include "common/rng.hpp"
#include "core/cubis.hpp"
#include "core/step_solver.hpp"
#include "core/worst_case.hpp"
#include "games/generators.hpp"
#include "games/strategy_space.hpp"
#include "linalg/lu.hpp"
#include "lp/model.hpp"
#include "lp/presolve.hpp"
#include "lp/simplex.hpp"
#include "milp/branch_and_bound.hpp"
#include "parallel/parallel_for.hpp"

namespace {

using namespace cubisg;

Matrix random_spd_like(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    a(r, r) += static_cast<double>(n);
  }
  return a;
}

void BM_LuFactorSolve(benchmark::State& state) {
  const std::size_t n = state.range(0);
  Matrix a = random_spd_like(n, 1);
  std::vector<double> b(n, 1.0);
  for (auto _ : state) {
    LuFactorization lu(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
}
BENCHMARK(BM_LuFactorSolve)->Arg(8)->Arg(32)->Arg(128);

lp::Model random_lp(int n, int rows, std::uint64_t seed) {
  Rng rng(seed);
  lp::Model m;
  m.set_objective_sense(lp::Objective::kMaximize);
  for (int j = 0; j < n; ++j) {
    m.add_col("x" + std::to_string(j), 0.0, 1.0, rng.uniform(0.0, 1.0));
  }
  for (int r = 0; r < rows; ++r) {
    int row = m.add_row("r" + std::to_string(r), lp::Sense::kLe,
                        rng.uniform(1.0, 3.0));
    for (int j = 0; j < n; ++j) {
      m.set_coeff(row, j, rng.uniform(0.0, 1.0));
    }
  }
  return m;
}

void BM_SimplexSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lp::Model m = random_lp(n, n / 2, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solve_lp(m));
  }
}
BENCHMARK(BM_SimplexSolve)->Arg(10)->Arg(40)->Arg(120);

void BM_MilpKnapsack(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  lp::Model m;
  m.set_objective_sense(lp::Objective::kMaximize);
  int row = m.add_row("cap", lp::Sense::kLe, n / 3.0);
  for (int j = 0; j < n; ++j) {
    int col = m.add_col("b" + std::to_string(j), 0.0, 1.0,
                        rng.uniform(0.5, 2.0));
    m.set_integer(col);
    m.set_coeff(row, col, rng.uniform(0.2, 1.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(milp::solve_milp(m));
  }
}
BENCHMARK(BM_MilpKnapsack)->Arg(8)->Arg(14)->Arg(20);

void BM_SimplexPresolved(benchmark::State& state) {
  // Same instances as BM_SimplexSolve with a quarter of columns fixed —
  // the branch-and-bound node shape presolve is built for.
  const int n = static_cast<int>(state.range(0));
  lp::Model m = random_lp(n, n / 2, 2);
  for (int j = 0; j < n; j += 4) m.set_col_bounds(j, 0.0, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solve_lp_presolved(m));
  }
}
BENCHMARK(BM_SimplexPresolved)->Arg(40)->Arg(120);

void BM_SimplexWarmStart(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lp::Model m = random_lp(n, n / 2, 5);
  lp::LpSolution cold = lp::solve_lp(m);
  lp::SimplexOptions opt;
  opt.warm_positions = &cold.positions;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solve_lp(m, opt));
  }
}
BENCHMARK(BM_SimplexWarmStart)->Arg(40)->Arg(120);

void BM_ThreadPoolDispatch(benchmark::State& state) {
  ThreadPool pool(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.submit([] { return 1; }).get());
  }
}
BENCHMARK(BM_ThreadPoolDispatch);

void BM_ParallelForSum(benchmark::State& state) {
  ThreadPool pool(2);
  std::vector<double> data(1 << 14, 1.5);
  for (auto _ : state) {
    std::atomic<double> sink{0.0};
    parallel_for(pool, 0, data.size(), [&](std::size_t i) {
      benchmark::DoNotOptimize(data[i] * 2.0);
    }, 1024);
  }
}
BENCHMARK(BM_ParallelForSum);

struct WorstCaseFixture {
  games::UncertainGame ug;
  behavior::SuqrIntervalBounds bounds;
  std::vector<double> x;
  explicit WorstCaseFixture(std::size_t t)
      : ug(make_game(t)),
        bounds(behavior::SuqrWeightIntervals{}, ug.attacker_intervals),
        x(games::uniform_strategy(t, 0.3 * static_cast<double>(t))) {}
  static games::UncertainGame make_game(std::size_t t) {
    Rng rng(4);
    return games::random_uncertain_game(rng, t, 0.3 * t, 2.0);
  }
};

void BM_WorstCaseClosedForm(benchmark::State& state) {
  WorstCaseFixture f(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::worst_case_utility(f.ug.game, f.bounds, f.x));
  }
}
BENCHMARK(BM_WorstCaseClosedForm)->Arg(10)->Arg(100)->Arg(1000);

void BM_WorstCaseInnerLp(benchmark::State& state) {
  WorstCaseFixture f(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::worst_case_utility(
        f.ug.game, f.bounds, f.x, core::WorstCaseMethod::kInnerLp));
  }
}
BENCHMARK(BM_WorstCaseInnerLp)->Arg(10)->Arg(50);

void BM_CubisStepDp(benchmark::State& state) {
  WorstCaseFixture f(state.range(0));
  core::SolveContext ctx{f.ug.game, f.bounds};
  core::CubisOptions opt;
  opt.segments = 20;
  const double c = 0.5 * (f.ug.game.min_defender_penalty() +
                          f.ug.game.max_defender_reward());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::cubis_step(ctx, c, opt));
  }
}
BENCHMARK(BM_CubisStepDp)->Arg(10)->Arg(50)->Arg(200);

void BM_CubisFullSolveDp(benchmark::State& state) {
  WorstCaseFixture f(state.range(0));
  core::SolveContext ctx{f.ug.game, f.bounds};
  core::CubisOptions opt;
  opt.segments = 10;
  opt.epsilon = 1e-3;
  core::CubisSolver solver(opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(ctx));
  }
}
BENCHMARK(BM_CubisFullSolveDp)->Arg(10)->Arg(50);

}  // namespace

BENCHMARK_MAIN();
