#include "core/gradient.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/workspace.hpp"
#include "core/worst_case.hpp"
#include "games/coverage_space.hpp"
#include "parallel/parallel_for.hpp"

namespace cubisg::core {

namespace {

/// One projected-gradient ascent run from `x0`; returns the best iterate.
/// Trial steps are projected onto `space`; the simplex instance keeps the
/// legacy single-budget projection arithmetic bit-for-bit.
std::pair<std::vector<double>, double> ascend(
    const std::function<double(const std::vector<double>&)>& w_of,
    const games::CoverageSpace& space, const GradientOptions& opt,
    std::vector<double> x) {
  const std::size_t n = x.size();
  double w = w_of(x);
  std::vector<double> grad(n), trial(n), shifted;
  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    // Central differences (projected evaluation keeps arguments in box;
    // the polytope constraints are handled by projecting the ascent step).
    for (std::size_t i = 0; i < n; ++i) {
      shifted = x;
      const double hi_pt = std::min(1.0, x[i] + opt.grad_eps);
      const double lo_pt = std::max(0.0, x[i] - opt.grad_eps);
      shifted[i] = hi_pt;
      const double up = w_of(shifted);
      shifted[i] = lo_pt;
      const double dn = w_of(shifted);
      grad[i] = (up - dn) / (hi_pt - lo_pt);
    }

    double step = opt.initial_step;
    bool improved = false;
    for (int bt = 0; bt < opt.max_backtracks; ++bt) {
      for (std::size_t i = 0; i < n; ++i) trial[i] = x[i] + step * grad[i];
      trial = space.project(trial);
      const double wt = w_of(trial);
      if (wt > w + 1e-12) {
        double delta = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          delta = std::max(delta, std::abs(trial[i] - x[i]));
        }
        x = trial;
        w = wt;
        improved = true;
        if (delta < opt.converge_tol) return {x, w};
        break;
      }
      step *= opt.step_shrink;
    }
    if (!improved) break;  // local maximum (up to line-search resolution)
  }
  return {x, w};
}

}  // namespace

std::pair<std::vector<double>, double> projected_ascent(
    const std::function<double(const std::vector<double>&)>& objective,
    double resources, std::vector<double> x0,
    const GradientOptions& options) {
  // Read the size before std::move(x0): function arguments are
  // indeterminately sequenced, so the by-value move may run first.
  const std::size_t n = x0.size();
  return ascend(objective, games::CoverageSpace::simplex(n, resources),
                options, std::move(x0));
}

std::pair<std::vector<double>, double> local_ascent(
    const SolveContext& ctx, std::vector<double> x0,
    const GradientOptions& options) {
  auto w_of = [&ctx](const std::vector<double>& xx) {
    return worst_case_utility(ctx.game, ctx.bounds, xx);
  };
  return ascend(w_of, effective_space(ctx), options, std::move(x0));
}

GradientSolver::GradientSolver(GradientOptions options) : opt_(options) {
  if (opt_.num_starts < 1) {
    throw InvalidModelError("GradientSolver: num_starts must be >= 1");
  }
}

DefenderSolution GradientSolver::solve(const SolveContext& ctx) const {
  Timer timer;
  const std::size_t n = ctx.game.num_targets();
  const games::CoverageSpace space = effective_space(ctx);

  // Start set: uniform, greedy-by-penalty, then random points, each a
  // feasible point of the coverage polytope.  The buffer comes from the
  // workspace (cleared, so only capacity is reused).
  SolveWorkspace local_ws;
  SolveWorkspace& ws = ctx.workspace != nullptr ? *ctx.workspace : local_ws;
  std::vector<std::vector<double>>& starts = ws.gradient_starts;
  starts.clear();
  starts.push_back(space.uniform_seed());
  {
    std::vector<double> penalties(n);
    for (std::size_t i = 0; i < n; ++i) {
      penalties[i] = ctx.game.target(i).defender_penalty;
    }
    starts.push_back(space.greedy_seed(penalties));
  }
  Rng rng(opt_.seed);
  while (starts.size() < static_cast<std::size_t>(opt_.num_starts) + 2) {
    std::vector<double> x(n);
    for (double& xi : x) xi = rng.uniform();
    starts.push_back(space.project(x));
  }

  ThreadPool& pool = opt_.pool ? *opt_.pool : ThreadPool::global();
  auto w_of = [&ctx](const std::vector<double>& xx) {
    return worst_case_utility(ctx.game, ctx.bounds, xx);
  };
  std::vector<std::pair<std::vector<double>, double>> results =
      parallel_map(pool, starts.size(), [&](std::size_t s) {
        return ascend(w_of, space, opt_, starts[s]);
      });

  DefenderSolution sol;
  sol.status = SolverStatus::kOptimal;
  double best = -std::numeric_limits<double>::infinity();
  for (auto& [x, w] : results) {
    if (w > best) {
      best = w;
      sol.strategy = std::move(x);
    }
  }
  sol.solver_objective = best;
  finalize_solution(ctx, sol, timer.seconds());
  return sol;
}

}  // namespace cubisg::core
