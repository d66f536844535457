#include "core/population_solvers.hpp"

#include <functional>
#include <limits>

#include "common/timer.hpp"
#include "games/coverage_space.hpp"

namespace cubisg::core {

namespace {

/// Multi-start ascent of `objective` over X; shared driver for both
/// population baselines.
DefenderSolution maximize_over_strategies(
    const SolveContext& ctx, const GradientOptions& ascent,
    const std::function<double(const std::vector<double>&)>& objective) {
  Timer timer;
  const std::size_t n = ctx.game.num_targets();
  const double resources = ctx.game.resources();

  const games::CoverageSpace space =
      games::CoverageSpace::simplex(n, resources);
  std::vector<std::vector<double>> starts;
  starts.push_back(space.uniform_seed());
  {
    std::vector<double> penalties(n);
    for (std::size_t i = 0; i < n; ++i) {
      penalties[i] = ctx.game.target(i).defender_penalty;
    }
    starts.push_back(space.greedy_seed(penalties));
  }
  Rng rng(ascent.seed);
  while (starts.size() < static_cast<std::size_t>(ascent.num_starts) + 2) {
    std::vector<double> x(n);
    for (double& xi : x) xi = rng.uniform();
    starts.push_back(space.project(x));
  }

  DefenderSolution sol;
  sol.status = SolverStatus::kOptimal;
  double best = -std::numeric_limits<double>::infinity();
  for (auto& start : starts) {
    auto [x, value] =
        projected_ascent(objective, resources, std::move(start), ascent);
    if (value > best) {
      best = value;
      sol.strategy = std::move(x);
    }
  }
  sol.solver_objective = best;
  finalize_solution(ctx, sol, timer.seconds());
  return sol;
}

}  // namespace

RobustTypesSolver::RobustTypesSolver(PopulationOptions options)
    : opt_(std::move(options)) {
  if (!opt_.population) {
    throw InvalidModelError("RobustTypesSolver: population required");
  }
}

DefenderSolution RobustTypesSolver::solve(const SolveContext& ctx) const {
  const behavior::SampledSuqrPopulation& pop = *opt_.population;
  auto objective = [&](const std::vector<double>& x) {
    return pop.min_defender_utility(ctx.game, x);
  };
  return maximize_over_strategies(ctx, opt_.ascent, objective);
}

BayesianSolver::BayesianSolver(PopulationOptions options)
    : opt_(std::move(options)) {
  if (!opt_.population) {
    throw InvalidModelError("BayesianSolver: population required");
  }
}

DefenderSolution BayesianSolver::solve(const SolveContext& ctx) const {
  const behavior::SampledSuqrPopulation& pop = *opt_.population;
  auto objective = [&](const std::vector<double>& x) {
    return pop.mean_defender_utility(ctx.game, x);
  };
  return maximize_over_strategies(ctx, opt_.ascent, objective);
}

}  // namespace cubisg::core
