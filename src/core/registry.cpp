#include "core/registry.hpp"

#include <algorithm>
#include <cstdio>

#include "core/adaptive.hpp"
#include "core/cubis.hpp"
#include "core/gradient.hpp"
#include "core/maximin.hpp"
#include "core/origami.hpp"
#include "core/pasaq.hpp"
#include "core/population_solvers.hpp"
#include "core/sse.hpp"

namespace cubisg::core {

std::vector<std::string> solver_names() {
  return {"cubis",   "cubis-milp", "cubis-adaptive", "midpoint",
          "maximin", "gradient",   "sse",            "origami",
          "uniform", "robust-types", "bayesian"};
}

std::string canonical_solver_config(const SolverSpec& spec) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "|k=%zu|eps=%a|polish=%d|sections=%d|starts=%d|seed=%llu"
                "|types=%zu",
                spec.segments, spec.epsilon, spec.polish_iterations,
                std::max(1, spec.parallel_sections), spec.num_starts,
                static_cast<unsigned long long>(spec.seed),
                spec.population != nullptr ? spec.population->num_types()
                                           : std::size_t{0});
  // Coverage-polytope identity: the canonical descriptor (lossless %a
  // budgets/caps).  The simplex renders as "simplex" — including it even
  // in the default case keeps the config self-describing.
  const std::string space =
      spec.coverage.is_default() ? "simplex" : spec.coverage.descriptor();
  return spec.name + buf + "|space=" + space;
}

std::unique_ptr<DefenderSolver> make_solver(const SolverSpec& spec) {
  if (spec.name == "cubis" || spec.name == "cubis-milp") {
    CubisOptions opt;
    opt.segments = spec.segments;
    opt.epsilon = spec.epsilon;
    opt.polish_iterations = spec.polish_iterations;
    opt.parallel_sections = std::max(1, spec.parallel_sections);
    if (spec.name == "cubis-milp") opt.backend = StepBackend::kMilp;
    return std::make_unique<CubisSolver>(opt);
  }
  if (spec.name == "cubis-adaptive") {
    AdaptiveCubisOptions opt;
    opt.cubis.epsilon = spec.epsilon;
    opt.cubis.parallel_sections = std::max(1, spec.parallel_sections);
    opt.max_segments = std::max(spec.segments, opt.initial_segments);
    // Polish is the point of the adaptive driver; only let the spec raise
    // it above the solver's own default.
    opt.polish_iterations =
        std::max(opt.polish_iterations, spec.polish_iterations);
    return std::make_unique<AdaptiveCubisSolver>(opt);
  }
  if (spec.name == "midpoint") {
    PasaqOptions opt;
    opt.segments = spec.segments;
    opt.epsilon = spec.epsilon;
    return std::make_unique<PasaqSolver>(opt);
  }
  if (spec.name == "maximin") return std::make_unique<MaximinSolver>();
  if (spec.name == "gradient") {
    GradientOptions opt;
    opt.num_starts = spec.num_starts;
    opt.seed = spec.seed;
    return std::make_unique<GradientSolver>(opt);
  }
  if (spec.name == "sse") return std::make_unique<SseSolver>();
  if (spec.name == "origami") return std::make_unique<OrigamiSolver>();
  if (spec.name == "uniform") return std::make_unique<UniformSolver>();
  if (spec.name == "robust-types" || spec.name == "bayesian") {
    if (!spec.population) {
      throw InvalidModelError("make_solver: '" + spec.name +
                              "' requires a sampled population");
    }
    PopulationOptions opt;
    opt.population = spec.population;
    opt.ascent.num_starts = spec.num_starts;
    opt.ascent.seed = spec.seed;
    if (spec.name == "robust-types") {
      return std::make_unique<RobustTypesSolver>(opt);
    }
    return std::make_unique<BayesianSolver>(opt);
  }
  throw InvalidModelError("make_solver: unknown solver '" + spec.name + "'");
}

}  // namespace cubisg::core
