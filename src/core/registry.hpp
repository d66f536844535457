// Name-based solver construction, for CLIs, benches and config files.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "behavior/attacker_sim.hpp"
#include "core/solvers.hpp"

namespace cubisg::core {

/// Declarative description of a solver configuration.
struct SolverSpec {
  /// One of solver_names(): "cubis", "cubis-milp", "cubis-adaptive",
  /// "midpoint", "maximin", "gradient", "sse", "uniform", "robust-types",
  /// "bayesian".
  std::string name = "cubis";
  std::size_t segments = 20;       ///< K for binary-search solvers
  double epsilon = 1e-3;           ///< binary-search threshold
  int polish_iterations = 0;       ///< gradient polish (cubis variants)
  int parallel_sections = 1;       ///< multisection width (cubis variants)
  int num_starts = 8;              ///< restarts (gradient-based solvers)
  std::uint64_t seed = 0x5EED;     ///< seed for stochastic components
  /// Sampled attacker types; required by "robust-types" and "bayesian".
  std::shared_ptr<const behavior::SampledSuqrPopulation> population;
  /// Coverage polytope the solve runs on.  Default-constructed = the
  /// paper's simplex.  Folded into canonical_solver_config (and hence the
  /// fingerprint compat hash) so two configs over different polytopes can
  /// never alias into the same exact-cache entry.
  games::CoverageSpace coverage{};
};

/// All registered solver names.
std::vector<std::string> solver_names();

/// Stable canonical string of every tolerance-relevant field of `spec`,
/// the solver-identity component of a core::Fingerprint.  Two specs map
/// to the same string iff make_solver would build solvers whose solutions
/// are bitwise-interchangeable on every scenario (floating-point fields
/// are rendered losslessly with %a).  Over-discrimination is safe — a
/// field some solver ignores only costs cache hits across configs that
/// differ in it — so every spec field is included.
std::string canonical_solver_config(const SolverSpec& spec);

/// Builds the solver described by `spec`.  Throws InvalidModelError on an
/// unknown name or a missing required field.
std::unique_ptr<DefenderSolver> make_solver(const SolverSpec& spec);

}  // namespace cubisg::core
