// Common interface for defender-strategy solvers.
//
// Every algorithm (CUBIS and the baselines) consumes the same problem
// description — a SecurityGame plus attractiveness uncertainty bounds — and
// produces a strategy with solver statistics, so benches and examples can
// treat them uniformly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "audit/certificate.hpp"
#include "behavior/bounds.hpp"
#include "common/budget.hpp"
#include "common/errors.hpp"
#include "games/coverage_space.hpp"
#include "games/security_game.hpp"
#include "obs/metrics.hpp"

namespace cubisg::core {

struct SolveWorkspace;  // core/workspace.hpp

/// The problem a defender solver works on.  Both references must outlive
/// the solve call.
struct SolveContext {
  const games::SecurityGame& game;
  const behavior::AttractivenessBounds& bounds;
  /// Optional shared budget/cancellation token, threaded through every
  /// layer of the solve (binary search -> branch and bound -> simplex
  /// pivots).  When it trips, solvers unwind at a safe point and return
  /// the best incumbent with a certified bracket and a budget status
  /// (kDeadlineExceeded / kCancelled / kIterLimit) instead of throwing.
  /// Must outlive the solve call; null = unbudgeted.
  const SolveBudget* budget = nullptr;
  /// Optional caller-owned scratch arena for every per-solve allocation
  /// (see core/workspace.hpp).  Null = the solver builds an ephemeral one.
  /// Reuse across solves preserves capacity only, never values, so a
  /// reused workspace yields bitwise-identical solutions to a fresh one.
  /// One workspace per concurrent solve: the workspace is mutable
  /// single-threaded state even though the solver itself is shareable.
  SolveWorkspace* workspace = nullptr;
  /// Optional coverage polytope overriding the paper's default simplex
  /// X = {0 <= x <= 1, sum <= R}.  Null (or the default-constructed
  /// sentinel) means "simplex from the game's own T and R" — that path is
  /// bitwise-identical to the pre-abstraction behavior.  Non-simplex
  /// spaces route solvers through the grouped/capped machinery; solvers
  /// without native support are projected onto the space by
  /// finalize_solution (the degrade path).  Must outlive the solve call.
  const games::CoverageSpace* space = nullptr;
};

/// The polytope a solve actually runs on: `ctx.space` when it is set and
/// non-default, else the simplex over the game's T and R.
games::CoverageSpace effective_space(const SolveContext& ctx);

/// Outcome of a defender solve.
struct DefenderSolution {
  SolverStatus status = SolverStatus::kNumericalIssue;
  /// Coverage vector with 0 <= x_i <= 1 and sum x_i <= R.  Solvers top the
  /// budget up when that improves the worst case, but keep slack when a
  /// pessimistic adversary is better handled by leaving a low-stakes
  /// target slightly attractive (idle resources are implementable).
  std::vector<double> strategy;
  /// Worst-case defender utility of `strategy` under the bounds, computed
  /// by the canonical closed-form evaluator (comparable across solvers).
  double worst_case_utility = 0.0;
  /// The solver's own objective estimate (e.g. the binary search lb).
  double solver_objective = 0.0;
  /// Binary-search bracket at termination (CUBIS/PASAQ only).
  double lb = 0.0;
  double ub = 0.0;
  int binary_steps = 0;
  std::int64_t milp_nodes = 0;
  double wall_seconds = 0.0;
  /// Registry delta covering this solve (empty when the solver predates
  /// instrumentation).
  obs::SolveTelemetry telemetry;
  /// Solver-emitted evidence for audit::verify.  finalize_solution fills
  /// the base claims (shape, residuals, claimed worst case) for every
  /// solver; CUBIS adds bracket/round/MILP evidence before finalizing.
  audit::SolutionCertificate certificate;

  bool ok() const { return status == SolverStatus::kOptimal; }
};

/// Abstract defender solver.  Implementations are immutable configuration:
/// solve() is const and never mutates the solver, so one instance can be
/// driven concurrently from many threads as long as each call gets its own
/// SolveContext (workspace and budget are the per-call mutable state).
class DefenderSolver {
 public:
  virtual ~DefenderSolver() = default;
  virtual std::string name() const = 0;
  virtual DefenderSolution solve(const SolveContext& ctx) const = 0;
};

/// Baseline: the uniform strategy x_i = R/T (no optimization at all).
class UniformSolver final : public DefenderSolver {
 public:
  std::string name() const override { return "uniform"; }
  DefenderSolution solve(const SolveContext& ctx) const override;
};

/// Fills a solution's evaluation fields (worst-case utility), the base
/// certificate claims (model shape, feasibility residuals, claimed worst
/// case) and the clock.  Solver-specific certificate evidence (bracket,
/// rounds, MILP pair) must be set before calling this.
void finalize_solution(const SolveContext& ctx, DefenderSolution& sol,
                       double seconds);

}  // namespace cubisg::core
