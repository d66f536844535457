// Branch-and-bound MILP solver over the bounded-variable simplex.
//
// This is the library's replacement for CPLEX in the CUBIS pipeline.  Two
// features matter for that pipeline:
//
//  * Sign queries.  Each CUBIS binary-search step only needs to know whether
//    max G >= 0 (Proposition 2 of the paper).  With `sign_threshold` set,
//    the search stops as soon as an incumbent reaches the threshold
//    (kEarlyPositive) or the global bound proves no solution can
//    (kEarlyNegative) — usually orders of magnitude before optimality.
//  * Warm incumbents.  A caller-provided feasible point (e.g. from the
//    separable DP solver) seeds the incumbent and tightens pruning from
//    node one.
//
// Search is best-first on the parent LP bound with most-fractional
// branching; a rounding heuristic at the root provides an initial
// incumbent.  Node bound changes are stored as a persistent parent-pointer
// chain, so memory stays O(depth) per frontier node.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/budget.hpp"
#include "common/errors.hpp"
#include "common/tolerances.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace cubisg::milp {

/// Variable-selection rule for branching.
enum class BranchingRule {
  kMostFractional,  ///< classic: the variable farthest from integrality
  kPseudoCost,      ///< history-weighted: per-variable average objective
                    ///< degradation observed on earlier branchings (falls
                    ///< back to most-fractional until history exists)
};

/// Options controlling a branch-and-bound solve.
struct MilpOptions {
  double int_tol = Tol::kInt;     ///< integrality tolerance
  BranchingRule branching = BranchingRule::kMostFractional;
  double gap_abs = 1e-9;          ///< stop when bound - incumbent <= gap
  std::int64_t max_nodes = 200000;
  double time_limit_sec = -1.0;   ///< <= 0: no limit
  /// Optional shared budget/cancellation token, polled at every node
  /// boundary (and, via `lp.budget`, at every simplex pivot).  On a trip
  /// the search unwinds with the incumbent and the proven bound, status
  /// kDeadlineExceeded / kCancelled / kIterLimit.  Nodes are charged to
  /// the token's node cap.  Null = no shared budget.
  const SolveBudget* budget = nullptr;
  lp::SimplexOptions lp;          ///< options for node LP solves
  /// Presolve node LPs below the root (branching fixes binaries, so deep
  /// nodes shrink substantially).  Mutually exclusive with parent-basis
  /// warm starts at those nodes, which presolve's column remapping breaks.
  bool use_presolve = true;

  /// When set: answer "is the optimum >= threshold?" (for maximization; or
  /// "<= threshold" for minimization) and stop as soon as the answer is
  /// proven, returning kEarlyPositive / kEarlyNegative.
  std::optional<double> sign_threshold;

  /// Optional feasible starting point (full column vector) used to seed the
  /// incumbent.  Ignored when infeasible or not integral.
  std::optional<std::vector<double>> warm_start;

  /// Optional cross-solve basis handle for the ROOT relaxation.  When set,
  /// the root node LP warm-starts from handle->positions (e.g. the optimal
  /// root basis of the previous binary-search round's patched model) and
  /// the new optimal root basis is written back.  Child nodes keep the
  /// parent-basis warm starts they already had.  A handle of the wrong
  /// length is ignored as a hint (the root cold-starts) and overwritten.
  lp::WarmStart* root_warm = nullptr;
};

/// Result of a branch-and-bound solve.
struct MilpSolution {
  SolverStatus status = SolverStatus::kNumericalIssue;
  /// Incumbent objective in the model's sense (valid when `x` non-empty).
  double objective = 0.0;
  /// Incumbent solution; empty when none found.
  std::vector<double> x;
  /// Proven bound on the optimum (same sense as objective).
  double best_bound = 0.0;
  std::int64_t nodes = 0;
  std::int64_t lp_iterations = 0;

  bool has_solution() const { return !x.empty(); }
  bool optimal() const { return status == SolverStatus::kOptimal; }
};

/// Solves `model` (columns marked with set_integer are integral).
MilpSolution solve_milp(const lp::Model& model, const MilpOptions& options = {});

}  // namespace cubisg::milp
