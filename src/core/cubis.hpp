// CUBIS — Competing Uncertainty in attacker Behaviors using Interval-based
// maximin Solution (Section IV of the paper).
//
// Computes the defender strategy maximizing her worst-case expected utility
// under attractiveness intervals [L_i(x), U_i(x)]:
//
//   max_{x in X} min_{F in I(x)} sum_i q_i(x) Ud_i(x_i)          (5)
//
// Pipeline (matching the paper):
//  1. LP duality collapses the maximin into max H(x, beta) (Eqs. 15-17).
//  2. Binary search on the utility value c; each step answers the value
//     point feasibility problem P1 via Propositions 1 and 2 by checking
//     sign(max G) with beta eliminated through Proposition 3.
//  3. Each step's max G is solved after K-segment piecewise linearization,
//     either by the paper's MILP (33)-(40) on the branch-and-bound
//     substrate (kMilp) or by the exact separable DP (kDp, the ablation
//     that replaces CPLEX entirely).
//
// Theorem 1: the result is O(epsilon + 1/K)-optimal.
#pragma once

#include <cstdint>

#include "common/tolerances.hpp"
#include "core/solvers.hpp"
#include "core/step_solver.hpp"
#include "core/worst_case.hpp"
#include "milp/branch_and_bound.hpp"
#include "parallel/thread_pool.hpp"

namespace cubisg::core {

/// Backend for the per-step feasibility maximization.
enum class StepBackend {
  kDp,    ///< exact separable dynamic programming (fast default)
  kMilp,  ///< the paper's MILP (33)-(40) via branch and bound
};

/// Options for the CUBIS solver.
struct CubisOptions {
  std::size_t segments = 10;  ///< K, piecewise-linear segment count
  double epsilon = Tol::kBinarySearchEps;  ///< binary-search threshold
  StepBackend backend = StepBackend::kDp;
  milp::MilpOptions milp;  ///< options for the kMilp backend
  /// Seed the MILP incumbent with the DP solution (kMilp backend only).
  bool warm_start_from_dp = true;
  /// Distribute leftover budget (Eq. 37 is <=R) so the final strategy
  /// saturates sum x_i = R; never hurts the worst case (verified in tests).
  bool top_up_resources = true;
  /// Numeric slack accepted when testing max G >= 0.
  double feasibility_slack = 1e-9;
  /// Beyond-the-paper extension: run this many projected-gradient ascent
  /// iterations on the exact worst-case objective from the CUBIS grid
  /// solution.  0 disables (the paper-faithful default); ~30 removes most
  /// of the O(1/K) grid residual at negligible cost.
  int polish_iterations = 0;
  /// Reuse round-invariant work across binary-search rounds: the affine
  /// breakpoint cache (f1/f2/phi become one axpy per round), the step
  /// MILP's constraint skeleton (patched, not rebuilt), and the previous
  /// round's optimal root basis as a simplex warm start.  Produces the
  /// same solution as the fresh path (the differential harness in
  /// tests/test_warm_start.cpp pins this).  Both backends reuse rounds on
  /// every coverage polytope (SolveContext::space).  Off = rebuild
  /// everything per round (the test oracle).
  bool reuse_rounds = true;
  /// Beyond-the-paper extension: multisection search.  Each round
  /// evaluates this many candidate utility values concurrently (thread
  /// pool), shrinking the bracket by (parallel_sections + 1)x per round
  /// instead of 2x.  1 = the paper's sequential bisection.  The step
  /// problems at different c are fully independent, so this parallelizes
  /// the OUTER loop that bisection serializes.
  int parallel_sections = 1;
  ThreadPool* pool = nullptr;  ///< null = global pool
};

/// The CUBIS solver.
class CubisSolver final : public DefenderSolver {
 public:
  explicit CubisSolver(CubisOptions options = {});

  std::string name() const override;
  DefenderSolution solve(const SolveContext& ctx) const override;

  const CubisOptions& options() const { return opt_; }

 private:
  CubisOptions opt_;
};

/// Breakpoint tables that do not depend on the binary-search value c:
/// L_i(k/K), U_i(k/K) and Ud_i(k/K).  Building them once per solve removes
/// the exp()-heavy bounds evaluations from every step (f1 = L*(Ud - c) and
/// f2 = U*(Ud - c) are then trivial per-step arithmetic).
struct StepTables {
  std::size_t segments = 0;
  std::vector<std::vector<double>> lower;    ///< [T][K+1]
  std::vector<std::vector<double>> upper;    ///< [T][K+1]
  std::vector<std::vector<double>> utility;  ///< [T][K+1]
};

/// Samples the bounds and defender utilities at the K+1 breakpoints.
StepTables build_step_tables(const SolveContext& ctx, std::size_t segments);

/// In-place variant for workspace reuse: overwrites `out` completely,
/// keeping its allocations when the shape matches.
void build_step_tables_into(const SolveContext& ctx, std::size_t segments,
                            StepTables& out);

struct RoundReuse;  // core/round_cache.hpp

/// One binary-search step: maximizes the linearized G(x, beta(c), c) over
/// X for the given utility value c.  Exposed for tests and the ablation
/// bench (DP and MILP backends must agree).  `tables`, when provided, must
/// have been built with the same segment count.  `reuse`, when provided,
/// carries this search lane's cross-round state (see core/round_cache.hpp)
/// and must have been built from the same tables; the step then takes the
/// cached path instead of rebuilding its piecewise functions and MILP.
StepResult cubis_step(const SolveContext& ctx, double c,
                      const CubisOptions& options,
                      const StepTables* tables = nullptr,
                      RoundReuse* reuse = nullptr);

}  // namespace cubisg::core
