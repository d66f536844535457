// Solution certificates: the solver's own evidence for why its answer
// should be believed, attached to every DefenderSolution.
//
// A certificate is deliberately plain data with no pointers into solver
// state: the final binary-search bracket [lb, ub], the per-round sign
// evidence of the P1 feasibility oracle, the MILP incumbent/bound pair
// from the highest feasible step, and the feasibility residuals the
// solver measured on the strategy it returned.  audit::verify()
// (src/audit/verify.hpp) re-derives each claim from the SecurityGame +
// AttractivenessBounds alone and compares — the two sides share nothing
// but this struct, so the verifier can referee cache-hit and
// cache-transplant answers against cold solves.
//
// Header-only on purpose: core/solvers.hpp embeds a certificate in
// DefenderSolution without linking the audit library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cubisg::audit {

/// One binary-search round: the bracket *after* the round's update plus
/// the sign evidence that drove it (how many multisection cut points had
/// a feasible step, i.e. max G >= -slack, and how many did not).
struct CertificateRound {
  double lo = 0.0;
  double hi = 0.0;
  int feasible = 0;    ///< cut points whose step proved sign(max G) >= 0
  int infeasible = 0;  ///< cut points whose step proved sign(max G) < 0
};

/// Evidence attached to a DefenderSolution.  `present` is false when the
/// solution predates finalize_solution (default-constructed solutions);
/// `has_bracket`/`has_milp` gate the solver-family-specific sections so
/// baselines without a binary search still carry the base evidence
/// (shape, claimed worst case, feasibility residuals).
struct SolutionCertificate {
  bool present = false;

  // Provenance: model shape at solve time, for malformed-cert detection
  // when a certificate is replayed against the wrong model.
  std::string solver;       ///< DefenderSolver::name(); may be empty
  std::size_t targets = 0;  ///< game.num_targets() at solve time
  double resources = 0.0;   ///< game.resources() at solve time
  /// Canonical games::CoverageSpace::descriptor() of the polytope the
  /// solve ran on; empty = the paper's simplex.  Self-contained: the
  /// verifier re-derives the feasibility residuals from this string, so
  /// a certificate audits correctly without the original space object.
  std::string coverage;

  // Binary-search evidence (CUBIS families).  The bracket claims
  // W(x) >= lb and, when the solve ran to optimality, ub - lb <= epsilon
  // so the strategy is O(epsilon + 1/K)-optimal (Theorem 1).
  bool has_bracket = false;
  bool bracket_converged = false;  ///< solver reached ub - lb <= epsilon
  double epsilon = 0.0;            ///< threshold the bracket claims to meet
  int segments = 0;                ///< K, the piecewise linearization width
  double lb = 0.0;                 ///< highest value proven feasible
  double ub = 0.0;                 ///< lowest value proven infeasible
  std::vector<CertificateRound> rounds;  ///< oldest first, nested brackets

  // MILP evidence from the step that proved the final lb (kMilp backend
  // only): the branch-and-bound incumbent and its proven bound.  For the
  // maximization step, incumbent <= bound must hold.
  bool has_milp = false;
  double milp_incumbent = 0.0;
  double milp_bound = 0.0;
  std::int64_t milp_nodes = 0;

  // Feasibility evidence measured on the final strategy by the solver
  // itself (the verifier recomputes both from scratch).
  double claimed_worst_case = 0.0;  ///< W(x) via the canonical evaluator
  /// max over budget groups of max(0, sum_g x_i - B_g); the simplex has a
  /// single group with B = R.
  double budget_residual = 0.0;
  /// max_i max(-x_i, x_i - cap_i, 0); the simplex has unit caps.
  double box_residual = 0.0;
};

}  // namespace cubisg::audit
