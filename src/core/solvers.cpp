#include "core/solvers.hpp"

#include <algorithm>
#include <string>

#include "common/fault_inject.hpp"
#include "common/timer.hpp"
#include "core/worst_case.hpp"
#include "obs/metrics.hpp"

namespace cubisg::core {

games::CoverageSpace effective_space(const SolveContext& ctx) {
  if (ctx.space != nullptr && !ctx.space->is_default()) {
    if (ctx.space->num_targets() != ctx.game.num_targets()) {
      throw InvalidModelError(
          "effective_space: coverage space does not match the game's "
          "target count");
    }
    return *ctx.space;
  }
  return games::CoverageSpace::simplex(ctx.game.num_targets(),
                                       ctx.game.resources());
}

void finalize_solution(const SolveContext& ctx, DefenderSolution& sol,
                       double seconds) {
  sol.wall_seconds = seconds;
  // Non-simplex polytope: solvers without native support produce a
  // simplex-feasible strategy; the degrade path projects it onto the
  // actual space before anything downstream (worst case, certificate
  // residuals) is measured.  Natively-feasible strategies pass the check
  // untouched, and the simplex path never enters this branch, keeping it
  // bitwise-identical to the pre-abstraction behavior.
  const bool nontrivial_space = ctx.space != nullptr &&
                                !ctx.space->is_default() &&
                                !ctx.space->is_simplex();
  if (nontrivial_space &&
      sol.strategy.size() == ctx.space->num_targets() &&
      !ctx.space->is_feasible(sol.strategy, 1e-9)) {
    sol.strategy = ctx.space->project(sol.strategy);
  }
  if (!sol.strategy.empty()) {
    sol.worst_case_utility =
        worst_case_utility(ctx.game, ctx.bounds, sol.strategy);
  }
  // Base certificate: every solver family carries enough evidence for
  // audit::verify to re-check feasibility and the realized worst case.
  audit::SolutionCertificate& cert = sol.certificate;
  cert.present = true;
  cert.targets = ctx.game.num_targets();
  cert.resources = ctx.game.resources();
  cert.claimed_worst_case = sol.worst_case_utility;
  if (nontrivial_space) {
    cert.coverage = ctx.space->descriptor();
    ctx.space->residuals(sol.strategy, cert.budget_residual,
                         cert.box_residual);
  } else {
    double sum = 0.0;
    double box = 0.0;
    for (double xi : sol.strategy) {
      sum += xi;
      box = std::max(box, std::max(-xi, xi - 1.0));
    }
    cert.box_residual = std::max(0.0, box);
    cert.budget_residual = std::max(0.0, sum - ctx.game.resources());
  }
  // Injected corruptions, AFTER the claims above are recorded, so the
  // independent verifier must catch the disagreement (end-to-end audit
  // detection tests + CI smoke).
  if (!sol.strategy.empty() &&
      faultinject::should_fail(
          faultinject::Site::kAuditCorruptSolution)) {
    // Move coordinate 0 by 0.4 away from its nearest box edge: always a
    // real change (never clamped into a no-op), so the recomputed worst
    // case cannot match the claim.
    double& x0 = sol.strategy.front();
    x0 += x0 > 0.5 ? -0.4 : 0.4;
  }
  if (faultinject::should_fail(
          faultinject::Site::kAuditCorruptCertificate)) {
    // Invert the bracket: structurally malformed evidence.
    cert.has_bracket = true;
    cert.epsilon = cert.epsilon > 0.0 ? cert.epsilon : 1e-3;
    cert.segments = std::max(cert.segments, 1);
    cert.lb = cert.ub + 1.0;
    cert.rounds.clear();
  }
  // Per-terminal-status counters: one family keyed by status name plus
  // dedicated totals for the two budget outcomes dashboards alert on.
  obs::Registry::global()
      .counter(std::string("solve.status.")
                   .append(to_string(sol.status)))
      .add(1);
  if (sol.status == SolverStatus::kDeadlineExceeded) {
    obs::Registry::global().counter("solve.deadline_exceeded_total").add(1);
  } else if (sol.status == SolverStatus::kCancelled) {
    obs::Registry::global().counter("solve.cancelled_total").add(1);
  }
}

DefenderSolution UniformSolver::solve(const SolveContext& ctx) const {
  Timer timer;
  DefenderSolution sol;
  // The simplex seed is R/T exactly.
  sol.strategy = effective_space(ctx).uniform_seed();
  sol.status = SolverStatus::kOptimal;
  sol.solver_objective = 0.0;
  sol.certificate.solver = name();
  finalize_solution(ctx, sol, timer.seconds());
  return sol;
}

}  // namespace cubisg::core
