#include "check.hpp"

#include <cstring>

namespace perfbench {

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool bitwise_equal(const cg::core::DefenderSolution& a,
                   const cg::core::DefenderSolution& b) {
  return a.strategy.size() == b.strategy.size() &&
         (a.strategy.empty() ||
          std::memcmp(a.strategy.data(), b.strategy.data(),
                      a.strategy.size() * sizeof(double)) == 0) &&
         same_bits(a.lb, b.lb) && same_bits(a.ub, b.ub) &&
         same_bits(a.worst_case_utility, b.worst_case_utility);
}

}  // namespace

void CheckResult::add(const CheckResult& other) {
  attempted += other.attempted;
  failed += other.failed;
  audited += other.audited;
  audit_failures += other.audit_failures;
  reference_checked += other.reference_checked;
  reference_mismatches += other.reference_mismatches;
}

CheckResult check_outputs(const Inputs& inputs, const LoopResult& loop) {
  CheckResult r;
  r.attempted = loop.attempted;
  r.audited = loop.completed;
  r.audit_failures = loop.audit_failures;
  r.failed = loop.attempted - loop.completed + loop.audit_failures;

  const std::shared_ptr<const cg::core::DefenderSolver> reference =
      cg::core::make_solver(solver_spec());
  for (const KeptSolution& kept : loop.reference) {
    const Problem& p = inputs.problems[kept.problem];
    cg::core::SolveContext ctx{p.scenario->game.game, *p.bounds};
    if (!p.scenario->coverage.is_default()) ctx.space = &p.scenario->coverage;
    ++r.reference_checked;
    if (!bitwise_equal(reference->solve(ctx), kept.solution)) {
      ++r.reference_mismatches;
      if (kept.audit_ok) ++r.failed;  // not already counted
    }
  }

  r.digest_jobs = loop.digests.size();
  r.solutions_digest = cg::engine::fnv1a64(
      loop.digests.data(), loop.digests.size() * sizeof(std::uint64_t));
  return r;
}

}  // namespace perfbench
