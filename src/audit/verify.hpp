// Independent solution verifier: re-derives every certificate claim from
// the model alone and reports typed findings.
//
// verify() shares no state with any solver — it reads the SecurityGame,
// the AttractivenessBounds, the returned strategy and the certificate,
// and recomputes feasibility plus the worst-case robust utility over
// interval corners via the canonical closed-form evaluator in
// core/worst_case.  Feasibility is re-derived from the certificate's own
// coverage descriptor (games::CoverageSpace) when one is present: group
// budget rows and per-target caps for the non-simplex families, the
// legacy box + sum x_i <= R check otherwise (slack is legal per Eq. 37).
// A descriptor that fails to parse or disagrees with the model is a
// kMalformedCertificate finding.  Bracket
// and MILP evidence are checked for internal consistency and against the
// recomputed value.  This is the audit primitive the shadow auditor
// (audit/shadow.hpp), the `verify` CLI subcommand, and the family
// differential tests (test_families) all share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "audit/certificate.hpp"
#include "behavior/bounds.hpp"
#include "core/solvers.hpp"
#include "games/security_game.hpp"

namespace cubisg::audit {

/// Typed audit verdicts, ordered by severity (higher = worse).  The CLI
/// maps these onto exit codes: any kMalformedCertificate finding exits 6,
/// any other finding exits 5.
enum class AuditCode : int {
  kOk = 0,
  kMilpInconsistent,      ///< B&B incumbent exceeds its proven bound
  kBracketViolated,       ///< W(x) < lb, or converged bracket wider than eps
  kWorstCaseMismatch,     ///< recomputed W(x) disagrees with the claim
  kInfeasibleStrategy,    ///< box or budget violation beyond tolerance
  kMalformedCertificate,  ///< certificate self-inconsistent or wrong model
};

/// Stable name ("ok", "malformed-certificate", ...) for logs and JSON.
const char* audit_code_name(AuditCode code);

/// One failed check.  `residual` is the magnitude of the violation (0 for
/// structural findings with no natural magnitude).
struct AuditFinding {
  AuditCode code = AuditCode::kOk;
  std::string detail;
  double residual = 0.0;
};

struct AuditOptions {
  /// Box/budget slack: solvers round through K-segment grids and LP
  /// pivots, so exact feasibility is not expected.
  double feasibility_tol = 1e-6;
  /// Recomputed-vs-claimed worst case.  The claim comes from the same
  /// closed-form evaluator, so disagreement means the strategy or the
  /// certificate changed after finalize_solution.
  double value_tol = 1e-6;
  /// Bracket checks: W(x) >= lb - tol and incumbent <= bound + tol.
  double bracket_tol = 1e-6;
  /// The K-segment linearization lets lb overstate W(x) by O(1/K); the
  /// allowance is factor * payoff_scale / K (matches the convergence
  /// tests' generous estimate of the Theorem 1 constant).
  double linearization_slack_factor = 10.0;
};

/// Verifier outcome: empty findings = the solution checks out.
struct AuditResult {
  std::vector<AuditFinding> findings;
  double recomputed_worst_case = 0.0;
  /// Largest residual observed across every check, including checks that
  /// passed — a health margin even when ok().
  double max_residual = 0.0;
  double verify_seconds = 0.0;

  bool ok() const { return findings.empty(); }
  /// kOk when clean, else the most severe finding's code.
  AuditCode worst() const;
  std::string to_json() const;
};

/// Re-derives everything from the model and checks it against `solution`
/// and `certificate`.  Never throws on bad data — malformed input becomes
/// a kMalformedCertificate / kInfeasibleStrategy finding.
AuditResult verify(const games::SecurityGame& game,
                   const behavior::AttractivenessBounds& bounds,
                   const core::DefenderSolution& solution,
                   const SolutionCertificate& certificate,
                   const AuditOptions& options = {});

/// Convenience overload using the certificate embedded in the solution.
AuditResult verify(const games::SecurityGame& game,
                   const behavior::AttractivenessBounds& bounds,
                   const core::DefenderSolution& solution,
                   const AuditOptions& options = {});

/// Publishes a verify outcome: bumps audit.checks_total /
/// audit.failures_total, keeps the audit.max_residual high-water gauge
/// and the audit.verify_seconds histogram, and attaches the verdict to
/// the newest obs::JobLog record of `job_id`.  A failed verdict with no
/// such record (evicted, or job_id 0 from a one-shot `verify`) is kept as
/// an audit-only record; failed verdicts are served at GET /auditz.
/// Returns the id of the record holding a failed verdict (0 when ok).
std::int64_t record_outcome(const AuditResult& result,
                            const std::string& solver, std::uint64_t job_id,
                            const std::string& tag);

}  // namespace cubisg::audit
