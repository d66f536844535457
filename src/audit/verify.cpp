#include "audit/verify.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

#include <optional>

#include "common/timer.hpp"
#include "core/worst_case.hpp"
#include "games/coverage_space.hpp"
#include "obs/job_log.hpp"
#include "obs/metrics.hpp"

namespace cubisg::audit {

namespace {

/// Registry handles for the audit layer, resolved once.
struct AuditMetrics {
  obs::Counter& checks =
      obs::Registry::global().counter("audit.checks_total");
  obs::Counter& failures =
      obs::Registry::global().counter("audit.failures_total");
  obs::Gauge& max_residual =
      obs::Registry::global().gauge("audit.max_residual");
  obs::Histogram& verify_seconds = obs::Registry::global().histogram(
      "audit.verify_seconds", obs::Histogram::latency_bounds_seconds());

  static AuditMetrics& get() {
    static AuditMetrics m;
    return m;
  }
};

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

const char* audit_code_name(AuditCode code) {
  switch (code) {
    case AuditCode::kOk:
      return "ok";
    case AuditCode::kMilpInconsistent:
      return "milp-inconsistent";
    case AuditCode::kBracketViolated:
      return "bracket-violated";
    case AuditCode::kWorstCaseMismatch:
      return "worst-case-mismatch";
    case AuditCode::kInfeasibleStrategy:
      return "infeasible-strategy";
    case AuditCode::kMalformedCertificate:
      return "malformed-certificate";
  }
  return "unknown";
}

AuditCode AuditResult::worst() const {
  AuditCode w = AuditCode::kOk;
  for (const AuditFinding& f : findings) {
    if (static_cast<int>(f.code) > static_cast<int>(w)) w = f.code;
  }
  return w;
}

std::string AuditResult::to_json() const {
  std::string out = "{\"ok\":";
  out += ok() ? "true" : "false";
  out += ",\"worst\":\"";
  out += audit_code_name(worst());
  out += "\",\"recomputed_worst_case\":";
  out += fmt(recomputed_worst_case);
  out += ",\"max_residual\":";
  out += fmt(max_residual);
  out += ",\"verify_seconds\":";
  out += fmt(verify_seconds);
  out += ",\"findings\":[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    if (i) out += ',';
    out += "{\"code\":\"";
    out += audit_code_name(findings[i].code);
    out += "\",\"residual\":";
    out += fmt(findings[i].residual);
    out += ",\"detail\":\"";
    for (char ch : findings[i].detail) {
      if (ch == '"' || ch == '\\') out += '\\';
      out += ch;
    }
    out += "\"}";
  }
  out += "]}";
  return out;
}

AuditResult verify(const games::SecurityGame& game,
                   const behavior::AttractivenessBounds& bounds,
                   const core::DefenderSolution& solution,
                   const SolutionCertificate& cert,
                   const AuditOptions& opt) {
  Timer timer;
  AuditResult out;
  const auto note = [&out](AuditCode code, std::string detail,
                           double residual = 0.0) {
    out.findings.push_back({code, std::move(detail), residual});
  };
  const auto track = [&out](double r) {
    if (std::isfinite(r) && r > out.max_residual) out.max_residual = r;
  };

  const std::size_t n = game.num_targets();
  const double budget = game.resources();

  // ---- Certificate structure: self-consistency + model match. ----
  bool cert_sound = cert.present;
  games::CoverageSpace space;  // set from cert.coverage when non-simplex
  bool space_set = false;
  if (cert.present) {
    if (cert.targets != n) {
      note(AuditCode::kMalformedCertificate,
           "certificate targets=" + std::to_string(cert.targets) +
               " but model has " + std::to_string(n));
      cert_sound = false;
    }
    if (!std::isfinite(cert.resources) ||
        std::abs(cert.resources - budget) > opt.feasibility_tol) {
      note(AuditCode::kMalformedCertificate,
           "certificate resources=" + fmt(cert.resources) +
               " but model has R=" + fmt(budget));
      cert_sound = false;
    }
    if (cert.has_bracket) {
      if (!std::isfinite(cert.lb) || !std::isfinite(cert.ub) ||
          !std::isfinite(cert.epsilon)) {
        note(AuditCode::kMalformedCertificate,
             "non-finite bracket evidence");
        cert_sound = false;
      } else if (cert.lb > cert.ub + opt.bracket_tol) {
        note(AuditCode::kMalformedCertificate,
             "inverted bracket: lb=" + fmt(cert.lb) +
                 " > ub=" + fmt(cert.ub),
             cert.lb - cert.ub);
        cert_sound = false;
      } else if (!(cert.epsilon > 0.0) || cert.segments < 1) {
        note(AuditCode::kMalformedCertificate,
             "bracket claims epsilon=" + fmt(cert.epsilon) + ", segments=" +
                 std::to_string(cert.segments));
        cert_sound = false;
      } else {
        // Rounds must nest: lo never decreases, hi never increases, and
        // the last round must land on the final bracket.
        for (std::size_t i = 0; i < cert.rounds.size(); ++i) {
          const CertificateRound& r = cert.rounds[i];
          const bool in_order =
              i == 0 || (r.lo >= cert.rounds[i - 1].lo - opt.bracket_tol &&
                         r.hi <= cert.rounds[i - 1].hi + opt.bracket_tol);
          if (!std::isfinite(r.lo) || !std::isfinite(r.hi) ||
              r.lo > r.hi + opt.bracket_tol || !in_order) {
            note(AuditCode::kMalformedCertificate,
                 "round " + std::to_string(i) + " breaks bracket nesting");
            cert_sound = false;
            break;
          }
        }
        if (cert_sound && !cert.rounds.empty() &&
            (std::abs(cert.rounds.back().lo - cert.lb) > opt.bracket_tol ||
             std::abs(cert.rounds.back().hi - cert.ub) > opt.bracket_tol)) {
          note(AuditCode::kMalformedCertificate,
               "final round bracket does not match certified [lb, ub]");
          cert_sound = false;
        }
      }
    }
    // Coverage polytope: the certificate is self-contained — the
    // descriptor alone must reconstruct the feasible set the solve ran
    // on.  Empty or "simplex" means the paper's X (legacy certificates
    // predate the field and stay verifiable unchanged).
    if (!cert.coverage.empty() && cert.coverage != "simplex") {
      std::optional<games::CoverageSpace> parsed =
          games::CoverageSpace::from_descriptor(cert.coverage);
      if (!parsed.has_value() || parsed->is_default()) {
        note(AuditCode::kMalformedCertificate,
             "unparseable coverage descriptor \"" + cert.coverage + "\"");
        cert_sound = false;
      } else if (parsed->num_targets() != n) {
        note(AuditCode::kMalformedCertificate,
             "coverage descriptor spans " +
                 std::to_string(parsed->num_targets()) +
                 " targets but model has " + std::to_string(n));
        cert_sound = false;
      } else if (std::abs(parsed->total_budget() - budget) >
                 opt.feasibility_tol) {
        note(AuditCode::kMalformedCertificate,
             "coverage budgets sum to " + fmt(parsed->total_budget()) +
                 " but model has R=" + fmt(budget));
        cert_sound = false;
      } else {
        space = std::move(*parsed);
        space_set = true;
      }
    }
    if (cert.has_milp) {
      if (!std::isfinite(cert.milp_incumbent) ||
          !std::isfinite(cert.milp_bound)) {
        note(AuditCode::kMalformedCertificate, "non-finite MILP evidence");
        cert_sound = false;
      } else {
        const double gap = cert.milp_incumbent - cert.milp_bound;
        track(std::max(0.0, gap));
        if (gap > opt.bracket_tol) {
          note(AuditCode::kMilpInconsistent,
               "MILP incumbent " + fmt(cert.milp_incumbent) +
                   " exceeds proven bound " + fmt(cert.milp_bound),
               gap);
        }
      }
    }
  }

  // ---- Strategy feasibility, re-measured from scratch. ----
  const std::vector<double>& x = solution.strategy;
  if (x.size() != n) {
    note(AuditCode::kInfeasibleStrategy,
         "strategy has " + std::to_string(x.size()) + " coordinates, model " +
             std::to_string(n));
    out.verify_seconds = timer.seconds();
    return out;  // no vector to evaluate
  }
  double sum = 0.0;
  double box = 0.0;
  bool all_finite = true;
  for (double xi : x) {
    if (!std::isfinite(xi)) {
      all_finite = false;
      break;
    }
    sum += xi;
    box = std::max(box, std::max(-xi, xi - 1.0));
  }
  if (!all_finite) {
    note(AuditCode::kInfeasibleStrategy, "non-finite strategy coordinate");
    out.verify_seconds = timer.seconds();
    return out;
  }
  if (space_set) {
    // Polytope feasibility re-measured from the certificate's own
    // descriptor: per-group budget rows and per-target caps.  Slack is
    // legal (Eq. 37 generalizes group-wise); only excess violates.
    double budget_over = 0.0;
    double box_over = 0.0;
    space.residuals(x, budget_over, box_over);
    track(box_over);
    if (box_over > opt.feasibility_tol) {
      note(AuditCode::kInfeasibleStrategy,
           "cap/box violation " + fmt(box_over) + " beyond tolerance",
           box_over);
    }
    track(budget_over);
    if (budget_over > opt.feasibility_tol) {
      note(AuditCode::kInfeasibleStrategy,
           "group budget violation " + fmt(budget_over) +
               " beyond tolerance",
           budget_over);
    }
  } else {
    box = std::max(box, 0.0);
    track(box);
    if (box > opt.feasibility_tol) {
      note(AuditCode::kInfeasibleStrategy,
           "box violation " + fmt(box) + " beyond tolerance", box);
    }
    // Eq. 37 allows slack (sum x < R is legal); only excess violates.
    const double over = std::max(0.0, sum - budget);
    track(over);
    if (over > opt.feasibility_tol) {
      note(AuditCode::kInfeasibleStrategy,
           "budget violation: sum x = " + fmt(sum) + " > R = " + fmt(budget),
           over);
    }
  }

  // ---- Worst-case recompute over interval corners (closed form). ----
  out.recomputed_worst_case = core::worst_case_utility(game, bounds, x);
  const double claim_gap =
      std::abs(out.recomputed_worst_case - solution.worst_case_utility);
  track(claim_gap);
  if (claim_gap > opt.value_tol) {
    note(AuditCode::kWorstCaseMismatch,
         "recomputed W(x)=" + fmt(out.recomputed_worst_case) +
             " but solution claims " + fmt(solution.worst_case_utility),
         claim_gap);
  }
  if (cert.present) {
    const double cert_gap =
        std::abs(out.recomputed_worst_case - cert.claimed_worst_case);
    track(cert_gap);
    if (cert_gap > opt.value_tol) {
      note(AuditCode::kWorstCaseMismatch,
           "recomputed W(x)=" + fmt(out.recomputed_worst_case) +
               " but certificate claims " + fmt(cert.claimed_worst_case),
           cert_gap);
    }
  }

  // ---- Bracket / epsilon-optimality consistency (Theorem 1). ----
  if (cert_sound && cert.has_bracket) {
    // The K-segment linearization makes the feasibility oracle O(1/K)
    // approximate, so lb may overstate W(x) by that much — same slack
    // model the repo's own convergence tests use.
    const double scale =
        game.max_defender_reward() - game.min_defender_penalty();
    const double lin_slack = opt.linearization_slack_factor * scale /
                             static_cast<double>(std::max(1, cert.segments));
    const double lb_gap = cert.lb - out.recomputed_worst_case;
    track(std::max(0.0, lb_gap));
    if (lb_gap > lin_slack + opt.bracket_tol) {
      note(AuditCode::kBracketViolated,
           "W(x)=" + fmt(out.recomputed_worst_case) +
               " falls short of certified lb=" + fmt(cert.lb) +
               " beyond the O(1/K) allowance " + fmt(lin_slack),
           lb_gap);
    }
    if (cert.bracket_converged) {
      const double width = cert.ub - cert.lb;
      track(std::max(0.0, width - cert.epsilon));
      if (width > cert.epsilon + opt.bracket_tol) {
        note(AuditCode::kBracketViolated,
             "converged bracket width " + fmt(width) +
                 " exceeds epsilon=" + fmt(cert.epsilon),
             width - cert.epsilon);
      }
    }
  }

  out.verify_seconds = timer.seconds();
  return out;
}

AuditResult verify(const games::SecurityGame& game,
                   const behavior::AttractivenessBounds& bounds,
                   const core::DefenderSolution& solution,
                   const AuditOptions& options) {
  return verify(game, bounds, solution, solution.certificate, options);
}

std::int64_t record_outcome(const AuditResult& result,
                            const std::string& solver, std::uint64_t job_id,
                            const std::string& tag) {
  AuditMetrics& m = AuditMetrics::get();
  m.checks.add(1);
  m.verify_seconds.record(result.verify_seconds);
  // High-water gauge; benign race with concurrent auditors (monotone
  // set-if-greater, a lost update only delays the high-water mark).
  if (result.max_residual > m.max_residual.value()) {
    m.max_residual.set(result.max_residual);
  }
  if (!result.ok()) m.failures.add(1);
  obs::AuditVerdict verdict;
  verdict.worst_code = audit_code_name(result.worst());
  for (const AuditFinding& f : result.findings) {
    if (!verdict.detail.empty()) verdict.detail += "; ";
    verdict.detail += audit_code_name(f.code);
    verdict.detail += ": ";
    verdict.detail += f.detail;
  }
  verdict.findings = static_cast<int>(result.findings.size());
  verdict.max_residual = result.max_residual;
  verdict.recomputed_worst_case = result.recomputed_worst_case;
  verdict.verify_seconds = result.verify_seconds;
  const std::int64_t id = obs::JobLog::global().attach_audit(
      job_id, tag, solver, std::move(verdict));
  return result.ok() ? 0 : id;
}

}  // namespace cubisg::audit
