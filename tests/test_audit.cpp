// Correctness observability: solution certificates, the independent
// verifier, and the shadow auditor.
//
// The core contract under test: a clean solve from ANY registered solver
// family must audit clean (the verifier shares no state with the solvers,
// so a false positive here is a verifier bug), while a solution corrupted
// after finalize — by hand or through the deterministic fault-injection
// sites — must be refuted with the right typed code.  The engine test is
// the tsan headline: workers invoke the completion hook concurrently
// while the SCHED_IDLE audit worker drains the sample queue.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/shadow.hpp"
#include "audit/verify.hpp"
#include "behavior/attacker_sim.hpp"
#include "behavior/bounds.hpp"
#include "common/fault_inject.hpp"
#include "common/rng.hpp"
#include "core/registry.hpp"
#include "core/worst_case.hpp"
#include "engine/engine.hpp"
#include "games/generators.hpp"
#include "obs/job_log.hpp"
#include "obs/metrics.hpp"

namespace cubisg::audit {
namespace {

struct Fixture {
  games::UncertainGame ug;
  behavior::SuqrIntervalBounds bounds;
};

Fixture make_fixture(std::uint64_t seed, std::size_t targets = 6,
                     double resources = 2.0) {
  Rng rng(seed);
  auto ug = games::random_uncertain_game(rng, targets, resources, 1.5);
  behavior::SuqrIntervalBounds bounds(behavior::SuqrWeightIntervals{},
                                      ug.attacker_intervals);
  return {std::move(ug), std::move(bounds)};
}

core::DefenderSolution solve_with(const std::string& name,
                                  const Fixture& fx,
                                  std::size_t segments = 10) {
  core::SolverSpec spec;
  spec.name = name;
  spec.segments = segments;
  spec.epsilon = 1e-3;
  if (name == "robust-types" || name == "bayesian") {
    Rng rng(99);
    spec.population = std::make_shared<behavior::SampledSuqrPopulation>(
        behavior::SuqrWeightIntervals{}, fx.ug.attacker_intervals, 12, rng);
  }
  return core::make_solver(spec)->solve({fx.ug.game, fx.bounds});
}

bool has_code(const AuditResult& r, AuditCode code) {
  for (const AuditFinding& f : r.findings) {
    if (f.code == code) return true;
  }
  return false;
}

// ---- certificate emission ----------------------------------------------

TEST(Certificate, CubisSolveCarriesBracketEvidence) {
  Fixture fx = make_fixture(101);
  core::DefenderSolution sol = solve_with("cubis", fx);
  ASSERT_TRUE(sol.ok());
  const SolutionCertificate& cert = sol.certificate;
  EXPECT_TRUE(cert.present);
  EXPECT_EQ(cert.solver, "cubis-dp");  // the registry alias's canonical name
  EXPECT_EQ(cert.targets, fx.ug.game.num_targets());
  EXPECT_DOUBLE_EQ(cert.resources, fx.ug.game.resources());
  ASSERT_TRUE(cert.has_bracket);
  EXPECT_TRUE(cert.bracket_converged);
  EXPECT_LE(cert.lb, cert.ub + 1e-12);
  EXPECT_LE(cert.ub - cert.lb, cert.epsilon + 1e-9);
  EXPECT_EQ(cert.segments, 10);
  ASSERT_FALSE(cert.rounds.empty());
  // Rounds nest and the last one lands on the certified bracket.
  for (std::size_t i = 1; i < cert.rounds.size(); ++i) {
    EXPECT_GE(cert.rounds[i].lo, cert.rounds[i - 1].lo - 1e-9);
    EXPECT_LE(cert.rounds[i].hi, cert.rounds[i - 1].hi + 1e-9);
  }
  EXPECT_NEAR(cert.rounds.back().lo, cert.lb, 1e-9);
  EXPECT_NEAR(cert.rounds.back().hi, cert.ub, 1e-9);
  // The claimed worst case is the canonical evaluator's value.
  EXPECT_NEAR(cert.claimed_worst_case,
              core::worst_case_utility(fx.ug.game, fx.bounds, sol.strategy),
              1e-9);
  EXPECT_LE(cert.budget_residual, 1e-9);
  EXPECT_LE(cert.box_residual, 1e-9);
}

TEST(Certificate, MilpBackendCarriesIncumbentBoundPair) {
  Fixture fx = make_fixture(102, 4);
  core::DefenderSolution sol = solve_with("cubis-milp", fx, 5);
  ASSERT_TRUE(sol.ok());
  const SolutionCertificate& cert = sol.certificate;
  ASSERT_TRUE(cert.has_milp);
  // Maximization step: the incumbent can never exceed its proven bound.
  EXPECT_LE(cert.milp_incumbent, cert.milp_bound + 1e-6);
  EXPECT_GE(cert.milp_nodes, 1);
}

// ---- the clean path: every solver family audits clean ------------------

TEST(Verify, CleanSolvesAcrossAllRegisteredSolversAuditClean) {
  Fixture fx = make_fixture(103, 4);
  for (const std::string& name : core::solver_names()) {
    const core::DefenderSolution sol = solve_with(name, fx, 5);
    if (sol.strategy.empty()) continue;  // nothing to audit
    const AuditResult result = verify(fx.ug.game, fx.bounds, sol);
    EXPECT_TRUE(result.ok())
        << name << " failed its audit: " << result.to_json();
    EXPECT_NEAR(result.recomputed_worst_case, sol.worst_case_utility, 1e-6)
        << name;
  }
}

// ---- refutations -------------------------------------------------------

TEST(Verify, CorruptedStrategyCoordinateIsRefuted) {
  Fixture fx = make_fixture(104);
  core::DefenderSolution sol = solve_with("cubis", fx);
  ASSERT_TRUE(sol.ok());
  ASSERT_FALSE(sol.strategy.empty());
  // The claim (and the certificate) still describe the original strategy.
  sol.strategy[0] += sol.strategy[0] > 0.5 ? -0.3 : 0.3;
  const AuditResult result = verify(fx.ug.game, fx.bounds, sol);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_code(result, AuditCode::kWorstCaseMismatch))
      << result.to_json();
  EXPECT_GT(result.max_residual, 1e-6);
}

TEST(Verify, InfeasibleBudgetIsRefuted) {
  Fixture fx = make_fixture(105);
  core::DefenderSolution sol = solve_with("cubis", fx);
  ASSERT_TRUE(sol.ok());
  for (double& xi : sol.strategy) xi = 1.0;  // sum = 6 > R = 2
  const AuditResult result = verify(fx.ug.game, fx.bounds, sol);
  EXPECT_TRUE(has_code(result, AuditCode::kInfeasibleStrategy))
      << result.to_json();
}

TEST(Verify, InvertedBracketIsMalformed) {
  Fixture fx = make_fixture(106);
  core::DefenderSolution sol = solve_with("cubis", fx);
  ASSERT_TRUE(sol.ok());
  sol.certificate.lb = sol.certificate.ub + 1.0;
  sol.certificate.rounds.clear();
  const AuditResult result = verify(fx.ug.game, fx.bounds, sol);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.worst(), AuditCode::kMalformedCertificate)
      << result.to_json();
}

TEST(Verify, CertificateForTheWrongModelIsMalformed) {
  Fixture small = make_fixture(107, 4);
  Fixture large = make_fixture(108, 8, 3.0);
  const core::DefenderSolution sol = solve_with("cubis", small, 5);
  ASSERT_TRUE(sol.ok());
  const AuditResult result = verify(large.ug.game, large.bounds, sol);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_code(result, AuditCode::kMalformedCertificate))
      << result.to_json();
}

TEST(Verify, MilpIncumbentAboveBoundIsInconsistent) {
  Fixture fx = make_fixture(109);
  core::DefenderSolution sol = solve_with("cubis", fx);
  ASSERT_TRUE(sol.ok());
  sol.certificate.has_milp = true;
  sol.certificate.milp_bound = -10.0;
  sol.certificate.milp_incumbent = -9.0;  // "better" than proven possible
  const AuditResult result = verify(fx.ug.game, fx.bounds, sol);
  EXPECT_TRUE(has_code(result, AuditCode::kMilpInconsistent))
      << result.to_json();
}

// ---- fault-injection sites: the end-to-end detection story -------------

TEST(FaultSites, CorruptSolutionSiteIsDetected) {
  if (!faultinject::compiled_in()) GTEST_SKIP();
  Fixture fx = make_fixture(110);
  faultinject::arm(faultinject::Site::kAuditCorruptSolution, 1);
  const core::DefenderSolution sol = solve_with("cubis", fx);
  faultinject::disarm_all();
  ASSERT_EQ(faultinject::fire_count(
                faultinject::Site::kAuditCorruptSolution), 1);
  const AuditResult result = verify(fx.ug.game, fx.bounds, sol);
  EXPECT_FALSE(result.ok()) << result.to_json();
  EXPECT_TRUE(has_code(result, AuditCode::kWorstCaseMismatch))
      << result.to_json();
}

TEST(FaultSites, CorruptCertificateSiteIsMalformed) {
  if (!faultinject::compiled_in()) GTEST_SKIP();
  Fixture fx = make_fixture(111);
  faultinject::arm(faultinject::Site::kAuditCorruptCertificate, 1);
  const core::DefenderSolution sol = solve_with("cubis", fx);
  faultinject::disarm_all();
  const AuditResult result = verify(fx.ug.game, fx.bounds, sol);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.worst(), AuditCode::kMalformedCertificate)
      << result.to_json();
}

// ---- record_outcome: metrics + the job log's /auditz view ---------------

TEST(RecordOutcome, FailuresLandInMetricsAndTheAuditView) {
  obs::JobLog::global().clear();
  Fixture fx = make_fixture(112);
  core::DefenderSolution sol = solve_with("cubis", fx);
  ASSERT_TRUE(sol.ok());
  const auto checks_before =
      obs::Registry::global().counter("audit.checks_total").value();
  const auto failures_before =
      obs::Registry::global().counter("audit.failures_total").value();

  const AuditResult clean = verify(fx.ug.game, fx.bounds, sol);
  EXPECT_EQ(record_outcome(clean, "cubis", 7, "clean"), 0);

  sol.strategy[0] += sol.strategy[0] > 0.5 ? -0.3 : 0.3;
  const AuditResult bad = verify(fx.ug.game, fx.bounds, sol);
  ASSERT_FALSE(bad.ok());
  const std::int64_t id = record_outcome(bad, "cubis", 8, "corrupted");
  EXPECT_GT(id, 0);

  EXPECT_EQ(obs::Registry::global().counter("audit.checks_total").value(),
            checks_before + 2);
  EXPECT_EQ(obs::Registry::global().counter("audit.failures_total").value(),
            failures_before + 1);
  EXPECT_GE(obs::Registry::global().gauge("audit.max_residual").value(),
            bad.max_residual);

  // Neither job has a record in the log, so only the failure is kept
  // (as an audit-only record); the clean verdict is dropped.
  const auto records = obs::JobLog::global().recent();
  ASSERT_EQ(records.size(), 1u);
  ASSERT_TRUE(records.back().audit.has_value());
  EXPECT_EQ(records.back().id, id);
  EXPECT_EQ(records.back().job_id, 8u);
  EXPECT_EQ(records.back().tag, "corrupted");
  EXPECT_EQ(records.back().solver, "cubis");
  EXPECT_EQ(records.back().audit->worst_code, "worst-case-mismatch");
  EXPECT_GT(records.back().audit->findings, 0);
  obs::JobLog::global().clear();
}

TEST(JobLog, AuditViewEvictsOldestAndKeepsTotals) {
  obs::JobLog log(3);
  obs::AuditVerdict bad;
  bad.worst_code = "bracket-violated";
  bad.findings = 1;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(log.attach_audit(0, "r" + std::to_string(i), "cubis", bad),
              i + 1);
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.total(obs::JobView::kFailedAudit), 5);
  const auto recent = log.recent(obs::JobView::kFailedAudit);
  ASSERT_EQ(recent.size(), 3u);  // oldest first, ids 3..5 survive
  EXPECT_EQ(recent[0].tag, "r2");
  EXPECT_EQ(recent[2].tag, "r4");
  const std::string json = log.to_json(obs::JobView::kFailedAudit);
  EXPECT_NE(json.find("\"total\":5"), std::string::npos) << json;
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total(obs::JobView::kFailedAudit), 5);  // survive a clear
}

// ---- the shadow auditor ------------------------------------------------

TEST(ShadowAuditor, SamplesEveryNthAndDrainsOnStop) {
  Fixture fx = make_fixture(113);
  const core::DefenderSolution sol = solve_with("cubis", fx);
  ASSERT_TRUE(sol.ok());
  auto game_sp = std::make_shared<games::SecurityGame>(fx.ug.game);
  auto bounds_sp =
      std::make_shared<behavior::SuqrIntervalBounds>(fx.bounds);

  ShadowAuditor::Options opt;
  opt.sample_every = 2;
  ShadowAuditor auditor(opt);
  auditor.start();
  for (std::uint64_t i = 0; i < 6; ++i) {
    auditor.observe(game_sp, bounds_sp, sol, i, "t");
  }
  auditor.stop();  // drains everything already queued
  EXPECT_EQ(auditor.observed(), 6u);
  EXPECT_EQ(auditor.audited(), 3u);
  EXPECT_EQ(auditor.failures(), 0u);
  EXPECT_EQ(auditor.dropped(), 0u);
}

TEST(ShadowAuditor, ConcurrentEngineCompletionHook) {
  // tsan headline: 4 workers race through on_outcome into observe() while
  // the audit worker concurrently drains and verifies.
  Fixture fx = make_fixture(114, 8, 3.0);
  auto fx_sp = std::make_shared<Fixture>(std::move(fx));
  auto game_sp =
      std::shared_ptr<const games::SecurityGame>(fx_sp, &fx_sp->ug.game);
  auto bounds_sp = std::shared_ptr<const behavior::SuqrIntervalBounds>(
      fx_sp, &fx_sp->bounds);

  core::SolverSpec spec;
  spec.name = "cubis";
  spec.segments = 8;
  spec.epsilon = 1e-3;
  std::shared_ptr<const core::DefenderSolver> solver =
      core::make_solver(spec);

  ShadowAuditor::Options aopt;
  aopt.sample_every = 1;
  ShadowAuditor auditor(aopt);
  auditor.start();

  engine::EngineOptions eopt;
  eopt.workers = 4;
  eopt.queue_capacity = 16;
  eopt.on_outcome = [&auditor](const engine::SolveJob& job,
                               const engine::JobOutcome& out) {
    if (out.status != engine::JobStatus::kCompleted) return;
    auditor.observe(job.game, job.bounds, out.solution, out.id, out.tag);
  };
  constexpr int kJobs = 16;
  {
    engine::SolveEngine eng(solver, eopt);
    std::vector<std::future<engine::JobOutcome>> futures;
    for (int i = 0; i < kJobs; ++i) {
      futures.push_back(eng.submit({game_sp, bounds_sp}));
    }
    for (auto& f : futures) {
      EXPECT_EQ(f.get().status, engine::JobStatus::kCompleted);
    }
    eng.shutdown();
  }
  auditor.stop();
  EXPECT_EQ(auditor.observed(), static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(auditor.audited(), static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(auditor.failures(), 0u);
}

TEST(ShadowAuditor, DetectsInjectedCorruptionThroughTheEngine) {
  if (!faultinject::compiled_in()) GTEST_SKIP();
  obs::JobLog::global().clear();
  Fixture fx = make_fixture(115);
  auto fx_sp = std::make_shared<Fixture>(std::move(fx));
  auto game_sp =
      std::shared_ptr<const games::SecurityGame>(fx_sp, &fx_sp->ug.game);
  auto bounds_sp = std::shared_ptr<const behavior::SuqrIntervalBounds>(
      fx_sp, &fx_sp->bounds);
  core::SolverSpec spec;
  spec.name = "cubis";
  spec.segments = 8;
  std::shared_ptr<const core::DefenderSolver> solver =
      core::make_solver(spec);

  ShadowAuditor::Options aopt;
  aopt.sample_every = 1;
  ShadowAuditor auditor(aopt);
  auditor.start();
  engine::EngineOptions eopt;
  eopt.workers = 1;  // deterministic: exactly the first job is corrupted
  eopt.on_outcome = [&auditor](const engine::SolveJob& job,
                               const engine::JobOutcome& out) {
    if (out.status != engine::JobStatus::kCompleted) return;
    auditor.observe(job.game, job.bounds, out.solution, out.id, out.tag);
  };
  faultinject::arm(faultinject::Site::kAuditCorruptSolution, 1);
  {
    engine::SolveEngine eng(solver, eopt);
    std::vector<std::future<engine::JobOutcome>> futures;
    for (int i = 0; i < 3; ++i) {
      futures.push_back(eng.submit({game_sp, bounds_sp}));
    }
    for (auto& f : futures) f.get();
    eng.shutdown();
  }
  faultinject::disarm_all();
  auditor.stop();
  EXPECT_EQ(auditor.audited(), 3u);
  EXPECT_EQ(auditor.failures(), 1u);
  // Every job filed one record; the failed verdict landed on the first
  // job's record, which is the only one in the /auditz view.
  EXPECT_EQ(obs::JobLog::global().recent().size(), 3u);
  const auto records =
      obs::JobLog::global().recent(obs::JobView::kFailedAudit);
  ASSERT_EQ(records.size(), 1u);
  ASSERT_TRUE(records.back().audit.has_value());
  EXPECT_EQ(records.back().job_id, 1u);
  EXPECT_EQ(records.back().job_status, "completed");
  // The +0.4 kick either breaks the value claim or (when the budget was
  // tight) overshoots it; either refutation proves detection.
  EXPECT_TRUE(records.back().audit->worst_code == "worst-case-mismatch" ||
              records.back().audit->worst_code == "infeasible-strategy")
      << records.back().audit->worst_code;
  // The registry alias "cubis" resolves to the DP-backend solver.
  EXPECT_EQ(records.back().solver, "cubis-dp");
  obs::JobLog::global().clear();
}

}  // namespace
}  // namespace cubisg::audit
