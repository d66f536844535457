// cubisg — command-line front end for the library.
//
//   cubisg generate --targets N [--resources R] [--width W] [--seed S]
//                   [--zero-sum 0|1] [--family F] --out FILE
//   cubisg table1 --out FILE
//   cubisg solve FILE [--solver NAME] [--segments K] [--epsilon E]
//                [--polish N] [--types N]
//   cubisg compare FILE [--types N]
//   cubisg eval FILE --coverage x1,x2,...
//   cubisg patrol FILE [--solver NAME] [--days N] [--seed S]
//   cubisg serve FILE [--listen PORT] [--solves N] [--interval-ms M]
//                [--workers N]
//   cubisg batch DIR|MANIFEST [--workers N] [--solver NAME]
//
// Scenario files use the cubisg text format (behavior/scenario.hpp).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "audit/shadow.hpp"
#include "audit/verify.hpp"
#include "behavior/attacker_sim.hpp"
#include "behavior/scenario.hpp"
#include "common/budget.hpp"
#include "common/build_info.hpp"
#include "common/fault_inject.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include <set>

#include "core/registry.hpp"
#include "core/step_solver.hpp"
#include "core/worst_case.hpp"
#include "engine/engine.hpp"
#include "engine/journal.hpp"
#include "engine/process_pool.hpp"
#include "games/comb_sampling.hpp"
#include "games/generators.hpp"
#include "learning/data_io.hpp"
#include "learning/suqr_mle.hpp"
#include "obs/http_exporter.hpp"
#include "obs/job_log.hpp"
#include "obs/metrics.hpp"
#include "obs/process_metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace {

using namespace cubisg;

[[noreturn]] void usage(const char* why = nullptr) {
  if (why) std::fprintf(stderr, "error: %s\n\n", why);
  std::fprintf(stderr,
               "usage:\n"
               "  cubisg generate --targets N [--resources R] [--width W]\n"
               "                  [--seed S] [--zero-sum 0|1] --out FILE\n"
               "                  [--family simplex|multi-defender|\n"
               "                   patrol-graph]\n"
               "                  multi-defender: [--defenders D] [--block T]\n"
               "                  [--budget B];  patrol-graph: [--locations L]\n"
               "                  [--slots S] [--per-slot B]\n"
               "  cubisg table1 --out FILE\n"
               "  cubisg solve FILE [--solver NAME] [--segments K]\n"
               "                [--epsilon E] [--polish N] [--types N]\n"
               "                [--sections S] [--deadline-ms MS]\n"
               "                [--max-nodes N]\n"
               "  cubisg verify FILE [--solver NAME] [solve flags]\n"
               "                (solve, then independently re-verify the\n"
               "                solution against its certificate)\n"
               "  cubisg compare FILE [--types N]\n"
               "  cubisg eval FILE --coverage x1,x2,...\n"
               "  cubisg patrol FILE [--solver NAME] [--days N] [--seed S]\n"
               "  cubisg simulate-data FILE --records N --out DATA\n"
               "                [--truth w1,w2,w3] [--seed S]\n"
               "  cubisg learn FILE --data DATA [--resamples N]\n"
               "                [--confidence C] [--solve 0|1]\n"
               "  cubisg report FILE [--out REPORT.md]\n"
               "  cubisg serve FILE [--solver NAME] [--solves N]\n"
               "                [--interval-ms M] [--workers N] [--queue N]\n"
               "                [--isolate 0|1] [--retries N]\n"
               "                [--cache MODE] [--cache-entries N]\n"
               "                (solve loop on the concurrent engine; keeps\n"
               "                the process alive for /metrics scraping)\n"
               "  cubisg batch DIR|MANIFEST [--solver NAME] [--workers N]\n"
               "                [--queue N] [--isolate 0|1] [--retries N]\n"
               "                [--journal FILE] [--resume 0|1]\n"
               "                [--cache MODE] [--cache-entries N]\n"
               "                (shard scenario files — *.scn\n"
               "                or *.txt in DIR, or one path per line in a\n"
               "                manifest — across engine workers; malformed\n"
               "                entries are skipped and counted, SIGINT\n"
               "                prints a partial summary and exits 2, and\n"
               "                --journal/--resume skip already-completed\n"
               "                jobs after a crash or interrupt)\n"
               "  cubisg --version     print build provenance (version, git\n"
               "                sha, compiler, obs/fault-injection flags,\n"
               "                dispatched DP kernel ISA)\n"
               "\nglobal flags (any command):\n"
               "  --metrics-out FILE   write the metrics registry as JSON\n"
               "  --trace-out FILE     record phase spans; write Chrome\n"
               "                       trace JSON (chrome://tracing)\n"
               "  --listen PORT        serve GET /metrics (Prometheus),\n"
               "                       /healthz, /solvez, /slowz, /auditz\n"
               "                       and /profilez?seconds=N while the\n"
               "                       command runs (0 = ephemeral port)\n"
               "  --listen-host ADDR   bind address (default 127.0.0.1)\n"
               "  --profile-out FILE   sample every solver thread's wall\n"
               "                       clock (99 Hz default) and write\n"
               "                       collapsed flamegraph stacks\n"
               "  --profile-hz N       sampling frequency for --profile-out\n"
               "  --slow-solve-ms MS   mark any solve taking >= MS slow:\n"
               "                       its job record keeps phase totals\n"
               "                       and budget state (GET /slowz)\n"
               "  --slow-solve-out FILE  write the slow job records as\n"
               "                       JSON when the command exits\n"
               "  --audit-sample N     (serve/batch) shadow-audit every Nth\n"
               "                       completed solve on a low-priority\n"
               "                       worker; failures are served at GET\n"
               "                       /auditz and counted in\n"
               "                       audit.failures_total\n"
               "  --audit-out FILE     write the audit-failed job records as\n"
               "                       JSON when the command exits\n"
               "\nsolve budget (solve/patrol/serve; in serve mode the\n"
               "budget re-arms per request, acting as a watchdog):\n"
               "  --deadline-ms MS     wall-clock budget; on expiry the best\n"
               "                       incumbent + certified bracket return\n"
               "  --max-nodes N        cap total branch-and-bound nodes\n"
               "\ncrash containment (serve/batch):\n"
               "  --isolate 0|1        run each solve in a forked worker\n"
               "                       process: a crashing solve is retried\n"
               "                       on a respawned worker instead of\n"
               "                       taking the service down (POSIX\n"
               "                       builds; degrades to threads with a\n"
               "                       warning elsewhere);\n"
               "                       live worker state at GET /workersz\n"
               "  --retries N          extra attempts per job on transient\n"
               "                       failures (numeric trouble, crashes);\n"
               "                       deterministic failures never retry\n"
               "  --max-crashes N      worker crashes one job may absorb\n"
               "                       before quarantine (default 2)\n"
               "  --journal FILE       (batch) append-only fsynced progress\n"
               "                       journal, one record per finished job\n"
               "  --resume 0|1         (batch) skip jobs the journal already\n"
               "                       records as completed\n"
               "\ncross-solve cache (serve/batch):\n"
               "  --cache MODE         off (default) | exact | transplant.\n"
               "                       exact: identical scenarios are served\n"
               "                       from an engine-level LRU, bitwise-\n"
               "                       identical to a fresh solve.  transplant\n"
               "                       additionally warm-starts near-miss\n"
               "                       solves from the nearest cached\n"
               "                       neighbor (adopt/repair/reject per\n"
               "                       target; never the simplex basis) —\n"
               "                       results stay bitwise-identical to a\n"
               "                       cold solve.  Live state at GET /cachez\n"
               "  --cache-entries N    LRU capacity in cached solutions\n"
               "                       (default 256)\n"
               "\nsolve exit codes:\n"
               "  0  optimal           solved to the requested epsilon\n"
               "  2  budget stop       deadline/cancel/cap hit; incumbent\n"
               "                       coverage and [lb, ub] still printed\n"
               "  3  infeasible        the model admits no strategy\n"
               "  4  numeric failure   retries exhausted; check the logs\n"
               "\nbatch exit codes:\n"
               "  0  every job solved  (resumed jobs count as solved)\n"
               "  1  some jobs failed, were skipped or were quarantined\n"
               "  2  interrupted       SIGINT/SIGTERM; journal flushed and\n"
               "                       partial summary printed — rerun with\n"
               "                       --resume to pick up where it stopped\n"
               "\nverify exit codes (in addition to the above):\n"
               "  5  audit failure     the independent verifier refuted the\n"
               "                       solution (bracket, feasibility or\n"
               "                       worst-case mismatch)\n"
               "  6  malformed certificate  the certificate is self-\n"
               "                       inconsistent or for the wrong model\n"
               "\nsolvers:");
  for (const std::string& n : core::solver_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

/// flag -> value map from argv after the subcommand (and optional file).
struct Args {
  std::string file;
  std::map<std::string, std::string> flags;

  std::string get(const std::string& key, const std::string& dflt) const {
    auto it = flags.find(key);
    return it == flags.end() ? dflt : it->second;
  }
  double get_d(const std::string& key, double dflt) const {
    auto it = flags.find(key);
    return it == flags.end() ? dflt : std::strtod(it->second.c_str(), nullptr);
  }
  long get_i(const std::string& key, long dflt) const {
    auto it = flags.find(key);
    return it == flags.end() ? dflt
                             : std::strtol(it->second.c_str(), nullptr, 10);
  }
};

Args parse_args(int argc, char** argv, int start) {
  Args args;
  for (int i = start; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      args.flags[a.substr(2)] = argv[++i];
    } else if (args.file.empty()) {
      args.file = a;
    } else {
      usage(("unexpected argument " + a).c_str());
    }
  }
  return args;
}

behavior::Scenario load_or_die(const std::string& path) {
  if (path.empty()) usage("scenario file required");
  return behavior::load_scenario(path);
}

/// The scenario's coverage polytope as a SolveContext::space pointer:
/// null for the default simplex (the legacy, bitwise-pinned path), else
/// the scenario's own polytope.  The scenario outlives every solve here.
const games::CoverageSpace* space_of(const behavior::Scenario& scenario) {
  return scenario.coverage.is_default() ? nullptr : &scenario.coverage;
}

/// Scenario-independent part of the solver spec (everything but the
/// sampled population).  Used directly by `batch`, which shares one solver
/// across many scenarios.
core::SolverSpec base_spec_from(const Args& args) {
  core::SolverSpec spec;
  spec.name = args.get("solver", "cubis");
  spec.segments = static_cast<std::size_t>(args.get_i("segments", 20));
  spec.epsilon = args.get_d("epsilon", 1e-3);
  spec.polish_iterations = static_cast<int>(args.get_i("polish", 0));
  spec.parallel_sections = static_cast<int>(args.get_i("sections", 1));
  spec.seed = static_cast<std::uint64_t>(args.get_i("seed", 0x5EED));
  return spec;
}

core::SolverSpec spec_from(const Args& args,
                           const behavior::Scenario& scenario) {
  core::SolverSpec spec = base_spec_from(args);
  if (spec.name == "robust-types" || spec.name == "bayesian") {
    Rng rng(spec.seed);
    spec.population = std::make_shared<behavior::SampledSuqrPopulation>(
        scenario.weights, scenario.game.attacker_intervals,
        static_cast<std::size_t>(args.get_i("types", 100)), rng);
  }
  return spec;
}

void print_solution(const behavior::Scenario& scenario,
                    const core::DefenderSolution& sol, const char* name) {
  std::printf("solver:            %s\n", name);
  std::printf("status:            %s\n",
              std::string(to_string(sol.status)).c_str());
  std::printf("coverage:         ");
  for (double xi : sol.strategy) std::printf(" %.4f", xi);
  std::printf("\n");
  std::printf("worst-case utility: %+.4f\n", sol.worst_case_utility);
  auto bounds = scenario.make_bounds();
  if (!sol.strategy.empty()) {
    std::printf("best-case utility:  %+.4f\n",
                core::best_case_utility(scenario.game.game, bounds,
                                        sol.strategy));
  }
  std::printf("wall time:          %.1f ms\n", sol.wall_seconds * 1e3);
  if (sol.binary_steps > 0) {
    std::printf("binary steps:       %d  (lb=%.4f ub=%.4f)\n",
                sol.binary_steps, sol.lb, sol.ub);
  }
}

int cmd_generate(const Args& args) {
  const double width = args.get_d("width", 2.0);
  Rng rng(static_cast<std::uint64_t>(args.get_i("seed", 1)));
  games::GeneratorOptions gopt;
  gopt.zero_sum = args.get_i("zero-sum", 1) != 0;
  const std::string family = args.get("family", "simplex");

  games::FamilyGame fg = [&]() -> games::FamilyGame {
    if (family == "simplex") {
      const std::size_t targets =
          static_cast<std::size_t>(args.get_i("targets", 0));
      if (targets == 0) usage("--targets required");
      const double resources = args.get_d(
          "resources", std::max(1.0, 0.3 * static_cast<double>(targets)));
      return {games::random_uncertain_game(rng, targets, resources, width,
                                           gopt),
              games::CoverageSpace{}};
    }
    if (family == "multi-defender") {
      const std::size_t defenders =
          static_cast<std::size_t>(args.get_i("defenders", 3));
      const std::size_t block =
          static_cast<std::size_t>(args.get_i("block", 5));
      const double budget = args.get_d(
          "budget", std::max(1.0, 0.3 * static_cast<double>(block)));
      return games::multi_defender_uncertain_game(rng, defenders, block,
                                                  budget, width, gopt);
    }
    if (family == "patrol-graph") {
      const std::size_t locations =
          static_cast<std::size_t>(args.get_i("locations", 5));
      const std::size_t slots =
          static_cast<std::size_t>(args.get_i("slots", 4));
      const double per_slot = args.get_d("per-slot", 2.0);
      return games::patrol_graph_uncertain_game(rng, locations, slots,
                                                per_slot, width, gopt);
    }
    usage("--family must be simplex, multi-defender or patrol-graph");
  }();
  behavior::Scenario scenario{std::move(fg.game),
                              behavior::SuqrWeightIntervals{},
                              behavior::IntervalMode::kExactBox,
                              std::move(fg.coverage)};

  const std::string out = args.get("out", "");
  if (out.empty()) usage("--out required");
  if (!behavior::save_scenario(out, scenario)) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s (%s, %zu targets, %.1f resources, width %.1f)\n",
              out.c_str(), family.c_str(),
              scenario.game.game.num_targets(),
              scenario.game.game.resources(), width);
  return 0;
}

int cmd_table1(const Args& args) {
  behavior::Scenario scenario{games::table1_game(),
                              behavior::SuqrWeightIntervals{},
                              behavior::IntervalMode::kPaperCorners};
  const std::string out = args.get("out", "");
  if (out.empty()) usage("--out required");
  if (!behavior::save_scenario(out, scenario)) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s (the paper's Table I instance)\n", out.c_str());
  return 0;
}

std::atomic<bool> g_interrupted{false};

/// Budget table for the signal handler: one slot per concurrent solve
/// (engine workers register one each; single-shot commands use one slot).
/// A fixed array of atomics keeps the handler async-signal-safe — it only
/// walks preallocated storage doing relaxed loads and stores, never
/// allocating or locking.  Replaces the old single "active budget" slot,
/// which could only cancel one in-flight solve.
constexpr std::size_t kBudgetSlots = 64;
std::atomic<SolveBudget*> g_budget_slots[kBudgetSlots]{};
/// The running engine (if any), so SIGINT also marks queued jobs
/// cancelled; SolveEngine::cancel_all is async-signal-safe by contract.
std::atomic<engine::SolveEngine*> g_active_engine{nullptr};

void on_termination_signal(int) {
  g_interrupted.store(true);
  for (std::atomic<SolveBudget*>& slot : g_budget_slots) {
    if (SolveBudget* b = slot.load()) b->request_cancel();
  }
  if (engine::SolveEngine* e = g_active_engine.load()) e->cancel_all();
}

void install_signal_handlers() {
  std::signal(SIGINT, on_termination_signal);
  std::signal(SIGTERM, on_termination_signal);
}

/// RAII registration of one budget in the signal table.
class BudgetRegistration {
 public:
  explicit BudgetRegistration(SolveBudget& budget) {
    for (std::size_t i = 0; i < kBudgetSlots; ++i) {
      SolveBudget* expected = nullptr;
      if (g_budget_slots[i].compare_exchange_strong(expected, &budget)) {
        slot_ = i;
        return;
      }
    }
    // Table full (more concurrent budgets than slots): SIGINT still stops
    // the loop via g_interrupted / the engine-level cancel.
  }
  ~BudgetRegistration() {
    if (slot_ != kBudgetSlots) g_budget_slots[slot_].store(nullptr);
  }
  BudgetRegistration(const BudgetRegistration&) = delete;
  BudgetRegistration& operator=(const BudgetRegistration&) = delete;

 private:
  std::size_t slot_ = kBudgetSlots;
};

/// Maps a final solver status to the documented process exit code.
int exit_code_for(SolverStatus status) {
  switch (status) {
    case SolverStatus::kOptimal:
      return 0;
    case SolverStatus::kDeadlineExceeded:
    case SolverStatus::kCancelled:
    case SolverStatus::kIterLimit:
    case SolverStatus::kTimeLimit:
      return 2;  // budget stop: incumbent + bracket were still reported
    case SolverStatus::kInfeasible:
      return 3;
    default:
      return 4;  // numeric failure / unbounded / unexpected
  }
}

/// Arms `budget` from --deadline-ms / --max-nodes (no flags = unlimited).
void arm_budget_from_flags(const Args& args, SolveBudget& budget) {
  const double deadline_ms = args.get_d("deadline-ms", 0.0);
  if (deadline_ms > 0.0) budget.set_deadline_after(deadline_ms * 1e-3);
  const long max_nodes = args.get_i("max-nodes", 0);
  if (max_nodes > 0) budget.set_node_limit(max_nodes);
}

int cmd_solve(const Args& args) {
  behavior::Scenario scenario = load_or_die(args.file);
  auto bounds = scenario.make_bounds();
  core::SolverSpec spec = spec_from(args, scenario);
  auto solver = core::make_solver(spec);
  // Every solve runs under a budget so Ctrl-C degrades to "best incumbent
  // + certified bracket" instead of killing the process mid-solve.
  SolveBudget budget;
  arm_budget_from_flags(args, budget);
  install_signal_handlers();
  core::DefenderSolution sol;
  obs::begin_phase_accounting();
  {
    BudgetRegistration reg(budget);
    sol = solver->solve({scenario.game.game, bounds, &budget,
                         /*workspace=*/nullptr, space_of(scenario)});
  }
  // One-shot solves file a job-0 record like engine jobs do, so /solvez
  // and the --slow-solve-ms forensics work without the engine.
  {
    engine::JobOutcome out;
    out.tag = args.file;
    out.status = engine::JobStatus::kCompleted;
    out.solve_seconds = sol.wall_seconds;
    out.solution = sol;
    engine::record_job(out, budget, budget.deadline_seconds());
  }
  print_solution(scenario, sol, solver->name().c_str());
  if (is_budget_stop(sol.status)) {
    std::printf("note: stopped early (%s); coverage above is the best "
                "incumbent, certified within [%.4f, %.4f]\n",
                std::string(to_string(sol.status)).c_str(), sol.lb, sol.ub);
  }
  return exit_code_for(sol.status);
}

/// Solve-then-audit: runs the requested solver, then hands the solution
/// and its certificate to the independent verifier (src/audit), which
/// re-derives feasibility, the worst-case utility and the bracket claims
/// from the model alone.  Exit code 0 = verified clean, 5 = the verifier
/// refuted the solution, 6 = the certificate itself is malformed.
int cmd_verify(const Args& args) {
  behavior::Scenario scenario = load_or_die(args.file);
  auto bounds = scenario.make_bounds();
  core::SolverSpec spec = spec_from(args, scenario);
  auto solver = core::make_solver(spec);
  SolveBudget budget;
  arm_budget_from_flags(args, budget);
  install_signal_handlers();
  core::DefenderSolution sol;
  {
    BudgetRegistration reg(budget);
    sol = solver->solve({scenario.game.game, bounds, &budget,
                         /*workspace=*/nullptr, space_of(scenario)});
  }
  if (!sol.ok() && sol.strategy.empty()) {
    std::fprintf(stderr, "verify: solve failed: %s\n",
                 std::string(to_string(sol.status)).c_str());
    return exit_code_for(sol.status);
  }
  const audit::AuditResult result =
      audit::verify(scenario.game.game, bounds, sol);
  audit::record_outcome(result, solver->name(), /*job_id=*/0, args.file);
  std::printf("verify: %s\n",
              result.ok()
                  ? "PASS"
                  : (std::string("FAIL (") +
                     audit::audit_code_name(result.worst()) + ")")
                        .c_str());
  std::printf("  solver:                %s\n", solver->name().c_str());
  std::printf("  recomputed worst-case: %+.6f (claimed %+.6f)\n",
              result.recomputed_worst_case, sol.worst_case_utility);
  if (sol.certificate.has_bracket) {
    std::printf("  certified bracket:     [%.6f, %.6f] eps=%g K=%d%s\n",
                sol.certificate.lb, sol.certificate.ub,
                sol.certificate.epsilon, sol.certificate.segments,
                sol.certificate.bracket_converged ? " (converged)" : "");
  }
  std::printf("  max residual:          %.3e\n", result.max_residual);
  std::printf("  verify time:           %.2f ms\n",
              result.verify_seconds * 1e3);
  for (const audit::AuditFinding& f : result.findings) {
    std::printf("  finding [%s]: %s (residual %.3e)\n",
                audit::audit_code_name(f.code), f.detail.c_str(), f.residual);
  }
  if (result.ok()) return 0;
  return result.worst() == audit::AuditCode::kMalformedCertificate ? 6 : 5;
}

int cmd_compare(const Args& args) {
  behavior::Scenario scenario = load_or_die(args.file);
  auto bounds = scenario.make_bounds();
  core::SolveContext ctx{scenario.game.game, bounds, /*budget=*/nullptr,
                         /*workspace=*/nullptr, space_of(scenario)};
  std::printf("%-16s %12s %12s %10s\n", "solver", "worst-case", "best-case",
              "time(ms)");
  for (const std::string& name : core::solver_names()) {
    if (name == "cubis-milp") continue;  // slow; run explicitly via solve
    Args a2 = args;
    a2.flags["solver"] = name;
    core::SolverSpec spec = spec_from(a2, scenario);
    auto solver = core::make_solver(spec);
    core::DefenderSolution sol = solver->solve(ctx);
    const double best = sol.strategy.empty()
                            ? 0.0
                            : core::best_case_utility(
                                  scenario.game.game, bounds, sol.strategy);
    std::printf("%-16s %12.4f %12.4f %10.1f\n", name.c_str(),
                sol.worst_case_utility, best, sol.wall_seconds * 1e3);
  }
  return 0;
}

int cmd_eval(const Args& args) {
  behavior::Scenario scenario = load_or_die(args.file);
  const std::string cov = args.get("coverage", "");
  if (cov.empty()) usage("--coverage required");
  std::vector<double> x;
  const char* p = cov.c_str();
  char* end = nullptr;
  for (double v = std::strtod(p, &end); p != end;
       v = std::strtod(p, &end)) {
    x.push_back(v);
    p = (*end == ',') ? end + 1 : end;
  }
  if (x.size() != scenario.game.game.num_targets()) {
    usage("coverage length must equal the number of targets");
  }
  auto bounds = scenario.make_bounds();
  core::WorstCaseResult wc =
      core::worst_case(scenario.game.game, bounds, x);
  std::printf("worst-case utility: %+.4f\n", wc.value);
  std::printf("best-case utility:  %+.4f\n",
              core::best_case_utility(scenario.game.game, bounds, x));
  std::printf("worst-case attack distribution:");
  for (double q : wc.attack_q) std::printf(" %.3f", q);
  std::printf("\n");
  return 0;
}

int cmd_patrol(const Args& args) {
  behavior::Scenario scenario = load_or_die(args.file);
  auto bounds = scenario.make_bounds();
  core::SolverSpec spec = spec_from(args, scenario);
  auto solver = core::make_solver(spec);
  SolveBudget budget;
  arm_budget_from_flags(args, budget);
  install_signal_handlers();
  core::DefenderSolution sol;
  {
    BudgetRegistration reg(budget);
    sol = solver->solve({scenario.game.game, bounds, &budget,
                         /*workspace=*/nullptr, space_of(scenario)});
  }
  if (!sol.ok()) {
    std::fprintf(stderr, "solve failed: %s\n",
                 std::string(to_string(sol.status)).c_str());
    return exit_code_for(sol.status);
  }
  std::printf("marginal coverage: ");
  for (double xi : sol.strategy) std::printf(" %.4f", xi);
  std::printf("  (worst case %+.4f)\n\n", sol.worst_case_utility);

  auto mix = games::comb_decomposition(sol.strategy);
  std::printf("implementable mixture (%zu pure patrols):\n", mix.size());
  for (const auto& alloc : mix) {
    std::printf("  p=%.4f  patrol {", alloc.probability);
    for (std::size_t k = 0; k < alloc.covered.size(); ++k) {
      std::printf("%s%zu", k ? ", " : "", alloc.covered[k]);
    }
    std::printf("}\n");
  }

  const long days = args.get_i("days", 0);
  if (days > 0) {
    Rng rng(static_cast<std::uint64_t>(args.get_i("seed", 7)));
    std::printf("\nsampled schedule (%ld days):\n", days);
    for (long d = 0; d < days; ++d) {
      auto patrol = games::comb_sample(sol.strategy, rng);
      std::printf("  day %2ld: {", d + 1);
      for (std::size_t k = 0; k < patrol.size(); ++k) {
        std::printf("%s%zu", k ? ", " : "", patrol[k]);
      }
      std::printf("}\n");
    }
  }
  return 0;
}

std::vector<double> parse_csv_doubles(const std::string& s) {
  std::vector<double> out;
  const char* p = s.c_str();
  char* end = nullptr;
  for (double v = std::strtod(p, &end); p != end;
       v = std::strtod(p, &end)) {
    out.push_back(v);
    p = (*end == ',') ? end + 1 : end;
  }
  return out;
}

int cmd_report(const Args& args) {
  behavior::Scenario scenario = load_or_die(args.file);
  auto bounds = scenario.make_bounds();
  core::SolveContext ctx{scenario.game.game, bounds, /*budget=*/nullptr,
                         /*workspace=*/nullptr, space_of(scenario)};
  const std::string out_path = args.get("out", "");
  std::FILE* out = out_path.empty() ? stdout
                                    : std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }

  const games::SecurityGame& g = scenario.game.game;
  std::fprintf(out, "# cubisg deployment report\n\n");
  std::fprintf(out, "## Instance\n\n");
  std::fprintf(out, "- targets: %zu\n- resources: %.2f\n- interval mode: "
               "%s\n\n", g.num_targets(), g.resources(),
               scenario.mode == behavior::IntervalMode::kPaperCorners
                   ? "paper-corners" : "exact-box");
  std::fprintf(out,
               "| target | Ra | Pa | Rd | Pd | Ra interval | Pa interval |\n"
               "|---|---|---|---|---|---|---|\n");
  for (std::size_t i = 0; i < g.num_targets(); ++i) {
    const auto& p = g.target(i);
    const auto& iv = scenario.game.attacker_intervals[i];
    std::fprintf(out,
                 "| %zu | %.2f | %.2f | %.2f | %.2f | [%.2f, %.2f] | "
                 "[%.2f, %.2f] |\n",
                 i, p.attacker_reward, p.attacker_penalty,
                 p.defender_reward, p.defender_penalty,
                 iv.attacker_reward.lo(), iv.attacker_reward.hi(),
                 iv.attacker_penalty.lo(), iv.attacker_penalty.hi());
  }

  std::fprintf(out, "\n## Solver comparison\n\n");
  std::fprintf(out, "| solver | worst-case | best-case | time (ms) |\n"
               "|---|---|---|---|\n");
  core::DefenderSolution recommended;
  for (const std::string& name : core::solver_names()) {
    if (name == "cubis-milp" || name == "robust-types" ||
        name == "bayesian") {
      continue;  // slow / needs a sampled population
    }
    Args a2 = args;
    a2.flags["solver"] = name;
    auto sol = core::make_solver(spec_from(a2, scenario))->solve(ctx);
    const double best = sol.strategy.empty()
                            ? 0.0
                            : core::best_case_utility(g, bounds,
                                                      sol.strategy);
    std::fprintf(out, "| %s | %+.4f | %+.4f | %.1f |\n", name.c_str(),
                 sol.worst_case_utility, best, sol.wall_seconds * 1e3);
    if (name == "cubis-adaptive") recommended = sol;
  }

  std::fprintf(out, "\n## Recommended plan (cubis-adaptive)\n\n");
  std::fprintf(out, "- certified worst-case utility: **%+.4f**\n",
               recommended.worst_case_utility);
  std::fprintf(out, "- coverage:");
  for (double xi : recommended.strategy) std::fprintf(out, " %.3f", xi);
  std::fprintf(out, "\n\n### Implementable patrol mixture\n\n");
  auto mix = games::comb_decomposition(recommended.strategy);
  std::fprintf(out, "| probability | patrol |\n|---|---|\n");
  for (const auto& alloc : mix) {
    std::fprintf(out, "| %.4f | {", alloc.probability);
    for (std::size_t k = 0; k < alloc.covered.size(); ++k) {
      std::fprintf(out, "%s%zu", k ? ", " : "", alloc.covered[k]);
    }
    std::fprintf(out, "} |\n");
  }
  if (out != stdout) {
    std::fclose(out);
    std::printf("wrote report to %s\n", out_path.c_str());
  }
  return 0;
}

int cmd_simulate_data(const Args& args) {
  behavior::Scenario scenario = load_or_die(args.file);
  const long records = args.get_i("records", 0);
  if (records <= 0) usage("--records required");
  const std::string out = args.get("out", "");
  if (out.empty()) usage("--out required");
  behavior::SuqrWeights truth{-4.0, 0.75, 0.65};
  const std::string truth_csv = args.get("truth", "");
  if (!truth_csv.empty()) {
    auto w = parse_csv_doubles(truth_csv);
    if (w.size() != 3) usage("--truth must be w1,w2,w3");
    truth = {w[0], w[1], w[2]};
  }
  Rng rng(static_cast<std::uint64_t>(args.get_i("seed", 7)));
  auto data = learning::simulate_attack_data(
      scenario.game.game, truth, static_cast<std::size_t>(records), rng);
  if (!learning::save_attack_data(out, data)) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %ld attack records to %s (hidden truth %.2f, %.2f, "
              "%.2f)\n", records, out.c_str(), truth.w1, truth.w2,
              truth.w3);
  return 0;
}

int cmd_learn(const Args& args) {
  behavior::Scenario scenario = load_or_die(args.file);
  const std::string data_path = args.get("data", "");
  if (data_path.empty()) usage("--data required");
  auto data = learning::load_attack_data(data_path);
  std::printf("loaded %zu attack records\n", data.size());

  auto fit = learning::fit_suqr(scenario.game.game, data);
  std::printf("MLE weights:      (%.4f, %.4f, %.4f)   logL %.2f, %s in "
              "%d iters\n",
              fit.weights.w1, fit.weights.w2, fit.weights.w3,
              fit.log_likelihood, fit.converged ? "converged" : "stopped",
              fit.iterations);

  learning::BootstrapOptions bo;
  bo.resamples = static_cast<int>(args.get_i("resamples", 80));
  bo.confidence = args.get_d("confidence", 0.9);
  bo.seed = static_cast<std::uint64_t>(args.get_i("seed", 0xB007));
  auto intervals = learning::bootstrap_weight_intervals(
      scenario.game.game, data, {}, bo);
  std::printf("bootstrap %.0f%% boxes: w1 [%.3f, %.3f]  w2 [%.3f, %.3f]  "
              "w3 [%.3f, %.3f]\n",
              bo.confidence * 100.0, intervals.w1.lo(), intervals.w1.hi(),
              intervals.w2.lo(), intervals.w2.hi(), intervals.w3.lo(),
              intervals.w3.hi());

  if (args.get_i("solve", 1) != 0) {
    behavior::SuqrIntervalBounds bounds(intervals,
                                        scenario.game.attacker_intervals);
    core::SolverSpec spec = spec_from(args, scenario);
    auto solver = core::make_solver(spec);
    auto sol = solver->solve({scenario.game.game, bounds});
    std::printf("\nrobust plan on the LEARNED intervals:\n");
    print_solution(scenario, sol, solver->name().c_str());
  }
  return 0;
}

/// Sleeps `ms` milliseconds in <= 50 ms chunks, returning early once
/// g_interrupted is set, so a SIGINT during --interval-ms no longer waits
/// out the full interval before the loop can exit.
void interruptible_sleep_ms(long ms) {
  long remaining = ms;
  while (remaining > 0 && !g_interrupted.load()) {
    const long chunk = std::min<long>(50, remaining);
    std::this_thread::sleep_for(std::chrono::milliseconds(chunk));
    remaining -= chunk;
  }
}

/// Engine sizing shared by serve and batch: --workers/--queue plus the
/// budget flags as per-job defaults (the engine re-arms each worker's
/// budget per job, so --deadline-ms stays a per-request watchdog).
engine::EngineOptions engine_options_from(const Args& args) {
  engine::EngineOptions eopt;
  eopt.workers = static_cast<std::size_t>(
      std::max<long>(1, args.get_i("workers", 1)));
  eopt.queue_capacity = static_cast<std::size_t>(
      std::max<long>(1, args.get_i("queue", 64)));
  eopt.default_deadline_seconds = args.get_d("deadline-ms", 0.0) * 1e-3;
  eopt.default_max_nodes = args.get_i("max-nodes", 0);
  if (args.get_i("isolate", 0) != 0) {
    eopt.isolation = engine::IsolationMode::kProcess;
  }
  // --retries N = extra attempts beyond the first; the engine retries
  // only transient failures, so deterministic errors still fail fast.
  eopt.retry.max_attempts =
      1 + static_cast<int>(std::max<long>(0, args.get_i("retries", 0)));
  eopt.retry.max_crashes =
      static_cast<int>(std::max<long>(0, args.get_i("max-crashes", 2)));
  // Cross-solve cache: --cache off|exact|transplant + --cache-entries N.
  // The caller must still stamp eopt.cache.solver_config from its solver
  // spec (canonical_solver_config) so fingerprints are config-scoped.
  const std::string cache_mode = args.get("cache", "off");
  if (!engine::parse_cache_mode(cache_mode, eopt.cache.mode)) {
    usage(("bad --cache value '" + cache_mode +
           "' (off|exact|transplant)").c_str());
  }
  eopt.cache.entries = static_cast<std::size_t>(
      std::max<long>(1, args.get_i("cache-entries", 256)));
  return eopt;
}

/// Shadow-audit wiring shared by serve and batch: --audit-sample N arms a
/// ShadowAuditor and hooks it into the engine's completion callback, so
/// every Nth completed solve is re-verified against its certificate on a
/// low-priority background worker.  Returns nullptr when the flag is
/// absent.
std::unique_ptr<audit::ShadowAuditor> maybe_start_auditor(
    const Args& args, engine::EngineOptions& eopt) {
  const long every = args.get_i("audit-sample", 0);
  if (every <= 0) return nullptr;
  audit::ShadowAuditor::Options aopt;
  aopt.sample_every = static_cast<std::size_t>(every);
  auto auditor = std::make_unique<audit::ShadowAuditor>(aopt);
  auditor->start();
  audit::ShadowAuditor* raw = auditor.get();
  eopt.on_outcome = [raw](const engine::SolveJob& job,
                          const engine::JobOutcome& out) {
    // Only completed solves with a strategy are auditable; failed or
    // drained jobs are already counted by the serve/batch loop.
    if (out.status != engine::JobStatus::kCompleted ||
        out.solution.strategy.empty()) {
      return;
    }
    raw->observe(job.game, job.bounds, out.solution, out.id, out.tag);
  };
  std::fprintf(stderr, "shadow audit: verifying every %ldth solve\n",
               every);
  return auditor;
}

/// Drains the auditor (if armed) and prints its exit summary.
void finish_auditor(std::unique_ptr<audit::ShadowAuditor>& auditor) {
  if (auditor == nullptr) return;
  auditor->stop();
  std::printf("shadow audit: observed %llu, audited %llu, failures %llu, "
              "dropped %llu\n",
              static_cast<unsigned long long>(auditor->observed()),
              static_cast<unsigned long long>(auditor->audited()),
              static_cast<unsigned long long>(auditor->failures()),
              static_cast<unsigned long long>(auditor->dropped()));
}

/// Registers every engine worker budget in the signal table (SIGINT then
/// cancels ALL in-flight jobs, not just one) and publishes the engine for
/// the handler's queue-drain cancel.
class EngineSignalHookup {
 public:
  explicit EngineSignalHookup(engine::SolveEngine& eng) {
    regs_.reserve(eng.num_workers());
    for (std::size_t i = 0; i < eng.num_workers(); ++i) {
      regs_.push_back(
          std::make_unique<BudgetRegistration>(eng.worker_budget(i)));
    }
    g_active_engine.store(&eng);
  }
  ~EngineSignalHookup() { g_active_engine.store(nullptr); }

 private:
  std::vector<std::unique_ptr<BudgetRegistration>> regs_;
};

/// FIFO reaper shared by serve and batch: outcomes print in submission
/// order (like the old sequential loop) while workers run ahead.
struct OutcomeStats {
  long done = 0;
  long failures = 0;
  long cancelled = 0;  ///< of the failures, jobs drained after SIGINT
  long cache_hits = 0;        ///< served from the cross-solve cache
  long cache_transplants = 0; ///< solved from a transplant seed
};

/// Canonical digest of a solution for the batch journal: FNV-1a 64 over
/// the solution's wire bytes with everything run-specific zeroed (job
/// id, wall clocks, telemetry), so the same scenario solved in different
/// runs digests identically — the property the resume-idempotence tests
/// assert.
std::uint64_t solution_digest(const core::DefenderSolution& solution) {
  engine::ResultFrame frame;
  frame.id = 0;
  frame.solution = solution;
  frame.solution.wall_seconds = 0.0;
  frame.solution.telemetry = {};
  const std::string bytes = engine::encode_result(frame);
  return engine::fnv1a64(bytes.data(), bytes.size());
}

void reap_outcome(long index, const std::string& label,
                  std::future<engine::JobOutcome>& fut, OutcomeStats& stats,
                  obs::Counter& errors,
                  engine::BatchJournal* journal = nullptr) {
  engine::JobOutcome out = fut.get();
  ++stats.done;
  // A retried or crash-surviving job annotates its line so the recovery
  // is visible without grepping worker logs.
  char recovery[96] = "";
  if (out.attempts > 1 || out.crashes > 0) {
    std::snprintf(recovery, sizeof recovery, " attempts=%d crashes=%d",
                  out.attempts, out.crashes);
  }
  // Cache involvement annotates the line so warm solves are visible
  // without scraping /cachez.
  if (out.cache_hit) {
    ++stats.cache_hits;
    std::strncat(recovery, " cache=hit", sizeof recovery - strlen(recovery) - 1);
  } else if (out.cache_transplant) {
    ++stats.cache_transplants;
    std::strncat(recovery, " cache=transplant",
                 sizeof recovery - strlen(recovery) - 1);
  }
  const char* journal_status = nullptr;  // null = do not journal
  std::uint64_t digest = 0;
  switch (out.status) {
    case engine::JobStatus::kCompleted:
      if (!out.solution.ok()) {
        ++stats.failures;
        errors.add(1);
      }
      std::printf("%s %ld: status=%s worst-case=%+.4f gap=%.2e "
                  "wall=%.1fms%s\n",
                  label.c_str(), index,
                  std::string(to_string(out.solution.status)).c_str(),
                  out.solution.worst_case_utility,
                  out.solution.ub - out.solution.lb,
                  out.solution.wall_seconds * 1e3, recovery);
      // Only a clean optimal solve earns an "ok" (resume skips those);
      // budget stops and cancelled incumbents are re-attempted.
      journal_status = out.solution.ok() ? "ok" : "failed";
      digest = solution_digest(out.solution);
      break;
    case engine::JobStatus::kFailed:
      ++stats.failures;
      errors.add(1);
      std::printf("%s %ld: ERROR %s (continuing)%s\n", label.c_str(), index,
                  out.error.c_str(), recovery);
      journal_status = "failed";
      break;
    case engine::JobStatus::kWorkerCrashed:
      ++stats.failures;
      errors.add(1);
      std::printf("%s %ld: WORKER CRASHED %s (continuing)%s\n",
                  label.c_str(), index, out.error.c_str(), recovery);
      journal_status = "crashed";
      break;
    case engine::JobStatus::kQuarantined:
      ++stats.failures;
      errors.add(1);
      std::printf("%s %ld: QUARANTINED %s%s\n", label.c_str(), index,
                  out.error.c_str(), recovery);
      journal_status = "quarantined";
      break;
    case engine::JobStatus::kCancelled:
      ++stats.failures;
      ++stats.cancelled;
      errors.add(1);
      std::printf("%s %ld: status=cancelled (drained before start)\n",
                  label.c_str(), index);
      // Deliberately not journaled: a cancelled job was never attempted,
      // so --resume must re-solve it.
      break;
  }
  if (!out.tag.empty() && out.status != engine::JobStatus::kCompleted) {
    std::printf("  ^ %s\n", out.tag.c_str());
  }
  if (journal != nullptr && journal->is_open() && journal_status != nullptr &&
      !out.tag.empty()) {
    journal->record(out.tag, digest, journal_status, out.cache_hit ? 1 : 0,
                    out.cache_transplant ? 1 : 0);
  }
  std::fflush(stdout);
}

/// Solve loop that keeps the process alive for live scraping: solves the
/// scenario repeatedly (forever with --solves 0) until SIGINT/SIGTERM,
/// printing one convergence line per solve.  Pair with --listen so a
/// Prometheus scraper sees the metrics and /solvez job records evolve.
///
/// Requests run on the concurrent engine (--workers N; default 1 keeps
/// the old sequential behavior, including output order — outcomes are
/// reaped FIFO).  Resilience: one failed solve never takes the service
/// down.  Failures (non-optimal statuses and escaped exceptions alike)
/// are logged, counted in `solve.errors_total`, and the loop moves on.
/// Each worker re-arms its budget per job, so --deadline-ms doubles as a
/// per-request watchdog and SIGINT cancels every in-flight solve at a
/// safe point before the loop exits.
int cmd_serve(const Args& args) {
  behavior::Scenario scenario = load_or_die(args.file);
  core::SolverSpec spec = spec_from(args, scenario);
  std::shared_ptr<const core::DefenderSolver> solver = core::make_solver(spec);
  const long max_solves = args.get_i("solves", 0);  // 0 = until signal
  const long interval_ms = args.get_i("interval-ms", 0);
  engine::EngineOptions eopt = engine_options_from(args);
  eopt.cache.solver_config = core::canonical_solver_config(spec);
  // The auditor outlives the engine: workers invoke the completion hook
  // until shutdown() joins them.
  std::unique_ptr<audit::ShadowAuditor> auditor =
      maybe_start_auditor(args, eopt);
  install_signal_handlers();
  std::printf("serving %s with solver %s (%s, %zu workers)\n",
              args.file.c_str(), solver->name().c_str(),
              max_solves > 0 ? (std::to_string(max_solves) + " solves").c_str()
                             : "until SIGINT",
              eopt.workers);
  obs::Counter& errors =
      obs::Registry::global().counter("solve.errors_total");

  // The engine jobs reference the scenario through aliasing shared_ptrs,
  // so the problem outlives every queued job no matter how the command
  // exits.
  auto scenario_sp =
      std::make_shared<behavior::Scenario>(std::move(scenario));
  auto bounds_sp = std::make_shared<behavior::SuqrIntervalBounds>(
      scenario_sp->make_bounds());
  std::shared_ptr<const games::SecurityGame> game_sp(
      scenario_sp, &scenario_sp->game.game);

  engine::SolveEngine eng(solver, eopt);
  EngineSignalHookup hookup(eng);
  // Keep at most 2 jobs per worker in flight so output (reaped FIFO)
  // stays close to real time while the pipeline never starves.
  const std::size_t window = eopt.workers * 2;
  std::deque<std::pair<long, std::future<engine::JobOutcome>>> pending;
  OutcomeStats stats;
  long submitted = 0;
  while (!g_interrupted.load() &&
         (max_solves == 0 || submitted < max_solves)) {
    engine::SolveJob job;
    job.game = game_sp;
    job.bounds = bounds_sp;
    job.scenario = scenario_sp;  // process isolation ships the text form
    try {
      std::future<engine::JobOutcome> fut = eng.submit(std::move(job));
      ++submitted;
      pending.emplace_back(submitted, std::move(fut));
    } catch (const std::exception&) {
      break;  // engine cancelled/stopped while waiting for queue space
    }
    while (pending.size() >= window) {
      reap_outcome(pending.front().first, "solve", pending.front().second,
                   stats, errors);
      pending.pop_front();
    }
    if (interval_ms > 0 && !g_interrupted.load()) {
      interruptible_sleep_ms(interval_ms);
    }
  }
  while (!pending.empty()) {
    reap_outcome(pending.front().first, "solve", pending.front().second,
                 stats, errors);
    pending.pop_front();
  }
  eng.shutdown();
  finish_auditor(auditor);
  if (eopt.cache.mode != engine::CacheMode::kOff) {
    std::printf("served %ld solves (%ld failed, %ld cache hits, "
                "%ld transplants)\n",
                stats.done, stats.failures, stats.cache_hits,
                stats.cache_transplants);
  } else {
    std::printf("served %ld solves (%ld failed)\n", stats.done,
                stats.failures);
  }
  return stats.failures == 0 ? 0 : 1;
}

/// Shards a directory (every *.scn / *.txt file, sorted) or a manifest
/// (one scenario path per line; '#' comments) across the engine workers.
/// One solver instance is shared by every worker; each job's outcome
/// prints in submission order with its file tag, followed by a throughput
/// summary.  A file that fails to load or solve counts as failed without
/// stopping the batch.
int cmd_batch(const Args& args) {
  if (args.file.empty()) usage("batch: directory or manifest required");
  const std::string solver_name = args.get("solver", "cubis");
  if (solver_name == "robust-types" || solver_name == "bayesian") {
    usage("batch does not support population solvers (per-scenario "
          "populations)");
  }

  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  std::error_code ec;
  if (fs::is_directory(args.file, ec)) {
    for (const auto& entry : fs::directory_iterator(args.file, ec)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".scn" || ext == ".txt") {
        paths.push_back(entry.path().string());
      }
    }
    std::sort(paths.begin(), paths.end());
  } else {
    std::FILE* f = std::fopen(args.file.c_str(), "r");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot open %s\n", args.file.c_str());
      return 1;
    }
    char line[4096];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      std::string s(line);
      while (!s.empty() && (s.back() == '\n' || s.back() == '\r' ||
                            s.back() == ' ' || s.back() == '\t')) {
        s.pop_back();
      }
      std::size_t start = 0;
      while (start < s.size() && (s[start] == ' ' || s[start] == '\t')) {
        ++start;
      }
      s = s.substr(start);
      if (s.empty() || s[0] == '#') continue;
      paths.push_back(s);
    }
    std::fclose(f);
  }
  if (paths.empty()) {
    std::fprintf(stderr, "error: no scenario files in %s\n",
                 args.file.c_str());
    return 1;
  }

  core::SolverSpec spec = base_spec_from(args);
  std::shared_ptr<const core::DefenderSolver> solver = core::make_solver(spec);
  engine::EngineOptions eopt = engine_options_from(args);
  eopt.cache.solver_config = core::canonical_solver_config(spec);
  std::unique_ptr<audit::ShadowAuditor> auditor =
      maybe_start_auditor(args, eopt);
  install_signal_handlers();
  std::printf("batch: %zu scenario files on %zu workers (solver %s)\n",
              paths.size(), eopt.workers, solver->name().c_str());
  obs::Counter& errors =
      obs::Registry::global().counter("solve.errors_total");
  obs::Counter& skipped_counter =
      obs::Registry::global().counter("batch.jobs_skipped_total");

  // --resume: jobs a previous run's journal marks "ok" are not re-solved.
  // failed/crashed/quarantined records are informational only — those
  // jobs get another chance.  A missing/unreadable journal is a fresh
  // start, not an error.
  const std::string journal_path = args.get("journal", "");
  std::set<std::string> already_done;
  if (args.get_i("resume", 0) != 0) {
    if (journal_path.empty()) usage("batch: --resume requires --journal");
    std::vector<engine::JournalEntry> entries;
    std::string jerr;
    std::size_t torn = 0;
    if (engine::BatchJournal::load(journal_path, entries, jerr, &torn)) {
      for (const engine::JournalEntry& e : entries) {
        if (e.status == "ok") already_done.insert(e.tag);
      }
      std::printf("resume: journal %s has %zu completed jobs"
                  " (%zu malformed lines tolerated)\n",
                  journal_path.c_str(), already_done.size(), torn);
    } else {
      std::fprintf(stderr, "warning: %s; starting fresh\n", jerr.c_str());
    }
  }
  engine::BatchJournal journal;
  if (!journal_path.empty()) {
    std::string jerr;
    if (!journal.open(journal_path, jerr)) {
      std::fprintf(stderr, "error: %s\n", jerr.c_str());
      return 1;
    }
  }
  engine::BatchJournal* journal_ptr = journal.is_open() ? &journal : nullptr;

  engine::SolveEngine eng(solver, eopt);
  EngineSignalHookup hookup(eng);
  Timer wall;
  const std::size_t window = eopt.workers * 2;
  std::deque<std::pair<long, std::future<engine::JobOutcome>>> pending;
  OutcomeStats stats;
  long submitted = 0;
  long skipped = 0;
  long resumed = 0;
  for (const std::string& path : paths) {
    if (g_interrupted.load()) break;
    if (already_done.count(path) != 0) {
      ++resumed;
      continue;
    }
    engine::SolveJob job;
    try {
      auto scn = std::make_shared<behavior::Scenario>(
          behavior::load_scenario(path));
      job.bounds = std::make_shared<behavior::SuqrIntervalBounds>(
          scn->make_bounds());
      job.game = std::shared_ptr<const games::SecurityGame>(
          scn, &scn->game.game);
      job.scenario = scn;  // process isolation ships the text form
    } catch (const std::exception& e) {
      // Malformed/truncated entry: skip it — typed, counted, visible in
      // the summary — instead of failing or aborting the batch.
      ++skipped;
      skipped_counter.add(1);
      std::printf("batch %s: SKIPPED (parse error: %s)\n", path.c_str(),
                  e.what());
      continue;
    }
    job.tag = path;
    try {
      // Blocking admission: backpressure from a full queue paces the
      // submitter instead of rejecting work we already decided to do.
      std::future<engine::JobOutcome> fut = eng.submit(std::move(job));
      ++submitted;
      pending.emplace_back(submitted, std::move(fut));
    } catch (const std::exception&) {
      break;  // engine cancelled/stopped
    }
    while (pending.size() >= window) {
      reap_outcome(pending.front().first, "batch", pending.front().second,
                   stats, errors, journal_ptr);
      pending.pop_front();
    }
  }
  while (!pending.empty()) {
    reap_outcome(pending.front().first, "batch", pending.front().second,
                 stats, errors, journal_ptr);
    pending.pop_front();
  }
  eng.shutdown();
  journal.close();  // final fsync before the summary claims durability
  finish_auditor(auditor);
  const double seconds = wall.seconds();
  const long solved_ok = stats.done - stats.failures + resumed;
  const long failures = stats.failures - stats.cancelled;
  const bool interrupted = g_interrupted.load();
  if (interrupted) {
    // Everything not completed or definitively failed remains to do:
    // cancelled drains, never-submitted files, and skips (a malformed
    // file is still "remaining" in the sense that rerunning reports it).
    const long remaining =
        static_cast<long>(paths.size()) - solved_ok - failures;
    std::printf("batch interrupted: %ld completed, %ld failed, %ld "
                "remaining%s\n",
                solved_ok, failures, remaining,
                journal.is_open() || !journal_path.empty()
                    ? " (journal flushed; rerun with --resume)"
                    : "");
  }
  std::printf("batch done: %zu files, %ld solved ok, %ld failed, "
              "%ld skipped, %.2fs (%.2f solves/sec, %zu workers), "
              "cache_hits=%ld cache_transplants=%ld\n",
              paths.size(), solved_ok, failures + skipped, skipped, seconds,
              seconds > 0.0 ? static_cast<double>(stats.done) / seconds
                            : 0.0,
              eopt.workers, stats.cache_hits, stats.cache_transplants);
  if (interrupted) return 2;
  return failures + skipped == 0 ? 0 : 1;
}

int dispatch(const std::string& cmd, const Args& args) {
  if (cmd == "generate") return cmd_generate(args);
  if (cmd == "table1") return cmd_table1(args);
  if (cmd == "solve") return cmd_solve(args);
  if (cmd == "verify") return cmd_verify(args);
  if (cmd == "compare") return cmd_compare(args);
  if (cmd == "eval") return cmd_eval(args);
  if (cmd == "patrol") return cmd_patrol(args);
  if (cmd == "simulate-data") return cmd_simulate_data(args);
  if (cmd == "learn") return cmd_learn(args);
  if (cmd == "report") return cmd_report(args);
  if (cmd == "serve") return cmd_serve(args);
  if (cmd == "batch") return cmd_batch(args);
  usage(("unknown command " + cmd).c_str());
}

/// RAII flush of the --metrics-out/--trace-out files.  Static storage
/// duration, so the destructor also runs on the std::exit paths (usage()
/// after a missing flag, for example) and after a solver exception —
/// telemetry of a failed run is exactly the telemetry worth keeping.
/// The registries it reads are intentionally immortal (never destroyed),
/// so flushing during static destruction is safe.  flush() is
/// idempotent; main() calls it explicitly to capture the exit code.
struct TelemetryOutputs {
  std::string metrics_path;
  std::string trace_path;
  std::string profile_path;
  std::string slow_path;
  std::string audit_path;
  bool flushed = false;

  /// Returns 1 on I/O failure so a broken path fails the run visibly.
  int flush() {
    if (flushed) return 0;
    flushed = true;
    int rc = 0;
    if (!metrics_path.empty()) {
      std::FILE* f = std::fopen(metrics_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     metrics_path.c_str());
        rc = 1;
      } else {
        obs::update_process_metrics();  // final process_* gauge values
        const std::string json =
            obs::Registry::global().snapshot().to_json();
        std::fwrite(json.data(), 1, json.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::fprintf(stderr, "wrote metrics to %s\n", metrics_path.c_str());
      }
    }
    if (!trace_path.empty()) {
      if (!obs::write_trace_json(trace_path)) {
        std::fprintf(stderr, "error: cannot write %s\n", trace_path.c_str());
        rc = 1;
      } else {
        std::fprintf(stderr, "wrote trace to %s\n", trace_path.c_str());
      }
    }
    if (!profile_path.empty()) {
      obs::profiler_stop();
      if (!obs::profiler_available()) {
        // A build without the sampler still honors the flag shape:
        // scripted runs keep working, with a visible note and no file.
        std::fprintf(stderr, "warning: --profile-out skipped (%s)\n",
                     obs::profiler_last_error().c_str());
      } else if (!obs::write_profile_collapsed(profile_path)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     profile_path.c_str());
        rc = 1;
      } else {
        std::fprintf(stderr,
                     "wrote profile (%lld samples, %lld dropped) to %s\n",
                     static_cast<long long>(obs::profiler_samples_total()),
                     static_cast<long long>(obs::profiler_samples_dropped()),
                     profile_path.c_str());
      }
    }
    if (!slow_path.empty()) {
      if (!obs::JobLog::global().write_json(obs::JobView::kSlow,
                                            slow_path)) {
        std::fprintf(stderr, "error: cannot write %s\n", slow_path.c_str());
        rc = 1;
      } else {
        std::fprintf(stderr, "wrote slow-solve records to %s\n",
                     slow_path.c_str());
      }
    }
    if (!audit_path.empty()) {
      if (!obs::JobLog::global().write_json(obs::JobView::kFailedAudit,
                                            audit_path)) {
        std::fprintf(stderr, "error: cannot write %s\n", audit_path.c_str());
        rc = 1;
      } else {
        std::fprintf(stderr, "wrote audit failures to %s\n",
                     audit_path.c_str());
      }
    }
    return rc;
  }

  ~TelemetryOutputs() { flush(); }
};

TelemetryOutputs g_telemetry;

/// Starts the live exporter when --listen was given.  Exits the process
/// on a real bind failure; a non-POSIX build, where the exporter is
/// compiled out, warns and continues so scripted runs still work.
void maybe_start_exporter(obs::HttpExporter& exporter, const Args& args) {
  if (args.flags.find("listen") == args.flags.end()) return;
  if (!obs::http_exporter_available()) {
    std::fprintf(stderr,
                 "warning: --listen ignored (no exporter on this platform)\n");
    return;
  }
  obs::HttpExporterOptions opt;
  opt.port = static_cast<int>(args.get_i("listen", 0));
  opt.bind_address = args.get("listen-host", "127.0.0.1");
  if (!exporter.start(opt)) {
    std::fprintf(stderr, "error: --listen: %s\n",
                 exporter.last_error().c_str());
    std::exit(1);
  }
  std::string paths;
  for (const std::string& p : obs::http_exporter_paths()) {
    paths += paths.empty() ? p : " " + p;
  }
  std::fprintf(stderr, "telemetry: http://%s:%d/  (%s)\n",
               opt.bind_address.c_str(), exporter.port(), paths.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  // --version takes no value, so it is handled before parse_args (which
  // requires one after every flag).  The same provenance is exported as
  // the cubisg_build_info gauge on /metrics and stamped into bench JSON.
  // The DP kernel line is the forward-pass variant this host dispatches
  // to at run time, not a build flag.
  if (cmd == "--version" || cmd == "version") {
    std::printf("cubisg %s\n  git sha:         %s\n  compiler:        %s\n"
                "  fault injection: %s\n"
                "  dp kernel:       %s\n",
                buildinfo::kVersion, buildinfo::kGitSha, buildinfo::kCompiler,
                std::strcmp(buildinfo::kFaultInjection, "1") == 0 ? "on"
                                                                  : "off",
                core::to_string(core::dp_kernel_isa()));
    return 0;
  }
  // Test hook: CUBISG_FAULT_INJECT="site[:count[:skip]],..." arms the
  // deterministic fault-injection sites (no-op in production builds).
  faultinject::arm_from_env();
  Args args = parse_args(argc, argv, 2);
  g_telemetry.metrics_path = args.get("metrics-out", "");
  g_telemetry.trace_path = args.get("trace-out", "");
  g_telemetry.profile_path = args.get("profile-out", "");
  g_telemetry.slow_path = args.get("slow-solve-out", "");
  g_telemetry.audit_path = args.get("audit-out", "");
  if (!g_telemetry.trace_path.empty()) {
    obs::set_trace_enabled(true);
  }
  if (args.flags.count("slow-solve-ms") != 0) {
    obs::JobLog::global().arm(args.get_d("slow-solve-ms", 0.0) * 1e-3);
  }
  if (!g_telemetry.profile_path.empty()) {
    if (obs::profiler_available()) {
      // The main thread samples too: one-shot commands (solve, patrol)
      // run the solver right here.
      obs::profiler_register_this_thread();
      obs::ProfilerOptions popt;
      popt.hz = static_cast<int>(args.get_i("profile-hz", 99));
      if (!obs::profiler_start(popt)) {
        std::fprintf(stderr, "warning: profiler failed to start (%s)\n",
                     obs::profiler_last_error().c_str());
      }
    } else {
      std::fprintf(stderr, "warning: --profile-out will be skipped (%s)\n",
                   obs::profiler_last_error().c_str());
    }
  }
  obs::HttpExporter exporter;
  maybe_start_exporter(exporter, args);
  int rc;
  try {
    rc = dispatch(cmd, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  const int obs_rc = g_telemetry.flush();
  return rc != 0 ? rc : obs_rc;
}
