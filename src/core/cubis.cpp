#include "core/cubis.hpp"

#include <algorithm>
#include <cmath>
#include <new>
#include <numeric>
#include <string>

#include "common/fault_inject.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "core/gradient.hpp"
#include "core/round_cache.hpp"
#include "core/workspace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"

namespace cubisg::core {

namespace {

/// Registry handles for the binary-search driver, resolved once.
struct CubisMetrics {
  obs::Counter& solves = obs::Registry::global().counter(
      "cubis.solves_total");
  obs::Counter& binary_search_iters = obs::Registry::global().counter(
      "cubis.binary_search_iters");
  obs::Counter& feasibility_checks = obs::Registry::global().counter(
      "cubis.feasibility_checks_total");
  obs::Counter& polish_runs = obs::Registry::global().counter(
      "cubis.polish_runs");
  obs::Counter& bigm_linearizations = obs::Registry::global().counter(
      "milp.bigm_linearizations");

  static CubisMetrics& get() {
    static CubisMetrics m;
    return m;
  }
};

std::vector<TargetPls> build_f_pls(const SolveContext& ctx, double c,
                                   std::size_t segments,
                                   const StepTables* tables) {
  std::vector<TargetPls> out;
  out.reserve(ctx.game.num_targets());
  for (std::size_t i = 0; i < ctx.game.num_targets(); ++i) {
    if (tables != nullptr) {
      // Breakpoint values from the precomputed tables (f1 = L*(Ud - c)).
      const auto k_of = [segments](double x) {
        return static_cast<std::size_t>(
            std::llround(x * static_cast<double>(segments)));
      };
      auto f1 = [&, i](double x) {
        const std::size_t k = k_of(x);
        return f1_of(tables->lower[i][k], tables->utility[i][k], c);
      };
      auto f2 = [&, i](double x) {
        const std::size_t k = k_of(x);
        return f2_of(tables->upper[i][k], tables->utility[i][k], c);
      };
      out.push_back(TargetPls{PiecewiseLinear(f1, segments),
                              PiecewiseLinear(f2, segments)});
    } else {
      auto f1 = [&, i](double x) {
        return f1_of(ctx.bounds.lower(i, x), ctx.game.defender_utility(i, x),
                     c);
      };
      auto f2 = [&, i](double x) {
        return f2_of(ctx.bounds.upper(i, x), ctx.game.defender_utility(i, x),
                     c);
      };
      out.push_back(TargetPls{PiecewiseLinear(f1, segments),
                              PiecewiseLinear(f2, segments)});
    }
  }
  return out;
}

/// phi_i = chord interpolation of min(f1, f2) at breakpoints, flattened
/// [T][K+1]: the DP backend's objective (a uniformly O(1/K)-close
/// under-approximation of the MILP's min(f1~, f2~); see step_solver.hpp).
std::vector<double> phi_flat_from(const std::vector<TargetPls>& pls) {
  if (pls.empty()) return {};
  const std::size_t kp1 = pls.front().f1.segments() + 1;
  std::vector<double> phi(pls.size() * kp1);
  for (std::size_t i = 0; i < pls.size(); ++i) {
    for (std::size_t k = 0; k < kp1; ++k) {
      phi[i * kp1 + k] = std::min(pls[i].f1.value_at_breakpoint(k),
                                  pls[i].f2.value_at_breakpoint(k));
    }
  }
  return phi;
}

/// The step DP on a flat phi table.  The simplex budgets with the game's
/// resources; any other polytope runs one DP per budget group.
StepResult step_dp(const SolveContext& ctx, const games::CoverageSpace& space,
                   const double* phi, std::size_t t_count,
                   std::size_t segments, DpScratch& scratch) {
  return space.is_simplex()
             ? solve_step_dp_flat(phi, t_count, segments,
                                  ctx.game.resources(), scratch)
             : solve_step_dp_flat_space(phi, t_count, segments, space,
                                        scratch);
}

/// Shared translation of a branch-and-bound verdict into a StepResult,
/// used by both the fresh and the skeleton-patching MILP paths.
StepResult extract_step_result(const milp::MilpSolution& sol,
                               const MilpLayout& layout,
                               const CubisOptions& opt) {
  StepResult out;
  out.milp_nodes = sol.nodes;
  out.from_milp = true;
  out.milp_incumbent = sol.has_solution() ? sol.objective : 0.0;
  out.milp_bound = sol.best_bound;
  if (sol.status == SolverStatus::kEarlyPositive ||
      ((sol.status == SolverStatus::kOptimal ||
        sol.status == SolverStatus::kIterLimit ||
        sol.status == SolverStatus::kTimeLimit) &&
       sol.has_solution() &&
       sol.objective >= -opt.feasibility_slack)) {
    out.status = SolverStatus::kOptimal;
    out.objective = sol.has_solution() ? sol.objective : 0.0;
    out.x.assign(layout.t_count, 0.0);
    const double k_inv = 1.0 / static_cast<double>(layout.k_count);
    for (std::size_t i = 0; i < layout.t_count; ++i) {
      double xi = 0.0;
      for (std::size_t k = 0; k < layout.k_count; ++k) {
        xi += sol.x[layout.xcol(i, k)] * k_inv;
      }
      out.x[i] = std::clamp(xi, 0.0, 1.0);
    }
  } else if (sol.status == SolverStatus::kEarlyNegative ||
             sol.status == SolverStatus::kOptimal ||
             sol.status == SolverStatus::kInfeasible) {
    // Proven: no point reaches the threshold (or, for kOptimal, the best
    // objective is below the slack).
    out.status = SolverStatus::kOptimal;
    out.objective = sol.has_solution() ? sol.objective : -1.0;
    // No witness strategy: leave x empty; caller treats this as infeasible.
  } else {
    out.status = sol.status;
  }
  return out;
}

StepResult solve_step_milp(const SolveContext& ctx,
                           const std::vector<TargetPls>& pls,
                           const CubisOptions& opt,
                           const games::CoverageSpace& space) {
  MilpLayout layout;
  lp::Model model =
      build_step_milp(ctx, pls, step_big_m(pls), space, layout);
  // One (34)-(36) big-M block per target.
  CubisMetrics::get().bigm_linearizations.add(
      static_cast<std::int64_t>(layout.t_count));

  milp::MilpOptions mopt = opt.milp;
  mopt.sign_threshold = -opt.feasibility_slack;
  if (mopt.budget == nullptr) mopt.budget = ctx.budget;
  if (opt.warm_start_from_dp) {
    const std::vector<double> phi = phi_flat_from(pls);
    DpScratch scratch;
    StepResult dp = step_dp(ctx, space, phi.data(), layout.t_count,
                            layout.k_count, scratch);
    mopt.warm_start = milp_point_from_x(layout, pls, dp.x, model.num_cols());
  }
  milp::MilpSolution sol = milp::solve_milp(model, mopt);
  return extract_step_result(sol, layout, opt);
}

/// Skeleton-patching variant: builds the dense MILP once per solve (lane),
/// then only rewrites the c-dependent coefficients each round and carries
/// the previous round's optimal root basis into the next root relaxation.
StepResult solve_step_milp_cached(const SolveContext& ctx,
                                  const CubisOptions& opt,
                                  const games::CoverageSpace& space,
                                  RoundReuse& reuse) {
  if (reuse.milp == nullptr) {
    // First round: assembly doubles as the patch (the cache already holds
    // this round's values).
    reuse.milp = std::make_unique<MilpStepCache>(ctx, reuse.cache, space);
  } else {
    reuse.milp->patch(reuse.cache);
  }
  MilpStepCache& cache = *reuse.milp;
  const MilpLayout& layout = cache.layout();
  CubisMetrics::get().bigm_linearizations.add(
      static_cast<std::int64_t>(layout.t_count));

  milp::MilpOptions mopt = opt.milp;
  mopt.sign_threshold = -opt.feasibility_slack;
  if (mopt.budget == nullptr) mopt.budget = ctx.budget;
  if (opt.warm_start_from_dp) {
    StepResult dp = step_dp(ctx, space, reuse.cache.phi_flat().data(),
                            reuse.cache.t_count(), layout.k_count,
                            reuse.dp_scratch);
    mopt.warm_start = milp_point_from_x(layout, reuse.cache.pls(), dp.x,
                                        cache.model().num_cols());
  }
  mopt.root_warm = &cache.root_basis();  // cross-round root basis
  milp::MilpSolution sol = milp::solve_milp(cache.model(), mopt);
  return extract_step_result(sol, layout, opt);
}

/// Cross-solve transplant of the breakpoint tables — the adopt/repair
/// rungs of the ladder.  Returns false (reject rung) when the donor's
/// shape does not match or the transplant-reject fault fires; the caller
/// then cold-builds.  Adoption is bitwise-safe by construction: a step
/// table samples only per-target payoff/interval quantities and the
/// compat-checked weights/mode at x = k/K (R never enters), so a target
/// whose fingerprint block equals the donor's bitwise rebuilds to
/// exactly the donor's rows.  Non-matching targets are repaired with the
/// fresh formula, making the result identical to build_step_tables_into.
bool transplant_step_tables(const SolveContext& ctx, std::size_t segments,
                            const TransplantSeed& seed, StepTables& out,
                            TransplantStats& stats) {
  const TransplantDonor* donor = seed.donor.get();
  const std::size_t n = ctx.game.num_targets();
  if (donor == nullptr || donor->tables.segments != segments ||
      donor->tables.lower.size() != n || seed.adopt.size() != n) {
    return false;
  }
  if (faultinject::should_fail(faultinject::Site::kTransplantReject)) {
    return false;
  }
  out.segments = segments;
  out.lower.resize(n);
  out.upper.resize(n);
  out.utility.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (seed.adopt[i] != 0) {
      out.lower[i] = donor->tables.lower[i];
      out.upper[i] = donor->tables.upper[i];
      out.utility[i] = donor->tables.utility[i];
      ++stats.adopted;
      continue;
    }
    out.lower[i].resize(segments + 1);
    out.upper[i].resize(segments + 1);
    out.utility[i].resize(segments + 1);
    for (std::size_t k = 0; k <= segments; ++k) {
      const double x =
          static_cast<double>(k) / static_cast<double>(segments);
      out.lower[i][k] = ctx.bounds.lower(i, x);
      out.upper[i][k] = ctx.bounds.upper(i, x);
      out.utility[i][k] = ctx.game.defender_utility(i, x);
    }
    ++stats.repaired;
  }
  return true;
}

}  // namespace

StepTables build_step_tables(const SolveContext& ctx,
                             std::size_t segments) {
  StepTables t;
  build_step_tables_into(ctx, segments, t);
  return t;
}

void build_step_tables_into(const SolveContext& ctx, std::size_t segments,
                            StepTables& t) {
  t.segments = segments;
  const std::size_t n = ctx.game.num_targets();
  t.lower.resize(n);
  t.upper.resize(n);
  t.utility.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    t.lower[i].resize(segments + 1);
    t.upper[i].resize(segments + 1);
    t.utility[i].resize(segments + 1);
    for (std::size_t k = 0; k <= segments; ++k) {
      const double x = static_cast<double>(k) /
                       static_cast<double>(segments);
      t.lower[i][k] = ctx.bounds.lower(i, x);
      t.upper[i][k] = ctx.bounds.upper(i, x);
      t.utility[i][k] = ctx.game.defender_utility(i, x);
    }
  }
}

StepResult cubis_step(const SolveContext& ctx, double c,
                      const CubisOptions& options,
                      const StepTables* tables, RoundReuse* reuse) {
  if (tables != nullptr && tables->segments != options.segments) {
    throw InvalidModelError("cubis_step: table segment-count mismatch");
  }
  obs::TraceSpan span("cubis.P1");
  CubisMetrics::get().feasibility_checks.add(1);
  if (faultinject::should_fail(faultinject::Site::kStepAlloc)) {
    throw std::bad_alloc();  // injected: exercises the round-level catch
  }
  if (faultinject::should_fail(faultinject::Site::kCubisStepInfeasible)) {
    StepResult forced;
    forced.status = SolverStatus::kInfeasible;
    return forced;
  }
  const games::CoverageSpace space = effective_space(ctx);
  const bool dp_backend = options.backend == StepBackend::kDp;
  if (reuse != nullptr) {
    if (reuse->cache.k_count() != options.segments) {
      throw InvalidModelError("cubis_step: reuse segment-count mismatch");
    }
    reuse->cache.set_value(c);
    if (dp_backend) {
      return step_dp(ctx, space, reuse->cache.phi_flat().data(),
                     reuse->cache.t_count(), options.segments,
                     reuse->dp_scratch);
    }
    return solve_step_milp_cached(ctx, options, space, *reuse);
  }
  const std::vector<TargetPls> pls =
      build_f_pls(ctx, c, options.segments, tables);
  if (dp_backend) {
    const std::vector<double> phi = phi_flat_from(pls);
    DpScratch scratch;
    return step_dp(ctx, space, phi.data(), pls.size(), options.segments,
                   scratch);
  }
  return solve_step_milp(ctx, pls, options, space);
}

CubisSolver::CubisSolver(CubisOptions options) : opt_(options) {
  if (opt_.segments == 0) {
    throw InvalidModelError("CubisSolver: segments must be >= 1");
  }
  if (!(opt_.epsilon > 0.0)) {
    throw InvalidModelError("CubisSolver: epsilon must be positive");
  }
}

std::string CubisSolver::name() const {
  return opt_.backend == StepBackend::kDp ? "cubis-dp" : "cubis-milp";
}

DefenderSolution CubisSolver::solve(const SolveContext& ctx) const {
  Timer timer;
  const obs::SolveScope scope;
  obs::TraceSpan span("cubis.solve");
  CubisMetrics::get().solves.add(1);
  const std::size_t n = ctx.game.num_targets();
  // The coverage polytope this solve optimizes over: SolveContext::space,
  // or the paper's simplex when the caller supplied none.
  const games::CoverageSpace space = effective_space(ctx);
  DefenderSolution sol;

  double lo = ctx.game.min_defender_penalty();
  double hi = ctx.game.max_defender_reward();
  // Any strategy's worst case is a convex combination of the u_i, hence
  // >= lo; the polytope's uniform seed is the fallback witness (simplex:
  // R/T exactly; grouped: per-group B_g/|g| clamped to the caps).
  std::vector<double> best_x = space.uniform_seed();

  int steps = 0;
  std::int64_t nodes = 0;
  const int sections = std::max(1, opt_.parallel_sections);
  // Per-call scratch: the caller's long-lived workspace when provided
  // (reuse preserves allocation capacity only — every value a solve reads
  // is rebuilt below, so results match a fresh workspace bitwise), else an
  // ephemeral one on this stack.
  SolveWorkspace local_ws;
  SolveWorkspace& ws = ctx.workspace != nullptr ? *ctx.workspace : local_ws;
  // The bounds/utility breakpoint values do not depend on c: sample them
  // once and let every step reuse them.  A transplant seed (cross-solve
  // cache) is consumed exactly once — adopted rows are bitwise-identical
  // to a rebuild, everything else is repaired, and any mismatch rejects
  // into the cold build.
  const std::shared_ptr<const TransplantSeed> seed =
      std::move(ws.transplant_seed);
  {
    obs::TraceSpan tspan("cubis.build_tables");
    bool transplanted = false;
    if (seed != nullptr) {
      ws.transplant_stats.used = true;
      transplanted = transplant_step_tables(ctx, opt_.segments, *seed,
                                            ws.tables, ws.transplant_stats);
      if (!transplanted) ws.transplant_stats.rejected = true;
    }
    if (!transplanted) build_step_tables_into(ctx, opt_.segments, ws.tables);
  }
  // Mark the tables as belonging to THIS job's scenario (donor-harvest
  // gate; the engine zeroes the token before every job).
  ws.tables_token = 1;
  const StepTables& tables = ws.tables;
  // One cross-round reuse slot per multisection lane (never shared across
  // lanes: set_value and the DP scratch mutate in place).  Both backends
  // serve every polytope: the step MILP's budget and cap rows do not
  // depend on c, so its skeleton is built once per lane like the DP's
  // breakpoint cache.
  const bool use_lanes = opt_.reuse_rounds;
  if (use_lanes) {
    ws.ensure_cubis_lanes(static_cast<std::size_t>(sections), tables,
                          opt_.backend == StepBackend::kMilp);
    // Skeleton transplant (kMilp): the dense skeleton's structure depends
    // only on (T, K, R) and the polytope's budget and cap rows — all
    // checked below — and solve_step_milp_cached patches every
    // value-dependent entry before first use, so adopting the donor's
    // copy is bitwise-safe.  The donor's root basis is never carried (see
    // TransplantDonor), so the first round's relaxation cold-starts
    // exactly like a fresh solve.
    if (seed != nullptr && !ws.transplant_stats.rejected &&
        opt_.backend == StepBackend::kMilp && seed->donor != nullptr &&
        seed->donor->has_skeleton &&
        seed->donor->skeleton_layout.t_count == n &&
        seed->donor->skeleton_layout.k_count == opt_.segments &&
        seed->donor->skeleton_resources == ctx.game.resources() &&
        seed->donor->skeleton_space == space.descriptor()) {
      ws.cubis_lanes[0]->milp = std::make_unique<MilpStepCache>(
          seed->donor->skeleton_model, seed->donor->skeleton_layout,
          seed->donor->skeleton_rows);
    }
    // Token 2: the lanes (and any skeleton lane 0 builds during the
    // rounds below) also belong to this scenario, so the engine may
    // harvest the skeleton as a donor too.
    ws.tables_token = 2;
  }
  // kOptimal until a round fails or the budget trips; becomes the final
  // DefenderSolution status.  A non-optimal verdict never throws away the
  // incumbent: best_x and the certified [lo, hi] bracket always survive.
  SolverStatus final_status = SolverStatus::kOptimal;
  while (hi - lo > opt_.epsilon) {
    obs::TraceSpan round_span("cubis.binary_search_round");
    // Cooperative stop point: the round boundary is the coarsest safe
    // point — lo/hi and best_x are consistent here, so a budget trip
    // degrades to the incumbent plus the bracket.  (The DP step backend
    // is not internally interruptible, so with it a deadline is honored
    // with up to one round of grace.)
    if (ctx.budget != nullptr) {
      if (const auto stop = ctx.budget->exceeded()) {
        final_status = *stop;
        break;
      }
    }
    if (faultinject::should_fail(faultinject::Site::kCubisDeadline)) {
      final_status = SolverStatus::kDeadlineExceeded;
      break;
    }
    // Multisection round: `sections` candidate values split [lo, hi] into
    // sections+1 equal parts; by Proposition 1 feasibility is monotone, so
    // the results bracket the threshold after one concurrent round.
    std::vector<double> cs(sections);
    for (int s = 0; s < sections; ++s) {
      cs[s] = lo + (hi - lo) * static_cast<double>(s + 1) /
                       static_cast<double>(sections + 1);
    }
    std::vector<StepResult> results;
    try {
      if (sections == 1) {
        results.push_back(cubis_step(
            ctx, cs[0], opt_, &tables,
            use_lanes ? ws.cubis_lanes[0].get() : nullptr));
      } else {
        ThreadPool& pool = opt_.pool ? *opt_.pool : ThreadPool::global();
        results = parallel_map(pool, cs.size(), [&](std::size_t s) {
          return cubis_step(ctx, cs[s], opt_, &tables,
                            use_lanes ? ws.cubis_lanes[s].get() : nullptr);
        });
      }
    } catch (const std::bad_alloc&) {
      CUBISG_LOG(LogLevel::kError)
          << "cubis: step allocation failure; returning incumbent";
      final_status = SolverStatus::kNumericalIssue;
      break;
    } catch (const NumericalError& e) {
      CUBISG_LOG(LogLevel::kError)
          << "cubis: numeric failure in step: " << e.what();
      final_status = SolverStatus::kNumericalIssue;
      break;
    }
    steps += sections;
    CubisMetrics::get().binary_search_iters.add(sections);
    // Classify every section before reacting to failures: by Proposition 1
    // the verdicts of the healthy steps stay valid even when a sibling
    // step failed, so the bracket tightens with whatever the round did
    // manage to prove.  Highest feasible candidate raises lo; lowest
    // infeasible lowers hi.
    SolverStatus round_failure = SolverStatus::kOptimal;
    int highest_feasible = -1;
    int lowest_infeasible = sections;
    int feasible_count = 0;
    for (int s = 0; s < sections; ++s) {
      nodes += results[s].milp_nodes;
      if (results[s].status != SolverStatus::kOptimal) {
        CUBISG_LOG(LogLevel::kWarn)
            << "cubis: step at c=" << cs[s] << " failed with "
            << to_string(results[s].status);
        if (round_failure == SolverStatus::kOptimal) {
          round_failure = results[s].status;
        }
        continue;
      }
      const bool feasible = !results[s].x.empty() &&
                            results[s].objective >= -opt_.feasibility_slack;
      CUBISG_LOG(LogLevel::kDebug)
          << "cubis: c=" << cs[s] << " maxG=" << results[s].objective
          << (feasible ? " feasible" : " infeasible");
      if (feasible) {
        highest_feasible = s;
        ++feasible_count;
      } else {
        lowest_infeasible = std::min(lowest_infeasible, s);
      }
    }
    if (highest_feasible >= 0) {
      lo = cs[highest_feasible];
      best_x = results[highest_feasible].x;
      // Certificate evidence from the step that proved this lb.  An
      // early-positive stop leaves the frontier bound at infinity — that
      // is "no proven bound", not evidence, so don't claim any.
      const StepResult& winner = results[highest_feasible];
      sol.certificate.has_milp = winner.from_milp &&
                                 std::isfinite(winner.milp_incumbent) &&
                                 std::isfinite(winner.milp_bound);
      sol.certificate.milp_incumbent = winner.milp_incumbent;
      sol.certificate.milp_bound = winner.milp_bound;
      sol.certificate.milp_nodes = winner.milp_nodes;
    }
    if (lowest_infeasible < sections) {
      hi = cs[lowest_infeasible];
    }
    // Certificate evidence: the bracket after every round, recorded
    // unconditionally (the verifier checks the brackets nest).
    sol.certificate.rounds.push_back(
        {lo, hi, feasible_count, sections - feasible_count});
    if (round_failure != SolverStatus::kOptimal) {
      final_status = round_failure;
      break;
    }
    if (highest_feasible < 0 && lowest_infeasible == sections) {
      break;  // cannot happen (every candidate classified); safety net
    }
  }

  if (opt_.top_up_resources) {
    // Eq. 37 allows sum x < R; saturating the budget usually helps, but is
    // not provably monotone, so keep whichever evaluates better.  With
    // budget groups, slack is redistributed within each group only.
    obs::TraceSpan top_up_span("cubis.top_up");
    std::vector<double> topped = best_x;
    const std::size_t num_groups = space.num_groups();
    std::vector<double> slack(num_groups);
    for (std::size_t g = 0; g < num_groups; ++g) {
      slack[g] = space.is_simplex() ? ctx.game.resources() : space.budget(g);
    }
    for (std::size_t i = 0; i < n; ++i) {
      slack[space.group_of(i)] -= topped[i];
    }
    double total_slack = 0.0;
    for (double s : slack) total_slack += std::max(0.0, s);
    if (total_slack > 1e-12) {
      // Spread remaining coverage by defender stake (Rd - Pd) descending.
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  const auto& pa = ctx.game.target(a);
                  const auto& pb = ctx.game.target(b);
                  return pa.defender_reward - pa.defender_penalty >
                         pb.defender_reward - pb.defender_penalty;
                });
      for (std::size_t idx : order) {
        const std::size_t g = space.group_of(idx);
        // Reachability caps bound the fill; cap(i) is 1 off patrol graphs,
        // so the simplex/grouped arithmetic is unchanged.
        const double add = std::min(space.cap(idx) - topped[idx],
                                    std::max(0.0, slack[g]));
        topped[idx] += add;
        slack[g] -= add;
      }
      const double w_orig =
          worst_case_utility(ctx.game, ctx.bounds, best_x);
      const double w_top = worst_case_utility(ctx.game, ctx.bounds, topped);
      if (w_top >= w_orig) best_x = std::move(topped);
    }
  }

  // local_ascent projects onto effective_space(ctx), the same polytope
  // this solve optimized over.
  if (final_status == SolverStatus::kOptimal && opt_.polish_iterations > 0) {
    // (After a budget trip or failure polish is skipped: the caller asked
    // to stop, and top-up already salvaged the cheap improvement.)
    obs::TraceSpan polish_span("cubis.polish");
    CubisMetrics::get().polish_runs.add(1);
    GradientOptions gopt;
    gopt.max_iterations = opt_.polish_iterations;
    auto [polished, w_polished] = local_ascent(ctx, best_x, gopt);
    if (w_polished >= worst_case_utility(ctx.game, ctx.bounds, best_x)) {
      best_x = std::move(polished);
    }
  }

  sol.strategy = std::move(best_x);
  sol.lb = lo;
  sol.ub = hi;
  sol.binary_steps = steps;
  sol.milp_nodes = nodes;
  sol.solver_objective = lo;
  sol.status = final_status;
  sol.telemetry = scope.finish();
  // Bracket evidence for the independent verifier (audit::verify); the
  // per-round sign evidence was pushed into cert.rounds round by round.
  // The base claims (residuals, claimed worst case) are filled by
  // finalize_solution below, after which nothing may change.
  {
    audit::SolutionCertificate& cert = sol.certificate;
    cert.solver = name();
    cert.has_bracket = true;
    cert.bracket_converged = final_status == SolverStatus::kOptimal;
    cert.epsilon = opt_.epsilon;
    cert.segments = static_cast<int>(opt_.segments);
    cert.lb = lo;
    cert.ub = hi;
  }
  finalize_solution(ctx, sol, timer.seconds());
  return sol;
}

}  // namespace cubisg::core
