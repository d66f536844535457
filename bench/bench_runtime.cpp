// Experiments R1/R2 — runtime scaling.
//
// R1: wall-clock per solve vs number of targets, for CUBIS (DP and MILP
//     step backends), the midpoint baseline, maximin, and the multi-start
//     non-convex solver (the paper's "Fmincon" comparator).  The paper's
//     claim: the binary-search + MILP pipeline is far faster than generic
//     non-convex optimization; our DP ablation is faster still.
// R2: per-binary-search-step cost vs K for the DP and MILP backends
//     (ablation of the paper's CPLEX step).
// R3: telemetry overhead — the metrics layer must stay below 1% of the
//     wall clock of a large (T=500) solve, with runtime collection on
//     vs off (obs::set_enabled).  The live HTTP exporter is started (but
//     never scraped) for the collection-on side, so the budget also
//     covers an idle acceptor thread sharing the process.
// R5: engine throughput — solves/sec through the concurrent SolveEngine
//     at 1/2/4 workers on the T=200 instance (informational here; the
//     scaling gate lives in bench_engine).
// R6: sampling-profiler overhead — with the 99 Hz SIGPROF sampler armed
//     on the solving thread, the same T=500 solve must stay within the
//     1% budget vs sampler-off, same paired design as R3.  Skipped (with
//     gate_skipped_reason recorded) when the profiler is compiled out.
// R7: shadow-audit overhead — 1-in-8 background re-verification of the
//     T=500 engine sweep must stay within a 2% end-to-end budget vs the
//     same sweep unaudited (and every audit of a clean solve must pass).
//     Skipped on single-hardware-thread boxes, where the audit worker
//     has no spare core to hide on.
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "audit/shadow.hpp"
#include "behavior/bounds.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/cubis.hpp"
#include "core/gradient.hpp"
#include "core/maximin.hpp"
#include "core/pasaq.hpp"
#include "engine/engine.hpp"
#include "games/generators.hpp"
#include "obs/http_exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "bench_util.hpp"

namespace {
using namespace cubisg;

struct Inst {
  games::UncertainGame ug;
  behavior::SuqrIntervalBounds bounds;
};

Inst make(std::uint64_t seed, std::size_t t, double r, double width) {
  Rng rng(seed);
  auto ug = games::random_uncertain_game(rng, t, r, width);
  behavior::SuqrIntervalBounds bounds(behavior::SuqrWeightIntervals{},
                                      ug.attacker_intervals);
  return {std::move(ug), std::move(bounds)};
}

}  // namespace

int main() {
  const int kReps = 3;
  std::printf("=== R1/R2: runtime scaling ===\n\n");
  std::printf("-- R1: milliseconds per solve vs targets (R = 0.3T) --\n");
  std::printf("%8s %12s %12s %12s %12s %12s\n", "targets", "cubis-dp",
              "cubis-milp", "midpoint", "maximin", "gradient");
  for (std::size_t t : {2u, 4u, 8u, 16u, 32u, 64u}) {
    std::vector<double> dp_ms, milp_ms, mid_ms, mm_ms, grad_ms;
    for (int rep = 0; rep < kReps; ++rep) {
      Inst in = make(7000 + 13 * t + rep, t,
                     std::max(1.0, 0.3 * static_cast<double>(t)), 1.5);
      core::SolveContext ctx{in.ug.game, in.bounds};
      {
        core::CubisOptions opt;
        opt.segments = 10;
        dp_ms.push_back(core::CubisSolver(opt).solve(ctx).wall_seconds * 1e3);
      }
      if (t <= 8) {  // the paper MILP path; node LPs grow cubically
        core::CubisOptions opt;
        opt.segments = 5;
        opt.backend = core::StepBackend::kMilp;
        milp_ms.push_back(core::CubisSolver(opt).solve(ctx).wall_seconds *
                          1e3);
      }
      mid_ms.push_back(core::PasaqSolver().solve(ctx).wall_seconds * 1e3);
      mm_ms.push_back(core::MaximinSolver().solve(ctx).wall_seconds * 1e3);
      {
        core::GradientOptions gopt;
        gopt.num_starts = 4;
        grad_ms.push_back(core::GradientSolver(gopt).solve(ctx).wall_seconds *
                          1e3);
      }
    }
    std::printf("%8zu %12.2f", t, bench::mean(dp_ms));
    if (!milp_ms.empty()) {
      std::printf(" %12.1f", bench::mean(milp_ms));
    } else {
      std::printf(" %12s", "-");
    }
    std::printf(" %12.2f %12.2f %12.1f\n", bench::mean(mid_ms),
                bench::mean(mm_ms), bench::mean(grad_ms));
  }

  std::printf("\n-- R2: milliseconds per binary-search step vs K (T=4) --\n");
  std::printf("%8s %14s %14s %14s\n", "K", "dp-step", "milp-step",
              "milp-nodes");
  for (std::size_t k : {2u, 5u, 10u, 20u, 40u}) {
    Inst in = make(8800 + k, 4, 2.0, 1.5);
    core::SolveContext ctx{in.ug.game, in.bounds};
    const double c = 0.5 * (in.ug.game.min_defender_penalty() +
                            in.ug.game.max_defender_reward());
    core::CubisOptions dp_opt;
    dp_opt.segments = k;
    core::CubisOptions milp_opt = dp_opt;
    milp_opt.backend = core::StepBackend::kMilp;

    Timer t_dp;
    for (int rep = 0; rep < 20; ++rep) core::cubis_step(ctx, c, dp_opt);
    const double dp_step = t_dp.millis() / 20.0;

    Timer t_milp;
    core::StepResult ms = core::cubis_step(ctx, c, milp_opt);
    const double milp_step = t_milp.millis();

    std::printf("%8zu %14.3f %14.1f %14lld\n", k, dp_step, milp_step,
                static_cast<long long>(ms.milp_nodes));
  }

  std::printf("\n-- R3: telemetry overhead on a T=500 SUQR solve --\n");
  // Paired design: each rep times one collection-on and one
  // collection-off solve of the same instance back to back, and the gate
  // uses the median of the per-pair differences — drift (thermal, cache,
  // a neighbour saturating the cores) moves both sides of a pair
  // together and cancels in the difference, where median(on)-median(off)
  // would keep it.  The within-pair order flips every rep so even
  // monotone drift across a pair cannot bias one side.  12 reps: the
  // warm-started rounds (reuse_rounds, R4 below) cut the solve to ~1/3
  // of its old wall clock, so the 1% budget is a few hundred µs and the
  // median needs the extra pairs to sit above scheduler noise.
  const int kOverheadReps = 12;
  std::vector<double> on_ms, off_ms, diff_ms;
  // Enabled-but-unscraped exporter: the 1% budget must hold for the
  // realistic deployment (endpoint up, Prometheus not yet pointed at it).
  obs::HttpExporter exporter;
  obs::HttpExporterOptions exp_opt;
  exp_opt.port = 0;  // ephemeral; nothing will connect anyway
  const bool exporter_enabled = exporter.start(exp_opt);
  if (exporter_enabled) {
    std::printf("(idle http exporter on port %d for the duration)\n",
                exporter.port());
  }
  {
    Inst in = make(424242, 500, 150.0, 1.5);
    core::SolveContext ctx{in.ug.game, in.bounds};
    core::CubisOptions opt;
    opt.segments = 10;
    opt.epsilon = 1e-3;
    const core::CubisSolver solver(opt);
    solver.solve(ctx);  // warm-up (tables, allocator, registry names)
    auto timed_solve = [&](bool enabled) {
      obs::set_enabled(enabled);
      Timer t;
      solver.solve(ctx);
      return t.millis();
    };
    for (int rep = 0; rep < kOverheadReps; ++rep) {
      double off, on;
      if (rep % 2 == 0) {
        off = timed_solve(false);
        on = timed_solve(true);
      } else {
        on = timed_solve(true);
        off = timed_solve(false);
      }
      off_ms.push_back(off);
      on_ms.push_back(on);
      diff_ms.push_back(on - off);
    }
    obs::set_enabled(true);
  }
  exporter.stop();
  const double med_on = bench::median(on_ms);
  const double med_off = bench::median(off_ms);
  const double overhead_pct =
      med_off > 0.0 ? bench::median(diff_ms) / med_off * 100.0 : 0.0;
  std::printf("collection on:  %10.2f ms (median of %d)\n", med_on,
              kOverheadReps);
  std::printf("collection off: %10.2f ms (median of %d)\n", med_off,
              kOverheadReps);
  std::printf("overhead:       %+9.3f %%  (budget: < 1%%)\n", overhead_pct);
  const bool overhead_ok = overhead_pct < 1.0;
  if (!overhead_ok) {
    std::fprintf(stderr,
                 "R3 FAILED: telemetry overhead %.3f%% exceeds the 1%% "
                 "budget\n", overhead_pct);
  }

  std::printf("\n-- R4: warm-started rounds on the T=500 solve --\n");
  // Same workload as R3.  Alternate reuse_rounds on/off so drift hits both
  // sides equally; gate on medians.  Two acceptance gates:
  //   * >= 10x fewer piecewise functions built per solve (the affine
  //     breakpoint cache replaces every per-round construction), and
  //   * >= 25% lower wall clock (the flat DP + allocation-free rounds).
  const int kReuseReps = 7;
  std::vector<double> warm_ms, cold_ms;
  std::int64_t warm_built = 0, cold_built = 0;
  {
    Inst in = make(424242, 500, 150.0, 1.5);
    core::SolveContext ctx{in.ug.game, in.bounds};
    core::CubisOptions opt;
    opt.segments = 10;
    opt.epsilon = 1e-3;
    core::CubisOptions cold_opt = opt;
    cold_opt.reuse_rounds = false;
    const core::CubisSolver warm_solver(opt);
    const core::CubisSolver cold_solver(cold_opt);
    warm_solver.solve(ctx);  // warm-up
    for (int rep = 0; rep < kReuseReps; ++rep) {
      Timer t_cold;
      const auto cold_sol = cold_solver.solve(ctx);
      cold_ms.push_back(t_cold.millis());
      cold_built = cold_sol.telemetry.counter("piecewise.functions_built");
      Timer t_warm;
      const auto warm_sol = warm_solver.solve(ctx);
      warm_ms.push_back(t_warm.millis());
      warm_built = warm_sol.telemetry.counter("piecewise.functions_built");
    }
  }
  const double med_warm = bench::median(warm_ms);
  const double med_cold = bench::median(cold_ms);
  const double reduction_pct =
      med_cold > 0.0 ? (med_cold - med_warm) / med_cold * 100.0 : 0.0;
  std::printf("reuse off: %10.2f ms (median of %d), %lld functions built\n",
              med_cold, kReuseReps, static_cast<long long>(cold_built));
  std::printf("reuse on:  %10.2f ms (median of %d), %lld functions built\n",
              med_warm, kReuseReps, static_cast<long long>(warm_built));
  std::printf("wall-time reduction: %6.1f %%  (gate: >= 25%%)\n",
              reduction_pct);
  bool r4_ok = reduction_pct >= 25.0;
  // functions_built gate only means something when collection is compiled
  // in; warm solves build ~none, so warm*10 <= cold also covers the
  // divide-by-zero corner.
  if (warm_built * 10 > cold_built) {
    std::fprintf(stderr,
                 "R4 FAILED: functions built per solve only dropped "
                 "%lld -> %lld (gate: >= 10x)\n",
                 static_cast<long long>(cold_built),
                 static_cast<long long>(warm_built));
    r4_ok = false;
  }
  if (reduction_pct < 25.0) {
    std::fprintf(stderr,
                 "R4 FAILED: wall-time reduction %.1f%% below the 25%% "
                 "gate\n", reduction_pct);
  }

  std::printf("\n-- R5: engine throughput on a T=200 solve --\n");
  // Informational (no gate here; bench_engine owns the scaling gate):
  // solves/sec pushing the same instance through the concurrent engine at
  // 1/2/4 workers, one shared solver, per-worker pinned workspaces.
  const int kEngineJobs = 24;
  const std::vector<std::size_t> kWorkerCounts = {1, 2, 4};
  std::vector<double> engine_sps;
  {
    Rng rng(1002);
    auto ug = std::make_shared<games::UncertainGame>(
        games::random_uncertain_game(rng, 200, 60.0, 1.5));
    auto game_sp =
        std::shared_ptr<const games::SecurityGame>(ug, &ug->game);
    auto bounds_sp = std::make_shared<behavior::SuqrIntervalBounds>(
        behavior::SuqrWeightIntervals{}, ug->attacker_intervals);
    core::CubisOptions opt;
    opt.segments = 10;
    opt.epsilon = 1e-3;
    auto solver = std::make_shared<core::CubisSolver>(opt);
    std::printf("(%u hardware threads)\n",
                std::thread::hardware_concurrency());
    std::printf("%8s %14s %10s\n", "workers", "solves/sec", "speedup");
    for (std::size_t w : kWorkerCounts) {
      engine::EngineOptions eopt;
      eopt.workers = w;
      eopt.queue_capacity = static_cast<std::size_t>(kEngineJobs);
      engine::SolveEngine eng(solver, eopt);
      eng.submit({game_sp, bounds_sp}).get();  // warm the worker pool
      Timer t;
      std::vector<std::future<engine::JobOutcome>> futures;
      for (int j = 0; j < kEngineJobs; ++j) {
        futures.push_back(eng.submit({game_sp, bounds_sp}));
      }
      for (auto& f : futures) f.get();
      const double sps = kEngineJobs / t.seconds();
      engine_sps.push_back(sps);
      std::printf("%8zu %14.2f %9.2fx\n", w, sps, sps / engine_sps.front());
    }
  }

  std::printf("\n-- R6: 99 Hz profiler overhead on the T=500 solve --\n");
  // Same paired on/off design as R3, but the toggled subsystem is the
  // SIGPROF sampling profiler on the solving thread.  At 99 Hz a ~100 ms
  // solve takes ~10 signal deliveries + frame-pointer walks; the gate
  // checks that stays under 1% of the solve's wall clock.  Start/stop
  // (timer_create/timer_delete) happen outside the timed region — the
  // budget covers steady-state sampling, which is what a long-lived
  // --profile-out or /profilez session pays.
  const int kProfReps = 12;
  bool r6_ok = true;
  std::string r6_json;
  if (!obs::profiler_available()) {
    std::printf("skipped: profiler unavailable in this build\n");
    r6_json =
        "{\"gate_skipped_reason\":\"profiler_unavailable\",\"ok\":true}";
  } else {
    std::vector<double> prof_on_ms, prof_off_ms, prof_diff_ms;
    Inst in = make(424242, 500, 150.0, 1.5);
    core::SolveContext ctx{in.ug.game, in.bounds};
    core::CubisOptions opt;
    opt.segments = 10;
    opt.epsilon = 1e-3;
    const core::CubisSolver solver(opt);
    obs::profiler_register_this_thread();
    solver.solve(ctx);  // warm-up
    auto timed_solve = [&](bool profiled) {
      if (profiled) obs::profiler_start({});
      Timer t;
      solver.solve(ctx);
      const double ms = t.millis();
      if (profiled) obs::profiler_stop();
      return ms;
    };
    for (int rep = 0; rep < kProfReps; ++rep) {
      double off, on;
      if (rep % 2 == 0) {
        off = timed_solve(false);
        on = timed_solve(true);
      } else {
        on = timed_solve(true);
        off = timed_solve(false);
      }
      prof_off_ms.push_back(off);
      prof_on_ms.push_back(on);
      prof_diff_ms.push_back(on - off);
    }
    const long long samples =
        static_cast<long long>(obs::profiler_samples_total());
    obs::profiler_unregister_this_thread();
    obs::profiler_clear();
    const double med_prof_on = bench::median(prof_on_ms);
    const double med_prof_off = bench::median(prof_off_ms);
    const double prof_overhead_pct =
        med_prof_off > 0.0
            ? bench::median(prof_diff_ms) / med_prof_off * 100.0
            : 0.0;
    std::printf("sampler on:  %10.2f ms (median of %d, %lld samples)\n",
                med_prof_on, kProfReps, samples);
    std::printf("sampler off: %10.2f ms (median of %d)\n", med_prof_off,
                kProfReps);
    std::printf("overhead:    %+9.3f %%  (budget: < 1%%)\n",
                prof_overhead_pct);
    r6_ok = prof_overhead_pct < 1.0;
    if (!r6_ok) {
      std::fprintf(stderr,
                   "R6 FAILED: profiler overhead %.3f%% exceeds the 1%% "
                   "budget\n", prof_overhead_pct);
    }
    char r6_buf[256];
    std::snprintf(r6_buf, sizeof r6_buf,
                  "{\"targets\":500,\"reps\":%d,\"hz\":99,"
                  "\"on_ms\":%.3f,\"off_ms\":%.3f,\"overhead_pct\":%.4f,"
                  "\"budget_pct\":1.0,\"samples\":%lld,"
                  "\"gate_skipped_reason\":null,\"ok\":%s}",
                  kProfReps, med_prof_on, med_prof_off, prof_overhead_pct,
                  samples, r6_ok ? "true" : "false");
    r6_json = r6_buf;
  }

  std::printf("\n-- R7: 1-in-8 shadow-audit overhead on the T=500 engine "
              "sweep --\n");
  // End-to-end paired design: the same batch of jobs runs through a
  // 2-worker engine with and without a ShadowAuditor hooked into the
  // completion callback (sample_every=8, the production default), and the
  // audited side's timing includes draining the audit queue — the full
  // price of owning the feature.  Order alternates per rep like R3/R6.
  // The budget is 2% (vs 1% for passive telemetry: the auditor copies one
  // sampled solution per sweep and re-derives its worst case, real work
  // that telemetry counters never do).  Any audit failure on these clean
  // solves fails the gate outright — that would be a verifier bug.
  const int kAuditReps = 5;
  const int kAuditJobs = 8;
  bool r7_ok = true;
  std::string r7_json;
  if (std::thread::hardware_concurrency() < 2) {
    std::printf("skipped: single hardware thread (the SCHED_IDLE audit "
                "worker would share the solve core)\n");
    r7_json =
        "{\"gate_skipped_reason\":\"single_hardware_thread\",\"ok\":true}";
  } else {
    Rng rng(2041);
    auto ug = std::make_shared<games::UncertainGame>(
        games::random_uncertain_game(rng, 500, 150.0, 1.5));
    auto game_sp =
        std::shared_ptr<const games::SecurityGame>(ug, &ug->game);
    auto bounds_sp = std::make_shared<behavior::SuqrIntervalBounds>(
        behavior::SuqrWeightIntervals{}, ug->attacker_intervals);
    core::CubisOptions opt;
    opt.segments = 10;
    opt.epsilon = 1e-3;
    auto solver = std::make_shared<core::CubisSolver>(opt);
    std::uint64_t audited_total = 0, audit_failures = 0;
    auto timed_sweep = [&](bool with_audit) {
      engine::EngineOptions eopt;
      eopt.workers = 2;
      eopt.queue_capacity = static_cast<std::size_t>(kAuditJobs);
      std::unique_ptr<audit::ShadowAuditor> auditor;
      if (with_audit) {
        audit::ShadowAuditor::Options aopt;
        aopt.sample_every = 8;
        auditor = std::make_unique<audit::ShadowAuditor>(aopt);
        auditor->start();
        audit::ShadowAuditor* raw = auditor.get();
        eopt.on_outcome = [raw](const engine::SolveJob& job,
                                const engine::JobOutcome& out) {
          if (out.status != engine::JobStatus::kCompleted) return;
          raw->observe(job.game, job.bounds, out.solution, out.id, out.tag);
        };
      }
      engine::SolveEngine eng(solver, eopt);
      eng.submit({game_sp, bounds_sp}).get();  // warm the worker pool
      Timer t;
      std::vector<std::future<engine::JobOutcome>> futures;
      for (int j = 0; j < kAuditJobs; ++j) {
        futures.push_back(eng.submit({game_sp, bounds_sp}));
      }
      for (auto& f : futures) f.get();
      if (auditor != nullptr) auditor->stop();  // include the audit drain
      const double ms = t.millis();
      if (auditor != nullptr) {
        audited_total += auditor->audited();
        audit_failures += auditor->failures();
      }
      eng.shutdown();
      return ms;
    };
    std::vector<double> audit_on_ms, audit_off_ms, audit_diff_ms;
    for (int rep = 0; rep < kAuditReps; ++rep) {
      double off, on;
      if (rep % 2 == 0) {
        off = timed_sweep(false);
        on = timed_sweep(true);
      } else {
        on = timed_sweep(true);
        off = timed_sweep(false);
      }
      audit_off_ms.push_back(off);
      audit_on_ms.push_back(on);
      audit_diff_ms.push_back(on - off);
    }
    const double med_audit_on = bench::median(audit_on_ms);
    const double med_audit_off = bench::median(audit_off_ms);
    const double audit_overhead_pct =
        med_audit_off > 0.0
            ? bench::median(audit_diff_ms) / med_audit_off * 100.0
            : 0.0;
    std::printf("audit on:  %10.2f ms/sweep (median of %d, %llu audits)\n",
                med_audit_on, kAuditReps,
                static_cast<unsigned long long>(audited_total));
    std::printf("audit off: %10.2f ms/sweep (median of %d)\n",
                med_audit_off, kAuditReps);
    std::printf("overhead:  %+9.3f %%  (budget: < 2%%)\n",
                audit_overhead_pct);
    r7_ok = audit_overhead_pct < 2.0;
    if (!r7_ok) {
      std::fprintf(stderr,
                   "R7 FAILED: shadow-audit overhead %.3f%% exceeds the "
                   "2%% budget\n", audit_overhead_pct);
    }
    if (audit_failures != 0) {
      std::fprintf(stderr,
                   "R7 FAILED: %llu clean solves failed their shadow "
                   "audit\n",
                   static_cast<unsigned long long>(audit_failures));
      r7_ok = false;
    }
    char r7_buf[320];
    std::snprintf(r7_buf, sizeof r7_buf,
                  "{\"targets\":500,\"jobs\":%d,\"reps\":%d,"
                  "\"sample_every\":8,\"on_ms\":%.3f,\"off_ms\":%.3f,"
                  "\"overhead_pct\":%.4f,\"budget_pct\":2.0,"
                  "\"audited\":%llu,\"audit_failures\":%llu,"
                  "\"gate_skipped_reason\":null,\"ok\":%s}",
                  kAuditJobs, kAuditReps, med_audit_on, med_audit_off,
                  audit_overhead_pct,
                  static_cast<unsigned long long>(audited_total),
                  static_cast<unsigned long long>(audit_failures),
                  r7_ok ? "true" : "false");
    r7_json = r7_buf;
  }

  char results[3072];
  std::snprintf(results, sizeof results,
                "{\"hardware_threads\":%u,\"cpu_model\":\"%s\","
                "\"r3_overhead\":{\"targets\":500,\"reps\":%d,"
                "\"on_ms\":%.3f,\"off_ms\":%.3f,\"overhead_pct\":%.4f,"
                "\"budget_pct\":1.0,\"exporter_enabled\":%s,\"ok\":%s},"
                "\"r4_reuse\":{\"targets\":500,\"reps\":%d,"
                "\"warm_ms\":%.3f,\"cold_ms\":%.3f,\"reduction_pct\":%.2f,"
                "\"functions_built_warm\":%lld,"
                "\"functions_built_cold\":%lld,\"ok\":%s},"
                "\"r5_engine\":{\"targets\":200,\"jobs\":%d,"
                "\"hardware_threads\":%u,\"workers\":[1,2,4],"
                "\"solves_per_sec\":[%.2f,%.2f,%.2f],"
                "\"speedup_vs_1\":[1.00,%.2f,%.2f]},"
                "\"r6_profiler\":%s,\"r7_audit\":%s}",
                std::thread::hardware_concurrency(),
                bench::cpu_model_name().c_str(),
                kOverheadReps, med_on, med_off, overhead_pct,
                exporter_enabled ? "true" : "false",
                overhead_ok ? "true" : "false", kReuseReps, med_warm,
                med_cold, reduction_pct, static_cast<long long>(warm_built),
                static_cast<long long>(cold_built),
                r4_ok ? "true" : "false", kEngineJobs,
                std::thread::hardware_concurrency(), engine_sps[0],
                engine_sps[1], engine_sps[2],
                engine_sps[1] / engine_sps[0],
                engine_sps[2] / engine_sps[0], r6_json.c_str(),
                r7_json.c_str());
  bench::write_bench_json("runtime", results);

  std::printf(
      "\nShape check (paper): the structured binary-search pipeline beats\n"
      "the generic multi-start non-convex solver by orders of magnitude and\n"
      "scales mildly in T.  Ablation: the separable-DP step replaces the\n"
      "MILP step at ~1000x lower cost with the same O(1/K) guarantee.\n");
  return (overhead_ok && r4_ok && r6_ok && r7_ok) ? 0 : 1;
}
