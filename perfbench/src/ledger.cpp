#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/cubis.hpp"
#include "core/fingerprint.hpp"
#include "core/round_cache.hpp"
#include "engine/process_pool.hpp"
#include "engine/solve_cache.hpp"

namespace perfbench {

namespace {

/// Problems per family whose solve is replayed layer by layer.
constexpr std::size_t kPerFamily = 6;
/// Replays of each timed call; the median is kept.
constexpr int kRepeats = 3;
/// Jobs whose wire frames, scenario text and isolation tax are measured.
constexpr std::size_t kLayerSample = 32;
/// Records written to a scratch journal when the workload keeps none.
constexpr std::size_t kJournalReplay = 256;

double us_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-3;
}

/// Median over kRepeats runs of `fn`, in microseconds.
template <typename Fn>
double time_us(Fn&& fn) {
  std::vector<double> v;
  for (int r = 0; r < kRepeats; ++r) {
    const std::int64_t t0 = now_ns();
    fn();
    v.push_back(us_since(t0));
  }
  return median(std::move(v));
}

bool executed(const JobRecord& j) { return j.ok && !j.cache_hit; }

/// Seeded choice of up to `count` distinct elements of `pool`.
std::vector<std::size_t> choose(std::vector<std::size_t> pool,
                                std::size_t count, cg::Rng& rng) {
  const std::size_t n = std::min(count, pool.size());
  for (std::size_t k = 0; k < n; ++k) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(k),
                        static_cast<std::int64_t>(pool.size()) - 1));
    std::swap(pool[k], pool[pick]);
  }
  pool.resize(n);
  return pool;
}

cg::core::SolveContext context_of(const Problem& p) {
  cg::core::SolveContext ctx{p.scenario->game.game, *p.bounds};
  if (!p.scenario->coverage.is_default()) ctx.space = &p.scenario->coverage;
  return ctx;
}

/// Computed, not measured: the cell updates and the table bytes of one
/// round's DP, following the loop bounds of solve_step_dp_flat (simplex)
/// and of the per-group reference DP (grouped and capped polytopes).
struct DpShape {
  double cells = 0.0;
  double bytes = 0.0;
};

DpShape dp_shape(const cg::games::CoverageSpace& space, std::size_t k) {
  DpShape s;
  const auto units_of = [k](double budget) {
    return static_cast<std::size_t>(
        std::floor(budget * static_cast<double>(k) + 1e-9));
  };
  std::vector<std::vector<std::size_t>> members(space.num_groups());
  for (std::size_t i = 0; i < space.num_targets(); ++i) {
    members[space.group_of(i)].push_back(i);
  }
  for (std::size_t g = 0; g < members.size(); ++g) {
    const std::size_t units = units_of(space.budget(g));
    std::size_t reach = 0;
    for (std::size_t i : members[g]) {
      const std::size_t take =
          std::min({units, k, units_of(space.cap(i))});
      for (std::size_t u = 0; u <= reach; ++u) {
        s.cells += static_cast<double>(std::min(take, units - u) + 1);
      }
      reach = std::min(units, reach + take);
    }
    const double n = static_cast<double>(members[g].size());
    const double width = static_cast<double>(units + 1);
    // Simplex: the flat (T+1) x (units+1) double table.  Otherwise the
    // reference DP's two value rows plus its uint16 choice matrix, per
    // group; the largest group's is what must stay in cache.
    const double bytes = space.is_simplex()
                             ? (n + 1.0) * width * 8.0
                             : 2.0 * width * 8.0 + n * width * 2.0;
    s.bytes = std::max(s.bytes, bytes);
  }
  return s;
}

/// One problem's solve, replayed layer by layer.
struct CoreReplay {
  double tables_ms = 0.0;
  double rebuild_ms = 0.0;
  std::vector<double> step_us;       ///< cubis_step, one per round
  std::vector<double> set_value_us;  ///< RoundCache::set_value
  std::vector<double> dp_us;         ///< the DP alone on the round's phi
  double rounds = 0.0;
  double functions_built = 0.0;
  double solve_ms = 0.0;  ///< the direct single-thread solve
  double dp_cells = 0.0;
  double dp_bytes = 0.0;
};

CoreReplay replay_core(const Problem& p,
                       const cg::core::CubisSolver& solver) {
  const cg::core::CubisOptions& opt = solver.options();
  const cg::core::SolveContext ctx = context_of(p);
  const cg::games::CoverageSpace space = cg::core::effective_space(ctx);
  const std::size_t k = opt.segments;
  CoreReplay r;
  const cg::core::DefenderSolution sol = solver.solve(ctx);
  r.rounds = static_cast<double>(sol.certificate.rounds.size());
  r.functions_built = static_cast<double>(
      sol.telemetry.counter("piecewise.functions_built"));
  const DpShape shape = dp_shape(space, k);
  r.dp_cells = shape.cells;
  r.dp_bytes = shape.bytes;

  cg::core::StepTables tables;
  r.tables_ms = time_us([&] {
                  cg::core::build_step_tables_into(ctx, k, tables);
                }) * 1e-3;
  cg::core::RoundCache cache(tables, false);
  r.rebuild_ms = time_us([&] { cache.rebuild(tables, false); }) * 1e-3;

  // The rounds' thresholds, recomputed from the certificate's brackets
  // with the solver's own arithmetic (one section per round).
  std::vector<double> thresholds;
  double lo = ctx.game.min_defender_penalty();
  double hi = ctx.game.max_defender_reward();
  for (const cg::audit::CertificateRound& round : sol.certificate.rounds) {
    thresholds.push_back(lo + (hi - lo) * 1.0 / 2.0);
    lo = round.lo;
    hi = round.hi;
  }
  // Production routing: the cross-round lane only on the simplex.
  cg::core::RoundReuse lane(tables, false);
  cg::core::RoundReuse* lane_ptr = space.is_simplex() ? &lane : nullptr;
  // Each repetition times a whole direct solve and then every round's
  // step, so dp_share's numerator and denominator are timed moments apart
  // (this VM's speed drifts by more than the share's resolution).
  std::vector<double> solve_us;
  std::vector<std::vector<double>> round_us(thresholds.size());
  for (int rep = 0; rep < kRepeats; ++rep) {
    std::int64_t t0 = now_ns();
    (void)solver.solve(ctx);
    solve_us.push_back(us_since(t0));
    for (std::size_t j = 0; j < thresholds.size(); ++j) {
      t0 = now_ns();
      cg::core::cubis_step(ctx, thresholds[j], opt, &tables, lane_ptr);
      round_us[j].push_back(us_since(t0));
    }
  }
  r.solve_ms = median(solve_us) * 1e-3;
  for (std::vector<double>& v : round_us) r.step_us.push_back(median(v));
  cg::core::DpScratch scratch;
  for (double c : thresholds) {
    r.set_value_us.push_back(time_us([&] { cache.set_value(c); }));
    r.dp_us.push_back(time_us([&] {
      cg::core::solve_step_dp_flat_space(cache.phi_flat().data(),
                                         cache.t_count(), k, space, scratch);
    }));
  }
  return r;
}

std::size_t probe_targets(Family f, std::size_t typical) {
  // Multi-defender blocks hold 25 targets; a patrol slot holds 20.
  const std::size_t unit = f == Family::kMultiDefender  ? 25
                           : f == Family::kPatrolGraph ? 20
                                                       : 1;
  return std::max(unit, (typical + unit / 2) / unit * unit);
}

struct Emit {
  std::vector<Metric>& out;
  void operator()(std::string name, double value, const char* unit,
                  std::size_t samples = 0) const {
    out.push_back({std::move(name), value, unit, samples});
  }
};

std::vector<double> collect(const std::vector<CoreReplay>& rs,
                            std::vector<double> CoreReplay::*field) {
  std::vector<double> v;
  for (const CoreReplay& r : rs) {
    v.insert(v.end(), (r.*field).begin(), (r.*field).end());
  }
  return v;
}

std::vector<double> each(const std::vector<CoreReplay>& rs,
                         double CoreReplay::*field) {
  std::vector<double> v;
  for (const CoreReplay& r : rs) v.push_back(r.*field);
  return v;
}

/// Runs `problems` through a fresh 2-worker engine with `mode` isolation
/// (no cache, no hooks) in a closed loop of kOutstanding jobs; returns
/// each job's execute time in ms.
std::vector<double> probe_engine(const std::vector<const Problem*>& problems,
                                 cg::engine::IsolationMode mode) {
  cg::engine::EngineOptions opt;
  opt.workers = kWorkers;
  opt.isolation = mode;
  cg::engine::SolveEngine engine(cg::core::make_solver(solver_spec()), opt);
  std::vector<std::future<cg::engine::JobOutcome>> futures;
  std::vector<double> ms;
  std::size_t next = 0;
  const auto reap = [&] {
    ms.push_back(futures[next++].get().solve_seconds * 1e3);
  };
  for (const Problem* p : problems) {
    futures.push_back(engine.submit(p->job("probe")));
    if (futures.size() - next >= kOutstanding) reap();
  }
  while (next < futures.size()) reap();
  engine.shutdown();
  return ms;
}

}  // namespace

std::vector<Metric> layer_metrics(const Workload& workload,
                                  const Inputs& inputs, const TracedRun& run,
                                  std::uint64_t seed,
                                  const std::string& workdir) {
  std::vector<Metric> out;
  const Emit emit{out};
  cg::Rng rng(seed ^ 0x1ED6E5ULL);
  const std::vector<JobRecord>& jobs = run.traced.jobs;
  const std::shared_ptr<const cg::core::DefenderSolver> solver =
      cg::core::make_solver(solver_spec());
  const auto& cubis = dynamic_cast<const cg::core::CubisSolver&>(*solver);

  // ---- engine (queue / workers) -----------------------------------------
  std::vector<double> queue_ms;
  std::vector<double> exec_ms;
  double busy_s = 0.0;
  for (const JobRecord& j : jobs) {
    queue_ms.push_back(j.queue_seconds * 1e3);
    busy_s += j.solve_seconds;
    if (executed(j)) exec_ms.push_back(j.solve_seconds * 1e3);
  }

  // ---- core layers, per family ------------------------------------------
  std::vector<double> typical;
  for (const JobRecord& j : jobs) {
    typical.push_back(static_cast<double>(inputs.problems[j.problem].targets()));
  }
  const auto typical_targets = static_cast<std::size_t>(median(typical));
  // Replayed run jobs and their ledger time (table build plus every
  // round's step), for trace.coverage_frac.
  std::vector<const Problem*> ledger_problems;
  double ledger_ms = 0.0;
  for (Family f : kAllFamilies) {
    // Executed jobs of this family, stratified by size so every size the
    // workload mixes is replayed.
    std::vector<std::vector<std::size_t>> by_size;
    std::vector<std::size_t> sizes;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const Problem& p = inputs.problems[jobs[i].problem];
      if (p.family != f || !executed(jobs[i])) continue;
      const auto it = std::find(sizes.begin(), sizes.end(), p.targets());
      const std::size_t s = static_cast<std::size_t>(it - sizes.begin());
      if (it == sizes.end()) {
        sizes.push_back(p.targets());
        by_size.emplace_back();
      }
      by_size[s].push_back(i);
    }
    std::vector<CoreReplay> replays;
    if (!by_size.empty()) {
      const std::size_t per_size =
          std::max<std::size_t>(1, kPerFamily / by_size.size());
      for (const std::vector<std::size_t>& pool : by_size) {
        for (std::size_t i : choose(pool, per_size, rng)) {
          const Problem& p = inputs.problems[jobs[i].problem];
          const CoreReplay& r = replays.emplace_back(replay_core(p, cubis));
          ledger_problems.push_back(&p);
          ledger_ms += r.tables_ms;
          for (double us : r.step_us) ledger_ms += us * 1e-3;
        }
      }
    } else {
      // Family absent from the workload: seeded probe problems of about
      // the workload's size stand in.
      for (std::size_t k = 0; k < kPerFamily; ++k) {
        replays.push_back(replay_core(
            make_problem(f, probe_targets(f, typical_targets), rng), cubis));
      }
    }
    // The rounds' step time as a share of the same jobs' direct solve,
    // timed together in replay_core rather than against the run's own
    // execute times, which are minutes older.
    double steps_ms = 0.0;
    for (double us : collect(replays, &CoreReplay::step_us)) {
      steps_ms += us * 1e-3;
    }
    const std::vector<double> solve_ms = each(replays, &CoreReplay::solve_ms);
    const double whole_ms = std::accumulate(solve_ms.begin(), solve_ms.end(),
                                            0.0);
    const std::string sfx = std::string(".") + family_name(f);
    const std::vector<double> step_us = collect(replays, &CoreReplay::step_us);
    const std::vector<double> dp_us = collect(replays, &CoreReplay::dp_us);
    emit("step.dp_us" + sfx, median(dp_us), "us", dp_us.size());
    emit("step.dp_share" + sfx, whole_ms > 0.0 ? steps_ms / whole_ms : 0.0,
         "ratio", replays.size());
    emit("step.dp_cells_per_round" + sfx,
         median(each(replays, &CoreReplay::dp_cells)), "count");
    emit("step.dp_table_bytes" + sfx,
         median(each(replays, &CoreReplay::dp_bytes)), "bytes");
    emit("cubis.step_us" + sfx, median(step_us), "us", step_us.size());
    emit("cubis.tables_ms" + sfx, median(each(replays, &CoreReplay::tables_ms)),
         "ms", replays.size());
    emit("round_cache.rebuild_ms" + sfx,
         median(each(replays, &CoreReplay::rebuild_ms)), "ms", replays.size());
    const std::vector<double> set_us =
        collect(replays, &CoreReplay::set_value_us);
    emit("round_cache.set_value_us" + sfx, median(set_us), "us",
         set_us.size());
    emit("cubis.rounds_per_solve" + sfx,
         median(each(replays, &CoreReplay::rounds)), "count", replays.size());
    emit("piecewise.functions_built_per_solve" + sfx,
         median(each(replays, &CoreReplay::functions_built)), "count",
         replays.size());
  }

  // ---- core/fingerprint + engine/solve_cache ----------------------------
  // A fresh SolveCache of the workload's capacity (the engine default when
  // the workload runs without one), replayed over the run's job stream:
  // the engine's own per-job sequence of fingerprint, lookup, nearest
  // donor on a miss, and insert of the run's solution.
  {
    const std::size_t capacity =
        workload.cache_entries > 0
            ? workload.cache_entries
            : cg::engine::EngineOptions::CacheOptions{}.entries;
    cg::engine::SolveCache cache(cg::engine::CacheMode::kTransplant, capacity);
    const std::string config =
        cg::core::canonical_solver_config(solver_spec());
    std::vector<double> fp_us, lookup_us, nearest_us, insert_us;
    std::vector<const cg::core::DefenderSolution*> solution_of(
        std::min(jobs.size(), kCacheReplayJobs), nullptr);
    for (const KeptSolution& k : run.traced.prefix) {
      solution_of[k.job] = &k.solution;
    }
    for (std::size_t i = 0; i < solution_of.size(); ++i) {
      const Problem& p = inputs.problems[jobs[i].problem];
      std::int64_t t0 = now_ns();
      const cg::core::Fingerprint fp =
          cg::core::fingerprint_scenario(*p.scenario, config);
      fp_us.push_back(us_since(t0));
      cg::core::DefenderSolution hit;
      t0 = now_ns();
      const bool found = cache.lookup_exact(fp, hit);
      lookup_us.push_back(us_since(t0));
      if (found) continue;
      t0 = now_ns();
      (void)cache.nearest(fp);
      nearest_us.push_back(us_since(t0));
      if (solution_of[i] == nullptr) continue;
      auto entry_donor = std::make_shared<cg::core::TransplantDonor>();
      entry_donor->blocks = fp.blocks;
      entry_donor->compat = fp.compat;
      t0 = now_ns();
      cache.insert(fp, *solution_of[i], std::move(entry_donor));
      insert_us.push_back(us_since(t0));
    }
    emit("fingerprint.us", median(fp_us), "us", fp_us.size());
    emit("cache.lookup_us", median(lookup_us), "us", lookup_us.size());
    emit("cache.nearest_us", median(nearest_us), "us", nearest_us.size());
    emit("cache.insert_us", median(insert_us), "us", insert_us.size());
    // Ratios from the engine's own cache when the workload has one, else
    // from the replay (a cache-off workload transplants nothing).
    const double n_jobs = static_cast<double>(std::max<std::size_t>(
        1, run.has_cache ? run.primed.attempted + run.untraced.attempted +
                               jobs.size() + inputs.warmup.size()
                         : solution_of.size()));
    const cg::engine::CacheStats s =
        run.has_cache ? run.cache : cache.stats();
    const double lookups = static_cast<double>(s.hits + s.misses);
    emit("cache.hit_frac",
         lookups > 0.0 ? static_cast<double>(s.hits) / lookups : 0.0, "ratio");
    emit("cache.transplant_frac",
         s.misses > 0
             ? static_cast<double>(s.transplants) /
                   static_cast<double>(s.misses)
             : 0.0,
         "ratio");
    emit("cache.evictions_per_job", static_cast<double>(s.evictions) / n_jobs,
         "count");
  }

  // ---- engine (queue / workers) -----------------------------------------
  emit("engine.queue_wait_ms_p50", quantile(queue_ms, 0.50), "ms",
       queue_ms.size());
  emit("engine.queue_wait_ms_p99", quantile(queue_ms, 0.99), "ms",
       queue_ms.size());
  emit("engine.execute_ms_p50", median(exec_ms), "ms", exec_ms.size());
  emit("engine.worker_busy_frac",
       busy_s / (static_cast<double>(kWorkers) * run.traced.wall_seconds),
       "ratio");

  // ---- engine/process_pool + behavior -----------------------------------
  // A seeded sample of the run's jobs.  Each is re-solved directly so the
  // result frame carries the telemetry a worker child sends back.
  std::vector<std::size_t> completed;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].ok) completed.push_back(i);
  }
  const std::vector<std::size_t> sample = choose(completed, kLayerSample, rng);
  std::vector<double> write_us, read_us, bounds_us, enc_job_us, dec_job_us,
      enc_res_us, dec_res_us, job_bytes, result_bytes, wire_ms;
  std::vector<const Problem*> sample_problems;
  for (std::size_t i : sample) {
    const Problem& p = inputs.problems[jobs[i].problem];
    sample_problems.push_back(&p);
    std::string text;
    write_us.push_back(time_us([&] {
      std::ostringstream os;
      cg::behavior::write_scenario(os, *p.scenario);
      text = os.str();
    }));
    cg::engine::JobFrame frame;
    frame.id = i + 1;
    frame.scenario_text = text;
    std::string payload;
    enc_job_us.push_back(
        time_us([&] { payload = cg::engine::encode_job(frame); }));
    job_bytes.push_back(static_cast<double>(payload.size()));
    cg::engine::JobFrame decoded;
    dec_job_us.push_back(
        time_us([&] { cg::engine::decode_job(payload, decoded); }));
    std::optional<cg::behavior::Scenario> parsed;
    read_us.push_back(time_us([&] {
      std::istringstream in(decoded.scenario_text);
      parsed.emplace(cg::behavior::read_scenario(in));
    }));
    bounds_us.push_back(time_us([&] { (void)parsed->make_bounds(); }));
    cg::engine::ResultFrame result;
    result.id = frame.id;
    result.solution = solver->solve(context_of(p));
    std::string rpayload;
    enc_res_us.push_back(
        time_us([&] { rpayload = cg::engine::encode_result(result); }));
    result_bytes.push_back(static_cast<double>(rpayload.size()));
    cg::engine::ResultFrame rdecoded;
    dec_res_us.push_back(
        time_us([&] { cg::engine::decode_result(rpayload, rdecoded); }));
    wire_ms.push_back((write_us.back() + enc_job_us.back() +
                       dec_job_us.back() + read_us.back() + bounds_us.back() +
                       enc_res_us.back() + dec_res_us.back()) *
                      1e-3);
  }
  emit("wire.encode_job_us", median(enc_job_us), "us", enc_job_us.size());
  emit("wire.decode_job_us", median(dec_job_us), "us", dec_job_us.size());
  emit("wire.encode_result_us", median(enc_res_us), "us", enc_res_us.size());
  emit("wire.decode_result_us", median(dec_res_us), "us", dec_res_us.size());
  emit("wire.job_bytes", median(job_bytes), "bytes", job_bytes.size());
  emit("wire.result_bytes", median(result_bytes), "bytes",
       result_bytes.size());
  const std::vector<double> thread_ms =
      probe_engine(sample_problems, cg::engine::IsolationMode::kThread);
  const std::vector<double> process_ms =
      probe_engine(sample_problems, cg::engine::IsolationMode::kProcess);
  // Paired per job, so the sample's mix of sizes cancels out.
  std::vector<double> tax_ms;
  for (std::size_t k = 0; k < thread_ms.size(); ++k) {
    tax_ms.push_back(process_ms[k] - thread_ms[k]);
  }
  emit("isolation.tax_ms", median(tax_ms), "ms", tax_ms.size());
  emit("behavior.write_scenario_us", median(write_us), "us", write_us.size());
  emit("behavior.read_scenario_us", median(read_us), "us", read_us.size());
  emit("behavior.make_bounds_us", median(bounds_us), "us", bounds_us.size());

  // ---- audit -----------------------------------------------------------
  std::vector<double> verify_ms;
  for (const JobRecord& j : jobs) {
    if (j.ok) verify_ms.push_back(j.verify_ms);
  }
  emit("audit.verify_ms", median(verify_ms), "ms", verify_ms.size());
  emit("audit.dropped_frac",
       run.audit_observed > 0 ? static_cast<double>(run.audit_dropped) /
                                    static_cast<double>(run.audit_observed)
                              : 0.0,
       "ratio");

  // ---- engine/journal --------------------------------------------------
  std::vector<double> journal_ms;
  if (workload.journal) {
    for (const JobRecord& j : jobs) journal_ms.push_back(j.journal_ms);
  } else {
    // The workload keeps no journal: append a record per job of the run,
    // fsync included, to a scratch journal.
    const std::string path = workdir + "/ledger-replay.journal";
    std::filesystem::remove(path);
    cg::engine::BatchJournal journal;
    std::string error;
    if (!journal.open(path, error)) {
      throw std::runtime_error("cannot open journal: " + error);
    }
    for (std::size_t i = 0; i < jobs.size() && i < kJournalReplay; ++i) {
      const std::int64_t t0 = now_ns();
      journal.record(std::to_string(i), jobs[i].digest, "ok");
      journal_ms.push_back(us_since(t0) * 1e-3);
    }
    journal.close();
    std::filesystem::remove(path);
  }
  emit("journal.record_ms_p50", quantile(journal_ms, 0.50), "ms",
       journal_ms.size());
  emit("journal.record_ms_p99", quantile(journal_ms, 0.99), "ms",
       journal_ms.size());

  // ---- the traced run itself -------------------------------------------
  // Coverage: the replayed layer time of the replayed run jobs (table
  // build plus every round's step, plus the scenario and wire round trip
  // under process isolation) over the same jobs' execute time in a fresh
  // engine of the workload's isolation, timed alongside the replays.
  const std::vector<double> probe_ms =
      probe_engine(ledger_problems, workload.isolation);
  if (workload.isolation == cg::engine::IsolationMode::kProcess) {
    ledger_ms += median(wire_ms) * static_cast<double>(ledger_problems.size());
  }
  const double engine_ms =
      std::accumulate(probe_ms.begin(), probe_ms.end(), 0.0);
  emit("trace.coverage_frac", engine_ms > 0.0 ? ledger_ms / engine_ms : 0.0,
       "ratio");
  const double sps_untraced =
      static_cast<double>(run.untraced.completed) / run.untraced.wall_seconds;
  const double sps_traced =
      static_cast<double>(run.traced.completed) / run.traced.wall_seconds;
  emit("trace.overhead_frac", 1.0 - sps_traced / sps_untraced, "ratio");

  return out;
}

}  // namespace perfbench
