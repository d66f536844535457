// Cross-solve cache differential harness: the cache must be invisible in
// the results.  An exact hit returns a solution bitwise-identical (under
// the batch journal's canonical digest, which zeroes the job id, wall
// clocks and telemetry) to a cold solve, re-stamped with the NEW job's
// identity; a transplanted solve — warm-started from the nearest cached
// neighbor's tables — is bitwise-identical to a cold solve even when
// fault injection rejects the seed mid-ladder.  Both properties are
// checked against every registered solver / the CUBIS table backends,
// and under concurrent mixed hit/miss/transplant load (the tsan
// headline).  The eviction golden pins the LRU's observable behavior.
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "behavior/attacker_sim.hpp"
#include "behavior/scenario.hpp"
#include "common/fault_inject.hpp"
#include "common/rng.hpp"
#include "core/fingerprint.hpp"
#include "core/registry.hpp"
#include "engine/engine.hpp"
#include "engine/journal.hpp"
#include "engine/process_pool.hpp"
#include "engine/solve_cache.hpp"
#include "games/generators.hpp"

#ifndef CUBISG_GOLDEN_DIR
#error "CUBISG_GOLDEN_DIR must point at tests/golden"
#endif

namespace cubisg::engine {
namespace {

struct FaultGuard {
  FaultGuard() { faultinject::disarm_all(); }
  ~FaultGuard() { faultinject::disarm_all(); }
};

/// A scenario wrapped with engine-compatible shared ownership: jobs
/// reference the game/bounds through aliasing pointers, exactly like the
/// CLI's serve/batch loops.
struct Instance {
  std::shared_ptr<const behavior::Scenario> scenario;
  std::shared_ptr<const behavior::SuqrIntervalBounds> bounds;
  std::shared_ptr<const games::SecurityGame> game;
};

Instance wrap(behavior::Scenario s) {
  auto sp = std::make_shared<behavior::Scenario>(std::move(s));
  Instance inst;
  inst.scenario = sp;
  inst.bounds =
      std::make_shared<behavior::SuqrIntervalBounds>(sp->make_bounds());
  inst.game =
      std::shared_ptr<const games::SecurityGame>(sp, &sp->game.game);
  return inst;
}

behavior::Scenario make_scenario(std::uint64_t seed, std::size_t targets,
                                 double resources, double width) {
  Rng rng(seed);
  return behavior::Scenario{
      games::random_uncertain_game(rng, targets, resources, width),
      behavior::SuqrWeightIntervals{}, behavior::IntervalMode::kExactBox};
}

/// A multi-defender scenario: `defenders` blocks of `block` targets, each
/// block with its own budget (a non-simplex coverage polytope).
behavior::Scenario make_multi_defender_scenario(std::uint64_t seed,
                                                std::size_t defenders,
                                                std::size_t block) {
  Rng rng(seed);
  games::FamilyGame fg =
      games::multi_defender_uncertain_game(rng, defenders, block, 1.5, 1.0);
  return behavior::Scenario{std::move(fg.game),
                            behavior::SuqrWeightIntervals{},
                            behavior::IntervalMode::kExactBox,
                            std::move(fg.coverage)};
}

/// The near-miss generator: `base` with target `i`'s attacker reward
/// nudged by `delta` (same shape, same R, same weights, same coverage
/// polytope — compat-equal, so the cached solve of `base` is a transplant
/// donor for the result).
behavior::Scenario perturb_target(const behavior::Scenario& base,
                                  std::size_t i, double delta) {
  std::vector<games::TargetPayoffs> payoffs;
  for (std::size_t t = 0; t < base.game.game.num_targets(); ++t) {
    payoffs.push_back(base.game.game.target(t));
  }
  payoffs[i].attacker_reward += delta;
  return behavior::Scenario{
      games::UncertainGame{
          games::SecurityGame(std::move(payoffs),
                              base.game.game.resources()),
          base.game.attacker_intervals},
      base.weights, base.mode, base.coverage};
}

SolveJob job_for(const Instance& inst) {
  SolveJob job;
  job.game = inst.game;
  job.bounds = inst.bounds;
  job.scenario = inst.scenario;
  return job;
}

/// Canonical solution digest, mirroring the CLI's journal digest: the
/// wire encoding with id, wall clock and telemetry zeroed.  "Bitwise-
/// identical" throughout this file means equal under this digest — the
/// exemption set is exactly the one process isolation already has.
std::uint64_t digest(const core::DefenderSolution& solution) {
  ResultFrame frame;
  frame.id = 0;
  frame.solution = solution;
  frame.solution.wall_seconds = 0.0;
  frame.solution.telemetry = {};
  const std::string bytes = encode_result(frame);
  return fnv1a64(bytes.data(), bytes.size());
}

core::SolverSpec spec_for(const std::string& name, const Instance& inst) {
  core::SolverSpec spec;
  spec.name = name;
  spec.segments = 6;
  spec.epsilon = 1e-2;
  spec.num_starts = 2;  // keep the gradient-based solvers quick
  if (name == "robust-types" || name == "bayesian") {
    Rng rng(spec.seed);
    spec.population = std::make_shared<behavior::SampledSuqrPopulation>(
        inst.scenario->weights, inst.scenario->game.attacker_intervals,
        /*num_types=*/8, rng);
  }
  return spec;
}

EngineOptions cache_options(CacheMode mode, const core::SolverSpec& spec,
                            std::size_t workers = 1,
                            std::size_t entries = 8) {
  EngineOptions eopt;
  eopt.workers = workers;
  eopt.queue_capacity = 64;
  eopt.cache.mode = mode;
  eopt.cache.entries = entries;
  eopt.cache.solver_config = core::canonical_solver_config(spec);
  return eopt;
}

// ---------------------------------------------------------------------------
// Headline, part 1: for EVERY registered solver, an exact cache hit is
// bitwise-identical to the cold solve and carries the new job's identity
// (fresh id — the stale-id hazard the --resume regression guards).
TEST(SolveCache, ExactHitsBitwiseAcrossEveryRegisteredSolver) {
  const Instance inst = wrap(make_scenario(8001, 10, 3.0, 1.0));
  for (const std::string& name : core::solver_names()) {
    SCOPED_TRACE(name);
    const core::SolverSpec spec = spec_for(name, inst);
    std::shared_ptr<const core::DefenderSolver> solver =
        core::make_solver(spec);

    // Cold oracle: no cache at all.
    EngineOptions cold;
    cold.workers = 1;
    SolveEngine eng_cold(solver, cold);
    const JobOutcome want = eng_cold.submit(job_for(inst)).get();
    eng_cold.shutdown();
    ASSERT_EQ(want.status, JobStatus::kCompleted) << want.error;
    ASSERT_EQ(want.solution.status, SolverStatus::kOptimal)
        << "harness expects a clean optimal solve from every solver";

    SolveEngine eng(solver, cache_options(CacheMode::kExact, spec));
    const JobOutcome first = eng.submit(job_for(inst)).get();
    const JobOutcome second = eng.submit(job_for(inst)).get();
    ASSERT_NE(eng.cache(), nullptr);
    const CacheStats st = eng.cache()->stats();
    eng.shutdown();

    ASSERT_EQ(first.status, JobStatus::kCompleted) << first.error;
    EXPECT_FALSE(first.cache_hit);
    EXPECT_EQ(digest(first.solution), digest(want.solution));

    ASSERT_EQ(second.status, JobStatus::kCompleted) << second.error;
    EXPECT_TRUE(second.cache_hit);
    EXPECT_EQ(digest(second.solution), digest(want.solution));
    EXPECT_NE(second.id, first.id)
        << "a cached result must never resurface under a stale job id";
    EXPECT_EQ(st.hits, 1);
    EXPECT_EQ(st.misses, 1);
    EXPECT_EQ(st.entries, 1u);
  }
}

// Headline, part 2: a transplanted solve — warm-started from the nearest
// cached neighbor's breakpoint tables (and, on the MILP backend, its
// step-MILP skeleton) — is bitwise-identical to a cold solve.  The MILP
// case also runs a multi-defender scenario, whose skeleton carries one
// budget row per defender: the donor gate then matches a non-simplex
// coverage descriptor.
TEST(SolveCache, TransplantedSolvesBitwiseIdenticalToCold) {
  for (const bool milp : {false, true}) {
    std::vector<Instance> donors = {
        wrap(make_scenario(8101, milp ? 8 : 16, 3.0, 1.0))};
    if (milp) {
      donors.push_back(wrap(make_multi_defender_scenario(8102, 2, 4)));
    }
    for (const Instance& a : donors) {
      SCOPED_TRACE(std::string(milp ? "cubis-milp" : "cubis") + " / " +
                   (a.scenario->coverage.is_default()
                        ? std::string("simplex")
                        : a.scenario->coverage.descriptor()));
      const Instance b = wrap(perturb_target(*a.scenario, 2, 0.5));
      core::SolverSpec spec = spec_for(milp ? "cubis-milp" : "cubis", a);
      spec.segments = milp ? 5 : 8;
      std::shared_ptr<const core::DefenderSolver> solver =
          core::make_solver(spec);

      EngineOptions cold;
      cold.workers = 1;
      SolveEngine eng_cold(solver, cold);
      const JobOutcome want = eng_cold.submit(job_for(b)).get();
      eng_cold.shutdown();
      ASSERT_EQ(want.status, JobStatus::kCompleted) << want.error;
      ASSERT_EQ(want.solution.status, SolverStatus::kOptimal);

      SolveEngine eng(solver, cache_options(CacheMode::kTransplant, spec));
      const JobOutcome oa = eng.submit(job_for(a)).get();
      ASSERT_EQ(oa.status, JobStatus::kCompleted) << oa.error;
      ASSERT_EQ(oa.solution.status, SolverStatus::kOptimal);
      const JobOutcome ob = eng.submit(job_for(b)).get();
      const CacheStats st = eng.cache()->stats();
      eng.shutdown();

      ASSERT_EQ(ob.status, JobStatus::kCompleted) << ob.error;
      EXPECT_FALSE(ob.cache_hit) << "a perturbed scenario is not an exact hit";
      EXPECT_TRUE(ob.cache_transplant)
          << "compat-equal neighbor with 1 differing target must donate";
      EXPECT_EQ(digest(ob.solution), digest(want.solution))
          << "transplant changed the result — the adopt/repair ladder leaked";
      EXPECT_EQ(st.transplants, 1);
      EXPECT_EQ(st.transplant_rejects, 0);
      EXPECT_EQ(st.entries, 2u);
    }
  }
}

// Fault-injected rejection: when the transplant-reject site trips the
// ladder, the solve falls back to a cold build — still bitwise-identical —
// and the reject is counted instead of the transplant.
TEST(SolveCache, FaultInjectedRejectionStaysBitwiseAndCounted) {
  if (!faultinject::compiled_in()) GTEST_SKIP() << "fault hooks compiled out";
  FaultGuard guard;
  const Instance a = wrap(make_scenario(8111, 12, 4.0, 1.0));
  const Instance b = wrap(perturb_target(*a.scenario, 5, 0.25));
  core::SolverSpec spec = spec_for("cubis", a);
  std::shared_ptr<const core::DefenderSolver> solver =
      core::make_solver(spec);

  EngineOptions cold;
  cold.workers = 1;
  SolveEngine eng_cold(solver, cold);
  const JobOutcome want = eng_cold.submit(job_for(b)).get();
  eng_cold.shutdown();
  ASSERT_EQ(want.status, JobStatus::kCompleted) << want.error;

  SolveEngine eng(solver, cache_options(CacheMode::kTransplant, spec));
  ASSERT_EQ(eng.submit(job_for(a)).get().status, JobStatus::kCompleted);
  faultinject::arm(faultinject::Site::kTransplantReject, /*fire_count=*/1);
  const JobOutcome ob = eng.submit(job_for(b)).get();
  faultinject::disarm_all();
  const CacheStats st = eng.cache()->stats();
  eng.shutdown();

  ASSERT_EQ(ob.status, JobStatus::kCompleted) << ob.error;
  EXPECT_FALSE(ob.cache_transplant);
  EXPECT_EQ(st.transplant_rejects, 1);
  EXPECT_EQ(st.transplants, 0);
  EXPECT_EQ(digest(ob.solution), digest(want.solution))
      << "a rejected seed must leave no trace in the result";
}

// tsan headline: 4 workers against one transplant-mode cache, with a job
// mix engineered to exercise every path concurrently — exact hits (the
// repeats), transplants (compat-equal perturbations), plain misses (a
// different shape) — while every result stays bitwise-identical to its
// sequential cold oracle.
TEST(SolveCache, ConcurrentMixedHitMissTransplantLoadStaysBitwise) {
  const behavior::Scenario base = make_scenario(8201, 12, 4.0, 1.5);
  const std::vector<Instance> instances = {
      wrap(base),
      wrap(perturb_target(base, 1, 0.25)),
      wrap(perturb_target(base, 3, 0.5)),
      wrap(make_scenario(8202, 9, 3.0, 1.0)),  // different compat/shape
  };
  core::SolverSpec spec = spec_for("cubis", instances[0]);
  std::shared_ptr<const core::DefenderSolver> solver =
      core::make_solver(spec);

  std::vector<std::uint64_t> want;
  for (const Instance& inst : instances) {
    want.push_back(
        digest(solver->solve({*inst.game, *inst.bounds})));
  }

  SolveEngine eng(solver,
                  cache_options(CacheMode::kTransplant, spec,
                                /*workers=*/4, /*entries=*/8));
  constexpr int kJobs = 48;
  std::vector<std::future<JobOutcome>> futures;
  futures.reserve(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    futures.push_back(
        eng.submit(job_for(instances[j % instances.size()])));
  }
  for (int j = 0; j < kJobs; ++j) {
    JobOutcome out = futures[static_cast<std::size_t>(j)].get();
    ASSERT_EQ(out.status, JobStatus::kCompleted) << out.error;
    EXPECT_EQ(digest(out.solution), want[j % instances.size()])
        << "job " << j;
  }
  const CacheStats st = eng.cache()->stats();
  eng.shutdown();
  EXPECT_EQ(st.hits + st.misses, kJobs);
  EXPECT_GT(st.hits, 0) << "48 jobs over 4 scenarios must repeat";
}

// ---------------------------------------------------------------------------
// Seed construction: only bitwise-equal per-target blocks are adoptable,
// and a seed with nothing to adopt is not offered at all.
TEST(SolveCache, MakeTransplantSeedAdoptsBitwiseEqualBlocksOnly) {
  core::Fingerprint fp;
  fp.digest = 0xD1;
  fp.compat = 0xC0;
  fp.blocks.assign(3 * core::kFingerprintBlockDoubles, 1.5);

  auto donor = std::make_shared<core::TransplantDonor>();
  donor->compat = fp.compat;
  donor->blocks = fp.blocks;
  donor->blocks[core::kFingerprintBlockDoubles + 2] = 2.0;  // target 1

  const auto seed = make_transplant_seed(donor, fp);
  ASSERT_NE(seed, nullptr);
  ASSERT_EQ(seed->adopt.size(), 3u);
  EXPECT_EQ(seed->adopt[0], 1);
  EXPECT_EQ(seed->adopt[1], 0);
  EXPECT_EQ(seed->adopt[2], 1);

  EXPECT_EQ(make_transplant_seed(nullptr, fp), nullptr);

  auto mismatched = std::make_shared<core::TransplantDonor>();
  mismatched->compat = fp.compat;
  mismatched->blocks.assign(2 * core::kFingerprintBlockDoubles, 1.5);
  EXPECT_EQ(make_transplant_seed(mismatched, fp), nullptr)
      << "shape mismatch cannot be adopted";

  auto alien = std::make_shared<core::TransplantDonor>();
  alien->compat = fp.compat;
  alien->blocks.assign(3 * core::kFingerprintBlockDoubles, 9.0);
  EXPECT_EQ(make_transplant_seed(alien, fp), nullptr)
      << "a seed that repairs every target saves nothing";
}

TEST(SolveCache, ParseCacheModeRoundTrips) {
  CacheMode mode = CacheMode::kTransplant;
  EXPECT_TRUE(parse_cache_mode("off", mode));
  EXPECT_EQ(mode, CacheMode::kOff);
  EXPECT_TRUE(parse_cache_mode("exact", mode));
  EXPECT_EQ(mode, CacheMode::kExact);
  EXPECT_TRUE(parse_cache_mode("transplant", mode));
  EXPECT_EQ(mode, CacheMode::kTransplant);
  EXPECT_FALSE(parse_cache_mode("lru", mode));
  EXPECT_FALSE(parse_cache_mode("", mode));
  for (CacheMode m :
       {CacheMode::kOff, CacheMode::kExact, CacheMode::kTransplant}) {
    CacheMode back = CacheMode::kOff;
    ASSERT_TRUE(parse_cache_mode(to_string(m), back));
    EXPECT_EQ(back, m);
  }
}

// ---------------------------------------------------------------------------
// Eviction determinism golden: a scripted hit/miss/evict sequence against
// a 3-entry single-shard LRU must reproduce a pinned /cachez + counter
// trace exactly.  Regenerate after an INTENTIONAL policy change with
//
//   CUBISG_GOLDEN_REGEN=1 ./build/tests/test_solve_cache
core::Fingerprint synth_fp(std::uint64_t id) {
  core::Fingerprint fp;
  fp.digest = id;
  fp.compat = 0xC0;
  fp.blocks.assign(core::kFingerprintBlockDoubles,
                   static_cast<double>(id));
  return fp;
}

core::DefenderSolution synth_solution(double v) {
  core::DefenderSolution sol;
  sol.status = SolverStatus::kOptimal;
  sol.worst_case_utility = v;
  sol.lb = v;
  sol.ub = v;
  sol.strategy = {v};
  return sol;
}

TEST(SolveCache, EvictionTraceMatchesGolden) {
  SolveCache cache(CacheMode::kExact, /*capacity=*/3, /*shards=*/1);
  std::ostringstream trace;
  const auto step = [&](const char* what) {
    trace << what << ": " << cache.status_json();
  };
  core::DefenderSolution out;

  step("start");
  for (std::uint64_t id : {1, 2, 3}) {
    cache.insert(synth_fp(id), synth_solution(static_cast<double>(id)),
                 nullptr);
  }
  step("insert 1,2,3");
  EXPECT_TRUE(cache.lookup_exact(synth_fp(1), out));  // 1 now most recent
  EXPECT_EQ(out.worst_case_utility, 1.0);
  step("hit 1");
  cache.insert(synth_fp(4), synth_solution(4.0), nullptr);  // evicts 2
  step("insert 4 evicts lru 2");
  EXPECT_FALSE(cache.lookup_exact(synth_fp(2), out));
  step("miss 2");
  EXPECT_TRUE(cache.lookup_exact(synth_fp(3), out));
  EXPECT_EQ(out.worst_case_utility, 3.0);
  step("hit 3");
  cache.insert(synth_fp(3), synth_solution(3.0), nullptr);  // refresh only
  step("reinsert 3 refreshes");
  cache.insert(synth_fp(5), synth_solution(5.0), nullptr);  // evicts 1
  step("insert 5 evicts lru 1");
  EXPECT_FALSE(cache.lookup_exact(synth_fp(1), out));
  EXPECT_TRUE(cache.lookup_exact(synth_fp(4), out));
  step("miss 1 hit 4");
  // A digest collision with different content must read as a miss, never
  // serve the colliding entry.
  core::Fingerprint collider = synth_fp(5);
  collider.blocks[0] += 1.0;
  EXPECT_FALSE(cache.lookup_exact(collider, out));
  step("collision miss");

  const std::string path =
      std::string(CUBISG_GOLDEN_DIR) + "/cache_eviction_trace.txt";
  if (std::getenv("CUBISG_GOLDEN_REGEN") != nullptr) {
    std::ofstream rewrite(path);
    ASSERT_TRUE(rewrite.good()) << "cannot rewrite " << path;
    rewrite << trace.str();
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (run with CUBISG_GOLDEN_REGEN=1)";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(trace.str(), want.str());
}

}  // namespace
}  // namespace cubisg::engine
