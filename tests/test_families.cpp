// End-to-end coverage for the non-simplex game families (multi-defender
// product-of-simplices and patrol-graph flow polytopes): every registered
// solver produces a feasible, audit-clean solution on both families, the
// engine's exact cache serves family scenarios bitwise, scenario files
// round-trip the coverage descriptor, and the fingerprint compat hash
// discriminates coverage spaces that share payoffs.
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "audit/verify.hpp"
#include "behavior/attacker_sim.hpp"
#include "behavior/bounds.hpp"
#include "behavior/scenario.hpp"
#include "common/rng.hpp"
#include "core/fingerprint.hpp"
#include "core/registry.hpp"
#include "core/solvers.hpp"
#include "engine/engine.hpp"
#include "engine/solve_cache.hpp"
#include "games/coverage_space.hpp"
#include "games/generators.hpp"
#include "warm_oracle.hpp"

namespace cubisg {
namespace {

struct FamilyFixture {
  std::string name;
  games::FamilyGame fg;
  behavior::SuqrIntervalBounds bounds;
};

FamilyFixture multi_defender_fixture(std::uint64_t seed = 31) {
  Rng rng(seed);
  auto fg = games::multi_defender_uncertain_game(rng, 3, 4, 1.2, 1.5);
  behavior::SuqrIntervalBounds bounds(behavior::SuqrWeightIntervals{},
                                      fg.game.attacker_intervals);
  return {"multi-defender", std::move(fg), std::move(bounds)};
}

FamilyFixture patrol_graph_fixture(std::uint64_t seed = 32) {
  Rng rng(seed);
  auto fg = games::patrol_graph_uncertain_game(rng, 4, 3, 1.5, 1.5);
  behavior::SuqrIntervalBounds bounds(behavior::SuqrWeightIntervals{},
                                      fg.game.attacker_intervals);
  return {"patrol-graph", std::move(fg), std::move(bounds)};
}

behavior::Scenario scenario_of(const FamilyFixture& fx) {
  return behavior::Scenario{fx.fg.game, behavior::SuqrWeightIntervals{},
                            behavior::IntervalMode::kExactBox,
                            fx.fg.coverage};
}

// Solves `fx` with the named solver over the family's coverage space.
core::DefenderSolution solve_family(const std::string& solver_name,
                                    const FamilyFixture& fx) {
  core::SolverSpec spec;
  spec.name = solver_name;
  spec.segments = 10;
  spec.epsilon = 1e-3;
  if (solver_name == "robust-types" || solver_name == "bayesian") {
    Rng rng(77);
    spec.population = std::make_shared<behavior::SampledSuqrPopulation>(
        behavior::SuqrWeightIntervals{}, fx.fg.game.attacker_intervals, 8,
        rng);
  }
  auto solver = core::make_solver(spec);
  return solver->solve({fx.fg.game.game, fx.bounds, /*budget=*/nullptr,
                        /*workspace=*/nullptr, &fx.fg.coverage});
}

void expect_clean(const FamilyFixture& fx, const std::string& solver_name) {
  SCOPED_TRACE(fx.name + " / " + solver_name);
  const core::DefenderSolution sol = solve_family(solver_name, fx);
  ASSERT_EQ(sol.strategy.size(), fx.fg.game.game.num_targets());
  EXPECT_TRUE(fx.fg.coverage.is_feasible(sol.strategy, 1e-6));

  const audit::AuditResult result =
      audit::verify(fx.fg.game.game, fx.bounds, sol);
  EXPECT_TRUE(result.findings.empty())
      << "first finding: "
      << (result.findings.empty() ? "" : result.findings[0].detail);
}

// ---- every registered solver, both families ---------------------------

TEST(Families, EverySolverAuditsCleanOnMultiDefender) {
  const FamilyFixture fx = multi_defender_fixture();
  for (const std::string& name : core::solver_names()) {
    expect_clean(fx, name);
  }
}

TEST(Families, EverySolverAuditsCleanOnPatrolGraph) {
  const FamilyFixture fx = patrol_graph_fixture();
  for (const std::string& name : core::solver_names()) {
    expect_clean(fx, name);
  }
}

// ---- warm rounds: RoundCache lanes == fresh path, bitwise -------------

void expect_warm_matches_fresh(const FamilyFixture& fx) {
  const core::SolveContext ctx{fx.fg.game.game, fx.bounds,
                               /*budget=*/nullptr, /*workspace=*/nullptr,
                               &fx.fg.coverage};
  core::CubisOptions opt;
  opt.segments = 10;
  opt.epsilon = 1e-3;
  testing::expect_warm_matches_fresh_bitwise(ctx, opt, fx.name);
  // The MILP lanes patch one skeleton whose budget and cap rows come from
  // the family's polytope.
  opt.backend = core::StepBackend::kMilp;
  opt.segments = 5;
  testing::expect_warm_matches_fresh_bitwise(ctx, opt, fx.name + " milp");
}

TEST(Families, WarmRoundsMatchFreshBitwiseOnMultiDefender) {
  for (std::uint64_t seed : {31, 33, 35}) {
    expect_warm_matches_fresh(multi_defender_fixture(seed));
  }
}

TEST(Families, WarmRoundsMatchFreshBitwiseOnPatrolGraph) {
  for (std::uint64_t seed : {32, 34, 36}) {
    expect_warm_matches_fresh(patrol_graph_fixture(seed));
  }
}

// ---- exact cache: family scenarios hit bitwise ------------------------

TEST(Families, ExactCacheHitIsBitwiseOnFamilies) {
  for (const FamilyFixture& fx :
       {multi_defender_fixture(), patrol_graph_fixture()}) {
    SCOPED_TRACE(fx.name);
    core::SolverSpec spec;
    spec.name = "cubis";
    spec.segments = 10;

    engine::EngineOptions opts;
    opts.workers = 1;
    opts.cache.mode = engine::CacheMode::kExact;
    opts.cache.entries = 16;
    opts.cache.solver_config = core::canonical_solver_config(spec);
    engine::SolveEngine engine(
        std::shared_ptr<const core::DefenderSolver>(core::make_solver(spec)),
        opts);

    auto scenario =
        std::make_shared<const behavior::Scenario>(scenario_of(fx));
    auto bounds = std::make_shared<const behavior::SuqrIntervalBounds>(
        scenario->make_bounds());
    auto submit = [&]() {
      engine::SolveJob job;
      job.game = std::shared_ptr<const games::SecurityGame>(
          scenario, &scenario->game.game);
      job.bounds = bounds;
      job.scenario = scenario;
      return engine.submit(std::move(job));
    };

    engine::JobOutcome cold = submit().get();
    ASSERT_EQ(cold.status, engine::JobStatus::kCompleted);
    EXPECT_FALSE(cold.cache_hit);

    engine::JobOutcome warm = submit().get();
    ASSERT_EQ(warm.status, engine::JobStatus::kCompleted);
    EXPECT_TRUE(warm.cache_hit);
    // Bitwise: vector<double> equality is exact comparison per element.
    EXPECT_EQ(warm.solution.strategy, cold.solution.strategy);
    EXPECT_EQ(warm.solution.worst_case_utility,
              cold.solution.worst_case_utility);
  }
}

// ---- scenario IO round-trips the coverage descriptor ------------------

TEST(Families, ScenarioRoundTripPreservesCoverage) {
  for (const FamilyFixture& fx :
       {multi_defender_fixture(), patrol_graph_fixture()}) {
    SCOPED_TRACE(fx.name);
    const behavior::Scenario scenario = scenario_of(fx);
    std::ostringstream os;
    behavior::write_scenario(os, scenario);
    std::istringstream is(os.str());
    const behavior::Scenario back = behavior::read_scenario(is);
    EXPECT_EQ(back.coverage, scenario.coverage);
    EXPECT_EQ(back.coverage.descriptor(), scenario.coverage.descriptor());
  }
}

TEST(Families, LegacyScenarioLoadsWithDefaultCoverage) {
  Rng rng(5);
  auto ug = games::random_uncertain_game(rng, 6, 2.0, 1.5);
  const behavior::Scenario scenario{std::move(ug),
                                    behavior::SuqrWeightIntervals{},
                                    behavior::IntervalMode::kExactBox};
  std::ostringstream os;
  behavior::write_scenario(os, scenario);
  // The simplex setting serializes as nothing: no coverage line at all,
  // so pre-polytope files and freshly written ones stay byte-compatible.
  EXPECT_EQ(os.str().find("coverage"), std::string::npos);
  std::istringstream is(os.str());
  const behavior::Scenario back = behavior::read_scenario(is);
  EXPECT_TRUE(back.coverage.is_default());
}

// ---- fingerprint compat discriminates coverage spaces -----------------

TEST(Families, CompatHashDiscriminatesGroupBudgets) {
  // Two scenarios with identical payoffs whose coverage spaces differ
  // only in per-group budgets must never alias in any cache tier.
  Rng rng(11);
  auto ug = games::random_uncertain_game(rng, 6, 3.0, 1.5);
  const std::vector<std::size_t> groups{0, 0, 0, 1, 1, 1};

  behavior::Scenario a{ug, behavior::SuqrWeightIntervals{},
                       behavior::IntervalMode::kExactBox,
                       games::CoverageSpace::grouped(groups, {2.0, 1.0})};
  behavior::Scenario b{ug, behavior::SuqrWeightIntervals{},
                       behavior::IntervalMode::kExactBox,
                       games::CoverageSpace::grouped(groups, {1.0, 2.0})};

  const core::Fingerprint fa = core::fingerprint_scenario(a, "cfg");
  const core::Fingerprint fb = core::fingerprint_scenario(b, "cfg");
  EXPECT_NE(fa.compat, fb.compat);
  EXPECT_NE(fa.digest, fb.digest);

  // And a simplex scenario differs from both.
  behavior::Scenario s{ug, behavior::SuqrWeightIntervals{},
                       behavior::IntervalMode::kExactBox};
  const core::Fingerprint fs = core::fingerprint_scenario(s, "cfg");
  EXPECT_NE(fs.compat, fa.compat);
  EXPECT_NE(fs.compat, fb.compat);
}

}  // namespace
}  // namespace cubisg
