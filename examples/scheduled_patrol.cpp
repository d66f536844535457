// Scheduled patrols: WHERE and WHEN to defend.
//
// A poacher does not only choose a location — he chooses a day.  This
// example unrolls a 6-location reserve over a 5-day horizon with seasonal
// drift (animal density peaks mid-week at the watering holes), gives the
// rangers 2 patrols per day, and computes the robust schedule with CUBIS
// under per-day budget groups.  The output contrasts the robust schedule
// against a static plan that repeats the single-day optimum.
//
// Run:  ./scheduled_patrol
#include <cstdio>
#include <vector>

#include "behavior/bounds.hpp"
#include "common/rng.hpp"
#include "core/cubis.hpp"
#include "core/worst_case.hpp"
#include "games/generators.hpp"
#include "games/schedule.hpp"

int main() {
  using namespace cubisg;
  const std::size_t kLocations = 6;
  const std::size_t kDays = 5;
  const double kPatrolsPerDay = 2.0;

  Rng rng(2024);
  games::UncertainGame base =
      games::random_uncertain_game(rng, kLocations, kPatrolsPerDay, 1.0);

  // Seasonal drift: rewards swell mid-week.
  std::vector<double> drift{0.8, 1.0, 1.4, 1.2, 0.9};
  games::ScheduledGame sched =
      games::unroll_schedule(base, kDays, kPatrolsPerDay, drift);

  behavior::SuqrIntervalBounds bounds(behavior::SuqrWeightIntervals{},
                                      sched.flattened.attacker_intervals);
  // Per-day budgets: the solve runs over the schedule's grouped polytope.
  const games::CoverageSpace days = sched.coverage_space();
  core::SolveContext ctx{sched.flattened.game, bounds};
  ctx.space = &days;

  core::CubisOptions opt;
  opt.segments = 20;
  opt.epsilon = 1e-3;
  core::DefenderSolution robust = core::CubisSolver(opt).solve(ctx);

  std::printf("Robust weekly schedule (%zu locations x %zu days, "
              "%.0f patrols/day):\n\n", kLocations, kDays, kPatrolsPerDay);
  std::printf("%10s", "");
  for (std::size_t d = 0; d < kDays; ++d) std::printf("   day%zu", d + 1);
  std::printf("   (drift)\n");
  for (std::size_t l = 0; l < kLocations; ++l) {
    std::printf("location %zu", l);
    for (std::size_t d = 0; d < kDays; ++d) {
      std::printf("  %5.2f", robust.strategy[sched.flat_index(l, d)]);
    }
    std::printf("\n");
  }
  std::printf("%10s", "drift");
  for (double s : drift) std::printf("  %5.2f", s);
  std::printf("\n\nworst-case utility (robust schedule): %+.3f\n",
              robust.worst_case_utility);

  // Static plan: the single-day robust coverage repeated every day,
  // ignoring drift.
  core::CubisOptions sopt;
  sopt.segments = 20;
  behavior::SuqrIntervalBounds day_bounds(behavior::SuqrWeightIntervals{},
                                          base.attacker_intervals);
  auto day = core::CubisSolver(sopt).solve({base.game, day_bounds});
  std::vector<double> static_plan(kLocations * kDays);
  for (std::size_t d = 0; d < kDays; ++d) {
    for (std::size_t l = 0; l < kLocations; ++l) {
      static_plan[sched.flat_index(l, d)] = day.strategy[l];
    }
  }
  const double static_w = core::worst_case_utility(
      sched.flattened.game, bounds, static_plan);
  std::printf("worst-case utility (static repeat):   %+.3f\n", static_w);
  std::printf(
      "\nThe robust schedule shifts patrols toward the mid-week density\n"
      "peak the attacker would otherwise exploit; the static plan leaves\n"
      "that window open and pays for it in the worst case.\n");
  return 0;
}
