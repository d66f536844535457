// Scheduled (multi-slot) patrol games — a beyond-the-paper extension.
//
// The attacker chooses WHERE and WHEN to strike: a base game of L
// locations is unrolled over D time slots into an L*D-target game, with a
// separate patrol budget per slot (the defender fields R units each day).
// Target attractiveness can drift over time (e.g. seasonal animal
// movement) via per-slot reward multipliers.
//
// The flattened game plugs into the ordinary SSG machinery; the per-slot
// budgets become the budget groups of coverage_space(), which a solve
// takes through core::SolveContext::space and which keep the
// binary-search step separable.
#pragma once

#include <cstddef>
#include <vector>

#include "games/coverage_space.hpp"
#include "games/generators.hpp"

namespace cubisg::games {

/// A base game unrolled over time slots.
struct ScheduledGame {
  UncertainGame flattened;  ///< locations * slots targets
  std::size_t locations = 0;
  std::size_t slots = 0;
  double per_slot_resources = 0.0;

  /// Flat index of (location, slot).
  std::size_t flat_index(std::size_t location, std::size_t slot) const {
    return slot * locations + location;
  }
  /// Budget-group id (== slot) of a flat target.
  std::size_t group_of(std::size_t flat) const { return flat / locations; }

  /// Per-target budget-group ids (== slot).
  std::vector<std::size_t> target_groups() const;
  /// Per-slot budgets.
  std::vector<double> group_budgets() const;
  /// The per-slot budget polytope as a CoverageSpace (kGrouped).
  CoverageSpace coverage_space() const {
    return CoverageSpace::grouped(target_groups(), group_budgets());
  }
};

/// Unrolls `base` over `slots` time slots with `per_slot_resources` patrol
/// units per slot.  `slot_reward_scale[d]` (optional; default all 1)
/// multiplies every attacker reward in slot d — both the point payoffs and
/// the interval endpoints — modelling temporal drift.  Defender payoffs
/// mirror the scaled attacker payoffs when the base game was zero-sum.
ScheduledGame unroll_schedule(const UncertainGame& base, std::size_t slots,
                              double per_slot_resources,
                              const std::vector<double>& slot_reward_scale =
                                  {});

}  // namespace cubisg::games
