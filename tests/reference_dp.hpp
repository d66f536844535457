// Reference step DPs: the test oracle for the production flat kernel
// (core::solve_step_dp_flat / _flat_space).
//
// These are the textbook knapsack DPs over PiecewiseLinear objects, with a
// choice matrix and the -inf guard the flat kernel replaces by loop
// bounds.  Ties resolve by strict improvement over ascending
// predecessors: the smallest total usage among maximizers, and per target
// the largest take.  The flat kernel must reproduce objective and
// coverage bitwise, on every ISA variant.
#pragma once

#include <cstddef>
#include <vector>

#include "core/piecewise.hpp"
#include "core/step_solver.hpp"
#include "games/coverage_space.hpp"

namespace cubisg::testing {

/// max sum_i phi_i(x_i) s.t. sum_i x_i <= resources on the 1/K grid, the
/// budget floored to whole units.  `unit_caps`, when non-empty, caps
/// target i at unit_caps[i] units.  All phi must share a segment count.
core::StepResult solve_step_dp(const std::vector<core::PiecewiseLinear>& phi,
                               double resources,
                               const std::vector<std::size_t>& unit_caps = {});

/// One solve_step_dp per budget group (`groups[i]` is target i's group
/// id in [0, budgets.size())), objectives added in group order.
core::StepResult solve_step_dp_grouped(
    const std::vector<core::PiecewiseLinear>& phi,
    const std::vector<std::size_t>& groups,
    const std::vector<double>& budgets);

/// One capped DP per budget group of `space` (caps floored to whole
/// units); the simplex is solve_step_dp on its single budget.
core::StepResult solve_step_dp_space(
    const std::vector<core::PiecewiseLinear>& phi,
    const games::CoverageSpace& space);

}  // namespace cubisg::testing
