#include "reference_dp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/errors.hpp"

namespace cubisg::testing {

using core::PiecewiseLinear;
using core::StepResult;

StepResult solve_step_dp(const std::vector<PiecewiseLinear>& phi,
                         double resources,
                         const std::vector<std::size_t>& unit_caps) {
  if (phi.empty()) throw InvalidModelError("solve_step_dp: no targets");
  const std::size_t t_count = phi.size();
  const std::size_t k_count = phi.front().segments();
  for (const PiecewiseLinear& p : phi) {
    if (p.segments() != k_count) {
      throw InvalidModelError("solve_step_dp: mismatched segment counts");
    }
  }
  const double units_exact = resources * static_cast<double>(k_count);
  const auto units =
      static_cast<std::size_t>(std::floor(units_exact + 1e-9));

  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  // value[u] = best sum of phi over processed targets using exactly u units.
  std::vector<double> value(units + 1, kNegInf);
  value[0] = 0.0;
  // choice[i][u] = units assigned to target i in the best fill of u.
  std::vector<std::vector<std::uint16_t>> choice(
      t_count, std::vector<std::uint16_t>(units + 1, 0));

  std::vector<double> next(units + 1);
  for (std::size_t i = 0; i < t_count; ++i) {
    std::fill(next.begin(), next.end(), kNegInf);
    std::size_t max_take = std::min(units, k_count);
    if (!unit_caps.empty()) max_take = std::min(max_take, unit_caps[i]);
    for (std::size_t u = 0; u <= units; ++u) {
      if (value[u] == kNegInf) continue;
      for (std::size_t t = 0; t <= max_take && u + t <= units; ++t) {
        const double cand = value[u] + phi[i].value_at_breakpoint(t);
        if (cand > next[u + t]) {
          next[u + t] = cand;
          choice[i][u + t] = static_cast<std::uint16_t>(t);
        }
      }
    }
    value.swap(next);
  }

  // The budget is an upper bound (paper Eq. 37 uses <= R): take the best
  // total over all unit usages.
  std::size_t best_u = 0;
  double best = kNegInf;
  for (std::size_t u = 0; u <= units; ++u) {
    if (value[u] > best) {
      best = value[u];
      best_u = u;
    }
  }

  StepResult out;
  out.status = SolverStatus::kOptimal;
  out.objective = best;
  out.x.assign(t_count, 0.0);
  std::size_t u = best_u;
  for (std::size_t ii = t_count; ii-- > 0;) {
    const std::size_t t = choice[ii][u];
    out.x[ii] = static_cast<double>(t) / static_cast<double>(k_count);
    u -= t;
  }
  return out;
}

namespace {

/// Runs `solve_group(members, g)` for every non-empty group and stitches
/// the results: objectives added in group order, x scattered back.
template <typename SolveGroup>
StepResult stitch_groups(std::size_t t_count, std::size_t num_groups,
                         const std::vector<std::size_t>& group_of,
                         SolveGroup solve_group) {
  std::vector<std::vector<std::size_t>> members(num_groups);
  for (std::size_t i = 0; i < t_count; ++i) {
    members[group_of[i]].push_back(i);
  }
  StepResult out;
  out.status = SolverStatus::kOptimal;
  out.objective = 0.0;
  out.x.assign(t_count, 0.0);
  for (std::size_t g = 0; g < num_groups; ++g) {
    if (members[g].empty()) continue;
    const StepResult part = solve_group(members[g], g);
    out.objective += part.objective;
    for (std::size_t j = 0; j < members[g].size(); ++j) {
      out.x[members[g][j]] = part.x[j];
    }
  }
  return out;
}

std::vector<PiecewiseLinear> subset(const std::vector<PiecewiseLinear>& phi,
                                    const std::vector<std::size_t>& idx) {
  std::vector<PiecewiseLinear> sub;
  sub.reserve(idx.size());
  for (std::size_t i : idx) sub.push_back(phi[i]);
  return sub;
}

}  // namespace

StepResult solve_step_dp_grouped(const std::vector<PiecewiseLinear>& phi,
                                 const std::vector<std::size_t>& groups,
                                 const std::vector<double>& budgets) {
  if (groups.size() != phi.size()) {
    throw InvalidModelError("solve_step_dp_grouped: groups size mismatch");
  }
  if (budgets.empty()) {
    throw InvalidModelError("solve_step_dp_grouped: no budgets");
  }
  for (std::size_t g : groups) {
    if (g >= budgets.size()) {
      throw InvalidModelError("solve_step_dp_grouped: group id out of range");
    }
  }
  return stitch_groups(
      phi.size(), budgets.size(), groups,
      [&](const std::vector<std::size_t>& idx, std::size_t g) {
        return solve_step_dp(subset(phi, idx), budgets[g]);
      });
}

StepResult solve_step_dp_space(const std::vector<PiecewiseLinear>& phi,
                               const games::CoverageSpace& space) {
  if (phi.empty()) throw InvalidModelError("solve_step_dp_space: no targets");
  if (!space.is_default() && space.num_targets() != phi.size()) {
    throw InvalidModelError("solve_step_dp_space: space size mismatch");
  }
  if (space.is_default() || space.is_simplex()) {
    return solve_step_dp(phi, space.is_default() ? 0.0 : space.budget(0));
  }
  const std::size_t k_count = phi.front().segments();
  std::vector<std::size_t> group_of(phi.size());
  for (std::size_t i = 0; i < phi.size(); ++i) group_of[i] = space.group_of(i);
  return stitch_groups(
      phi.size(), space.num_groups(), group_of,
      [&](const std::vector<std::size_t>& idx, std::size_t g) {
        std::vector<std::size_t> unit_caps;
        if (space.has_caps()) {
          for (std::size_t i : idx) {
            unit_caps.push_back(static_cast<std::size_t>(std::floor(
                space.cap(i) * static_cast<double>(k_count) + 1e-9)));
          }
        }
        return solve_step_dp(subset(phi, idx), space.budget(g), unit_caps);
      });
}

}  // namespace cubisg::testing
