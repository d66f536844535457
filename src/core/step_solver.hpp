// Binary-search step solvers: maximize a sum of per-target piecewise-linear
// functions over the resource constraint sum_i x_i <= R.
//
// Every CUBIS / PASAQ binary-search step reduces to
//
//   max_{x in [0,1]^T, sum x_i <= R}  sum_i phi_i(x_i)
//
// with phi_i piecewise linear on the K-segment grid (for CUBIS,
// phi_i = min(f1~_i, f2~_i); for PASAQ, phi_i = g~_i).  Two exact backends:
//
//  * kDp — dynamic programming over coverage units of size 1/K.  Exact
//    whenever R*K is integral: with a single knapsack constraint and box
//    bounds, some optimal vertex has at most one off-grid coordinate, and
//    a tight integral budget forces that one onto the grid too, while a
//    slack budget puts every coordinate at a breakpoint maximum.  Every
//    polytope runs through one flat kernel (solve_step_dp_flat), whose
//    forward pass is dispatched by instruction set.
//  * kMilp — the paper's MILP (33)-(40) with segment variables and ordering
//    binaries, solved by the branch-and-bound substrate.  CUBIS's v_i/q_i
//    product linearization lives in cubis.cpp on top of this layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/errors.hpp"
#include "games/coverage_space.hpp"

namespace cubisg::core {

/// Result of one step maximization.
struct StepResult {
  SolverStatus status = SolverStatus::kNumericalIssue;
  double objective = 0.0;      ///< max sum_i phi_i(x_i)
  std::vector<double> x;       ///< maximizing coverage vector
  std::int64_t milp_nodes = 0;
  /// Branch-and-bound evidence (kMilp backend only): the incumbent and
  /// its proven bound, carried into the solution certificate.
  bool from_milp = false;
  double milp_incumbent = 0.0;
  double milp_bound = 0.0;
};

/// Instruction-set variants of the flat DP's forward pass (the -inf fill
/// and the add-and-max loop).  The pass holds no multiply, so no FMA
/// contraction can arise, and max is exact: every variant computes
/// bitwise-identical tables; they differ only in vector width.
enum class DpIsa { kBaseline, kAvx2, kAvx512f };

const char* to_string(DpIsa isa);

/// The variant this process runs: the widest one the CPU supports,
/// chosen once (via __builtin_cpu_supports) on first use.
DpIsa dp_kernel_isa();

/// Every variant this host can run, baseline first.
std::vector<DpIsa> dp_supported_isas();

/// Reusable buffers for the flat DP.  The full per-target value tables
/// replace a choice matrix (the backtrack recomputes the argmax from them)
/// and survive across binary-search rounds, so a warm solve performs no
/// per-round DP allocation at all.
struct DpScratch {
  std::vector<double> values;      ///< (T+1) -inf-padded DP value rows
  std::vector<std::size_t> takes;  ///< per-target take cap, in units
  std::vector<std::size_t> reach;  ///< largest finite u of each table row
  std::vector<std::size_t> members;    ///< targets bucketed by group
  std::vector<std::size_t> group_end;  ///< bucket ends in `members`
  std::vector<double> gathered;  ///< a non-contiguous group's phi rows
  std::vector<double> group_x;   ///< a non-contiguous group's coverage
  /// Forward-pass variant; defaults to the dispatched one.  Setting it to
  /// a variant the CPU lacks is undefined behavior (illegal instruction).
  DpIsa isa = dp_kernel_isa();
};

/// Exact DP over coverage units of size 1/K for one budget:
///
///   max sum_i phi_i(x_i)  s.t.  sum_i x_i <= resources,
///                               x_i in {0, 1/K, ..., 1}
///
/// over flattened breakpoints (phi_flat[i * (segments + 1) + k]).  When
/// resources * segments is fractional the budget is floored to the grid —
/// a conservative under-approximation whose error stays within the O(1/K)
/// budget (the returned x always satisfies sum x <= resources).  The
/// kernel behind it solves one budget group with per-target take caps;
/// solve_step_dp_flat_space drives it for capped and grouped polytopes.
///
/// The forward pass is a branch-free add-and-max over -inf-padded rows
/// that keeps each output block in registers across all takes.  Ties resolve
/// deterministically: the smallest total usage among maximizers, and
/// backwards from the last target the largest take that attains the
/// table value — the order a strict-improvement DP visiting ascending
/// predecessors records.  The test suite pins this bitwise against the
/// reference DPs it keeps.
StepResult solve_step_dp_flat(const double* phi_flat, std::size_t t_count,
                              std::size_t segments, double resources,
                              DpScratch& scratch);

/// solve_step_dp_flat over a coverage polytope: one DP per budget group
/// of `space`, honoring per-target coverage caps (a target with cap c_i
/// contributes at most floor(c_i * K) units).  The groups decouple, so
/// the stitched result stays exact on the grid; group objectives add up
/// in group order.  The simplex (and the default sentinel, budget 0) is
/// a single uncapped group.
StepResult solve_step_dp_flat_space(const double* phi_flat,
                                    std::size_t t_count,
                                    std::size_t segments,
                                    const games::CoverageSpace& space,
                                    DpScratch& scratch);

}  // namespace cubisg::core
