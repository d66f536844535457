// The defender's feasible coverage polytope, abstracted.
//
// The paper's strategy space X = {0 <= x <= 1, sum x_i = R} is one member
// of a family of separable polytopes
//
//   X = { x : 0 <= x_i <= cap_i,  sum_{i in group g} x_i <= B_g }
//
// that all admit the same per-step machinery (the knapsack DP stays exact,
// the MILP budget rows stay c-invariant, Euclidean projection stays a
// per-group bisection).  Concrete instances:
//
//   kSimplex        one group, unit caps — the paper's X (Eq. 37).
//   kGrouped        per-slot budgets from an unrolled schedule
//                   (games::ScheduledGame).
//   kMultiDefender  product of simplices: each defender owns a disjoint
//                   target block with its own resource pool (Mutzari et
//                   al., arXiv:2204.14000).
//   kPatrolGraph    time-expanded targets with per-slot budgets AND
//                   per-target coverage caps from patrol-graph
//                   reachability (Yang et al., arXiv:2410.15600): a
//                   location unreachable by slot s has cap 0 there.
//
// The simplex instance runs the EXACT legacy single-budget arithmetic
// (R/T seed, tau-bisection projection), so every solver that consumes a
// CoverageSpace stays bitwise-identical to the pre-abstraction behavior
// on simplex games — the golden fixtures prove the refactor.
//
// A CoverageSpace is a copyable value; descriptor() is a stable, lossless
// (%a floats), parseable canonical string used by the fingerprint compat
// hash, canonical_solver_config, certificates and the scenario format.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace cubisg::games {

enum class CoverageFamily {
  kSimplex,       ///< one budget over all targets, unit caps
  kGrouped,       ///< per-group budgets (scheduled games), unit caps
  kMultiDefender, ///< product of simplices over disjoint defender blocks
  kPatrolGraph,   ///< per-slot budgets + reachability caps
};

const char* to_string(CoverageFamily family);

class CoverageSpace {
 public:
  /// Default: the "unset" sentinel (is_default() true).  Consumers treat
  /// it as "derive the simplex from the game's own T and R".
  CoverageSpace() = default;

  /// The paper's X: one budget row over all `num_targets` targets.
  static CoverageSpace simplex(std::size_t num_targets, double resources);

  /// Per-group budgets: `groups[i]` is target i's group id in
  /// [0, budgets.size()).  Unit caps.  `family` tags the instance
  /// (kGrouped or kMultiDefender — the polytope algebra is identical,
  /// the tag keeps provenance for descriptors and bench labels).
  static CoverageSpace grouped(std::vector<std::size_t> groups,
                               std::vector<double> budgets,
                               CoverageFamily family =
                                   CoverageFamily::kGrouped);

  /// Product of simplices: defender d owns the contiguous block of
  /// `block_sizes[d]` targets with budget `budgets[d]`.
  static CoverageSpace multi_defender(
      const std::vector<std::size_t>& block_sizes,
      std::vector<double> budgets);

  /// Per-slot budgets plus per-target caps in [0, 1] (cap 0 = the target
  /// cannot be covered at all in its slot).  Requires, per group, that
  /// the caps sum to at least the budget (else the equality projection
  /// target is unreachable).
  static CoverageSpace patrol_graph(std::vector<std::size_t> groups,
                                    std::vector<double> budgets,
                                    std::vector<double> caps);

  /// Round-trip of descriptor(): parses a canonical descriptor string.
  /// std::nullopt on malformed input.
  static std::optional<CoverageSpace> from_descriptor(
      const std::string& text);

  CoverageFamily family() const { return family_; }
  /// True for the default-constructed sentinel (no shape attached).
  bool is_default() const { return t_ == 0; }
  /// True when the polytope is the paper's X: a single budget group and
  /// unit caps.  Solvers key their legacy (bitwise-pinned) paths on this.
  bool is_simplex() const {
    return family_ == CoverageFamily::kSimplex && caps_.empty();
  }
  bool has_caps() const { return !caps_.empty(); }

  std::size_t num_targets() const { return t_; }
  std::size_t num_groups() const { return budgets_.size(); }
  std::size_t group_of(std::size_t i) const {
    return groups_.empty() ? 0 : groups_[i];
  }
  double budget(std::size_t g) const { return budgets_[g]; }
  double total_budget() const;
  double cap(std::size_t i) const { return caps_.empty() ? 1.0 : caps_[i]; }

  /// Per-target group ids (empty = everything in group 0) and per-group
  /// budgets.
  const std::vector<std::size_t>& target_groups() const { return groups_; }
  const std::vector<double>& group_budgets() const { return budgets_; }
  const std::vector<double>& caps() const { return caps_; }

  /// The per-group uniform fallback strategy.  Simplex: R/T exactly
  /// (the legacy uniform strategy); grouped: min(cap_i, B_g / |g|).
  std::vector<double> uniform_seed() const;

  /// Greedy coverage seed: within each group, assign min(cap, remaining
  /// budget) in ascending defender-penalty order (most damaging first),
  /// equal penalties resolved by target index (pinned ordering).
  std::vector<double> greedy_seed(std::span<const double> penalties) const;

  /// Euclidean projection of `v` onto the polytope with per-group sums
  /// pinned to the budgets (clamp(v - tau, 0, cap) with a per-group
  /// bisection on tau).  Simplex keeps the legacy single-budget
  /// projection bit-for-bit.
  std::vector<double> project(std::span<const double> v) const;

  /// Max feasibility violations, re-measured from scratch: `budget_over`
  /// = max over groups of max(0, sum_g x - B_g) (Eq. 37 slack is legal),
  /// `box_over` = max over targets of max(-x_i, x_i - cap_i, 0).
  void residuals(std::span<const double> x, double& budget_over,
                 double& box_over) const;
  bool is_feasible(std::span<const double> x, double tol) const;

  /// Stable canonical string: "simplex" for the paper's X, else
  /// "<family>;g=...;b=...[;c=...]" with %a-rendered floats.  Feeds the
  /// fingerprint compat hash, canonical_solver_config, certificates and
  /// the scenario text format (single token, no spaces).
  std::string descriptor() const;

  bool operator==(const CoverageSpace& o) const {
    return family_ == o.family_ && t_ == o.t_ && groups_ == o.groups_ &&
           budgets_ == o.budgets_ && caps_ == o.caps_;
  }

 private:
  CoverageFamily family_ = CoverageFamily::kSimplex;
  std::size_t t_ = 0;
  std::vector<std::size_t> groups_;  ///< empty = all targets in group 0
  std::vector<double> budgets_;      ///< per-group; simplex: {R}
  std::vector<double> caps_;         ///< empty = all caps 1.0
};

}  // namespace cubisg::games
