#include "milp/branch_and_bound.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <queue>

#include "lp/io.hpp"
#include "lp/presolve.hpp"

#include "common/fault_inject.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cubisg::milp {

namespace {

constexpr double kInfD = std::numeric_limits<double>::infinity();

/// Registry handles, resolved once; node loops count locally and flush
/// totals when a search finishes.
struct MilpMetrics {
  obs::Counter& solves = obs::Registry::global().counter(
      "milp.solves_total");
  obs::Counter& nodes = obs::Registry::global().counter(
      "milp.nodes_explored");
  obs::Counter& lp_relaxations = obs::Registry::global().counter(
      "milp.lp_relaxations");
  obs::Counter& incumbents = obs::Registry::global().counter(
      "milp.incumbent_updates");
  obs::Counter& early_exits = obs::Registry::global().counter(
      "milp.sign_query_early_exits");
  // Live-search gauges for the /metrics endpoint: last-write-wins, so
  // with concurrent searches they show "some active search" rather than a
  // per-solve value — good enough to watch a long solve converge.
  obs::Gauge& frontier_open = obs::Registry::global().gauge(
      "milp.frontier_open_nodes");
  obs::Gauge& incumbent_objective = obs::Registry::global().gauge(
      "milp.incumbent_objective");

  static MilpMetrics& get() {
    static MilpMetrics m;
    return m;
  }
};

/// One bound tightening, chained back to the root (persistent structure so
/// sibling nodes share their common prefix).
struct BoundChange {
  int col;
  double lo;
  double hi;
  std::shared_ptr<const BoundChange> parent;
};

struct Node {
  std::shared_ptr<const BoundChange> changes;
  double parent_bound;  ///< LP bound inherited from the parent (user sense)
  int depth = 0;
  /// Parent's optimal basis positions: warm-starts the node LP (a child
  /// differs from its parent by a single bound change, so the parent basis
  /// is usually still primal feasible).
  std::shared_ptr<const std::vector<lp::VarPosition>> warm;
  /// Pseudo-cost bookkeeping: the column branched on to create this node
  /// and the fraction moved (f for down children, 1-f for up children).
  int branch_col = -1;
  double branch_frac = 0.0;
};

class BranchAndBound {
 public:
  BranchAndBound(const lp::Model& model, const MilpOptions& options)
      : base_(model), opt_(options) {
    base_.validate();
    // Callers only set MilpOptions::budget; thread it through to the node
    // LPs so the simplex polls the same token at pivot granularity.
    if (opt_.budget != nullptr && opt_.lp.budget == nullptr) {
      opt_.lp.budget = opt_.budget;
    }
    sign_ = base_.objective_sense() == lp::Objective::kMaximize ? 1.0 : -1.0;
    for (int j = 0; j < base_.num_cols(); ++j) {
      if (base_.col_is_integer(j)) int_cols_.push_back(j);
    }
  }

  MilpSolution run() {
    Timer timer;
    MilpSolution out;

    if (int_cols_.empty()) {
      return solve_as_pure_lp();
    }

    seed_warm_start();

    // `score` = sign_ * objective, so the search always maximizes score.
    auto cmp = [](const std::pair<double, Node>& a,
                  const std::pair<double, Node>& b) {
      return a.first < b.first;  // max-heap on score
    };
    std::priority_queue<std::pair<double, Node>,
                        std::vector<std::pair<double, Node>>, decltype(cmp)>
        frontier(cmp);
    frontier.push({kInfD, Node{nullptr, sign_ > 0 ? kInfD : -kInfD,
                                0, nullptr, -1, 0.0}});

    bool any_limit_hit = false;
    while (!frontier.empty()) {
      MilpMetrics::get().frontier_open.set(
          static_cast<double>(frontier.size()));
      // Global bound: best score still reachable from the frontier.
      const double frontier_score = frontier.top().first;
      const double global_bound_score =
          std::isfinite(frontier_score)
              ? std::max(frontier_score, incumbent_score_)
              : frontier_score;

      if (auto early = sign_query_decision(global_bound_score)) {
        out = *early;
        finalize(out, global_bound_score);
        return out;
      }
      if (has_incumbent_ &&
          global_bound_score - incumbent_score_ <= opt_.gap_abs) {
        break;  // proven optimal within gap
      }
      if (opt_.max_nodes >= 0 && nodes_ >= opt_.max_nodes) {
        any_limit_hit = true;
        out.status = SolverStatus::kIterLimit;
        break;
      }
      if (opt_.time_limit_sec > 0 && timer.seconds() > opt_.time_limit_sec) {
        any_limit_hit = true;
        out.status = SolverStatus::kTimeLimit;
        break;
      }
      // Shared budget: the node boundary is a safe point — incumbent and
      // proven bound are both consistent, so we unwind with partial
      // results rather than discarding the search.
      if (opt_.budget != nullptr) {
        if (const auto stop = opt_.budget->exceeded()) {
          any_limit_hit = true;
          out.status = *stop;
          break;
        }
      }
      if (faultinject::should_fail(faultinject::Site::kMilpDeadline)) {
        any_limit_hit = true;
        out.status = SolverStatus::kDeadlineExceeded;
        break;
      }

      Node node = frontier.top().second;
      frontier.pop();

      // Re-check pruning against the incumbent found since it was queued.
      if (has_incumbent_ &&
          sign_ * node.parent_bound <= incumbent_score_ + opt_.gap_abs &&
          std::isfinite(node.parent_bound)) {
        continue;
      }

      ++nodes_;
      if (opt_.budget != nullptr) opt_.budget->charge_nodes(1);
      if (!apply_bounds(node.changes)) {
        restore_bounds();
        continue;  // empty variable domain: node infeasible
      }
      lp::LpSolution rel;
      if (opt_.use_presolve && node.depth > 0) {
        rel = lp::solve_lp_presolved(base_, opt_.lp);
      } else {
        lp::SimplexOptions lp_opt = opt_.lp;
        lp_opt.warm_positions = node.warm ? node.warm.get() : nullptr;
        if (node.depth == 0 && opt_.root_warm != nullptr &&
            !opt_.root_warm->empty()) {
          // Cross-round reuse: the previous round's optimal root basis of
          // the patched model, threaded in by the caller.
          lp_opt.warm_positions = &opt_.root_warm->positions;
        }
        rel = lp::solve_lp(base_, lp_opt);
        if (node.depth == 0 && opt_.root_warm != nullptr && rel.optimal()) {
          opt_.root_warm->positions = rel.positions;
        }
      }
      ++lp_solves_;
      lp_iterations_ += rel.iterations;
      if (rel.status == SolverStatus::kNumericalIssue) {
        if (const char* dump = std::getenv("CUBISG_DUMP_FAILED_LP")) {
          lp::save_model(dump, base_);
        }
      }
      restore_bounds();

      if (rel.status == SolverStatus::kInfeasible) continue;
      if (rel.status == SolverStatus::kUnbounded) {
        // Integrality cannot cure an unbounded relaxation direction here;
        // report and stop (never occurs for the bounded CUBIS MILPs).
        out.status = SolverStatus::kUnbounded;
        finalize(out, kInfD);
        return out;
      }
      if (rel.status == SolverStatus::kDeadlineExceeded ||
          rel.status == SolverStatus::kCancelled) {
        // The shared budget tripped inside the node LP; unwind now rather
        // than spinning through the rest of the frontier.
        any_limit_hit = true;
        out.status = rel.status;
        break;
      }
      if (rel.status != SolverStatus::kOptimal) {
        // A node LP that failed because the *shared budget* tripped (node
        // or iteration cap) must unwind the whole search: every remaining
        // node would fail the same way, and silently dropping them would
        // end with a bogus "infeasible" verdict on an empty frontier.
        if (opt_.budget != nullptr) {
          if (const auto stop = opt_.budget->exceeded()) {
            any_limit_hit = true;
            out.status = *stop;
            break;
          }
        }
        CUBISG_LOG(LogLevel::kWarn)
            << "milp: node LP returned " << to_string(rel.status);
        continue;  // treat as prunable rather than aborting the search
      }

      const double node_score = sign_ * rel.objective;
      if (node.branch_col >= 0 && std::isfinite(node.parent_bound) &&
          node.branch_frac > opt_.int_tol) {
        // Pseudo-cost observation: objective degradation per unit of
        // fraction removed by this branching.
        const double degradation =
            std::max(0.0, sign_ * node.parent_bound - node_score);
        auto& pc = pseudo_[node.branch_col];
        pc.first += degradation / node.branch_frac;
        pc.second += 1;
      }
      if (has_incumbent_ && node_score <= incumbent_score_ + opt_.gap_abs) {
        continue;  // cannot beat the incumbent
      }

      const int frac = select_branch_var(rel.x);
      if (frac < 0) {
        update_incumbent(rel.x, rel.objective);
        continue;
      }

      if (node.depth == 0) {
        try_rounding_heuristic(rel.x, node.changes);
      }

      // Branch.
      const double v = rel.x[frac];
      auto down = std::make_shared<BoundChange>(BoundChange{
          frac, effective_lower(frac, node.changes), std::floor(v),
          node.changes});
      auto up = std::make_shared<BoundChange>(BoundChange{
          frac, std::ceil(v), effective_upper(frac, node.changes),
          node.changes});
      auto warm = rel.positions.empty()
                      ? nullptr
                      : std::make_shared<const std::vector<lp::VarPosition>>(
                            std::move(rel.positions));
      const double frac_part = v - std::floor(v);
      if (down->lo <= down->hi + 1e-12) {
        frontier.push({node_score, Node{down, rel.objective, node.depth + 1,
                                        warm, frac, frac_part}});
      }
      if (up->lo <= up->hi + 1e-12) {
        frontier.push({node_score, Node{up, rel.objective, node.depth + 1,
                                        warm, frac, 1.0 - frac_part}});
      }
    }

    if (!any_limit_hit) {
      out.status =
          has_incumbent_ ? SolverStatus::kOptimal : SolverStatus::kInfeasible;
    }
    const double final_bound_score =
        (out.status == SolverStatus::kOptimal)
            ? incumbent_score_
            : (frontier.empty() ? incumbent_score_
                                : std::max(frontier.top().first,
                                           incumbent_score_));
    // A sign query can also resolve exactly at exhaustion.  After a limit
    // stop only the incumbent certificate (kEarlyPositive) is trustworthy:
    // the node being processed at the break was already popped, so the
    // frontier bound no longer covers its subtree and cannot prove a
    // negative.
    if (opt_.sign_threshold) {
      if (auto early = sign_query_decision(final_bound_score)) {
        if (early->status == SolverStatus::kEarlyPositive ||
            !any_limit_hit) {
          out = *early;
        }
      }
    }
    finalize(out, final_bound_score);
    return out;
  }

 private:
  MilpSolution solve_as_pure_lp() {
    MilpSolution out;
    lp::LpSolution rel = lp::solve_lp(base_, opt_.lp);
    out.status = rel.status;
    out.lp_iterations = rel.iterations;
    out.nodes = 1;
    MilpMetrics::get().nodes.add(1);
    MilpMetrics::get().lp_relaxations.add(1);
    if (rel.optimal()) {
      out.objective = rel.objective;
      out.best_bound = rel.objective;
      out.x = rel.x;
      if (opt_.sign_threshold) {
        const double thr_score = sign_ * *opt_.sign_threshold;
        out.status = sign_ * rel.objective >= thr_score
                         ? SolverStatus::kEarlyPositive
                         : SolverStatus::kEarlyNegative;
      }
    }
    return out;
  }

  void seed_warm_start() {
    if (!opt_.warm_start) return;
    const std::vector<double>& x = *opt_.warm_start;
    if (static_cast<int>(x.size()) != base_.num_cols()) return;
    if (base_.max_violation(x) > 1e-7) return;
    for (int j : int_cols_) {
      if (std::abs(x[j] - std::round(x[j])) > opt_.int_tol) return;
    }
    update_incumbent(x, base_.objective_value(x));
  }

  /// Returns the early-exit result if the sign query is decided.
  std::optional<MilpSolution> sign_query_decision(double bound_score) {
    if (!opt_.sign_threshold) return std::nullopt;
    const double thr_score = sign_ * *opt_.sign_threshold;
    if (has_incumbent_ && incumbent_score_ >= thr_score) {
      MilpSolution out;
      out.status = SolverStatus::kEarlyPositive;
      return out;
    }
    if (bound_score < thr_score) {
      MilpSolution out;
      out.status = SolverStatus::kEarlyNegative;
      return out;
    }
    return std::nullopt;
  }

  void finalize(MilpSolution& out, double bound_score) {
    out.nodes = nodes_;
    out.lp_iterations = lp_iterations_;
    if (has_incumbent_) {
      out.x = incumbent_;
      out.objective = sign_ * incumbent_score_;
    }
    out.best_bound = sign_ * bound_score;

    MilpMetrics& m = MilpMetrics::get();
    m.frontier_open.set(0.0);
    if (nodes_ != 0) m.nodes.add(nodes_);
    if (lp_solves_ != 0) m.lp_relaxations.add(lp_solves_);
    if (inc_updates_ != 0) m.incumbents.add(inc_updates_);
    if (out.status == SolverStatus::kEarlyPositive ||
        out.status == SolverStatus::kEarlyNegative) {
      m.early_exits.add(1);
    }
  }

  /// Applies the node's bound chain to base_; returns false when some
  /// variable domain becomes empty (the node is trivially infeasible).
  bool apply_bounds(const std::shared_ptr<const BoundChange>& changes) {
    saved_.clear();
    bool feasible = true;
    for (const BoundChange* c = changes.get(); c != nullptr;
         c = c->parent.get()) {
      saved_.push_back({c->col, base_.col_lower(c->col),
                        base_.col_upper(c->col)});
      // Deeper changes are applied first and must win: intersect.
      const double lo = std::max(base_.col_lower(c->col), c->lo);
      const double hi = std::min(base_.col_upper(c->col), c->hi);
      if (lo > hi + 1e-12) {
        feasible = false;
        base_.set_col_bounds(c->col, lo, lo);
      } else {
        base_.set_col_bounds(c->col, lo, std::max(lo, hi));
      }
    }
    return feasible;
  }

  void restore_bounds() {
    // Undo in reverse order so the original bounds come back exactly.
    for (auto it = saved_.rbegin(); it != saved_.rend(); ++it) {
      base_.set_col_bounds(it->col, it->lo, it->hi);
    }
    saved_.clear();
  }

  double effective_lower(int col,
                         const std::shared_ptr<const BoundChange>& changes) {
    double lo = base_.col_lower(col);
    for (const BoundChange* c = changes.get(); c; c = c->parent.get()) {
      if (c->col == col) lo = std::max(lo, c->lo);
    }
    return lo;
  }

  double effective_upper(int col,
                         const std::shared_ptr<const BoundChange>& changes) {
    double hi = base_.col_upper(col);
    for (const BoundChange* c = changes.get(); c; c = c->parent.get()) {
      if (c->col == col) hi = std::min(hi, c->hi);
    }
    return hi;
  }

  /// Branching-variable selection per the configured rule; -1 = integral.
  int select_branch_var(const std::vector<double>& x) {
    if (opt_.branching == BranchingRule::kMostFractional) {
      return most_fractional(x);
    }
    // Pseudo-cost: score = fraction * average historical degradation;
    // columns without history fall back to their fraction alone, which
    // reduces to most-fractional on a cold start.
    int best = -1;
    double best_score = -1.0;
    for (int j : int_cols_) {
      const double f = std::abs(x[j] - std::round(x[j]));
      if (f <= opt_.int_tol) continue;
      const auto it = pseudo_.find(j);
      const double avg =
          it == pseudo_.end() || it->second.second == 0
              ? 1.0
              : it->second.first / static_cast<double>(it->second.second);
      const double score = f * avg;
      if (score > best_score) {
        best_score = score;
        best = j;
      }
    }
    return best;
  }

  /// Index of the integer column farthest from integrality, or -1.
  int most_fractional(const std::vector<double>& x) {
    int best = -1;
    double best_frac = opt_.int_tol;
    for (int j : int_cols_) {
      const double f = std::abs(x[j] - std::round(x[j]));
      if (f > best_frac) {
        best_frac = f;
        best = j;
      }
    }
    return best;
  }

  void update_incumbent(const std::vector<double>& x, double objective) {
    const double score = sign_ * objective;
    if (!has_incumbent_ || score > incumbent_score_) {
      incumbent_ = x;
      incumbent_score_ = score;
      has_incumbent_ = true;
      ++inc_updates_;
      MilpMetrics::get().incumbent_objective.set(objective);
    }
  }

  /// Rounds the relaxation's integer values, fixes them, and re-solves the
  /// continuous remainder; a feasible result seeds/updates the incumbent.
  void try_rounding_heuristic(
      const std::vector<double>& relax_x,
      const std::shared_ptr<const BoundChange>& changes) {
    apply_bounds(changes);
    std::vector<std::pair<int, std::pair<double, double>>> fixed;
    fixed.reserve(int_cols_.size());
    bool ok = true;
    for (int j : int_cols_) {
      double v = std::round(relax_x[j]);
      v = std::clamp(v, base_.col_lower(j), base_.col_upper(j));
      if (std::abs(v - std::round(v)) > opt_.int_tol) {
        ok = false;
        break;
      }
      fixed.push_back({j, {base_.col_lower(j), base_.col_upper(j)}});
      base_.set_col_bounds(j, v, v);
    }
    if (ok) {
      lp::LpSolution fix = lp::solve_lp(base_, opt_.lp);
      ++lp_solves_;
      lp_iterations_ += fix.iterations;
      if (fix.optimal()) {
        update_incumbent(fix.x, fix.objective);
      }
    }
    for (auto it = fixed.rbegin(); it != fixed.rend(); ++it) {
      base_.set_col_bounds(it->first, it->second.first, it->second.second);
    }
    restore_bounds();
  }

  lp::Model base_;  ///< mutated/restored around each node LP solve
  MilpOptions opt_;
  double sign_ = 1.0;
  std::vector<int> int_cols_;

  std::vector<double> incumbent_;
  double incumbent_score_ = -kInfD;
  bool has_incumbent_ = false;

  struct SavedBound {
    int col;
    double lo;
    double hi;
  };
  std::vector<SavedBound> saved_;
  /// Per-column (sum of per-unit degradations, observation count).
  std::map<int, std::pair<double, int>> pseudo_;

  std::int64_t nodes_ = 0;
  std::int64_t lp_iterations_ = 0;
  std::int64_t lp_solves_ = 0;
  std::int64_t inc_updates_ = 0;
};

}  // namespace

MilpSolution solve_milp(const lp::Model& model, const MilpOptions& options) {
  obs::TraceSpan span("milp.solve");
  MilpMetrics::get().solves.add(1);
  BranchAndBound bb(model, options);
  return bb.run();
}

}  // namespace cubisg::milp
