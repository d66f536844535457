// Solve-scoped reuse for the warm-started binary search.
//
// Both per-target functions of Section IV.C are affine in the search value
// c once the breakpoint grid is fixed:
//
//   f1_i(k/K) = L_i(k/K) * Ud_i(k/K) - c * L_i(k/K)
//   f2_i(k/K) = U_i(k/K) * Ud_i(k/K) - c * U_i(k/K)
//
// so a RoundCache precomputes the four tables L, U, L*Ud, U*Ud once per
// solve and every round's f1/f2/phi rebuild is one axpy per function
// (table_a - c * table_b) instead of 2*T*(K+1) functor evaluations, 2*T
// fresh PiecewiseLinear allocations and a flat phi table.  The step MILP's
// constraint skeleton (rows (34)-(40), big-M rows) is likewise
// round-invariant: a MilpStepCache builds it once (dense, so the entry
// layout never changes) and patches only the c-dependent objective
// coefficients, big-M entries and right-hand sides between rounds,
// carrying the previous round's optimal root basis as a lp::WarmStart for
// the next root relaxation.
//
// Everything here is bitwise-compatible with the fresh per-round path in
// cubis.cpp (the reuse_rounds=off oracle): f1_of/f2_of use the same
// distributed arithmetic as the axpy, the dense skeleton differs from the
// fresh model only in explicitly-stored zero coefficients (dropped by both
// the simplex standard form and presolve), and the per-round big-M is
// recomputed with the fresh path's exact formula.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/cubis.hpp"
#include "core/piecewise.hpp"
#include "core/step_solver.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace cubisg::core {

/// Piecewise approximations of f1_i and f2_i (Section IV.C) at a value c.
struct TargetPls {
  PiecewiseLinear f1;
  PiecewiseLinear f2;
};

/// Column layout of the paper MILP (33)-(40).
struct MilpLayout {
  int one = 0;                      ///< fixed [1,1] column for constants
  int x0 = 0;                       ///< x_{i,k} block start (T*K columns)
  int v0 = 0;                       ///< v_i block start
  int q0 = 0;                       ///< q_i block start
  int h0 = 0;                       ///< h_{i,k} block start (T*(K-1))
  std::size_t t_count = 0;
  std::size_t k_count = 0;

  int xcol(std::size_t i, std::size_t k) const {
    return x0 + static_cast<int>(i * k_count + k);
  }
  int vcol(std::size_t i) const { return v0 + static_cast<int>(i); }
  int qcol(std::size_t i) const { return q0 + static_cast<int>(i); }
  int hcol(std::size_t i, std::size_t k) const {
    return h0 + static_cast<int>(i * (k_count - 1) + k);
  }
};

/// Per-target row ids of the big-M block, recorded at assembly time so a
/// MilpStepCache can patch without re-deriving the row order.
struct MilpRowIds {
  std::vector<int> r34;  ///< link_vq:  v_i - M q_i <= 0
  std::vector<int> r35;  ///< lb_v:     sum (s1-s2) x - v_i <= -d0
  std::vector<int> r36;  ///< ub_v:     v_i - sum (s1-s2) x + M q_i <= d0+M
};

/// Assembles the MILP (33)-(40).  `big_m` must dominate |f1~ - f2~|.
/// With `dense` set, the (35)/(36) rows store every x coefficient even
/// when it is zero, so the entry layout is invariant under later patching
/// (explicit zeros are dropped again by the simplex standard form and by
/// presolve, so the solved problem is identical).  `space`, when non-null
/// and not the simplex, drives the (37) budget rows instead of the legacy
/// CubisOptions group fields: one row per polytope budget group plus one
/// cap row per target with cap < 1 (patrol-graph reachability).  Null or
/// simplex keeps the legacy emission byte-for-byte.
lp::Model build_step_milp(const SolveContext& ctx,
                          const std::vector<TargetPls>& pls, double big_m,
                          const CubisOptions& opt, MilpLayout& layout,
                          bool dense = false, MilpRowIds* rows = nullptr,
                          const games::CoverageSpace* space = nullptr);

/// Maps a coverage vector x (on the segment grid or not) to a full MILP
/// variable assignment satisfying (34)-(40).
std::vector<double> milp_point_from_x(const MilpLayout& layout,
                                      const std::vector<TargetPls>& pls,
                                      const std::vector<double>& x,
                                      int num_cols);

/// The per-round big-M of the fresh path: max over breakpoints of
/// |f1 - f2| + 1, floored at 1.  Shared so patched models match bitwise.
double step_big_m(const std::vector<TargetPls>& pls);

/// Affine-in-c breakpoint cache (one per solve, or one per multisection
/// slot).  set_value(c) rebuilds every f1/f2/phi table in place.
class RoundCache {
 public:
  /// Flattens `tables` and precomputes the products.  `build_pls` keeps
  /// PiecewiseLinear views of f1/f2 alive for the MILP backend; the DP
  /// backend only needs the flat phi table.
  RoundCache(const StepTables& tables, bool build_pls);

  /// Re-runs the constructor's flattening in place for a new solve,
  /// reusing the existing buffers when the shape matches (the workspace
  /// reuse contract: capacity survives, values never do).  Every table the
  /// next set_value reads is overwritten.
  void rebuild(const StepTables& tables, bool build_pls);

  std::size_t t_count() const { return t_; }
  std::size_t k_count() const { return kp1_ - 1; }

  /// Rebuilds f1/f2/phi for the given binary-search value.  Counts one
  /// piecewise.cache_hits_total per function rebuilt (3 per target: f1,
  /// f2 and phi, the tables the fresh path would have built).
  void set_value(double c);

  /// phi breakpoints, flattened [T][K+1]: the DP backend's objective.
  const std::vector<double>& phi_flat() const { return phi_; }
  /// f1/f2 views for the MILP backend; empty when built with !build_pls.
  const std::vector<TargetPls>& pls() const { return pls_; }

 private:
  std::size_t t_ = 0;
  std::size_t kp1_ = 0;  ///< K+1
  std::vector<double> l_;    ///< L_i(x_k), flattened [T][K+1]
  std::vector<double> u_;    ///< U_i(x_k)
  std::vector<double> lud_;  ///< L_i(x_k) * Ud_i(x_k)
  std::vector<double> uud_;  ///< U_i(x_k) * Ud_i(x_k)
  std::vector<double> f1_;   ///< current round, flattened
  std::vector<double> f2_;
  std::vector<double> phi_;
  std::vector<TargetPls> pls_;
};

/// Patchable MILP skeleton plus the cross-round root warm-start basis.
class MilpStepCache {
 public:
  /// Builds the dense skeleton from the cache's current pls.
  MilpStepCache(const SolveContext& ctx, const RoundCache& cache,
                const CubisOptions& opt);

  /// Seeds the skeleton from a transplant donor's copy (cross-solve
  /// cache).  The structure must come from the same (T, K, R, group
  /// config); every value-dependent entry is stale until the caller's
  /// first patch(), and the root basis starts empty — a donor's basis is
  /// never carried across solves.
  MilpStepCache(lp::Model model, MilpLayout layout, MilpRowIds rows)
      : model_(std::move(model)),
        layout_(std::move(layout)),
        rows_(std::move(rows)) {}

  /// Rewrites the c-dependent pieces (objective coefficients, big-M
  /// entries, RHS, v bounds) for the cache's current round.  Counts one
  /// milp.model_patches_total.
  void patch(const RoundCache& cache);

  const lp::Model& model() const { return model_; }
  const MilpLayout& layout() const { return layout_; }
  const MilpRowIds& rows() const { return rows_; }
  lp::WarmStart& root_basis() { return root_basis_; }

 private:
  lp::Model model_;
  MilpLayout layout_;
  MilpRowIds rows_;
  lp::WarmStart root_basis_;
};

/// Everything one binary-search stream reuses across rounds.  CubisSolver
/// allocates one slot per multisection lane when reuse_rounds is on and
/// threads it through cubis_step; the slot owns the breakpoint cache, the
/// DP scratch and (lazily, for the kMilp backend) the MILP skeleton.
struct RoundReuse {
  RoundReuse(const StepTables& tables, bool milp_backend)
      : cache(tables, milp_backend) {}

  /// Re-arms the slot for a new solve: rebuilds the breakpoint cache from
  /// `tables` and drops the MILP skeleton plus its root basis (the
  /// skeleton's budget rows encode the game's resources and patch() never
  /// rewrites them, and a stale basis could steer the next solve's
  /// branch-and-bound differently — dropping both keeps a reused slot
  /// bitwise-identical to a fresh one).  The DP scratch keeps its buffer:
  /// solve_step_dp_flat overwrites every value it reads.
  void reset(const StepTables& tables, bool milp_backend) {
    cache.rebuild(tables, milp_backend);
    milp.reset();
  }

  RoundCache cache;
  DpScratch dp_scratch;
  std::unique_ptr<MilpStepCache> milp;
};

}  // namespace cubisg::core
