#include "core/round_cache.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>

#include "obs/metrics.hpp"

namespace cubisg::core {

namespace {

obs::Counter& cache_hits_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("piecewise.cache_hits_total");
  return c;
}

obs::Counter& model_patches_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("milp.model_patches_total");
  return c;
}

}  // namespace

lp::Model build_step_milp(const SolveContext& ctx,
                          const std::vector<TargetPls>& pls, double big_m,
                          const games::CoverageSpace& space,
                          MilpLayout& layout, bool dense, MilpRowIds* rows) {
  const std::size_t t_count = pls.size();
  const std::size_t k_count = pls.front().f1.segments();
  const double k_inv = 1.0 / static_cast<double>(k_count);

  lp::Model m;
  m.set_objective_sense(lp::Objective::kMaximize);
  layout.t_count = t_count;
  layout.k_count = k_count;

  double constant = 0.0;
  for (const TargetPls& t : pls) constant += t.f1.value_at_zero();
  layout.one = m.add_col("one", 1.0, 1.0, constant);

  layout.x0 = m.num_cols();
  for (std::size_t i = 0; i < t_count; ++i) {
    for (std::size_t k = 0; k < k_count; ++k) {
      m.add_col("x_" + std::to_string(i) + "_" + std::to_string(k), 0.0, 1.0,
                pls[i].f1.slope(k) * k_inv);
    }
  }
  layout.v0 = m.num_cols();
  for (std::size_t i = 0; i < t_count; ++i) {
    m.add_col("v_" + std::to_string(i), 0.0, big_m, -1.0);
  }
  layout.q0 = m.num_cols();
  for (std::size_t i = 0; i < t_count; ++i) {
    const int q = m.add_col("q_" + std::to_string(i), 0.0, 1.0, 0.0);
    m.set_integer(q);
  }
  layout.h0 = m.num_cols();
  for (std::size_t i = 0; i < t_count; ++i) {
    for (std::size_t k = 0; k + 1 < k_count; ++k) {
      const int h = m.add_col(
          "h_" + std::to_string(i) + "_" + std::to_string(k), 0.0, 1.0, 0.0);
      m.set_integer(h);
    }
  }

  // (37) budget rows, in normalized units: sum x~_{ik} <= B_g * K per
  // budget group (one game-wide group in the paper's setting, whose rhs
  // is the game's R exactly as the step DP reads it), plus one
  // reachability cap row per target with cap < 1 (patrol graphs).
  for (std::size_t g = 0; g < space.num_groups(); ++g) {
    const double b_g =
        space.is_simplex() ? ctx.game.resources() : space.budget(g);
    const int budget = m.add_row("budget" + std::to_string(g),
                                 lp::Sense::kLe,
                                 b_g * static_cast<double>(k_count));
    for (std::size_t i = 0; i < t_count; ++i) {
      if (space.group_of(i) != g) continue;
      for (std::size_t k = 0; k < k_count; ++k) {
        m.set_coeff(budget, layout.xcol(i, k), 1.0);
      }
    }
  }
  if (space.has_caps()) {
    for (std::size_t i = 0; i < t_count; ++i) {
      if (space.cap(i) >= 1.0) continue;
      const int cap = m.add_row("cap" + std::to_string(i), lp::Sense::kLe,
                                space.cap(i) * static_cast<double>(k_count));
      for (std::size_t k = 0; k < k_count; ++k) {
        m.set_coeff(cap, layout.xcol(i, k), 1.0);
      }
    }
  }

  for (std::size_t i = 0; i < t_count; ++i) {
    const double d0 = pls[i].f1.value_at_zero() - pls[i].f2.value_at_zero();
    // (35): sum_k (s1-s2) x_ik - v_i <= -d0
    const int r35 = m.add_row("lb_v" + std::to_string(i), lp::Sense::kLe,
                              -d0);
    // (36): v_i - sum_k (s1-s2) x_ik + M q_i <= d0 + M
    const int r36 = m.add_row("ub_v" + std::to_string(i), lp::Sense::kLe,
                              d0 + big_m);
    for (std::size_t k = 0; k < k_count; ++k) {
      const double ds =
          (pls[i].f1.slope(k) - pls[i].f2.slope(k)) * k_inv;
      // Dense mode stores zero coefficients too, so the entry layout is
      // round-invariant and patchable by index; both the simplex standard
      // form and presolve drop explicit zeros, so the solved problem is
      // identical either way.
      if (dense || ds != 0.0) {
        m.set_coeff(r35, layout.xcol(i, k), ds);
        m.set_coeff(r36, layout.xcol(i, k), -ds);
      }
    }
    m.set_coeff(r35, layout.vcol(i), -1.0);
    m.set_coeff(r36, layout.vcol(i), 1.0);
    m.set_coeff(r36, layout.qcol(i), big_m);
    // (34): v_i - M q_i <= 0
    const int r34 = m.add_row("link_vq" + std::to_string(i), lp::Sense::kLe,
                              0.0);
    m.set_coeff(r34, layout.vcol(i), 1.0);
    m.set_coeff(r34, layout.qcol(i), -big_m);
    if (rows != nullptr) {
      rows->r34.push_back(r34);
      rows->r35.push_back(r35);
      rows->r36.push_back(r36);
    }
    // (38)-(39): ordered segment filling, unit coefficients in the
    // normalized units (h_{ik} = 1 iff segment k is full).
    for (std::size_t k = 0; k + 1 < k_count; ++k) {
      const int r38 = m.add_row(
          "fill_lo" + std::to_string(i) + "_" + std::to_string(k),
          lp::Sense::kLe, 0.0);
      m.set_coeff(r38, layout.hcol(i, k), 1.0);
      m.set_coeff(r38, layout.xcol(i, k), -1.0);
      const int r39 = m.add_row(
          "fill_hi" + std::to_string(i) + "_" + std::to_string(k),
          lp::Sense::kLe, 0.0);
      m.set_coeff(r39, layout.xcol(i, k + 1), 1.0);
      m.set_coeff(r39, layout.hcol(i, k), -1.0);
    }
  }
  return m;
}

std::vector<double> milp_point_from_x(const MilpLayout& layout,
                                      const std::vector<TargetPls>& pls,
                                      const std::vector<double>& x,
                                      int num_cols) {
  std::vector<double> full(num_cols, 0.0);
  full[layout.one] = 1.0;
  const std::size_t k_count = layout.k_count;
  const double seg = 1.0 / static_cast<double>(k_count);
  for (std::size_t i = 0; i < layout.t_count; ++i) {
    const std::vector<double> portions = segment_portions(x[i], k_count);
    double fbar1 = pls[i].f1.value_at_zero();
    double fbar2 = pls[i].f2.value_at_zero();
    for (std::size_t k = 0; k < k_count; ++k) {
      // Normalized segment variables: x~ = K * portion in [0, 1].
      full[layout.xcol(i, k)] = portions[k] / seg;
      fbar1 += pls[i].f1.slope(k) * portions[k];
      fbar2 += pls[i].f2.slope(k) * portions[k];
    }
    const double diff = fbar1 - fbar2;
    if (diff > 0.0) {
      full[layout.vcol(i)] = diff;
      full[layout.qcol(i)] = 1.0;
    }
    for (std::size_t k = 0; k + 1 < k_count; ++k) {
      full[layout.hcol(i, k)] = portions[k] >= seg - 1e-12 ? 1.0 : 0.0;
    }
  }
  return full;
}

double step_big_m(const std::vector<TargetPls>& pls) {
  // Dominates |f1~ - f2~| over the grid (the chords stay within the
  // breakpoint range of each segment).  Must stay identical to what the
  // fresh path computes so patched models match it coefficient-for-
  // coefficient.
  double big_m = 1.0;
  for (const TargetPls& t : pls) {
    for (std::size_t k = 0; k <= t.f1.segments(); ++k) {
      big_m = std::max(big_m, std::abs(t.f1.value_at_breakpoint(k) -
                                       t.f2.value_at_breakpoint(k)) + 1.0);
    }
  }
  return big_m;
}

RoundCache::RoundCache(const StepTables& tables, bool build_pls) {
  rebuild(tables, build_pls);
}

void RoundCache::rebuild(const StepTables& tables, bool build_pls) {
  if (tables.segments == 0 || tables.lower.empty()) {
    throw InvalidModelError("RoundCache: empty step tables");
  }
  // Reuse the PiecewiseLinear views only when the shape is unchanged
  // (their rebuild path requires a matching K+1).
  const bool pls_reusable = build_pls && pls_.size() == tables.lower.size() &&
                            !pls_.empty() &&
                            pls_.front().f1.segments() == tables.segments;
  t_ = tables.lower.size();
  kp1_ = tables.segments + 1;
  const std::size_t n = t_ * kp1_;
  l_.resize(n);
  u_.resize(n);
  lud_.resize(n);
  uud_.resize(n);
  f1_.assign(n, 0.0);
  f2_.assign(n, 0.0);
  phi_.assign(n, 0.0);
  for (std::size_t i = 0; i < t_; ++i) {
    for (std::size_t k = 0; k < kp1_; ++k) {
      const std::size_t j = i * kp1_ + k;
      const double lo = tables.lower[i][k];
      const double up = tables.upper[i][k];
      const double ud = tables.utility[i][k];
      l_[j] = lo;
      u_[j] = up;
      // The same products f1_of / f2_of compute, so the axpy below yields
      // the fresh path's breakpoints bit-for-bit.
      lud_[j] = lo * ud;
      uud_[j] = up * ud;
    }
  }
  if (!build_pls) {
    pls_.clear();
    return;
  }
  if (pls_reusable) {
    // Same c=0 seed values as a fresh construction; every round's
    // set_value overwrites them before any read.
    for (std::size_t i = 0; i < t_; ++i) {
      const std::span<const double> s1(lud_.data() + i * kp1_, kp1_);
      const std::span<const double> s2(uud_.data() + i * kp1_, kp1_);
      pls_[i].f1.rebuild_from_values(s1);
      pls_[i].f2.rebuild_from_values(s2);
    }
    return;
  }
  pls_.clear();
  pls_.reserve(t_);
  for (std::size_t i = 0; i < t_; ++i) {
    // Seeded with the c=0 values; every round overwrites them in place.
    std::vector<double> v1(lud_.begin() + static_cast<std::ptrdiff_t>(
                                              i * kp1_),
                           lud_.begin() + static_cast<std::ptrdiff_t>(
                                              (i + 1) * kp1_));
    std::vector<double> v2(uud_.begin() + static_cast<std::ptrdiff_t>(
                                              i * kp1_),
                           uud_.begin() + static_cast<std::ptrdiff_t>(
                                              (i + 1) * kp1_));
    pls_.push_back(TargetPls{PiecewiseLinear(std::move(v1)),
                             PiecewiseLinear(std::move(v2))});
  }
}

void RoundCache::set_value(double c) {
  const std::size_t n = t_ * kp1_;
  for (std::size_t j = 0; j < n; ++j) f1_[j] = lud_[j] - c * l_[j];
  for (std::size_t j = 0; j < n; ++j) f2_[j] = uud_[j] - c * u_[j];
  for (std::size_t j = 0; j < n; ++j) phi_[j] = std::min(f1_[j], f2_[j]);
  if (!pls_.empty()) {
    for (std::size_t i = 0; i < t_; ++i) {
      const std::span<const double> s1(f1_.data() + i * kp1_, kp1_);
      const std::span<const double> s2(f2_.data() + i * kp1_, kp1_);
      pls_[i].f1.rebuild_from_values(s1);  // counts 2*T cache hits
      pls_[i].f2.rebuild_from_values(s2);
    }
    // ... plus the T phi rebuilds done flat above: 3*T per round total,
    // one per table the fresh path would have built.
    cache_hits_counter().add(static_cast<std::int64_t>(t_));
  } else {
    cache_hits_counter().add(static_cast<std::int64_t>(3 * t_));
  }
}

MilpStepCache::MilpStepCache(const SolveContext& ctx, const RoundCache& cache,
                             const games::CoverageSpace& space) {
  if (cache.pls().empty()) {
    throw InvalidModelError("MilpStepCache: cache built without pls");
  }
  model_ = build_step_milp(ctx, cache.pls(), step_big_m(cache.pls()), space,
                           layout_, /*dense=*/true, &rows_);
}

void MilpStepCache::patch(const RoundCache& cache) {
  const std::vector<TargetPls>& pls = cache.pls();
  const std::size_t k_count = layout_.k_count;
  const double k_inv = 1.0 / static_cast<double>(k_count);
  const double big_m = step_big_m(pls);

  double constant = 0.0;
  for (const TargetPls& t : pls) constant += t.f1.value_at_zero();
  model_.set_col_objective(layout_.one, constant);

  for (std::size_t i = 0; i < layout_.t_count; ++i) {
    for (std::size_t k = 0; k < k_count; ++k) {
      model_.set_col_objective(layout_.xcol(i, k),
                               pls[i].f1.slope(k) * k_inv);
    }
    const double d0 = pls[i].f1.value_at_zero() - pls[i].f2.value_at_zero();
    model_.set_row_rhs(rows_.r35[i], -d0);
    model_.set_row_rhs(rows_.r36[i], d0 + big_m);
    // Dense assembly order: entries 0..K-1 are the x coefficients, then v
    // (and q last on row 36); row 34 is [v, q].
    for (std::size_t k = 0; k < k_count; ++k) {
      const double ds = (pls[i].f1.slope(k) - pls[i].f2.slope(k)) * k_inv;
      model_.set_row_entry_value(rows_.r35[i], k, ds);
      model_.set_row_entry_value(rows_.r36[i], k, -ds);
    }
    model_.set_row_entry_value(rows_.r36[i], k_count + 1, big_m);
    model_.set_row_entry_value(rows_.r34[i], 1, -big_m);
    model_.set_col_bounds(layout_.vcol(i), 0.0, big_m);
  }
  model_patches_counter().add(1);
}

}  // namespace cubisg::core
