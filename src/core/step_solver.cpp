#include "core/step_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cubisg::core {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// A budget or cap in coverage units of 1/K.  A fractional product is
/// floored: the DP then optimizes over a slightly smaller budget, which is
/// a CONSERVATIVE under-approximation — feasibility verdicts derived from
/// its objective remain valid certificates, and the loss is within the
/// O(1/K) approximation budget the grid already carries.
std::size_t floor_units(double amount, std::size_t k_count) {
  return static_cast<std::size_t>(
      std::floor(amount * static_cast<double>(k_count) + 1e-9));
}

/// Vector types (a GCC extension) for the forward pass: two, four and
/// eight doubles, one SSE2, AVX2 or AVX-512 register each.  Element-wise
/// + and ?: on them compile to packed instructions of the enclosing
/// function's target.
using Vec2 = double __attribute__((vector_size(16)));
using Vec4 = double __attribute__((vector_size(32)));
using Vec8 = double __attribute__((vector_size(64)));

/// Widest block of the forward pass, in doubles: the row padding that
/// lets every variant read and write whole blocks.
constexpr std::size_t kMaxBlock = 32;

/// acc = std::max(acc, src[0..lanes) + pt) element-wise: the candidate
/// where acc < candidate, else acc (on ties, and when either is NaN) —
/// the scalar recurrence's exact semantics.
template <typename V>
[[gnu::always_inline]] inline void max_plus(V& acc, const double* src,
                                            double pt) {
  V cand;
  __builtin_memcpy(&cand, src, sizeof(V));
  cand += pt;
  acc = acc < cand ? cand : acc;
}

/// The forward pass over `t_count` targets.  Row i+1 of the table is the
/// max-plus product of row i with target i's breakpoints:
///
///   next[w] = max over t in [0, takes[i]] of value[w - t] + p[t]
///
/// for w in [0, reach[i+1]].  Every row carries `pad` -inf entries before
/// u = 0 and -inf after its reachable prefix, so an out-of-range
/// candidate is -inf + p[t], which the max ignores bitwise (it keeps the
/// running value when the candidate is -inf or NaN).  The in-range
/// candidates are the reference DP's sums, bit for bit, and their max
/// does not depend on the visiting order for finite phi (no sum is NaN,
/// and none is -0.0, since every chain starts at +0.0).  Each output block
/// of four vectors keeps its running maxima in registers across the whole
/// t loop, so the inner loop only loads.  Only adds and maxes: compiled
/// for any ISA it produces the same bits.
template <typename V>
[[gnu::always_inline]] inline void forward_pass(
    const double* phi, std::size_t t_count, std::size_t kp1,
    const std::size_t* takes, const std::size_t* reach, std::size_t stride,
    std::size_t pad, double* rows) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  constexpr std::size_t kBlock = 4 * kLanes;
  static_assert(kBlock <= kMaxBlock);
  V neg_inf;
  for (std::size_t j = 0; j < kLanes; ++j) neg_inf[j] = kNegInf;
  // Pads of `row`, whose reachable prefix ends at `last`.
  const auto fill_pads = [pad](double* row, std::size_t last) {
    std::fill(row - pad, row, kNegInf);
    std::fill(row + last + 1, row + last + pad + kMaxBlock, kNegInf);
  };
  fill_pads(rows, 0);
  for (std::size_t i = 0; i < t_count; ++i) {
    const double* value = rows + i * stride;
    double* next = rows + (i + 1) * stride;
    const double* p = phi + i * kp1;
    const std::size_t last = reach[i + 1];
    for (std::size_t w = 0; w <= last; w += kBlock) {
      V a0 = neg_inf, a1 = neg_inf, a2 = neg_inf, a3 = neg_inf;
      for (std::size_t t = 0; t <= takes[i]; ++t) {
        const double* src = value - t + w;  // value - t stays in the pad
        const double pt = p[t];
        max_plus(a0, src, pt);
        max_plus(a1, src + kLanes, pt);
        max_plus(a2, src + 2 * kLanes, pt);
        max_plus(a3, src + 3 * kLanes, pt);
      }
      __builtin_memcpy(next + w, &a0, sizeof(V));
      __builtin_memcpy(next + w + kLanes, &a1, sizeof(V));
      __builtin_memcpy(next + w + 2 * kLanes, &a2, sizeof(V));
      __builtin_memcpy(next + w + 3 * kLanes, &a3, sizeof(V));
    }
    fill_pads(next, last);
  }
}

}  // namespace

// The forward-pass variants.  External linkage on purpose: the sampling
// profiler symbolizes exported symbols only, and a profile should name
// the variant that ran.  Nothing outside this file calls them.
using ForwardPass = void (*)(const double*, std::size_t, std::size_t,
                             const std::size_t*, const std::size_t*,
                             std::size_t, std::size_t, double*);

[[gnu::noinline]] void solve_step_dp_flat_fwd_baseline(
    const double* phi, std::size_t t_count, std::size_t kp1,
    const std::size_t* takes, const std::size_t* reach, std::size_t stride,
    std::size_t pad, double* rows) {
  forward_pass<Vec2>(phi, t_count, kp1, takes, reach, stride, pad, rows);
}

#if defined(__x86_64__) || defined(__i386__)
#define CUBISG_DP_X86 1

[[gnu::noinline, gnu::target("avx2")]] void solve_step_dp_flat_fwd_avx2(
    const double* phi, std::size_t t_count, std::size_t kp1,
    const std::size_t* takes, const std::size_t* reach, std::size_t stride,
    std::size_t pad, double* rows) {
  forward_pass<Vec4>(phi, t_count, kp1, takes, reach, stride, pad, rows);
}

[[gnu::noinline, gnu::target("avx512f")]] void
solve_step_dp_flat_fwd_avx512f(const double* phi, std::size_t t_count,
                               std::size_t kp1, const std::size_t* takes,
                               const std::size_t* reach, std::size_t stride,
                               std::size_t pad, double* rows) {
  forward_pass<Vec8>(phi, t_count, kp1, takes, reach, stride, pad, rows);
}
#endif

namespace {

ForwardPass forward_pass_for(DpIsa isa) {
#ifdef CUBISG_DP_X86
  if (isa == DpIsa::kAvx512f) return solve_step_dp_flat_fwd_avx512f;
  if (isa == DpIsa::kAvx2) return solve_step_dp_flat_fwd_avx2;
#endif
  (void)isa;
  return solve_step_dp_flat_fwd_baseline;
}

}  // namespace

/// One budget group's DP over `t_count` contiguous phi rows whose take
/// caps (already min'd with units and K) are in scratch.takes.  Writes
/// the coverage to x[0..t_count) and returns the objective.  External
/// linkage, like the forward-pass variants, so profiles name it.
double solve_step_dp_flat_group(const double* phi, std::size_t t_count,
                                std::size_t k_count, std::size_t units,
                                DpScratch& scratch, double* x) {
  const std::size_t kp1 = k_count + 1;
  const std::size_t* takes = scratch.takes.data();
  scratch.reach.resize(t_count + 1);
  std::size_t* reach = scratch.reach.data();
  reach[0] = 0;
  for (std::size_t i = 0; i < t_count; ++i) {
    reach[i + 1] = std::min(units, reach[i] + takes[i]);
  }
  // Row i = value table after the first i targets; row 0 is the seed,
  // whose reachable prefix is u = 0 alone.  Each row holds `pad` slots
  // before u = 0 and kMaxBlock + pad after u = units for the forward
  // pass's -inf padding.  resize() keeps capacity across rounds, so
  // rebuilds after the first round cost no allocation.
  const std::size_t pad =
      t_count == 0 ? 0 : *std::max_element(takes, takes + t_count);
  const std::size_t stride = pad + units + 1 + pad + kMaxBlock;
  scratch.values.resize((t_count + 1) * stride);
  double* rows = scratch.values.data() + pad;
  rows[0] = 0.0;
  forward_pass_for(scratch.isa)(phi, t_count, kp1, takes, reach, stride, pad,
                                rows);

  // Smallest-u maximizer (strict > scan).
  const double* last = rows + t_count * stride;
  std::size_t best_u = 0;
  double best = kNegInf;
  for (std::size_t u = 0; u <= reach[t_count]; ++u) {
    if (last[u] > best) {
      best = last[u];
      best_u = u;
    }
  }

  // Backtrack: a strict-improvement DP visiting predecessors in ascending
  // order (descending take) keeps the FIRST maximizer, i.e. the LARGEST
  // take.  Scanning t downward for the first exact candidate match
  // reproduces it (the sums are recomputed from the same doubles, so
  // equality is bitwise).
  std::size_t u = best_u;
  for (std::size_t ii = t_count; ii-- > 0;) {
    const double* value = rows + ii * stride;
    const double* p = phi + ii * kp1;
    const double target = rows[(ii + 1) * stride + u];
    const std::size_t t_hi = std::min(takes[ii], u);
    const std::size_t t_lo = u > reach[ii] ? u - reach[ii] : 0;
    std::size_t take = t_lo;
    for (std::size_t t = t_hi + 1; t-- > t_lo;) {
      if (value[u - t] + p[t] == target) {
        take = t;
        break;
      }
    }
    x[ii] = static_cast<double>(take) / static_cast<double>(k_count);
    u -= take;
  }
  return best;
}

const char* to_string(DpIsa isa) {
  switch (isa) {
    case DpIsa::kAvx512f:
      return "avx512f";
    case DpIsa::kAvx2:
      return "avx2";
    case DpIsa::kBaseline:
      break;
  }
  return "baseline";
}

std::vector<DpIsa> dp_supported_isas() {
  std::vector<DpIsa> out{DpIsa::kBaseline};
#ifdef CUBISG_DP_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) out.push_back(DpIsa::kAvx2);
  if (__builtin_cpu_supports("avx512f")) out.push_back(DpIsa::kAvx512f);
#endif
  return out;
}

DpIsa dp_kernel_isa() {
  static const DpIsa isa = dp_supported_isas().back();
  return isa;
}

StepResult solve_step_dp_flat(const double* phi_flat, std::size_t t_count,
                              std::size_t segments, double resources,
                              DpScratch& scratch) {
  if (t_count == 0) throw InvalidModelError("solve_step_dp_flat: no targets");
  if (segments == 0) {
    throw InvalidModelError("solve_step_dp_flat: segments must be >= 1");
  }
  const std::size_t units = floor_units(resources, segments);
  scratch.takes.assign(t_count, std::min(units, segments));
  StepResult out;
  out.status = SolverStatus::kOptimal;
  out.x.assign(t_count, 0.0);
  out.objective = solve_step_dp_flat_group(phi_flat, t_count, segments,
                                           units, scratch, out.x.data());
  return out;
}

StepResult solve_step_dp_flat_space(const double* phi_flat,
                                    std::size_t t_count,
                                    std::size_t segments,
                                    const games::CoverageSpace& space,
                                    DpScratch& scratch) {
  if (space.is_default() || space.is_simplex()) {
    const double budget =
        space.is_default() ? 0.0 : space.budget(0);
    return solve_step_dp_flat(phi_flat, t_count, segments, budget, scratch);
  }
  if (t_count == 0) {
    throw InvalidModelError("solve_step_dp_flat_space: no targets");
  }
  if (segments == 0) {
    throw InvalidModelError("solve_step_dp_flat_space: segments must be >= 1");
  }
  if (space.num_targets() != t_count) {
    throw InvalidModelError("solve_step_dp_flat_space: space size mismatch");
  }
  const std::size_t kp1 = segments + 1;
  // Bucket the targets by group (a counting sort, ascending within each
  // group).  The placement pass leaves end[g] = one past group g's last
  // member, so group g spans [end[g-1], end[g]).
  const std::size_t num_groups = space.num_groups();
  std::vector<std::size_t>& end = scratch.group_end;
  end.assign(num_groups + 1, 0);
  for (std::size_t i = 0; i < t_count; ++i) ++end[space.group_of(i) + 1];
  for (std::size_t g = 0; g < num_groups; ++g) end[g + 1] += end[g];
  scratch.members.resize(t_count);
  for (std::size_t i = 0; i < t_count; ++i) {
    scratch.members[end[space.group_of(i)]++] = i;
  }

  StepResult out;
  out.status = SolverStatus::kOptimal;
  out.objective = 0.0;
  out.x.assign(t_count, 0.0);
  for (std::size_t g = 0; g < num_groups; ++g) {
    const std::size_t first = g == 0 ? 0 : end[g - 1];
    const std::size_t* idx = scratch.members.data() + first;
    const std::size_t m = end[g] - first;
    if (m == 0) continue;
    const std::size_t units = floor_units(space.budget(g), segments);
    const std::size_t max_take = std::min(units, segments);
    scratch.takes.resize(m);
    for (std::size_t j = 0; j < m; ++j) {
      scratch.takes[j] =
          space.has_caps()
              ? std::min(max_take, floor_units(space.cap(idx[j]), segments))
              : max_take;
    }
    if (idx[m - 1] - idx[0] + 1 == m) {
      // Contiguous members: run on the rows in place.
      out.objective +=
          solve_step_dp_flat_group(phi_flat + idx[0] * kp1, m, segments,
                                   units, scratch, out.x.data() + idx[0]);
      continue;
    }
    scratch.gathered.resize(m * kp1);
    for (std::size_t j = 0; j < m; ++j) {
      std::copy_n(phi_flat + idx[j] * kp1, kp1,
                  scratch.gathered.data() + j * kp1);
    }
    scratch.group_x.resize(m);
    out.objective +=
        solve_step_dp_flat_group(scratch.gathered.data(), m, segments, units,
                                 scratch, scratch.group_x.data());
    for (std::size_t j = 0; j < m; ++j) out.x[idx[j]] = scratch.group_x[j];
  }
  return out;
}

}  // namespace cubisg::core
