// Per-call solve state, split out of the solver objects.
//
// A DefenderSolver is immutable configuration: construct it once, share it
// freely.  Everything a solve call allocates or mutates — breakpoint
// tables, the affine round caches and MILP skeleton of the warm-started
// binary search, DP scratch, gradient restart buffers, the maximin LP
// skeleton — lives in a SolveWorkspace owned by the caller and passed
// through SolveContext::workspace.  Two call patterns:
//
//   * workspace == nullptr (the default): the solver builds an ephemeral
//     workspace on its own stack.  Behavior and allocations match the
//     pre-split code exactly.
//   * a caller-owned workspace, reused across solves: each solve rebuilds
//     every value it reads, so reuse only preserves allocation CAPACITY
//     (vectors keep their buffers, the MILP skeleton its arena), never
//     values.  A reused workspace therefore produces bitwise-identical
//     solutions to a fresh one — the engine's concurrency tests pin this.
//
// A workspace is single-threaded state: one workspace per concurrent solve
// (the engine pins one to each worker thread).  Sharing a workspace across
// simultaneous solves is a data race; sharing the *solver* is fine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/round_cache.hpp"
#include "core/step_solver.hpp"
#include "lp/model.hpp"

namespace cubisg::core {

/// Cross-solve donor state harvested from a completed CUBIS solve by the
/// engine's SolveCache: the breakpoint tables plus (MILP backend only)
/// the dense step-MILP skeleton.  Immutable once published — many
/// concurrent solves may seed from one donor, so consumers copy, never
/// mutate.  The donor's simplex root basis is deliberately NOT carried:
/// a stale basis could steer the next solve's branch-and-bound
/// differently (the same reason RoundReuse::reset drops it).
struct TransplantDonor {
  StepTables tables;
  /// The donor fingerprint's per-target blocks and compat hash
  /// (core/fingerprint.hpp), kept so seeds can be built by bitwise
  /// per-target comparison without reloading the donor scenario.
  std::vector<double> blocks;
  std::uint64_t compat = 0;
  /// MILP skeleton (kMilp backend): structure depends only on compat
  /// quantities (T, K, R, coverage polytope), and patch() rewrites every
  /// value-dependent entry before first use.
  bool has_skeleton = false;
  double skeleton_resources = 0.0;
  /// Canonical games::CoverageSpace::descriptor() of the polytope whose
  /// budget rows the skeleton encodes; a consumer adopts the skeleton
  /// only when its own descriptor matches exactly (patch() never rewrites
  /// budget or cap rows).
  std::string skeleton_space;
  lp::Model skeleton_model;
  MilpLayout skeleton_layout;
  MilpRowIds skeleton_rows;
};

/// One transplant offer, attached to SolveWorkspace::transplant_seed by
/// the engine before a near-miss solve.  `adopt[i]` is 1 when target i's
/// fingerprint block matches the donor's bitwise — those targets' table
/// rows may be adopted verbatim; the rest are repaired (recomputed).
struct TransplantSeed {
  std::shared_ptr<const TransplantDonor> donor;
  std::vector<std::uint8_t> adopt;
};

/// Outcome of the adopt/repair/reject ladder, read back by the engine
/// for the cache.transplants/transplant_rejects counters.
struct TransplantStats {
  bool used = false;      ///< a solve consumed the seed
  bool rejected = false;  ///< ladder rejected it wholesale (cold build)
  std::uint32_t adopted = 0;   ///< targets copied from the donor
  std::uint32_t repaired = 0;  ///< targets recomputed fresh
};

/// Patchable skeleton of the maximin LP (columns x_0..x_{T-1}, z; one
/// budget row, one floor row per target).  The entry layout only depends
/// on the target count, so a shape-matching reuse rewrites the
/// game-dependent numbers (budget RHS, floor RHS, floor slope) in place.
struct MaximinSkeleton {
  lp::Model model;
  std::vector<int> xcol;
  int zcol = -1;
  int budget_row = -1;
  std::vector<int> floor_rows;
  std::size_t targets = 0;
  bool built = false;
};

/// Owns every per-solve allocation.  See the file comment for the reuse
/// contract (capacity survives, values never do).
struct SolveWorkspace {
  SolveWorkspace() = default;
  SolveWorkspace(const SolveWorkspace&) = delete;
  SolveWorkspace& operator=(const SolveWorkspace&) = delete;

  // ---- CUBIS ----
  /// Breakpoint tables, rebuilt in place at the top of every CUBIS solve.
  StepTables tables;
  /// One cross-round reuse slot per multisection lane (never shared across
  /// lanes: set_value and the DP scratch mutate in place).
  std::vector<std::unique_ptr<RoundReuse>> cubis_lanes;

  /// Rebuilds the first `count` lanes from `tables` (resetting each lane's
  /// cache and dropping its MILP skeleton — the skeleton's budget and cap
  /// rows depend on the game, and MilpStepCache::patch never rewrites them),
  /// growing the vector when a solve needs more lanes than the last one.
  void ensure_cubis_lanes(std::size_t count, const StepTables& step_tables,
                          bool milp_backend);

  // ---- PASAQ ----
  /// Flattened [T][K+1] tables of the point model F_i(k/K), the defender
  /// utilities Ud_i(k/K), and the per-round objective F*(Ud - c).
  std::vector<double> pasaq_f;
  std::vector<double> pasaq_ud;
  std::vector<double> pasaq_phi;
  DpScratch pasaq_scratch;

  // ---- gradient ----
  /// Restart start-point buffer (cleared and refilled each solve).
  std::vector<std::vector<double>> gradient_starts;

  // ---- maximin ----
  MaximinSkeleton maximin;

  // ---- cross-solve transplant (engine SolveCache) ----
  /// Consumed (moved out) by the first CUBIS solve that sees it; solvers
  /// that never read ws.tables ignore it, and the engine clears it after
  /// every job either way.
  std::shared_ptr<const TransplantSeed> transplant_seed;
  /// Written by the ladder; the engine zeroes it before each job.
  TransplantStats transplant_stats;
  /// Donor-harvest gate, zeroed by the engine before each job so a
  /// harvest can never pick up a previous job's stale state from a
  /// reused workspace: 1 after a solve (re)built `tables` for ITS OWN
  /// scenario, 2 when it additionally rebuilt `cubis_lanes` (so lane 0's
  /// MILP skeleton, if any, is also this scenario's).
  std::uint64_t tables_token = 0;
};

}  // namespace cubisg::core
