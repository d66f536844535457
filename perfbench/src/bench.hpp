// Shared definitions of the cubisg end-to-end benchmark: workloads, the
// generated inputs, and small statistics helpers.  See ../README.md for
// what each workload and metric means.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "behavior/bounds.hpp"
#include "behavior/scenario.hpp"
#include "common/rng.hpp"
#include "core/registry.hpp"
#include "engine/engine.hpp"

namespace perfbench {

namespace cg = cubisg;

/// Engine workers and jobs kept outstanding by the closed loop (batch's
/// window of 2 x workers).
inline constexpr std::size_t kWorkers = 2;
inline constexpr std::size_t kOutstanding = 2 * kWorkers;

enum class Family { kSimplex = 0, kMultiDefender = 1, kPatrolGraph = 2 };
inline constexpr std::size_t kFamilies = 3;
inline constexpr Family kAllFamilies[kFamilies] = {
    Family::kSimplex, Family::kMultiDefender, Family::kPatrolGraph};
const char* family_name(Family family);

/// One generated problem; jobs share it through shared_ptr aliasing, as
/// `cubisg batch` does.
struct Problem {
  std::shared_ptr<const cg::behavior::Scenario> scenario;
  std::shared_ptr<const cg::behavior::SuqrIntervalBounds> bounds;
  Family family = Family::kSimplex;

  std::size_t targets() const { return scenario->game.game.num_targets(); }
  cg::engine::SolveJob job(std::string tag) const;
};

/// Problem of `family` with `targets` targets drawn from `rng`.
Problem make_problem(Family family, std::size_t targets, cg::Rng& rng);

/// A workload: the engine configuration plus how its inputs are drawn.
struct Workload {
  const char* name;
  cg::engine::IsolationMode isolation;
  cg::engine::CacheMode cache;
  std::size_t cache_entries;  ///< 0 when the cache is off
  /// Untimed jobs run before timing, so that a cache is in its steady
  /// state when timing starts; the timed phase continues the stream.
  std::size_t prime_jobs;
  bool journal;               ///< fsynced journal record per job
  bool shadow_audit;          ///< shadow-audit every completed job
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// The solver every workload runs: `cubisg batch`'s default spec.
cg::core::SolverSpec solver_spec();

/// Everything a run feeds the program, generated from the seed alone.
struct Inputs {
  std::vector<Problem> problems;
  /// Job i solves problems[stream[i % stream.size()]].
  std::vector<std::uint32_t> stream;
  /// One warm-up problem per worker, outside the stream.
  std::vector<Problem> warmup;
};

Inputs make_inputs(const Workload& workload, std::uint64_t seed);
/// FNV-1a 64 over every generated number and descriptor, in order,
/// chained one problem at a time.
std::uint64_t inputs_digest(const Inputs& inputs);

/// One reported number.  `samples` is the sample count behind a
/// percentile or median (0 for a plain count, ratio or computed value).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

// ---- statistics -------------------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

}  // namespace perfbench
