// Per-layer metrics of a traced run.  Every number comes either from the
// engine's own outputs (JobOutcome timings, SolveCache and ShadowAuditor
// counters, solution certificates and telemetry) or from timing, in this
// benchmark's files, calls into each layer's public functions on the
// run's own inputs.  Nothing here adds a span inside the program.
#pragma once

#include "loop.hpp"

namespace perfbench {

/// Jobs at the head of the traced half whose solutions the traced run
/// keeps, for the cache replay.
inline constexpr std::size_t kCacheReplayJobs = 4096;

/// What the traced run's two timed halves left behind.
struct TracedRun {
  LoopResult primed;    ///< the untimed priming jobs before both halves
  LoopResult untraced;  ///< first half: the plain loop
  LoopResult traced;    ///< second half: the program's span collection on
  bool has_cache = false;
  cg::engine::CacheStats cache;
  std::uint64_t audit_observed = 0;
  std::uint64_t audit_dropped = 0;
};

std::vector<Metric> layer_metrics(const Workload& workload,
                                  const Inputs& inputs, const TracedRun& run,
                                  std::uint64_t seed,
                                  const std::string& workdir);

}  // namespace perfbench
