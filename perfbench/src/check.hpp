// Output check.  Every outcome is verified with audit::verify as it is
// reaped (loop.cpp); after the timed phase, untimed, the seeded reference
// sample is re-solved here.
#pragma once

#include "loop.hpp"

namespace perfbench {

struct CheckResult {
  std::size_t attempted = 0;
  /// Jobs that did not complete optimally, failed audit::verify, or
  /// differed from their reference re-solve.
  std::size_t failed = 0;
  std::size_t audited = 0;
  std::size_t audit_failures = 0;
  std::size_t reference_checked = 0;
  std::size_t reference_mismatches = 0;
  std::uint64_t solutions_digest = 0;
  std::size_t digest_jobs = 0;

  void add(const CheckResult& other);
};

/// Re-solves the loop's reference sample in the reference configuration —
/// one thread, no cache, a fresh workspace — requiring a bitwise match on
/// strategy, bracket and worst case, and tallies every failure.
CheckResult check_outputs(const Inputs& inputs, const LoopResult& loop);

}  // namespace perfbench
