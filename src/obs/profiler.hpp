// In-process wall-clock sampling profiler (dependency-free).
//
// Each registered thread gets its own POSIX interval timer
// (timer_create(CLOCK_MONOTONIC) delivering SIGPROF via SIGEV_THREAD_ID),
// so every thread is sampled on wall time — a worker blocked in a queue
// pop is sampled just like one spinning in the simplex.  The signal
// handler captures a frame-pointer backtrace (the build compiles with
// -fno-omit-frame-pointer) and pushes it into a
// lock-free single-producer/single-consumer ring owned by that thread:
// the handler is the only producer (it runs on the sampled thread), the
// collector the only consumer.  No allocation, no locks, no non-reentrant
// calls happen in the handler — the same discipline as SolveBudget's
// signal path, and the two compose: SIGPROF sampling keeps running across
// a SIGINT cancel-all.
//
// Symbolization is offline: collected PCs are resolved with dladdr and
// demangled when the aggregate is exported, never in the handler.  The
// export format is collapsed stacks ("frameA;frameB;frameC count" per
// line), directly consumable by flamegraph.pl or speedscope.
//
// Threads opt in: the main thread registers when the CLI arms
// --profile-out, engine workers and thread-pool workers register via
// ProfiledThreadScope at spawn.  Registration is cheap and independent of
// whether sampling is running; timers are armed per registered thread at
// profiler_start() (and immediately for threads that register while
// sampling is live).
//
// Compiled out on non-Linux or non-x86-64/aarch64 hosts:
// profiler_available() returns false, every entry point is a no-op stub,
// and none of the sampling machinery is in the binary.
#pragma once

#include <cstdint>
#include <string>


namespace cubisg::obs {

struct ProfilerOptions {
  int hz = 99;  ///< sampling frequency per thread (clamped to [1, 1000])
};

/// True when the sampler is compiled into this binary and can run on this
/// platform.  False => profiler_start() always fails with an explanation.
bool profiler_available();

/// Arms per-thread timers on every registered thread and starts sampling.
/// Returns false (see profiler_last_error()) if unavailable or already
/// running.  Collected samples accumulate across start/stop cycles until
/// profiler_clear().
bool profiler_start(const ProfilerOptions& opts = {});

/// Disarms all timers and drains outstanding samples into the aggregate.
/// No-op when not running.
void profiler_stop();

bool profiler_running();

/// Explanation of the most recent profiler_start() failure.
std::string profiler_last_error();

/// Registers / unregisters the calling thread for sampling.  Idempotent;
/// unregistration also happens automatically at thread exit.
void profiler_register_this_thread();
void profiler_unregister_this_thread();

/// RAII thread registration for worker loops.
class ProfiledThreadScope {
 public:
  ProfiledThreadScope() { profiler_register_this_thread(); }
  ~ProfiledThreadScope() { profiler_unregister_this_thread(); }
  ProfiledThreadScope(const ProfiledThreadScope&) = delete;
  ProfiledThreadScope& operator=(const ProfiledThreadScope&) = delete;
};

/// Samples aggregated so far (drained + still buffered in rings).
std::int64_t profiler_samples_total();

/// Samples dropped because a thread's ring was full (collector too slow).
std::int64_t profiler_samples_dropped();

/// Drains every ring and returns the aggregate as collapsed stacks:
/// one "frame;frame;...;frame count\n" line per unique stack, root first,
/// sorted lexicographically.  Symbolizes via dladdr + demangling; frames
/// with no symbol render as raw "0x..." addresses.
std::string profiler_collapsed_stacks();

/// Writes profiler_collapsed_stacks() to `path`; false on I/O failure.
bool write_profile_collapsed(const std::string& path);

/// Drops the aggregate and resets sample counters (rings stay armed).
void profiler_clear();

}  // namespace cubisg::obs
