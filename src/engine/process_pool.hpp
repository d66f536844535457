// Process-isolated solve workers: fork + socketpair + a length-prefixed
// binary protocol.
//
// Each worker is a forked child of the serving process.  The child never
// execs — it inherits the (immutable, const-shared) DefenderSolver by
// copy-on-write and runs a small frame loop: receive a job (scenario
// text + budget), solve it on a detached solve thread while the main
// child thread streams heartbeats and watches for cancel frames, then
// send back the full DefenderSolution — strategy, bracket, certificate
// and telemetry counters — or a typed error.  The parent end is driven
// by engine/supervisor.hpp, which owns crash detection (EOF + waitpid),
// heartbeat timeouts, SIGKILL hard deadlines, respawn backoff and
// poison-job quarantine.
//
// Wire format: every frame is a 1-byte type + 4-byte little-endian
// payload length + payload.  Numeric fields are raw little-endian bytes
// (doubles as their 8-byte IEEE-754 representation), so a solution
// round-trips bitwise — the differential tests require process-mode
// results to be byte-identical to in-process solves.  The scenario
// itself rides as write_scenario() text, which is lossless (%a hex
// floats).
//
// Fork safety: the serving process is heavily threaded (engine workers,
// HTTP exporter, shadow auditor), so fork() is wrapped in a lock-all /
// fork / unlock-both-sides guard over every known global mutex (log
// sink, fault-injection table, metrics registry, solve-report ring,
// global thread pool) — see spawn_worker().  In the child the inherited
// global thread pool is poisoned so parallel_for degrades to inline
// execution, tracing is disabled, and exit is always _exit() (no static
// destructors, no atexit flushes that belong to the parent).
//
// Availability: POSIX builds only.  Elsewhere process_isolation_available()
// is false and the engine degrades to thread isolation with a warning; the
// pure encode/decode helpers stay compiled everywhere so the wire tests run
// on every platform.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cubis.hpp"  // StepTables (cache seed/donor frames)
#include "core/solvers.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define CUBISG_PROCESS_ISOLATION 1
#else
#define CUBISG_PROCESS_ISOLATION 0
#endif

namespace cubisg::engine {

/// True when fork-based worker isolation is compiled in (POSIX target).
/// When false the engine has only thread isolation and
/// EngineOptions::isolation degrades with a warning.
bool process_isolation_available();

// ---- wire format (pure; compiled on every platform) --------------------

enum class FrameType : std::uint8_t {
  kJob = 1,        ///< parent -> child: one solve request
  kResult = 2,     ///< child -> parent: DefenderSolution (any status)
  kError = 3,      ///< child -> parent: the solve escaped with an exception
  kHeartbeat = 4,  ///< child -> parent: liveness while solving
  kCancel = 5,     ///< parent -> child: trip the in-flight job's budget
  /// Cross-solve cache (engine/solve_cache.hpp).  Both sides skip frame
  /// types they do not know, so a peer without cache support degrades
  /// gracefully: an old child ignores the seed and never sends a donor
  /// (the parent's bounded donor read times out), and an old parent
  /// leaves an unread donor in the socket to be skipped by the next
  /// job's await loop.
  kCacheSeed = 6,   ///< parent -> child: transplant seed for the next job
  kCacheDonor = 7,  ///< child -> parent: harvested donor after a result
};

struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::string payload;
};

/// One solve request as sent to the child.
struct JobFrame {
  std::uint64_t id = 0;
  double deadline_seconds = 0.0;  ///< 0 = unbudgeted
  std::int64_t max_nodes = 0;     ///< 0 = uncapped
  bool chaos_abort = false;  ///< fault injection: abort() before solving
  bool chaos_hang = false;   ///< fault injection: wedge the solve thread
  /// Parent runs a transplant-mode cache: after the result/error the
  /// child should send a kCacheDonor frame (rides the chaos byte, bit 4,
  /// so old children ignore it harmlessly).
  bool want_donor = false;
  std::string scenario_text;  ///< behavior::write_scenario output
};

/// A finished solve as sent back by the child.  Everything bitwise-
/// comparable round-trips exactly; telemetry carries counters only
/// (gauges/histograms are process-local state, not per-job deltas).
struct ResultFrame {
  std::uint64_t id = 0;
  core::DefenderSolution solution;
};

/// An escaped exception, classified for the retry policy.
struct ErrorFrame {
  std::uint64_t id = 0;
  /// False for deterministic failures (malformed model) that would fail
  /// identically on retry; true for everything else.
  bool retryable = true;
  std::string message;
};

/// Transplant seed for the job with the same id, sent immediately before
/// its kJob frame.  Only the breakpoint tables and adopt flags travel —
/// the MILP skeleton is a same-process optimization (shipping the dense
/// model would dwarf the solve it saves), so process-mode transplants
/// seed tables only.
struct CacheSeedFrame {
  std::uint64_t id = 0;
  core::StepTables tables;
  std::vector<std::uint8_t> adopt;  ///< one flag per target
};

/// Transplant outcome + harvested donor tables, sent by the child after
/// the job's kResult/kError frame when JobFrame::want_donor was set.
struct CacheDonorFrame {
  std::uint64_t id = 0;
  bool used = false;      ///< TransplantStats::used
  bool rejected = false;  ///< TransplantStats::rejected
  std::uint32_t adopted = 0;
  std::uint32_t repaired = 0;
  bool has_tables = false;  ///< tables below are this job's (token set)
  core::StepTables tables;
};

std::string encode_job(const JobFrame& job);
bool decode_job(const std::string& payload, JobFrame& out);
std::string encode_result(const ResultFrame& result);
bool decode_result(const std::string& payload, ResultFrame& out);
std::string encode_error(const ErrorFrame& error);
bool decode_error(const std::string& payload, ErrorFrame& out);
std::string encode_cache_seed(const CacheSeedFrame& seed);
bool decode_cache_seed(const std::string& payload, CacheSeedFrame& out);
std::string encode_cache_donor(const CacheDonorFrame& donor);
bool decode_cache_donor(const std::string& payload, CacheDonorFrame& out);

// ---- process + socket layer (POSIX only; stubs elsewhere) --------------

/// Frame I/O results.  kTimeout only from read_frame with a bounded wait.
enum class ReadStatus { kFrame, kTimeout, kEof, kError };

/// Writes one frame; false when the peer is gone (EPIPE/EOF) or on any
/// other socket error.
bool write_frame(int fd, FrameType type, const std::string& payload);

/// Reads one frame, waiting up to timeout_ms for the header (-1 = block
/// forever, 0 = only if input is already pending).
ReadStatus read_frame(int fd, int timeout_ms, Frame& out);

/// A live worker child as seen from the parent.
struct WorkerProcess {
  long pid = -1;
  int fd = -1;  ///< parent end of the socketpair
  bool valid() const { return pid > 0 && fd >= 0; }
};

/// Forks one worker child running the frame loop against `solver`.
/// `sibling_fds` are parent-end descriptors of other live workers; the
/// child closes them so a sibling's EOF-based death detection never
/// leaks through this process.  On failure returns an invalid handle
/// with `error` set.  Wraps fork() in the global-mutex fork guard.
WorkerProcess spawn_worker(
    std::shared_ptr<const core::DefenderSolver> solver,
    const std::vector<int>& sibling_fds, std::string& error);

/// SIGKILLs (if alive) and reaps the child, closes the fd.  Idempotent.
void destroy_worker(WorkerProcess& worker);

/// Reaps an already-dead (or dying) child without signalling it first:
/// waits up to `grace_ms` for a natural exit, then SIGKILLs.  Returns a
/// short human-readable exit description ("killed by signal 6 (core
/// dumped)", "exited with status 3", ...).
std::string reap_worker(WorkerProcess& worker, int grace_ms);

}  // namespace cubisg::engine
