// Engine set-up and the closed submission loop.
#pragma once

#include <condition_variable>
#include <future>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "audit/shadow.hpp"
#include "bench.hpp"
#include "engine/journal.hpp"

namespace perfbench {

/// Jobs, in submission order, whose canonical solutions make up the
/// printed solutions_digest.  A fixed prefix of a seeded stream, so two
/// builds can be compared bitwise whatever their speed.
inline constexpr std::size_t kDigestJobs = 256;
/// Reference re-solves per family and kind of job (plain solve,
/// transplant-seeded solve, cache hit).
inline constexpr std::size_t kReferencePerClass = 12;

/// Completion notices from the engine's on_outcome hook, which runs on the
/// worker just before the job's future is fulfilled.  The loop waits here
/// instead of on one future, so it refills a slot as soon as any job ends.
class CompletionQueue {
 public:
  void push(std::size_t index, std::int64_t ready_ns);
  /// Blocks until at least one notice is queued, then takes them all.
  std::vector<std::pair<std::size_t, std::int64_t>> wait_all();
  void clear();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::pair<std::size_t, std::int64_t>> ready_;  ///< by mu_
};

/// One engine configured for a workload, warmed up and ready for timing.
/// Member order is destruction order reversed: the engine (whose workers
/// call the hook) goes first, then the queue and the auditor it feeds.
struct Session {
  Session(const Workload& workload, const Inputs& inputs);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  std::unique_ptr<cg::audit::ShadowAuditor> auditor;
  CompletionQueue done;
  std::unique_ptr<cg::engine::SolveEngine> engine;
};

/// One timed job, reduced on reap to what the traced run's ledger needs.
struct JobRecord {
  std::uint32_t problem = 0;
  double queue_seconds = 0.0;  ///< JobOutcome::queue_seconds
  double solve_seconds = 0.0;  ///< JobOutcome::solve_seconds
  double journal_ms = 0.0;     ///< BatchJournal::record, fsync included
  double verify_ms = 0.0;      ///< audit::verify of the outcome
  std::uint64_t digest = 0;    ///< solution_digest, when computed
  bool ok = false;             ///< kCompleted with an optimal solution
  bool cache_hit = false;
  bool cache_transplant = false;
};

/// A solution kept past its reap.
struct KeptSolution {
  std::size_t job = 0;
  std::uint32_t problem = 0;
  bool audit_ok = false;
  cg::core::DefenderSolution solution;
};

/// What a timed phase leaves behind.  Per job it keeps only a latency
/// (and, when asked, a JobRecord), so the benchmark's own memory barely
/// grows with the number of jobs a fast build completes.
struct LoopResult {
  std::size_t attempted = 0;
  std::size_t completed = 0;       ///< kCompleted with an optimal solution
  std::size_t audit_failures = 0;  ///< completed, but audit::verify refuted
  /// Submit to completion hook, per job in submission order.
  std::vector<float> latency_ms;
  /// solution_digest of the first kDigestJobs jobs (0 when not optimal).
  std::vector<std::uint64_t> digests;
  /// Seeded reservoir sample of optimal outcomes, kReferencePerClass per
  /// family and kind of job, for the reference re-solves.
  std::vector<KeptSolution> reference;
  /// Optimal solutions among the first LoopOptions::keep_prefix jobs.
  std::vector<KeptSolution> prefix;
  /// Every job, in submission order, when LoopOptions::keep_records.
  std::vector<JobRecord> jobs;
  double wall_seconds = 0.0;
};

struct LoopOptions {
  double seconds = 0.0;
  /// The loop runs past `seconds` until this many jobs completed, or
  /// until `max_seconds`.
  std::size_t min_jobs = 0;
  double max_seconds = 0.0;
  /// Completed jobs are journaled, fsync included, when non-null.
  cg::engine::BatchJournal* journal = nullptr;
  bool keep_records = false;
  std::size_t keep_prefix = 0;
  std::uint64_t seed = 0;  ///< for the reference reservoir
  /// Job i solves stream entry stream_offset + i: a second loop on the
  /// same session continues the stream instead of repeating it.
  std::size_t stream_offset = 0;
};

/// Closed loop: keeps kOutstanding jobs in flight, submitting the next
/// stream entry whenever one completes.  Each outcome is checked with
/// audit::verify as it is reaped, after its slot has been refilled.
LoopResult run_closed_loop(Session& session, const Inputs& inputs,
                           const LoopOptions& options);

/// FNV-1a 64 of the solution's wire bytes with the run-specific fields
/// zeroed: the digest the batch journal stores.
std::uint64_t solution_digest(const cg::core::DefenderSolution& solution);

/// CPU seconds of this process (RUSAGE_SELF) or of its reaped children
/// (RUSAGE_CHILDREN), user plus system.
double cpu_seconds(int who);
/// Peak resident set of this process, MiB.
double peak_rss_mib();

}  // namespace perfbench
