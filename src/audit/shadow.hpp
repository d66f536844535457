// Shadow auditor: background re-verification of completed solves.
//
// serve/batch wire observe() into the engine's completion hook; every Nth
// completed job gets a copy of its solution queued for the dedicated
// audit worker, which runs audit::verify() and publishes the outcome
// (audit.* metrics + the verdict on the job's obs::JobLog record, failures
// served at /auditz) via record_outcome().
//
// The hot path pays one relaxed counter increment per completed job and,
// for sampled jobs only, one solution copy + queue push.  Verification
// itself runs on a single low-priority worker thread (SCHED_IDLE where
// available) so audits never compete with solves for a core.  The queue
// is bounded: when the auditor falls behind, samples are dropped and
// counted (audit.dropped_total) rather than backpressuring the engine.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "audit/verify.hpp"
#include "behavior/bounds.hpp"
#include "core/solvers.hpp"
#include "games/security_game.hpp"

namespace cubisg::audit {

/// Samples completed solves and verifies them off the hot path.
class ShadowAuditor {
 public:
  struct Options {
    /// Audit every Nth observed solve (1 = every solve).  0 behaves as 1.
    std::size_t sample_every = 8;
    /// Pending-verification queue bound; overflow drops the sample.
    std::size_t queue_capacity = 64;
    AuditOptions audit;
  };

  // Two overloads (not one defaulted argument): Options' member
  // initializers are unusable until the enclosing class is complete.
  ShadowAuditor();
  explicit ShadowAuditor(Options options);
  ~ShadowAuditor();  ///< stop()s; drains pending samples first

  ShadowAuditor(const ShadowAuditor&) = delete;
  ShadowAuditor& operator=(const ShadowAuditor&) = delete;

  /// Starts the audit worker.  Idempotent.
  void start();

  /// Stops the worker after it drains everything already queued, so tests
  /// (and exit paths) observe deterministic counts.  Idempotent.
  void stop();

  /// Completion-hook entry: samples every Nth call and queues a copy of
  /// the solution for verification.  The shared_ptrs keep game/bounds
  /// alive until the audit runs.  Cheap when the call is not sampled.
  void observe(std::shared_ptr<const games::SecurityGame> game,
               std::shared_ptr<const behavior::AttractivenessBounds> bounds,
               const core::DefenderSolution& solution, std::uint64_t job_id,
               std::string tag);

  // Introspection for tests and exit summaries.
  std::uint64_t observed() const {
    return observed_.load(std::memory_order_relaxed);
  }
  std::uint64_t audited() const {
    return audited_.load(std::memory_order_relaxed);
  }
  std::uint64_t failures() const {
    return failures_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  struct Sample {
    std::shared_ptr<const games::SecurityGame> game;
    std::shared_ptr<const behavior::AttractivenessBounds> bounds;
    core::DefenderSolution solution;
    std::uint64_t job_id = 0;
    std::string tag;
  };

  void worker_loop();

  const Options options_;
  std::atomic<std::uint64_t> observed_{0};
  std::atomic<std::uint64_t> audited_{0};
  std::atomic<std::uint64_t> failures_{0};
  std::atomic<std::uint64_t> dropped_{0};

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Sample> queue_;  ///< guarded by mutex_
  bool stopping_ = false;     ///< guarded by mutex_
  bool running_ = false;      ///< guarded by mutex_
  std::thread worker_;
};

}  // namespace cubisg::audit
