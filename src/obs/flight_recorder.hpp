// Slow-solve flight recorder: a bounded ring of forensic records for
// solves that blew a latency SLO.
//
// The engine (and the CLI's one-shot solve path) checks every finished
// solve against the armed SLO; offenders get a FlightEntry capturing the
// full SolveReport the solver published, the per-phase span breakdown
// accumulated on the solving thread (trace phase accounting — no full
// trace collection needed), and the job's budget state at completion.
// The ring keeps the most recent kDefaultCapacity offenders, is served
// live at GET /slowz by the HTTP exporter, and is flushed to a file on
// exit when the CLI armed --slow-solve-out.
//
// Arming the recorder also turns on trace phase accounting so the
// breakdown is available; disarming turns it back off.  Everything is
// off-hot-path (one mutex acquisition per *slow* solve).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/solve_report.hpp"
#include "obs/trace.hpp"  // PhaseTotal

namespace cubisg::obs {

/// One slow solve.  `report` is the SolveReport published on the solving
/// thread (has_report false when the solver does not publish reports).
struct FlightEntry {
  std::int64_t id = 0;       ///< recorder-assigned, monotonic
  std::uint64_t job_id = 0;  ///< engine job id (0 = one-shot CLI solve)
  std::string tag;
  std::size_t worker = 0;
  double queue_seconds = 0.0;
  double solve_seconds = 0.0;
  double slo_seconds = 0.0;  ///< the SLO in force when recorded

  bool has_report = false;
  SolveReport report;

  // Budget state at completion.
  double budget_deadline_seconds = 0.0;
  std::int64_t budget_nodes = 0;
  std::int64_t budget_iterations = 0;
  bool budget_cancelled = false;

  std::vector<PhaseTotal> phases;  ///< per-phase totals, solving thread

  std::string to_json() const;
};

/// Thread-safe bounded ring of the most recent slow solves.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 32;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// Process-wide recorder (immortal, same pattern as SolveReportBuffer).
  static FlightRecorder& global();

  /// Arms the SLO (seconds) and enables trace phase accounting.  A solve
  /// whose wall time meets or exceeds the SLO should be record()ed.
  void arm(double slo_seconds);

  /// Disarms and turns phase accounting back off.  Entries are retained.
  void disarm();

  bool armed() const;
  double slo_seconds() const;

  /// Stores the entry (evicting the oldest when full); returns its id.
  /// No-op returning 0 when the recorder is not armed.
  std::int64_t record(FlightEntry entry);

  /// The retained entries, oldest first.
  std::vector<FlightEntry> recent() const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  /// Count of every entry ever recorded (retained or evicted).
  std::int64_t total_recorded() const;
  void clear();

  /// {"armed":b,"slo_seconds":s,"total":N,"capacity":C,"entries":[...]}
  std::string to_json() const;

  /// Writes to_json() to `path`; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<FlightEntry> ring_;  ///< guarded by mutex_
  std::size_t next_ = 0;           ///< guarded; eviction cursor when full
  std::int64_t total_ = 0;         ///< guarded; id source
  // Atomics: armed()/slo_seconds() are polled once per finished solve.
  std::atomic<bool> armed_{false};
  std::atomic<double> slo_seconds_{0.0};
};

}  // namespace cubisg::obs
