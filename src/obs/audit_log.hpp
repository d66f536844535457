// Audit failure log: a bounded ring of shadow-audit / verify failures.
//
// The independent verifier (src/audit) deposits a record here whenever a
// solution fails its audit; the ring keeps the most recent offenders and
// is served live at GET /auditz by the HTTP exporter, plus flushed to a
// file on exit when the CLI armed --audit-out.  Records are plain
// strings/doubles so this stays a leaf of the obs layer — the exporter
// serves it without linking the audit library.
//
// Unlike the slow-solve flight recorder there is no arming step: audits
// only run when explicitly requested (--audit-sample / verify), failures
// are rare and always worth keeping, and recording is one mutex
// acquisition per *failed* audit.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace cubisg::obs {

/// One failed audit.
struct AuditRecord {
  std::int64_t id = 0;       ///< log-assigned, monotonic
  std::uint64_t job_id = 0;  ///< engine job id (0 = one-shot CLI verify)
  std::string tag;
  std::string solver;
  std::string worst_code;  ///< most severe audit code name
  std::string detail;      ///< "; "-joined finding details
  int findings = 0;
  double max_residual = 0.0;
  double recomputed_worst_case = 0.0;
  double verify_seconds = 0.0;

  std::string to_json() const;
};

/// Thread-safe bounded ring of the most recent audit failures.
class AuditLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 32;

  explicit AuditLog(std::size_t capacity = kDefaultCapacity);

  /// Process-wide log (immortal, same pattern as FlightRecorder).
  static AuditLog& global();

  /// Stores the record (evicting the oldest when full); returns its id.
  std::int64_t record(AuditRecord record);

  /// The retained records, oldest first.
  std::vector<AuditRecord> recent() const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  /// Count of every failure ever recorded (retained or evicted).
  std::int64_t total_recorded() const;
  void clear();

  /// {"total":N,"capacity":C,"failures":[...]}
  std::string to_json() const;

  /// Writes to_json() to `path`; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<AuditRecord> ring_;  ///< guarded by mutex_
  std::size_t next_ = 0;           ///< guarded; eviction cursor when full
  std::int64_t total_ = 0;         ///< guarded; id source
};

}  // namespace cubisg::obs
