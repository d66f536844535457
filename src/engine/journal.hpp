// Append-only batch journal: crash-safe progress tracking for `cubisg
// batch`, enabling `--resume` to skip work a previous (killed,
// interrupted, OOMed) run already finished.
//
// Format — text, one record per line, append-only, fsynced per record:
//
//   cubisg-journal 2                                  <- header
//   done <digest> <status> <hits> <transplants> <crc> <tag...>
//
// where <digest> is the 16-hex-digit FNV-1a 64 of the job's canonical
// solution bytes (engine::encode_result with the job id, wall clocks
// and telemetry zeroed, so the digest is stable across runs),
// <status> is ok/failed/crashed/quarantined,
// <hits>/<transplants> are 0/1 cache involvement flags for the job
// (served from the cross-solve cache / solved from a transplant seed),
// <crc> is the 8-hex-digit FNV-1a 32 of
// "<digest> <status> <hits> <transplants> <tag>", and <tag> — last,
// because it may contain spaces — is the job tag (the scenario path in
// batch mode).
//
// Version tolerance: load() reads v2 records only.  A line in any other
// layout — including the v1 `done <digest> <status> <crc> <tag...>` of
// the first journal format — fails the v2 CRC and counts as malformed,
// so `--resume` re-runs that job (resume is idempotent: a re-run records
// the same digest).
//
// Durability and tolerance: each record is fflush+fsynced before the
// submit loop moves on, so after kill -9 the journal holds every
// completed job except possibly a torn final line (a write cut mid-
// record by the crash).  load() is forgiving by construction: any line
// that does not parse or fails its CRC is counted and skipped, never
// fatal — a torn tail costs re-solving at most one job.  The
// journal-torn-write fault site (common/fault_inject.hpp) simulates
// exactly that tear for tests.
//
// Resume semantics (the CLI's policy, not enforced here): only "ok"
// records are skipped on resume; failed/crashed/quarantined jobs are
// recorded for the post-mortem but re-attempted, and cancelled jobs are
// never journaled at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace cubisg::engine {

/// FNV-1a 64-bit over raw bytes (the digest primitive for the journal
/// and the resume differential tests).
std::uint64_t fnv1a64(const void* data, std::size_t len);

struct JournalEntry {
  std::string tag;
  std::string status;  ///< ok | failed | crashed | quarantined
  std::uint64_t digest = 0;
  /// Cache involvement: the job was served from the cross-solve cache /
  /// solved from a transplant seed.
  std::int64_t cache_hits = 0;
  std::int64_t cache_transplants = 0;
};

class BatchJournal {
 public:
  BatchJournal() = default;
  ~BatchJournal() { close(); }

  BatchJournal(const BatchJournal&) = delete;
  BatchJournal& operator=(const BatchJournal&) = delete;

  /// Opens (appending) or creates `path`, writing the header when the
  /// file is new/empty.  False + `error` on I/O failure.
  bool open(const std::string& path, std::string& error);

  /// Appends one record (v2 layout) and makes it durable (fflush +
  /// fsync).  Under the journal-torn-write fault site, writes half the
  /// record and skips the fsync instead — simulating a crash mid-append.
  bool record(const std::string& tag, std::uint64_t digest,
              const std::string& status, std::int64_t cache_hits = 0,
              std::int64_t cache_transplants = 0);

  void close();
  bool is_open() const { return file_ != nullptr; }

  /// Tolerant read of a whole journal: malformed/torn lines increment
  /// `*malformed` (if given) and are skipped.  Later records for the
  /// same tag win.  False + `error` only when the file cannot be read
  /// at all.
  static bool load(const std::string& path, std::vector<JournalEntry>& out,
                   std::string& error, std::size_t* malformed = nullptr);

 private:
  std::FILE* file_ = nullptr;
};

}  // namespace cubisg::engine
