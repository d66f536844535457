// Batch journal: append-only durability records driving `batch --resume`.
// The format must round-trip, tolerate the torn final record a kill -9
// can leave (simulated by the journal-torn-write fault site), survive a
// reopen-after-tear without corrupting the next record, and let later
// records supersede earlier ones for the same tag (a resumed run
// re-records its jobs).
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "behavior/scenario.hpp"
#include "common/fault_inject.hpp"
#include "common/rng.hpp"
#include "core/registry.hpp"
#include "engine/engine.hpp"
#include "engine/journal.hpp"
#include "engine/process_pool.hpp"
#include "games/generators.hpp"

namespace cubisg::engine {
namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const char* name)
      : path(std::string(::testing::TempDir()) + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

struct FaultGuard {
  FaultGuard() { faultinject::disarm_all(); }
  ~FaultGuard() { faultinject::disarm_all(); }
};

const JournalEntry* find(const std::vector<JournalEntry>& entries,
                         const std::string& tag) {
  for (const JournalEntry& e : entries) {
    if (e.tag == tag) return &e;
  }
  return nullptr;
}

TEST(Fnv1a64, MatchesReferenceVectors) {
  // Published FNV-1a 64 test vectors.
  EXPECT_EQ(fnv1a64("", 0), 14695981039346656037ull);
  EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar", 6), 0x85944171f73967e8ull);
}

TEST(Journal, RecordLoadRoundTrip) {
  TempFile tmp("journal_roundtrip.log");
  BatchJournal j;
  std::string err;
  ASSERT_TRUE(j.open(tmp.path, err)) << err;
  ASSERT_TRUE(j.record("runs/a.scn", 0x1111111111111111ull, "ok"));
  ASSERT_TRUE(j.record("runs/with space.scn", 0x2222222222222222ull, "ok"));
  ASSERT_TRUE(j.record("runs/b.scn", 0, "failed"));
  j.close();

  std::vector<JournalEntry> entries;
  std::size_t malformed = 9;
  ASSERT_TRUE(BatchJournal::load(tmp.path, entries, err, &malformed)) << err;
  EXPECT_EQ(malformed, 0u);
  ASSERT_EQ(entries.size(), 3u);
  const JournalEntry* a = find(entries, "runs/a.scn");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->status, "ok");
  EXPECT_EQ(a->digest, 0x1111111111111111ull);
  const JournalEntry* spaced = find(entries, "runs/with space.scn");
  ASSERT_NE(spaced, nullptr) << "tags with spaces must survive";
  EXPECT_EQ(spaced->digest, 0x2222222222222222ull);
  const JournalEntry* b = find(entries, "runs/b.scn");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->status, "failed");
}

TEST(Journal, LaterRecordForSameTagWins) {
  TempFile tmp("journal_rerecord.log");
  BatchJournal j;
  std::string err;
  ASSERT_TRUE(j.open(tmp.path, err)) << err;
  ASSERT_TRUE(j.record("a.scn", 1, "crashed"));
  ASSERT_TRUE(j.record("a.scn", 0xabc, "ok"));
  j.close();

  std::vector<JournalEntry> entries;
  ASSERT_TRUE(BatchJournal::load(tmp.path, entries, err, nullptr));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].status, "ok");
  EXPECT_EQ(entries[0].digest, 0xabcull);
}

TEST(Journal, TornFinalRecordToleratedEarlierRecordsSurvive) {
  if (!faultinject::compiled_in()) GTEST_SKIP() << "fault hooks compiled out";
  FaultGuard guard;
  TempFile tmp("journal_torn.log");
  BatchJournal j;
  std::string err;
  ASSERT_TRUE(j.open(tmp.path, err)) << err;
  ASSERT_TRUE(j.record("a.scn", 11, "ok"));
  ASSERT_TRUE(j.record("b.scn", 22, "ok"));
  faultinject::arm(faultinject::Site::kJournalTornWrite, /*fire_count=*/1);
  ASSERT_TRUE(j.record("c.scn", 33, "ok"));  // half-written, no newline
  j.close();

  std::vector<JournalEntry> entries;
  std::size_t malformed = 0;
  ASSERT_TRUE(BatchJournal::load(tmp.path, entries, err, &malformed)) << err;
  EXPECT_EQ(malformed, 1u) << "the torn tail must count, not crash";
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_NE(find(entries, "a.scn"), nullptr);
  EXPECT_NE(find(entries, "b.scn"), nullptr);
  EXPECT_EQ(find(entries, "c.scn"), nullptr) << "torn record half-loaded";
}

TEST(Journal, ReopenAfterTearDoesNotCorruptNextRecord) {
  if (!faultinject::compiled_in()) GTEST_SKIP() << "fault hooks compiled out";
  FaultGuard guard;
  TempFile tmp("journal_reopen.log");
  std::string err;
  {
    BatchJournal j;
    ASSERT_TRUE(j.open(tmp.path, err)) << err;
    ASSERT_TRUE(j.record("a.scn", 11, "ok"));
    faultinject::arm(faultinject::Site::kJournalTornWrite, 1);
    ASSERT_TRUE(j.record("b.scn", 22, "ok"));  // torn, no newline
    j.close();
  }
  {
    // The resumed run re-records b: open() must terminate the torn line
    // so this record is not glued onto it and lost too.
    BatchJournal j;
    ASSERT_TRUE(j.open(tmp.path, err)) << err;
    ASSERT_TRUE(j.record("b.scn", 22, "ok"));
    j.close();
  }
  std::vector<JournalEntry> entries;
  std::size_t malformed = 0;
  ASSERT_TRUE(BatchJournal::load(tmp.path, entries, err, &malformed)) << err;
  EXPECT_EQ(malformed, 1u);
  const JournalEntry* b = find(entries, "b.scn");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->digest, 22ull);
  EXPECT_EQ(b->status, "ok");
}

TEST(Journal, CorruptCrcAndForeignLinesSkipped) {
  TempFile tmp("journal_corrupt.log");
  {
    BatchJournal j;
    std::string err;
    ASSERT_TRUE(j.open(tmp.path, err)) << err;
    ASSERT_TRUE(j.record("good.scn", 7, "ok"));
    j.close();
  }
  {
    std::ofstream out(tmp.path, std::ios::app);
    out << "done 0000000000000007 ok deadbeef flipped.scn\n";  // bad CRC
    out << "not a journal line at all\n";
    out << "\n";
  }
  std::vector<JournalEntry> entries;
  std::string err;
  std::size_t malformed = 0;
  ASSERT_TRUE(BatchJournal::load(tmp.path, entries, err, &malformed)) << err;
  EXPECT_EQ(malformed, 2u);  // bad CRC + foreign line (blank ignored)
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].tag, "good.scn");
}

TEST(Journal, CacheFieldsRoundTrip) {
  TempFile tmp("journal_cache_fields.log");
  BatchJournal j;
  std::string err;
  ASSERT_TRUE(j.open(tmp.path, err)) << err;
  ASSERT_TRUE(j.record("cold.scn", 0xAAAA, "ok", 0, 0));
  ASSERT_TRUE(j.record("hit.scn", 0xAAAA, "ok", 1, 0));
  ASSERT_TRUE(j.record("warm.scn", 0xBBBB, "ok", 0, 1));
  j.close();

  std::vector<JournalEntry> entries;
  std::size_t malformed = 9;
  ASSERT_TRUE(BatchJournal::load(tmp.path, entries, err, &malformed)) << err;
  EXPECT_EQ(malformed, 0u);
  ASSERT_EQ(entries.size(), 3u);
  const JournalEntry* cold = find(entries, "cold.scn");
  ASSERT_NE(cold, nullptr);
  EXPECT_EQ(cold->cache_hits, 0);
  EXPECT_EQ(cold->cache_transplants, 0);
  const JournalEntry* hit = find(entries, "hit.scn");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cache_hits, 1);
  EXPECT_EQ(hit->cache_transplants, 0);
  const JournalEntry* warm = find(entries, "warm.scn");
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(warm->cache_hits, 0);
  EXPECT_EQ(warm->cache_transplants, 1);
}

// The v1 record layout (`done <digest> <status> <crc> <tag...>`) is
// retired: a v1 header and v1 records count as malformed and load no
// entry, so --resume re-runs those jobs, while v2 records appended to the
// same file still load and still supersede earlier lines per tag.
TEST(Journal, V1LinesCountAsMalformedAndAreReRun) {
  TempFile tmp("journal_v1_lines.log");
  {
    // Hand-written v1 journal (header + two records, CRC computed with
    // the same FNV-1a 32 the v1 writer used).
    const auto crc32 = [](const std::string& s) {
      std::uint32_t h = 2166136261u;
      for (unsigned char c : s) {
        h ^= c;
        h *= 16777619u;
      }
      return h;
    };
    const std::string digest_hex = "00000000000000ab";
    char crc_hex[9];
    std::snprintf(crc_hex, sizeof crc_hex, "%08x",
                  crc32(digest_hex + " ok old.scn"));
    std::ofstream out(tmp.path);
    out << "cubisg-journal 1\n";
    out << "done " << digest_hex << " ok " << crc_hex << " old.scn\n";
    std::snprintf(crc_hex, sizeof crc_hex, "%08x",
                  crc32(digest_hex + " ok rerun.scn"));
    out << "done " << digest_hex << " ok " << crc_hex << " rerun.scn\n";
  }
  {
    // A resumed run appends v2 records to the v1 file.
    BatchJournal j;
    std::string err;
    ASSERT_TRUE(j.open(tmp.path, err)) << err;
    ASSERT_TRUE(j.record("new.scn", 0xCD, "ok", 1, 0));
    ASSERT_TRUE(j.record("rerun.scn", 0xEF, "ok", 0, 1));
    j.close();
  }
  std::vector<JournalEntry> entries;
  std::string err;
  std::size_t malformed = 9;
  ASSERT_TRUE(BatchJournal::load(tmp.path, entries, err, &malformed)) << err;
  EXPECT_EQ(malformed, 3u) << "the v1 header and both v1 records";
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(find(entries, "old.scn"), nullptr)
      << "a v1 record must not mark its job done";
  const JournalEntry* fresh = find(entries, "new.scn");
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->cache_hits, 1);
  const JournalEntry* rerun = find(entries, "rerun.scn");
  ASSERT_NE(rerun, nullptr);
  EXPECT_EQ(rerun->status, "ok");
  EXPECT_EQ(rerun->digest, 0xefull);
  EXPECT_EQ(rerun->cache_transplants, 1);
}

// --resume regression: a cache-served job must journal under the NEW
// job's identity with the same canonical digest a cold solve records.
// If the engine returned the cached outcome un-restamped (the donor
// job's id, its wall clock and telemetry), a resumed run would either
// re-solve needlessly on a digest mismatch or — worse — skip a job whose
// recorded digest never matched a real solve of it.
TEST(Journal, CacheServedJobsJournalWithFreshIdentityAndColdDigest) {
  Rng rng(9001);
  auto scenario = std::make_shared<behavior::Scenario>(behavior::Scenario{
      games::random_uncertain_game(rng, 10, 3.0, 1.0),
      behavior::SuqrWeightIntervals{}, behavior::IntervalMode::kExactBox});
  auto bounds = std::make_shared<behavior::SuqrIntervalBounds>(
      scenario->make_bounds());
  std::shared_ptr<const games::SecurityGame> game(scenario,
                                                  &scenario->game.game);
  const auto job = [&] {
    SolveJob j;
    j.game = game;
    j.bounds = bounds;
    j.scenario = scenario;
    j.tag = "job.scn";
    return j;
  };
  const auto canonical_digest = [](const core::DefenderSolution& sol) {
    ResultFrame frame;
    frame.id = 0;
    frame.solution = sol;
    frame.solution.wall_seconds = 0.0;
    frame.solution.telemetry = {};
    const std::string bytes = encode_result(frame);
    return fnv1a64(bytes.data(), bytes.size());
  };

  core::SolverSpec spec;
  spec.segments = 6;
  spec.epsilon = 1e-2;
  EngineOptions eopt;
  eopt.workers = 1;
  eopt.cache.mode = CacheMode::kExact;
  eopt.cache.solver_config = core::canonical_solver_config(spec);
  SolveEngine eng(core::make_solver(spec), eopt);
  const JobOutcome cold = eng.submit(job()).get();
  const JobOutcome cached = eng.submit(job()).get();
  eng.shutdown();
  ASSERT_EQ(cold.status, JobStatus::kCompleted) << cold.error;
  ASSERT_EQ(cached.status, JobStatus::kCompleted) << cached.error;
  ASSERT_TRUE(cached.cache_hit);
  EXPECT_NE(cached.id, cold.id)
      << "the cached outcome resurfaced under the donor job's id";

  // Journal both runs the way the batch loop does; the resumed load must
  // see one entry whose digest matches the cold solve's canonical bytes.
  TempFile tmp("journal_cache_digest.log");
  {
    BatchJournal j;
    std::string err;
    ASSERT_TRUE(j.open(tmp.path, err)) << err;
    ASSERT_TRUE(j.record(cold.tag, canonical_digest(cold.solution), "ok",
                         0, 0));
    ASSERT_TRUE(j.record(cached.tag, canonical_digest(cached.solution),
                         "ok", 1, 0));
    j.close();
  }
  std::vector<JournalEntry> entries;
  std::string err;
  ASSERT_TRUE(BatchJournal::load(tmp.path, entries, err, nullptr));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].digest, canonical_digest(cold.solution))
      << "cache involvement must not change the canonical digest";
  EXPECT_EQ(entries[0].cache_hits, 1);
}

TEST(Journal, MissingFileIsLoadErrorNotCrash) {
  std::vector<JournalEntry> entries;
  std::string err;
  EXPECT_FALSE(
      BatchJournal::load("/nonexistent/journal.log", entries, err, nullptr));
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace cubisg::engine
