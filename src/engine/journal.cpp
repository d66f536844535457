#include "engine/journal.hpp"

#include <cinttypes>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/fault_inject.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define CUBISG_JOURNAL_FSYNC 1
#else
#define CUBISG_JOURNAL_FSYNC 0
#endif

namespace cubisg::engine {

namespace {

constexpr char kHeader[] = "cubisg-journal 2";

bool all_digits(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

std::uint32_t fnv1a32(const std::string& s) {
  std::uint32_t h = 2166136261u;
  for (unsigned char c : s) {
    h ^= c;
    h *= 16777619u;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string hex8(std::uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

bool BatchJournal::open(const std::string& path, std::string& error) {
  close();
  // "a+" so a fresh open can tell whether the file already has content
  // (ftell after a seek-to-end) without a second stat.
  file_ = std::fopen(path.c_str(), "a+");
  if (file_ == nullptr) {
    error = "cannot open journal '" + path + "' for append";
    return false;
  }
  std::fseek(file_, 0, SEEK_END);
  if (std::ftell(file_) == 0) {
    std::fprintf(file_, "%s\n", kHeader);
    std::fflush(file_);
  } else {
    // A crash can leave a torn final record with no newline.  Terminate
    // it now so the first record this run appends starts on a fresh
    // line instead of gluing onto (and corrupting) the torn one.
    std::fseek(file_, -1, SEEK_END);
    if (std::fgetc(file_) != '\n') std::fputc('\n', file_);
    std::fseek(file_, 0, SEEK_END);
  }
  return true;
}

bool BatchJournal::record(const std::string& tag, std::uint64_t digest,
                          const std::string& status, std::int64_t cache_hits,
                          std::int64_t cache_transplants) {
  if (file_ == nullptr) return false;
  const std::string counts = std::to_string(cache_hits) + " " +
                             std::to_string(cache_transplants);
  const std::string payload =
      hex16(digest) + " " + status + " " + counts + " " + tag;
  const std::string line = "done " + hex16(digest) + " " + status + " " +
                           counts + " " + hex8(fnv1a32(payload)) + " " + tag +
                           "\n";
  if (faultinject::should_fail(faultinject::Site::kJournalTornWrite)) {
    // Simulated power cut mid-append: half the record reaches the file,
    // no newline, no fsync.  load() must shrug this off.
    const std::size_t half = line.size() / 2;
    std::fwrite(line.data(), 1, half, file_);
    std::fflush(file_);
    return true;
  }
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    return false;
  }
  if (std::fflush(file_) != 0) return false;
#if CUBISG_JOURNAL_FSYNC
  ::fsync(::fileno(file_));
#endif
  return true;
}

void BatchJournal::close() {
  if (file_ != nullptr) {
    std::fflush(file_);
#if CUBISG_JOURNAL_FSYNC
    ::fsync(::fileno(file_));
#endif
    std::fclose(file_);
    file_ = nullptr;
  }
}

bool BatchJournal::load(const std::string& path,
                        std::vector<JournalEntry>& out, std::string& error,
                        std::size_t* malformed) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot read journal '" + path + "'";
    return false;
  }
  std::size_t bad = 0;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (first) {
      first = false;
      if (line == kHeader) continue;
      // Headerless/foreign file: fall through and try the line as a
      // record; it will count as malformed if it is not one.
    }
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string word, digest_hex, status;
    if (!(ls >> word >> digest_hex >> status) || word != "done" ||
        digest_hex.size() != 16) {
      ++bad;
      continue;
    }
    std::uint64_t digest = 0;
    if (std::sscanf(digest_hex.c_str(), "%" SCNx64, &digest) != 1) {
      ++bad;
      continue;
    }
    // "<hits> <transplants> <crc> <tag...>" is left; the CRC covers the
    // exact field split, so a line of any other layout (including the
    // retired v1 "<crc> <tag...>") fails it and counts as malformed.
    std::string rest;
    std::getline(ls, rest);
    if (!rest.empty() && rest[0] == ' ') rest.erase(0, 1);
    std::istringstream rs(rest);
    std::string hits, transplants, crc_hex;
    if (!(rs >> hits >> transplants >> crc_hex) || !all_digits(hits) ||
        !all_digits(transplants) || crc_hex.size() != 8) {
      ++bad;
      continue;
    }
    std::string tag;
    std::getline(rs, tag);
    if (!tag.empty() && tag[0] == ' ') tag.erase(0, 1);
    std::uint32_t crc = 0;
    if (std::sscanf(crc_hex.c_str(), "%x", &crc) != 1 ||
        fnv1a32(digest_hex + " " + status + " " + hits + " " + transplants +
                " " + tag) != crc) {
      ++bad;
      continue;
    }
    JournalEntry entry;
    entry.status = status;
    entry.digest = digest;
    entry.tag = tag;
    entry.cache_hits = std::strtoll(hits.c_str(), nullptr, 10);
    entry.cache_transplants = std::strtoll(transplants.c_str(), nullptr, 10);
    // Later records for a tag win (a resumed run re-records its jobs).
    bool replaced = false;
    for (JournalEntry& e : out) {
      if (e.tag == entry.tag) {
        e = entry;
        replaced = true;
        break;
      }
    }
    if (!replaced) out.push_back(std::move(entry));
  }
  if (malformed != nullptr) *malformed = bad;
  return true;
}

}  // namespace cubisg::engine
