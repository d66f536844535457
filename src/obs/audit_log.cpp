#include "obs/audit_log.hpp"

#include <cmath>
#include <cstdio>

namespace cubisg::obs {

namespace {

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += v > 0 ? "1e308" : (v < 0 ? "-1e308" : "0");
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (ch == '\n') {
      out += "\\n";
    } else {
      out += ch;
    }
  }
  out += '"';
}

}  // namespace

std::string AuditRecord::to_json() const {
  std::string out = "{\"id\":";
  out += std::to_string(id);
  out += ",\"job_id\":";
  out += std::to_string(job_id);
  out += ",\"tag\":";
  append_escaped(out, tag);
  out += ",\"solver\":";
  append_escaped(out, solver);
  out += ",\"worst_code\":";
  append_escaped(out, worst_code);
  out += ",\"findings\":";
  out += std::to_string(findings);
  out += ",\"detail\":";
  append_escaped(out, detail);
  out += ",\"max_residual\":";
  append_double(out, max_residual);
  out += ",\"recomputed_worst_case\":";
  append_double(out, recomputed_worst_case);
  out += ",\"verify_seconds\":";
  append_double(out, verify_seconds);
  out += '}';
  return out;
}

AuditLog::AuditLog(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

AuditLog& AuditLog::global() {
  // Immortal: shadow audits can finish during static destruction.
  static AuditLog* log = new AuditLog();
  return *log;
}

std::int64_t AuditLog::record(AuditRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  record.id = ++total_;
  const std::int64_t id = record.id;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
  } else {
    ring_[next_] = std::move(record);
    next_ = (next_ + 1) % capacity_;
  }
  return id;
}

std::vector<AuditRecord> AuditLog::recent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<AuditRecord> out;
  out.reserve(ring_.size());
  // `next_` points at the oldest record once the ring has wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::size_t AuditLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::int64_t AuditLog::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

void AuditLog::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_ = 0;
}

std::string AuditLog::to_json() const {
  const std::vector<AuditRecord> records = recent();
  std::string out = "{\"total\":";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out += std::to_string(total_);
  }
  out += ",\"capacity\":";
  out += std::to_string(capacity_);
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i) out += ',';
    out += records[i].to_json();
  }
  out += "]}";
  return out;
}

bool AuditLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = to_json();
  const bool ok =
      std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace cubisg::obs
