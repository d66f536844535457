#include "obs/flight_recorder.hpp"

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

std::string FlightEntry::to_json() const {
  std::string out = "{\"id\":";
  out += std::to_string(id);
  out += ",\"job_id\":";
  out += std::to_string(job_id);
  out += ",\"tag\":";
  append_escaped(out, tag);
  out += ",\"worker\":";
  out += std::to_string(worker);
  out += ",\"queue_seconds\":";
  append_double(out, queue_seconds);
  out += ",\"solve_seconds\":";
  append_double(out, solve_seconds);
  out += ",\"slo_seconds\":";
  append_double(out, slo_seconds);
  out += ",\"budget\":{\"deadline_seconds\":";
  append_double(out, budget_deadline_seconds);
  out += ",\"nodes_charged\":";
  out += std::to_string(budget_nodes);
  out += ",\"iterations_charged\":";
  out += std::to_string(budget_iterations);
  out += ",\"cancel_requested\":";
  out += budget_cancelled ? "true" : "false";
  out += "},\"phases\":[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (i) out += ',';
    out += "{\"name\":";
    append_escaped(out, phases[i].name);
    out += ",\"total_seconds\":";
    append_double(out, static_cast<double>(phases[i].total_ns) * 1e-9);
    out += ",\"count\":";
    out += std::to_string(phases[i].count);
    out += '}';
  }
  out += "],\"report\":";
  if (has_report) {
    out += report.to_json();
  } else {
    out += "null";
  }
  out += '}';
  return out;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

FlightRecorder& FlightRecorder::global() {
  // Immortal: slow solves can finish during static destruction.
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::arm(double slo_seconds) {
  slo_seconds_.store(slo_seconds, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_relaxed);
  set_phase_accounting_enabled(true);
}

void FlightRecorder::disarm() {
  armed_.store(false, std::memory_order_relaxed);
  set_phase_accounting_enabled(false);
}

bool FlightRecorder::armed() const {
  return armed_.load(std::memory_order_relaxed);
}

double FlightRecorder::slo_seconds() const {
  return slo_seconds_.load(std::memory_order_relaxed);
}

std::int64_t FlightRecorder::record(FlightEntry entry) {
  if (!armed()) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  entry.id = ++total_;
  const std::int64_t id = entry.id;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(entry));
  } else {
    ring_[next_] = std::move(entry);
    next_ = (next_ + 1) % capacity_;
  }
  return id;
}

std::vector<FlightEntry> FlightRecorder::recent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FlightEntry> out;
  out.reserve(ring_.size());
  // `next_` points at the oldest entry once the ring has wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::int64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_ = 0;
}

std::string FlightRecorder::to_json() const {
  const std::vector<FlightEntry> entries = recent();
  std::string out = "{\"armed\":";
  out += armed() ? "true" : "false";
  out += ",\"slo_seconds\":";
  append_double(out, slo_seconds());
  out += ",\"total\":";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out += std::to_string(total_);
  }
  out += ",\"capacity\":";
  out += std::to_string(capacity_);
  out += ",\"entries\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i) out += ',';
    out += entries[i].to_json();
  }
  out += "]}";
  return out;
}

bool FlightRecorder::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = to_json();
  const bool ok =
      std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace cubisg::obs
