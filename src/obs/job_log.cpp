#include "obs/job_log.hpp"

#include "obs/json.hpp"

namespace cubisg::obs {

using detail::append_double;
using detail::append_escaped;

namespace {

bool in_view(const JobRecord& r, JobView view) {
  switch (view) {
    case JobView::kSlow:
      return r.slow;
    case JobView::kFailedAudit:
      return r.audit_failed();
    case JobView::kAll:
      break;
  }
  return true;
}

void append_bool(std::string& out, bool v) { out += v ? "true" : "false"; }

}  // namespace

const char* to_string(CacheVerdict verdict) {
  switch (verdict) {
    case CacheVerdict::kHit:
      return "hit";
    case CacheVerdict::kTransplant:
      return "transplant";
    case CacheVerdict::kMiss:
      break;
  }
  return "miss";
}

std::string JobRecord::to_json() const {
  std::string out = "{\"id\":";
  out += std::to_string(id);
  out += ",\"job_id\":";
  out += std::to_string(job_id);
  out += ",\"tag\":";
  append_escaped(out, tag);
  if (!job_status.empty()) {
    out += ",\"job_status\":";
    append_escaped(out, job_status);
    out += ",\"worker\":";
    out += std::to_string(worker);
    out += ",\"attempts\":";
    out += std::to_string(attempts);
    out += ",\"cache\":\"";
    out += to_string(cache);
    out += "\",\"queue_seconds\":";
    append_double(out, queue_seconds);
    out += ",\"solve_seconds\":";
    append_double(out, solve_seconds);
    out += ",\"deadline_seconds\":";
    append_double(out, deadline_seconds);
  }
  out += ",\"solver\":";
  append_escaped(out, solver);
  if (has_solution) {
    out += ",\"status\":";
    append_escaped(out, status);
    out += ",\"budget_stop\":";
    append_bool(out, budget_stop);
    out += ",\"targets\":";
    out += std::to_string(targets);
    out += ",\"wall_seconds\":";
    append_double(out, wall_seconds);
    out += ",\"lb\":";
    append_double(out, lb);
    out += ",\"ub\":";
    append_double(out, ub);
    out += ",\"gap\":";
    append_double(out, ub - lb);
    out += ",\"worst_case_utility\":";
    append_double(out, worst_case_utility);
    out += ",\"binary_steps\":";
    out += std::to_string(binary_steps);
    out += ",\"feasibility_checks\":";
    out += std::to_string(feasibility_checks);
    out += ",\"milp_nodes\":";
    out += std::to_string(milp_nodes);
    out += ",\"incumbent_updates\":";
    out += std::to_string(incumbent_updates);
    out += ",\"simplex_iters\":";
    out += std::to_string(simplex_iters);
    out += ",\"trajectory\":[";
    for (std::size_t r = 0; r < trajectory.size(); ++r) {
      if (r) out += ',';
      out += "{\"lo\":";
      append_double(out, trajectory[r].lo);
      out += ",\"hi\":";
      append_double(out, trajectory[r].hi);
      out += ",\"gap\":";
      append_double(out, trajectory[r].hi - trajectory[r].lo);
      out += ",\"feasible\":";
      out += std::to_string(trajectory[r].feasible);
      out += ",\"infeasible\":";
      out += std::to_string(trajectory[r].infeasible);
      out += '}';
    }
    out += ']';
  }
  if (slow) {
    out += ",\"slo_seconds\":";
    append_double(out, slo_seconds);
    out += ",\"budget\":{\"deadline_seconds\":";
    append_double(out, deadline_seconds);
    out += ",\"nodes_charged\":";
    out += std::to_string(budget_nodes);
    out += ",\"iterations_charged\":";
    out += std::to_string(budget_iterations);
    out += ",\"cancel_requested\":";
    append_bool(out, budget_cancelled);
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
    out += ']';
  }
  if (audit) {
    out += ",\"worst_code\":";
    append_escaped(out, audit->worst_code);
    out += ",\"findings\":";
    out += std::to_string(audit->findings);
    out += ",\"detail\":";
    append_escaped(out, audit->detail);
    out += ",\"max_residual\":";
    append_double(out, audit->max_residual);
    out += ",\"recomputed_worst_case\":";
    append_double(out, audit->recomputed_worst_case);
    out += ",\"verify_seconds\":";
    append_double(out, audit->verify_seconds);
  }
  out += '}';
  return out;
}

JobLog::JobLog(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

JobLog& JobLog::global() {
  // Immortal: jobs and audits can finish during static destruction.
  static JobLog* log = new JobLog();
  return *log;
}

void JobLog::arm(double slo_seconds) {
  slo_seconds_.store(slo_seconds, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_relaxed);
  set_phase_accounting_enabled(true);
}

void JobLog::disarm() {
  armed_.store(false, std::memory_order_relaxed);
  set_phase_accounting_enabled(false);
}

bool JobLog::armed() const { return armed_.load(std::memory_order_relaxed); }

double JobLog::slo_seconds() const {
  return slo_seconds_.load(std::memory_order_relaxed);
}

bool JobLog::over_slo(double solve_seconds) const {
  return armed() && solve_seconds >= slo_seconds();
}

std::int64_t JobLog::insert_locked(JobRecord&& record, JobRecord& evicted) {
  record.id = ++total_;
  if (record.slow) ++slow_total_;
  if (record.audit_failed()) ++failed_audit_total_;
  if (ring_.size() >= capacity_) {
    auto victim = ring_.begin();
    for (auto it = ring_.begin(); it != ring_.end(); ++it) {
      if (!it->flagged()) {
        victim = it;
        break;
      }
    }
    evicted = std::move(*victim);
    ring_.erase(victim);
  }
  ring_.push_back(std::move(record));
  return ring_.back().id;
}

std::int64_t JobLog::add(JobRecord record) {
  JobRecord evicted;  // destroyed after the lock is released
  std::lock_guard<std::mutex> lock(mutex_);
  return insert_locked(std::move(record), evicted);
}

std::int64_t JobLog::attach_audit(std::uint64_t job_id,
                                  const std::string& tag,
                                  const std::string& solver,
                                  AuditVerdict verdict) {
  JobRecord evicted;
  std::lock_guard<std::mutex> lock(mutex_);
  if (job_id != 0) {
    for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
      if (it->job_id != job_id) continue;
      if (verdict.failed() && !it->audit_failed()) ++failed_audit_total_;
      if (it->solver.empty()) it->solver = solver;
      it->audit = std::move(verdict);
      return it->id;
    }
  }
  if (!verdict.failed()) return 0;
  JobRecord record;
  record.job_id = job_id;
  record.tag = tag;
  record.solver = solver;
  record.audit = std::move(verdict);
  return insert_locked(std::move(record), evicted);
}

std::vector<JobRecord> JobLog::recent(JobView view) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobRecord> out;
  for (const JobRecord& r : ring_) {
    if (in_view(r, view)) out.push_back(r);
  }
  return out;
}

std::size_t JobLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::int64_t JobLog::total(JobView view) const {
  std::lock_guard<std::mutex> lock(mutex_);
  switch (view) {
    case JobView::kSlow:
      return slow_total_;
    case JobView::kFailedAudit:
      return failed_audit_total_;
    case JobView::kAll:
      break;
  }
  return total_;
}

void JobLog::clear() {
  std::deque<JobRecord> dropped;
  std::lock_guard<std::mutex> lock(mutex_);
  dropped.swap(ring_);
}

std::string JobLog::to_json(JobView view) const {
  const std::vector<JobRecord> records = recent(view);
  std::string out = "{";
  if (view == JobView::kSlow) {
    out += "\"armed\":";
    append_bool(out, armed());
    out += ",\"slo_seconds\":";
    append_double(out, slo_seconds());
    out += ',';
  }
  out += "\"total\":";
  out += std::to_string(total(view));
  out += ",\"capacity\":";
  out += std::to_string(capacity_);
  switch (view) {
    case JobView::kSlow:
      out += ",\"entries\":[";
      break;
    case JobView::kFailedAudit:
      out += ",\"failures\":[";
      break;
    case JobView::kAll:
      out += ",\"reports\":[";
      break;
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i) out += ',';
    out += records[i].to_json();
  }
  out += "]}";
  return out;
}

bool JobLog::write_json(JobView view, const std::string& path) const {
  return detail::write_file(path, to_json(view));
}

}  // namespace cubisg::obs
