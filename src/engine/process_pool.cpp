#include "engine/process_pool.hpp"

#include <cstring>

#include "common/errors.hpp"

namespace cubisg::engine {

bool process_isolation_available() { return CUBISG_PROCESS_ISOLATION != 0; }

// ---- wire format -------------------------------------------------------

namespace {

// Little-endian raw-byte serialization.  Doubles travel as their 8-byte
// IEEE-754 image so a solution decodes bitwise-equal to what the child
// computed — the differential tests compare with memcmp, not tolerance.

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s);
  }
  std::string take() { return std::move(buf_); }

 private:
  void raw(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::string& buf) : buf_(buf) {}
  std::uint8_t u8() { return scalar<std::uint8_t>(); }
  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  std::int32_t i32() { return scalar<std::int32_t>(); }
  std::int64_t i64() { return scalar<std::int64_t>(); }
  double f64() { return scalar<double>(); }
  std::string str() {
    const std::uint32_t n = u32();
    if (!ok_ || buf_.size() - pos_ < n) {
      ok_ = false;
      return {};
    }
    std::string s = buf_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  bool ok() const { return ok_; }
  bool at_end() const { return ok_ && pos_ == buf_.size(); }

 private:
  template <typename T>
  T scalar() {
    T v{};
    const char* p = take(sizeof(T));
    if (p != nullptr) std::memcpy(&v, p, sizeof(T));
    return v;
  }
  const char* take(std::size_t n) {
    if (!ok_ || buf_.size() - pos_ < n) {
      ok_ = false;
      return nullptr;
    }
    const char* p = buf_.data() + pos_;
    pos_ += n;
    return p;
  }
  const std::string& buf_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

void write_certificate(ByteWriter& w, const audit::SolutionCertificate& c) {
  w.u8(c.present ? 1 : 0);
  w.str(c.solver);
  w.u64(static_cast<std::uint64_t>(c.targets));
  w.f64(c.resources);
  w.str(c.coverage);
  w.u8(c.has_bracket ? 1 : 0);
  w.u8(c.bracket_converged ? 1 : 0);
  w.f64(c.epsilon);
  w.i32(c.segments);
  w.f64(c.lb);
  w.f64(c.ub);
  w.u32(static_cast<std::uint32_t>(c.rounds.size()));
  for (const audit::CertificateRound& r : c.rounds) {
    w.f64(r.lo);
    w.f64(r.hi);
    w.i32(r.feasible);
    w.i32(r.infeasible);
  }
  w.u8(c.has_milp ? 1 : 0);
  w.f64(c.milp_incumbent);
  w.f64(c.milp_bound);
  w.i64(c.milp_nodes);
  w.f64(c.claimed_worst_case);
  w.f64(c.budget_residual);
  w.f64(c.box_residual);
}

bool read_certificate(ByteReader& r, audit::SolutionCertificate& c) {
  c.present = r.u8() != 0;
  c.solver = r.str();
  c.targets = static_cast<std::size_t>(r.u64());
  c.resources = r.f64();
  c.coverage = r.str();
  c.has_bracket = r.u8() != 0;
  c.bracket_converged = r.u8() != 0;
  c.epsilon = r.f64();
  c.segments = r.i32();
  c.lb = r.f64();
  c.ub = r.f64();
  const std::uint32_t rounds = r.u32();
  if (!r.ok() || rounds > (1u << 24)) return false;
  c.rounds.resize(rounds);
  for (audit::CertificateRound& round : c.rounds) {
    round.lo = r.f64();
    round.hi = r.f64();
    round.feasible = r.i32();
    round.infeasible = r.i32();
  }
  c.has_milp = r.u8() != 0;
  c.milp_incumbent = r.f64();
  c.milp_bound = r.f64();
  c.milp_nodes = r.i64();
  c.claimed_worst_case = r.f64();
  c.budget_residual = r.f64();
  c.box_residual = r.f64();
  return r.ok();
}

// Breakpoint tables ride as raw doubles: transplanted rows must land in
// the child bitwise-equal to the parent's cached copy, or adoption would
// not reproduce the cold build.
void write_tables(ByteWriter& w, const core::StepTables& t) {
  w.u64(static_cast<std::uint64_t>(t.segments));
  w.u32(static_cast<std::uint32_t>(t.lower.size()));
  for (const auto* rows : {&t.lower, &t.upper, &t.utility}) {
    for (const std::vector<double>& row : *rows) {
      w.u32(static_cast<std::uint32_t>(row.size()));
      for (double v : row) w.f64(v);
    }
  }
}

bool read_tables(ByteReader& r, core::StepTables& t) {
  t.segments = static_cast<std::size_t>(r.u64());
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > (1u << 24)) return false;
  for (auto* rows : {&t.lower, &t.upper, &t.utility}) {
    rows->resize(n);
    for (std::vector<double>& row : *rows) {
      const std::uint32_t k = r.u32();
      if (!r.ok() || k > (1u << 24)) return false;
      row.resize(k);
      for (double& v : row) v = r.f64();
    }
  }
  return r.ok();
}

}  // namespace

std::string encode_cache_seed(const CacheSeedFrame& seed) {
  ByteWriter w;
  w.u64(seed.id);
  write_tables(w, seed.tables);
  w.u32(static_cast<std::uint32_t>(seed.adopt.size()));
  for (std::uint8_t a : seed.adopt) w.u8(a);
  return w.take();
}

bool decode_cache_seed(const std::string& payload, CacheSeedFrame& out) {
  ByteReader r(payload);
  out.id = r.u64();
  if (!read_tables(r, out.tables)) return false;
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > (1u << 24)) return false;
  out.adopt.resize(n);
  for (std::uint8_t& a : out.adopt) a = r.u8();
  return r.at_end();
}

std::string encode_cache_donor(const CacheDonorFrame& donor) {
  ByteWriter w;
  w.u64(donor.id);
  w.u8(static_cast<std::uint8_t>((donor.used ? 1 : 0) |
                                 (donor.rejected ? 2 : 0) |
                                 (donor.has_tables ? 4 : 0)));
  w.u32(donor.adopted);
  w.u32(donor.repaired);
  if (donor.has_tables) write_tables(w, donor.tables);
  return w.take();
}

bool decode_cache_donor(const std::string& payload, CacheDonorFrame& out) {
  ByteReader r(payload);
  out.id = r.u64();
  const std::uint8_t flags = r.u8();
  out.used = (flags & 1) != 0;
  out.rejected = (flags & 2) != 0;
  out.has_tables = (flags & 4) != 0;
  out.adopted = r.u32();
  out.repaired = r.u32();
  if (out.has_tables && !read_tables(r, out.tables)) return false;
  return r.at_end();
}

std::string encode_job(const JobFrame& job) {
  ByteWriter w;
  w.u64(job.id);
  w.f64(job.deadline_seconds);
  w.i64(job.max_nodes);
  w.u8(static_cast<std::uint8_t>((job.chaos_abort ? 1 : 0) |
                                 (job.chaos_hang ? 2 : 0) |
                                 (job.want_donor ? 4 : 0)));
  w.str(job.scenario_text);
  return w.take();
}

bool decode_job(const std::string& payload, JobFrame& out) {
  ByteReader r(payload);
  out.id = r.u64();
  out.deadline_seconds = r.f64();
  out.max_nodes = r.i64();
  const std::uint8_t chaos = r.u8();
  out.chaos_abort = (chaos & 1) != 0;
  out.chaos_hang = (chaos & 2) != 0;
  out.want_donor = (chaos & 4) != 0;
  out.scenario_text = r.str();
  return r.at_end();
}

std::string encode_result(const ResultFrame& result) {
  const core::DefenderSolution& s = result.solution;
  ByteWriter w;
  w.u64(result.id);
  w.u8(static_cast<std::uint8_t>(s.status));
  w.u32(static_cast<std::uint32_t>(s.strategy.size()));
  for (double x : s.strategy) w.f64(x);
  w.f64(s.worst_case_utility);
  w.f64(s.solver_objective);
  w.f64(s.lb);
  w.f64(s.ub);
  w.i32(s.binary_steps);
  w.i64(s.milp_nodes);
  w.f64(s.wall_seconds);
  write_certificate(w, s.certificate);
  // Telemetry: per-solve counter deltas plus the wall clock.  Gauges and
  // histograms describe process-wide state, not this job, so they stay
  // in the child.
  w.f64(s.telemetry.wall_seconds);
  w.u32(static_cast<std::uint32_t>(s.telemetry.metrics.counters.size()));
  for (const obs::CounterSnapshot& c : s.telemetry.metrics.counters) {
    w.str(c.name);
    w.i64(c.value);
  }
  return w.take();
}

bool decode_result(const std::string& payload, ResultFrame& out) {
  ByteReader r(payload);
  out.id = r.u64();
  core::DefenderSolution& s = out.solution;
  s = core::DefenderSolution{};
  s.status = static_cast<SolverStatus>(r.u8());
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > (1u << 26)) return false;
  s.strategy.resize(n);
  for (double& x : s.strategy) x = r.f64();
  s.worst_case_utility = r.f64();
  s.solver_objective = r.f64();
  s.lb = r.f64();
  s.ub = r.f64();
  s.binary_steps = r.i32();
  s.milp_nodes = r.i64();
  s.wall_seconds = r.f64();
  if (!read_certificate(r, s.certificate)) return false;
  s.telemetry.wall_seconds = r.f64();
  const std::uint32_t counters = r.u32();
  if (!r.ok() || counters > (1u << 20)) return false;
  s.telemetry.metrics.counters.resize(counters);
  for (obs::CounterSnapshot& c : s.telemetry.metrics.counters) {
    c.name = r.str();
    c.value = r.i64();
  }
  return r.at_end();
}

std::string encode_error(const ErrorFrame& error) {
  ByteWriter w;
  w.u64(error.id);
  w.u8(error.retryable ? 1 : 0);
  w.str(error.message);
  return w.take();
}

bool decode_error(const std::string& payload, ErrorFrame& out) {
  ByteReader r(payload);
  out.id = r.u64();
  out.retryable = r.u8() != 0;
  out.message = r.str();
  return r.at_end();
}

}  // namespace cubisg::engine

// ---- process + socket layer --------------------------------------------

#if CUBISG_PROCESS_ISOLATION

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <sstream>
#include <thread>

#include "behavior/scenario.hpp"
#include "common/fault_inject.hpp"
#include "common/log.hpp"
#include "core/workspace.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"

namespace cubisg::engine {

namespace {

constexpr std::size_t kMaxPayload = 256u << 20;  // 256 MB sanity cap
constexpr auto kHeartbeatInterval = std::chrono::milliseconds(200);

bool send_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Blocking exact-count read.  1 = ok, 0 = clean EOF at a frame
/// boundary, -1 = error or EOF mid-frame.
int recv_all(int fd, char* data, std::size_t len) {
  bool first = true;
  while (len > 0) {
    const ssize_t n = ::recv(fd, data, len, 0);
    if (n == 0) return first ? 0 : -1;
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    first = false;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return 1;
}

}  // namespace

bool write_frame(int fd, FrameType type, const std::string& payload) {
  if (fd < 0 || payload.size() > kMaxPayload) return false;
  std::string buf;
  buf.reserve(5 + payload.size());
  buf.push_back(static_cast<char>(type));
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  buf.append(reinterpret_cast<const char*>(&len), sizeof len);
  buf.append(payload);
  return send_all(fd, buf.data(), buf.size());
}

ReadStatus read_frame(int fd, int timeout_ms, Frame& out) {
  if (fd < 0) return ReadStatus::kError;
  // The timeout covers waiting for the frame to *start*; once the header
  // byte is on the wire the rest follows within a syscall or two (frames
  // are written with one send), so the body reads block.
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::kError;
    }
    if (rc == 0) return ReadStatus::kTimeout;
    break;
  }
  char header[5];
  const int rc = recv_all(fd, header, sizeof header);
  if (rc == 0) return ReadStatus::kEof;
  if (rc < 0) return ReadStatus::kError;
  out.type = static_cast<FrameType>(header[0]);
  std::uint32_t len = 0;
  std::memcpy(&len, header + 1, sizeof len);
  if (len > kMaxPayload) return ReadStatus::kError;
  out.payload.resize(len);
  if (len > 0 && recv_all(fd, out.payload.data(), len) != 1) {
    return ReadStatus::kError;
  }
  return ReadStatus::kFrame;
}

// ---- child side --------------------------------------------------------

namespace {

/// Runs one job on a dedicated solve thread while this (the child's
/// socket-owning) thread streams heartbeats and watches for cancel
/// frames.  Returns false when the parent is unreachable.  `seed` (may
/// be null) is the parent cache's transplant offer for this job; with
/// job.want_donor set, a kCacheDonor frame follows the result/error.
bool serve_one_job(int fd, const core::DefenderSolver& solver,
                   const JobFrame& job, const CacheSeedFrame* seed) {
  SolveBudget budget;
  if (job.deadline_seconds > 0) budget.set_deadline_after(job.deadline_seconds);
  if (job.max_nodes > 0) budget.set_node_limit(job.max_nodes);

  ResultFrame result;
  result.id = job.id;
  ErrorFrame error;
  error.id = job.id;
  std::atomic<bool> failed{false};
  // Per-job workspace (fresh, so the token/stat zeroing the engine does
  // for its thread-mode workspaces holds by construction here): carries
  // the transplant seed in and the stats + harvested tables out.
  core::SolveWorkspace ws;
  if (seed != nullptr) {
    auto donor = std::make_shared<core::TransplantDonor>();
    donor->tables = seed->tables;
    auto transplant = std::make_shared<core::TransplantSeed>();
    transplant->donor = std::move(donor);
    transplant->adopt = seed->adopt;
    ws.transplant_seed = std::move(transplant);
  }
  std::promise<void> done_promise;
  std::future<void> done = done_promise.get_future();
  std::thread solve_thread([&] {
    try {
      if (job.chaos_hang) {
        // Simulated non-cooperative wedge: ignores the budget forever.
        // Heartbeats keep flowing, so only the supervisor's hard
        // deadline + grace SIGKILL path can end this job.
        for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
      }
      std::istringstream in(job.scenario_text);
      const behavior::Scenario scenario = behavior::read_scenario(in);
      const auto bounds = scenario.make_bounds();
      core::SolveContext ctx{scenario.game.game, bounds, &budget, &ws};
      // Coverage polytope from the scenario's optional `coverage` line;
      // default = simplex, matching the in-process engine path.
      if (!scenario.coverage.is_default()) ctx.space = &scenario.coverage;
      result.solution = solver.solve(ctx);
    } catch (const InvalidModelError& e) {
      failed = true;
      error.retryable = false;  // same model fails the same way again
      error.message = e.what();
    } catch (const std::exception& e) {
      failed = true;
      error.retryable = true;
      error.message = e.what();
    } catch (...) {
      failed = true;
      error.retryable = true;
      error.message = "unknown solver exception";
    }
    done_promise.set_value();
  });

  bool parent_gone = false;
  auto last_heartbeat = std::chrono::steady_clock::now();
  for (;;) {
    // wait_for is the pacer, not added latency: set_value wakes it.
    if (done.wait_for(std::chrono::milliseconds(2)) ==
        std::future_status::ready) {
      break;
    }
    if (parent_gone) continue;  // cancel sent; just wait for the unwind
    const auto now = std::chrono::steady_clock::now();
    if (now - last_heartbeat >= kHeartbeatInterval) {
      if (!write_frame(fd, FrameType::kHeartbeat, std::string())) {
        parent_gone = true;
        budget.request_cancel();
        continue;
      }
      last_heartbeat = now;
    }
    Frame in;
    const ReadStatus rs = read_frame(fd, 0, in);
    if (rs == ReadStatus::kEof || rs == ReadStatus::kError) {
      parent_gone = true;
      budget.request_cancel();
    } else if (rs == ReadStatus::kFrame && in.type == FrameType::kCancel) {
      budget.request_cancel();
    }
  }
  solve_thread.join();
  if (parent_gone) return false;
  bool sent = failed.load()
                  ? write_frame(fd, FrameType::kError, encode_error(error))
                  : write_frame(fd, FrameType::kResult, encode_result(result));
  if (sent && job.want_donor) {
    // Transplant bookkeeping + donor harvest for the parent cache.  The
    // tables travel only when the solve marked them as its own (the
    // token gate — a non-CUBIS solver never sets it).
    CacheDonorFrame donor;
    donor.id = job.id;
    donor.used = ws.transplant_stats.used;
    donor.rejected = ws.transplant_stats.rejected;
    donor.adopted = ws.transplant_stats.adopted;
    donor.repaired = ws.transplant_stats.repaired;
    if (!failed.load() && ws.tables_token != 0) {
      donor.has_tables = true;
      donor.tables = std::move(ws.tables);
    }
    sent = write_frame(fd, FrameType::kCacheDonor, encode_cache_donor(donor));
  }
  return sent;
}

[[noreturn]] void worker_child_main(int fd,
                                    const core::DefenderSolver& solver) {
  // Cancellation reaches the child as a frame, never a signal: SIGINT on
  // the foreground process group must not tear down workers before the
  // parent has drained them, and a dead parent shows up as EOF/EPIPE.
  std::signal(SIGINT, SIG_IGN);
  std::signal(SIGTERM, SIG_IGN);
  std::signal(SIGPIPE, SIG_IGN);
  // The parent's trace/phase buffers were duplicated by fork but their
  // flush path (and output file) belongs to the parent; recording here
  // would interleave garbage, so turn both off at the atomics.
  obs::set_trace_enabled(false);
  obs::set_phase_accounting_enabled(false);
  // At most one pending transplant seed: the parent sends it immediately
  // before the kJob frame it belongs to (matched by id, so a seed left
  // behind by a cancelled send can never warm the wrong job).
  CacheSeedFrame pending_seed;
  bool has_seed = false;
  for (;;) {
    Frame frame;
    const ReadStatus rs = read_frame(fd, -1, frame);
    if (rs != ReadStatus::kFrame) _exit(0);  // parent closed our end
    if (frame.type == FrameType::kCancel) continue;  // stale: job already done
    if (frame.type == FrameType::kCacheSeed) {
      has_seed = decode_cache_seed(frame.payload, pending_seed);
      continue;
    }
    if (frame.type != FrameType::kJob) continue;
    JobFrame job;
    if (!decode_job(frame.payload, job)) _exit(3);
    if (job.chaos_abort) std::abort();  // fault site: crash mid-job
    const CacheSeedFrame* seed =
        has_seed && pending_seed.id == job.id ? &pending_seed : nullptr;
    has_seed = false;
    if (!serve_one_job(fd, solver, job, seed)) _exit(0);
  }
}

std::string describe_exit(int status) {
  char buf[96];
  if (WIFSIGNALED(status)) {
    std::snprintf(buf, sizeof buf, "killed by signal %d%s", WTERMSIG(status),
                  WCOREDUMP(status) ? " (core dumped)" : "");
  } else if (WIFEXITED(status)) {
    std::snprintf(buf, sizeof buf, "exited with status %d",
                  WEXITSTATUS(status));
  } else {
    std::snprintf(buf, sizeof buf, "wait status 0x%x", status);
  }
  return buf;
}

}  // namespace

// ---- parent side -------------------------------------------------------

WorkerProcess spawn_worker(std::shared_ptr<const core::DefenderSolver> solver,
                           const std::vector<int>& sibling_fds,
                           std::string& error) {
  WorkerProcess worker;
  if (!solver) {
    error = "spawn_worker: null solver";
    return worker;
  }
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    error = std::string("socketpair: ") + std::strerror(errno);
    return worker;
  }
  // Fork guard: take every global mutex the child could conceivably need
  // (logging, fault-injection table, metrics-name registration, the
  // global thread pool) in a fixed order, fork, then release on both
  // sides.  Without this a mutex held by some other parent thread at
  // fork() is locked forever in the child.  The job log is deliberately
  // absent: nothing reachable from worker_child_main touches it (the
  // parent records every isolated job when its outcome arrives).
  log_detail::fork_lock();
  faultinject::fork_lock();
  ThreadPool::fork_prepare();
  obs::Registry::global().fork_lock();
  const pid_t pid = ::fork();
  if (pid == 0) {
    obs::Registry::global().fork_unlock();
    ThreadPool::fork_child();  // inherited pool: degrade to inline execution
    faultinject::fork_unlock();
    log_detail::fork_unlock();
    ::close(sv[0]);
    // Parent ends of sibling workers: holding them open would keep a
    // sibling's socket alive past the parent's death (breaking the
    // orphan-detection EOF) and leak a descriptor per generation.
    for (int fd : sibling_fds) {
      if (fd >= 0 && fd != sv[1]) ::close(fd);
    }
    worker_child_main(sv[1], *solver);
  }
  obs::Registry::global().fork_unlock();
  ThreadPool::fork_parent();
  faultinject::fork_unlock();
  log_detail::fork_unlock();
  if (pid < 0) {
    error = std::string("fork: ") + std::strerror(errno);
    ::close(sv[0]);
    ::close(sv[1]);
    return worker;
  }
  ::close(sv[1]);
  worker.pid = pid;
  worker.fd = sv[0];
  return worker;
}

void destroy_worker(WorkerProcess& worker) {
  if (worker.fd >= 0) {
    ::close(worker.fd);
    worker.fd = -1;
  }
  if (worker.pid > 0) {
    ::kill(static_cast<pid_t>(worker.pid), SIGKILL);
    int status = 0;
    while (::waitpid(static_cast<pid_t>(worker.pid), &status, 0) < 0 &&
           errno == EINTR) {
    }
    worker.pid = -1;
  }
}

std::string reap_worker(WorkerProcess& worker, int grace_ms) {
  if (worker.fd >= 0) {
    ::close(worker.fd);
    worker.fd = -1;
  }
  if (worker.pid <= 0) return "not running";
  const pid_t pid = static_cast<pid_t>(worker.pid);
  int status = 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(grace_ms < 0 ? 0 : grace_ms);
  for (;;) {
    const pid_t rc = ::waitpid(pid, &status, WNOHANG);
    if (rc == pid) {
      worker.pid = -1;
      return describe_exit(status);
    }
    if (rc < 0 && errno != EINTR) {
      worker.pid = -1;
      return std::string("waitpid: ") + std::strerror(errno);
    }
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid, SIGKILL);
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  worker.pid = -1;
  return describe_exit(status);
}

}  // namespace cubisg::engine

#else  // !CUBISG_PROCESS_ISOLATION

namespace cubisg::engine {

WorkerProcess spawn_worker(std::shared_ptr<const core::DefenderSolver>,
                           const std::vector<int>&, std::string& error) {
  error = "process isolation not compiled in on this platform/build";
  return WorkerProcess{};
}

bool write_frame(int, FrameType, const std::string&) { return false; }

ReadStatus read_frame(int, int, Frame&) { return ReadStatus::kError; }

void destroy_worker(WorkerProcess& worker) {
  worker.pid = -1;
  worker.fd = -1;
}

std::string reap_worker(WorkerProcess& worker, int) {
  worker.pid = -1;
  worker.fd = -1;
  return "not running";
}

}  // namespace cubisg::engine

#endif  // CUBISG_PROCESS_ISOLATION
