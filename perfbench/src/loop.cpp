#include "loop.hpp"

#include <sys/resource.h>

#include <cstdlib>

#include "audit/verify.hpp"
#include "engine/process_pool.hpp"

namespace perfbench {

void CompletionQueue::push(std::size_t index, std::int64_t ready_ns) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ready_.emplace_back(index, ready_ns);
  }
  cv_.notify_one();
}

std::vector<std::pair<std::size_t, std::int64_t>> CompletionQueue::wait_all() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !ready_.empty(); });
  std::vector<std::pair<std::size_t, std::int64_t>> out;
  out.swap(ready_);
  return out;
}

void CompletionQueue::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ready_.clear();
}

Session::Session(const Workload& workload, const Inputs& inputs) {
  const cg::core::SolverSpec spec = solver_spec();
  cg::engine::EngineOptions opt;
  opt.workers = kWorkers;
  opt.isolation = workload.isolation;
  opt.cache.mode = workload.cache;
  if (workload.cache_entries > 0) opt.cache.entries = workload.cache_entries;
  opt.cache.solver_config = cg::core::canonical_solver_config(spec);
  if (workload.shadow_audit) {
    cg::audit::ShadowAuditor::Options aopt;
    aopt.sample_every = 1;
    auditor = std::make_unique<cg::audit::ShadowAuditor>(aopt);
    auditor->start();
  }
  // Timed jobs carry their record index as the tag; warm-up jobs carry a
  // non-numeric tag and are waited for through their futures.
  opt.on_outcome = [this](const cg::engine::SolveJob& job,
                          const cg::engine::JobOutcome& out) {
    const std::int64_t ready = now_ns();
    if (auditor != nullptr &&
        out.status == cg::engine::JobStatus::kCompleted &&
        !out.solution.strategy.empty()) {
      auditor->observe(job.game, job.bounds, out.solution, out.id, out.tag);
    }
    if (!job.tag.empty() && job.tag[0] >= '0' && job.tag[0] <= '9') {
      done.push(std::strtoull(job.tag.c_str(), nullptr, 10), ready);
    }
  };
  engine = std::make_unique<cg::engine::SolveEngine>(
      cg::core::make_solver(spec), opt);
  std::vector<std::future<cg::engine::JobOutcome>> warm;
  for (const Problem& p : inputs.warmup) {
    warm.push_back(engine->submit(p.job("warmup")));
  }
  for (auto& f : warm) f.get();
}

Session::~Session() {
  if (engine != nullptr) engine->shutdown();
  if (auditor != nullptr) auditor->stop();
}

LoopResult run_closed_loop(Session& session, const Inputs& inputs,
                           const LoopOptions& options) {
  struct Pending {
    std::uint32_t problem = 0;
    std::int64_t submit_ns = 0;
    std::future<cg::engine::JobOutcome> future;
  };
  LoopResult result;
  std::unordered_map<std::size_t, Pending> pending;
  session.done.clear();
  const auto submit = [&] {
    const std::size_t index = result.attempted++;
    Pending& p = pending[index];
    p.problem =
        inputs.stream[(options.stream_offset + index) % inputs.stream.size()];
    cg::engine::SolveJob job =
        inputs.problems[p.problem].job(std::to_string(index));
    p.submit_ns = now_ns();
    p.future = session.engine->submit(std::move(job));
  };
  // Reservoir per (kind of job, family): 3 x kFamilies strata.
  cg::Rng rng(options.seed ^ 0x5EEDC0DEULL);
  std::vector<KeptSolution> strata[3 * kFamilies];
  std::size_t seen[3 * kFamilies] = {};

  const std::int64_t t0 = now_ns();
  const auto deadline = [t0](double s) {
    return t0 + static_cast<std::int64_t>(s * 1e9);
  };
  const std::int64_t until = deadline(options.seconds);
  const std::int64_t cap = deadline(options.max_seconds);
  std::size_t finished = 0;
  for (std::size_t i = 0; i < kOutstanding; ++i) submit();
  while (!pending.empty()) {
    for (const auto& [index, ready_ns] : session.done.wait_all()) {
      const auto it = pending.find(index);
      const std::uint32_t problem = it->second.problem;
      const std::int64_t submit_ns = it->second.submit_ns;
      cg::engine::JobOutcome out = it->second.future.get();
      pending.erase(it);
      ++finished;
      // Refill first, so the checks below (and the journal's fsync)
      // overlap the next solve, as in `cubisg batch`, whose queue holds
      // the window's extra jobs.
      const std::int64_t now = now_ns();
      if (now < cap && (now < until || finished < options.min_jobs)) {
        submit();
      }
      if (result.latency_ms.size() <= index) {
        result.latency_ms.resize(index + 1);
      }
      result.latency_ms[index] =
          static_cast<float>(static_cast<double>(ready_ns - submit_ns) * 1e-6);
      JobRecord rec;
      rec.problem = problem;
      rec.queue_seconds = out.queue_seconds;
      rec.solve_seconds = out.solve_seconds;
      rec.cache_hit = out.cache_hit;
      rec.cache_transplant = out.cache_transplant;
      rec.ok = out.status == cg::engine::JobStatus::kCompleted &&
               out.solution.ok();
      bool audit_ok = false;
      if (rec.ok) {
        ++result.completed;
        const Problem& p = inputs.problems[problem];
        const std::int64_t v0 = now_ns();
        audit_ok = cg::audit::verify(p.scenario->game.game, *p.bounds,
                                     out.solution)
                       .ok();
        rec.verify_ms = static_cast<double>(now_ns() - v0) * 1e-6;
        if (!audit_ok) ++result.audit_failures;
        if (index < kDigestJobs || options.journal != nullptr) {
          rec.digest = solution_digest(out.solution);
        }
      }
      if (index < kDigestJobs) {
        if (result.digests.size() <= index) result.digests.resize(index + 1);
        result.digests[index] = rec.digest;
      }
      if (options.journal != nullptr) {
        const std::int64_t j0 = now_ns();
        options.journal->record(out.tag, rec.digest, rec.ok ? "ok" : "failed",
                                rec.cache_hit ? 1 : 0,
                                rec.cache_transplant ? 1 : 0);
        rec.journal_ms = static_cast<double>(now_ns() - j0) * 1e-6;
      }
      if (options.keep_records) {
        if (result.jobs.size() <= index) result.jobs.resize(index + 1);
        result.jobs[index] = rec;
      }
      if (!rec.ok) continue;
      out.solution.telemetry = {};
      const std::size_t kind = rec.cache_hit ? 2 : rec.cache_transplant ? 1 : 0;
      const std::size_t s =
          kind * kFamilies +
          static_cast<std::size_t>(inputs.problems[problem].family);
      const std::size_t n = ++seen[s];
      if (index < options.keep_prefix) {
        result.prefix.push_back({index, problem, audit_ok, out.solution});
      }
      if (strata[s].size() < kReferencePerClass) {
        strata[s].push_back({index, problem, audit_ok, std::move(out.solution)});
      } else {
        const auto slot = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        if (slot < kReferencePerClass) {
          strata[s][slot] = {index, problem, audit_ok, std::move(out.solution)};
        }
      }
    }
  }
  result.wall_seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  for (auto& stratum : strata) {
    for (KeptSolution& k : stratum) result.reference.push_back(std::move(k));
  }
  return result;
}

std::uint64_t solution_digest(const cg::core::DefenderSolution& solution) {
  cg::engine::ResultFrame frame;
  frame.id = 0;
  frame.solution = solution;
  frame.solution.wall_seconds = 0.0;
  frame.solution.telemetry = {};
  const std::string bytes = cg::engine::encode_result(frame);
  return cg::engine::fnv1a64(bytes.data(), bytes.size());
}

double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
