// perfbench: drives engine::SolveEngine through one workload and prints
// its metrics.  Usually started through run.py, which builds it first:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
// the last line of standard output is one JSON object.  The exit code is
// 0 only when every output check passed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "check.hpp"
#include "common/build_info.hpp"
#include "ledger.hpp"
#include "loop.hpp"
#include "obs/trace.hpp"

namespace perfbench {
namespace {

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 11;
/// Jobs the timed phase completes at least, so that p99 has ten samples
/// beyond it; the phase runs past --seconds, up to kMaxTimedSeconds, to
/// reach it.
constexpr std::size_t kMinJobs = 1000;
constexpr double kMaxTimedSeconds = 90.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string workdir = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = std::stoi(v);
    } else if (flag == "--workdir") {
      a.workdir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (find_workload(a.workload) == nullptr) usage("unknown --workload");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();  // drop the NUL padding
    const auto first = s.find_first_not_of(' ');
    const auto last = s.find_last_not_of(' ');
    if (first != std::string::npos) return s.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

bool cpu_has(const char* feature) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (std::string(feature) == "avx2") return __builtin_cpu_supports("avx2");
  if (std::string(feature) == "avx512f") {
    return __builtin_cpu_supports("avx512f");
  }
#endif
  (void)feature;
  return false;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 0;
}

const char* isolation_name(cg::engine::IsolationMode mode) {
  return mode == cg::engine::IsolationMode::kProcess ? "process" : "thread";
}

void print_provenance(const Args& a, const Workload& w) {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name, static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace);
  std::printf(
      "provenance: git_sha=%s compiler=\"%s\" build_type=%s nproc=%d "
      "cpu=\"%s\" avx2=%d avx512f=%d\n",
      cg::buildinfo::kGitSha, cg::buildinfo::kCompiler, PERFBENCH_BUILD_TYPE,
      nproc(), cpu_model().c_str(), cpu_has("avx2") ? 1 : 0,
      cpu_has("avx512f") ? 1 : 0);
  std::printf(
      "config: workers=%zu outstanding=%zu isolation=%s cache=%s "
      "cache_capacity=%zu journal=%d shadow_audit=%d solver=%s\n",
      kWorkers, kOutstanding, isolation_name(w.isolation),
      cg::engine::to_string(w.cache), w.cache_entries, w.journal ? 1 : 0,
      w.shadow_audit ? 1 : 0, solver_spec().name.c_str());
}

void print_inputs(const Inputs& in) {
  std::printf("inputs_digest=%016llx problems=%zu stream=%zu\n",
              static_cast<unsigned long long>(inputs_digest(in)),
              in.problems.size(), in.stream.size());
}

void print_check(const CheckResult& c) {
  std::printf("solutions_digest=%016llx over the first %zu jobs\n",
              static_cast<unsigned long long>(c.solutions_digest),
              c.digest_jobs);
  std::printf(
      "check: %zu jobs, %zu failed; audit::verify %zu/%zu clean; reference "
      "re-solves %zu/%zu bitwise equal\n",
      c.attempted, c.failed, c.audited - c.audit_failures, c.audited,
      c.reference_checked - c.reference_mismatches, c.reference_checked);
}

void print_metrics(const std::vector<Metric>& metrics) {
  std::printf("%-44s %16s  %-6s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("%-44s %16.6g  %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(),
                m.samples > 0 ? std::to_string(m.samples).c_str() : "-");
  }
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name +
           "\": {\"value\": " + buf + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

std::unique_ptr<cg::engine::BatchJournal> open_journal(const Workload& w,
                                                       const Args& a) {
  if (!w.journal) return nullptr;
  const std::string path = a.workdir + "/" + w.name + ".journal";
  std::filesystem::remove(path);
  auto journal = std::make_unique<cg::engine::BatchJournal>();
  std::string error;
  if (!journal->open(path, error)) {
    throw std::runtime_error("cannot open journal: " + error);
  }
  return journal;
}

/// Runs the workload's untimed priming jobs, checked like timed ones, and
/// returns them; the timed phase continues the stream after them.
LoopResult prime(Session& session, const Inputs& inputs, const Workload& w,
                 const Args& a) {
  if (w.prime_jobs == 0) return {};
  LoopOptions opt;
  opt.min_jobs = w.prime_jobs;
  opt.max_seconds = kMaxTimedSeconds;
  opt.seed = a.seed;
  return run_closed_loop(session, inputs, opt);
}

int run_untraced(const Args& a, const Workload& w) {
  std::vector<double> setups;
  std::optional<Inputs> inputs;
  std::optional<Session> session;
  for (int k = 0; k < kSetupRepeats; ++k) {
    session.reset();
    inputs.reset();
    const std::int64_t t0 = now_ns();
    inputs.emplace(make_inputs(w, a.seed));
    session.emplace(w, *inputs);
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  print_inputs(*inputs);
  std::unique_ptr<cg::engine::BatchJournal> journal = open_journal(w, a);
  const LoopResult primed = prime(*session, *inputs, w, a);

  LoopOptions opt;
  opt.seconds = a.seconds;
  opt.min_jobs = kMinJobs;
  opt.max_seconds =
      std::max(a.seconds, std::min(3 * a.seconds, kMaxTimedSeconds));
  opt.journal = journal.get();
  opt.seed = a.seed;
  opt.stream_offset = primed.attempted;
  const double self0 = cpu_seconds(RUSAGE_SELF);
  const double children0 = cpu_seconds(RUSAGE_CHILDREN);
  const LoopResult loop = run_closed_loop(*session, *inputs, opt);
  if (const cg::engine::SolveCache* cache = session->engine->cache()) {
    const cg::engine::CacheStats s = cache->stats();
    std::printf("cache: hits=%lld misses=%lld transplants=%lld "
                "transplant_rejects=%lld evictions=%lld\n",
                static_cast<long long>(s.hits),
                static_cast<long long>(s.misses),
                static_cast<long long>(s.transplants),
                static_cast<long long>(s.transplant_rejects),
                static_cast<long long>(s.evictions));
  }
  // Destroying the engine reaps its worker children, so their CPU time
  // is in RUSAGE_CHILDREN when it is read.
  session->engine.reset();
  if (session->auditor != nullptr) session->auditor->stop();
  const double cpu_self = cpu_seconds(RUSAGE_SELF) - self0;
  const double cpu_children = cpu_seconds(RUSAGE_CHILDREN) - children0;
  const double cpu = cpu_self + cpu_children;
  std::printf("cpu: self_s=%.6f children_s=%.6f\n", cpu_self, cpu_children);
  const double rss = peak_rss_mib();
  if (journal) journal->close();

  CheckResult check = check_outputs(*inputs, loop);
  check.add(check_outputs(*inputs, primed));
  print_check(check);

  const std::vector<double> lat(loop.latency_ms.begin(),
                                loop.latency_ms.end());
  const double solves = static_cast<double>(std::max<std::size_t>(
      1, loop.completed));
  const std::size_t n = lat.size();
  const std::vector<Metric> metrics = {
      {"solves_per_s", static_cast<double>(loop.completed) / loop.wall_seconds,
       "1/s", loop.completed},
      {"latency_p50_ms", quantile(lat, 0.50), "ms", n},
      {"latency_p99_ms", quantile(lat, 0.99), "ms", n},
      {"cpu_ms_per_solve", cpu * 1e3 / solves, "ms", loop.completed},
      {"setup_s", median(setups), "s", setups.size()},
      {"peak_rss_mb", rss, "MiB", 0},
  };
  // failed_frac is 0 on a correct run, so it is printed in the table but
  // left out of the JSON metrics, whose bounds are relative; the JSON
  // carries "attempted" and "failed" instead.
  std::vector<Metric> table = metrics;
  table.push_back({"failed_frac",
                   static_cast<double>(check.failed) /
                       static_cast<double>(
                           std::max<std::size_t>(1, check.attempted)),
                   "ratio", check.attempted});
  print_metrics(table);
  const bool correct = check.failed == 0;
  print_json(correct, check.attempted, check.failed, metrics);
  return correct ? 0 : 1;
}

int run_traced(const Args& a, const Workload& w) {
  const Inputs inputs = make_inputs(w, a.seed);
  print_inputs(inputs);
  std::unique_ptr<cg::engine::BatchJournal> journal = open_journal(w, a);
  Session session(w, inputs);
  TracedRun run;
  run.primed = prime(session, inputs, w, a);
  LoopOptions opt;
  opt.seconds = a.seconds / 2.0;
  opt.max_seconds =
      std::max(opt.seconds, std::min(3 * opt.seconds, kMaxTimedSeconds / 2));
  opt.journal = journal.get();
  opt.seed = a.seed;
  opt.stream_offset = run.primed.attempted;
  run.untraced = run_closed_loop(session, inputs, opt);
  opt.min_jobs = kMinJobs;
  opt.keep_records = true;
  opt.keep_prefix = kCacheReplayJobs;
  opt.stream_offset += run.untraced.attempted;
  cg::obs::set_trace_enabled(true);
  run.traced = run_closed_loop(session, inputs, opt);
  cg::obs::set_trace_enabled(false);
  cg::obs::clear_trace();
  session.engine->shutdown();
  if (session.auditor != nullptr) {
    session.auditor->stop();
    run.audit_observed = session.auditor->observed();
    run.audit_dropped = session.auditor->dropped();
  }
  if (session.engine->cache() != nullptr) {
    run.has_cache = true;
    run.cache = session.engine->cache()->stats();
  }
  if (journal) journal->close();

  // Both halves are checked; the digest covers the untraced half, whose
  // prefix is the one an untraced run digests.
  CheckResult check = check_outputs(inputs, run.untraced);
  check.add(check_outputs(inputs, run.traced));
  check.add(check_outputs(inputs, run.primed));
  print_check(check);

  const std::vector<Metric> metrics =
      layer_metrics(w, inputs, run, a.seed, a.workdir);
  print_metrics(metrics);
  const bool correct = check.failed == 0;
  print_json(correct, check.attempted, check.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  const Workload& w = *find_workload(args.workload);
  print_provenance(args, w);
  std::fflush(stdout);
  try {
    return args.trace == 0 ? run_untraced(args, w) : run_traced(args, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
