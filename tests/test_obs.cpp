// Observability layer: sharded metrics exactness under concurrency, the
// runtime kill switch, nested trace spans, and the JSON exports.
//
// This binary carries the `tsan` ctest label: the concurrency tests here
// (counter hammering, log-sink swapping mid-emit) are the ones that must
// stay clean under ThreadSanitizer (-DCUBISG_ENABLE_TSAN=ON).
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.hpp"
#include "obs/job_log.hpp"
#include "obs/metrics.hpp"
#include "obs/process_metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"

namespace cubisg {
namespace {

TEST(Metrics, CounterExactUnderConcurrency) {
  obs::Counter& c =
      obs::Registry::global().counter("test.concurrent_counter");
  c.reset();
  constexpr int kTasks = 64;
  constexpr int kAddsPerTask = 10000;
  ThreadPool pool(8);
  std::vector<std::future<void>> done;
  done.reserve(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    done.push_back(pool.submit([&c] {
      for (int i = 0; i < kAddsPerTask; ++i) c.add(1);
    }));
  }
  for (auto& f : done) f.get();
  // Relaxed sharded adds must still be exact once all writers joined.
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kTasks) * kAddsPerTask);
}

TEST(Metrics, CounterRuntimeDisableIsNoOp) {
  obs::Counter& c = obs::Registry::global().counter("test.disabled_counter");
  c.reset();
  obs::set_enabled(false);
  c.add(5);
  obs::set_enabled(true);
  EXPECT_EQ(c.value(), 0);
  c.add(5);
  EXPECT_EQ(c.value(), 5);
}

TEST(Metrics, GaugeSetAndAdd) {
  obs::Gauge& g = obs::Registry::global().gauge("test.gauge");
  g.reset();
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), 2.25);
}

TEST(Metrics, HistogramBucketsCountAndSum) {
  obs::Histogram& h = obs::Registry::global().histogram(
      "test.histogram", std::vector<double>{1.0, 10.0, 100.0});
  h.reset();
  for (double v : {0.5, 0.9, 5.0, 50.0, 500.0, 5000.0}) h.record(v);
  const std::vector<std::int64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 2);       // <= 1
  EXPECT_EQ(counts[1], 1);       // (1, 10]
  EXPECT_EQ(counts[2], 1);       // (10, 100]
  EXPECT_EQ(counts[3], 2);       // overflow
  EXPECT_EQ(h.count(), 6);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 0.9 + 5.0 + 50.0 + 500.0 + 5000.0);
}

TEST(Metrics, SnapshotDeltaSinceBaseline) {
  obs::Counter& c = obs::Registry::global().counter("test.delta_counter");
  c.reset();
  c.add(3);
  const obs::MetricsSnapshot baseline = obs::Registry::global().snapshot();
  c.add(4);
  const obs::MetricsSnapshot delta =
      obs::Registry::global().snapshot().delta_since(baseline);
  EXPECT_EQ(delta.counter("test.delta_counter"), 4);
  EXPECT_EQ(delta.counter("test.never_registered"), 0);
}

TEST(Metrics, SolveScopeCapturesOnlyItsWindow) {
  obs::Counter& c = obs::Registry::global().counter("test.scope_counter");
  c.reset();
  c.add(100);
  obs::SolveScope scope;
  c.add(7);
  const obs::SolveTelemetry t = scope.finish();
  EXPECT_EQ(t.counter("test.scope_counter"), 7);
  EXPECT_GE(t.wall_seconds, 0.0);
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"test.scope_counter\":7"), std::string::npos);
}

TEST(Metrics, JsonContainsAllThreeKinds) {
  obs::Registry::global().counter("test.json_counter").add(2);
  obs::Registry::global().gauge("test.json_gauge").set(1.5);
  obs::Registry::global().histogram("test.json_histogram").record(0.5);
  const std::string json = obs::Registry::global().snapshot().to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_gauge\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"bounds\""), std::string::npos);
  EXPECT_NE(json.find("\"counts\""), std::string::npos);
}

TEST(Metrics, SameKindReRegistrationReturnsTheSameMetric) {
  // Registration is independent of the recording switch, so no OBS skip.
  obs::Counter& a = obs::Registry::global().counter("test.kind_stable");
  obs::Counter& b = obs::Registry::global().counter("test.kind_stable");
  EXPECT_EQ(&a, &b);
  obs::Histogram& h1 =
      obs::Registry::global().histogram("test.kind_stable_hist", {1.0, 2.0});
  // Bounds are first-registration-wins; re-registering is still the same
  // family, not a conflict.
  obs::Histogram& h2 =
      obs::Registry::global().histogram("test.kind_stable_hist", {9.0});
  EXPECT_EQ(&h1, &h2);
  ASSERT_EQ(h2.bounds().size(), 2u);
}

TEST(Metrics, CrossKindReRegistrationThrows) {
  // A name silently shadowed across kinds used to collapse onto one
  // Prometheus family and drop whichever sorted second; now it is a
  // programming error surfaced at registration time.
  obs::Registry::global().counter("test.kind_conflict");
  EXPECT_THROW(obs::Registry::global().gauge("test.kind_conflict"),
               std::logic_error);
  EXPECT_THROW(obs::Registry::global().histogram("test.kind_conflict"),
               std::logic_error);
  obs::Registry::global().gauge("test.kind_conflict_gauge");
  EXPECT_THROW(obs::Registry::global().counter("test.kind_conflict_gauge"),
               std::logic_error);
  // The original registration keeps working after a rejected conflict.
  EXPECT_NO_THROW(obs::Registry::global().counter("test.kind_conflict"));
}

TEST(Trace, NestedSpansRecordDepthAndContainment) {
  obs::set_trace_enabled(true);
  obs::clear_trace();
  {
    obs::TraceSpan outer("test.outer");
    {
      obs::TraceSpan inner("test.inner");
    }
  }
  obs::set_trace_enabled(false);
  const std::vector<obs::TraceEvent> events = obs::collect_trace_events();
  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* inner = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "test.outer") outer = &e;
    if (e.name == "test.inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_EQ(inner->depth, outer->depth + 1);
  // The child interval nests inside the parent interval.
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->dur_ns,
            outer->start_ns + outer->dur_ns);
}

TEST(Trace, DisabledSpansRecordNothing) {
  obs::set_trace_enabled(false);
  obs::clear_trace();
  {
    obs::TraceSpan span("test.invisible");
  }
  for (const obs::TraceEvent& e : obs::collect_trace_events()) {
    EXPECT_NE(e.name, "test.invisible");
  }
}

TEST(Trace, ChromeJsonRoundTrip) {
  obs::set_trace_enabled(true);
  obs::clear_trace();
  {
    obs::TraceSpan outer("test.export_outer");
    obs::TraceSpan inner("test.export_inner");
  }
  obs::set_trace_enabled(false);
  const std::string json = obs::trace_to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.export_outer\""), std::string::npos);
  EXPECT_NE(json.find("\"test.export_inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Balanced braces/brackets as a cheap well-formedness check.
  std::int64_t braces = 0;
  std::int64_t brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (ch == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += ch == '{' ? 1 : (ch == '}' ? -1 : 0);
    brackets += ch == '[' ? 1 : (ch == ']' ? -1 : 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ThreadPoolTelemetry, TasksFeedLatencyHistogramAndCounter) {
  const std::int64_t before =
      obs::Registry::global().counter("threadpool.tasks_total").value();
  const std::int64_t hist_before = obs::Registry::global()
                                       .histogram("threadpool.task_latency")
                                       .count();
  {
    ThreadPool pool(2);
    std::vector<std::future<int>> done;
    for (int i = 0; i < 32; ++i) {
      done.push_back(pool.submit([i] { return i; }));
    }
    for (auto& f : done) f.get();
  }
  EXPECT_EQ(
      obs::Registry::global().counter("threadpool.tasks_total").value(),
      before + 32);
  EXPECT_EQ(obs::Registry::global()
                .histogram("threadpool.task_latency")
                .count(),
            hist_before + 32);
}

TEST(Log, EmitFeedsLevelCounter) {
  const LogLevel saved = log_level();
  set_log_sink([](LogLevel, const std::string&) {});  // silence stderr
  set_log_level(LogLevel::kInfo);
  const std::int64_t before =
      obs::Registry::global().counter("log.lines_total.info").value();
  CUBISG_LOG(LogLevel::kInfo) << "counted line";
  CUBISG_LOG(LogLevel::kDebug) << "below the level, not counted";
  EXPECT_EQ(
      obs::Registry::global().counter("log.lines_total.info").value(),
      before + 1);
  set_log_level(saved);
  set_log_sink(nullptr);
}

TEST(Log, SinkSwapWhileWorkersEmitIsSafe) {
  // The emit path copies the sink under the mutex and invokes the copy
  // outside it, so swapping sinks mid-emit must never race or crash.
  // TSAN is the real judge here.
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kInfo);
  std::atomic<int> delivered{0};
  set_log_sink([&delivered](LogLevel, const std::string&) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  });
  {
    ThreadPool pool(4);
    std::vector<std::future<void>> done;
    for (int t = 0; t < 8; ++t) {
      done.push_back(pool.submit([] {
        for (int i = 0; i < 200; ++i) {
          CUBISG_LOG(LogLevel::kInfo) << "worker line " << i;
        }
      }));
    }
    for (int swap = 0; swap < 50; ++swap) {
      set_log_sink([&delivered](LogLevel, const std::string&) {
        delivered.fetch_add(1, std::memory_order_relaxed);
      });
    }
    for (auto& f : done) f.get();
  }
  EXPECT_EQ(delivered.load(), 8 * 200);
  set_log_level(saved);
  set_log_sink(nullptr);
}

/// Balanced braces/brackets outside strings: a cheap well-formedness
/// check for the hand-rolled JSON writers.
void expect_balanced_json(const std::string& json) {
  std::int64_t braces = 0;
  std::int64_t brackets = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char ch : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (ch == '\\') {
        escaped = true;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    in_string = ch == '"';
    braces += ch == '{' ? 1 : (ch == '}' ? -1 : 0);
    brackets += ch == '[' ? 1 : (ch == ']' ? -1 : 0);
  }
  EXPECT_FALSE(in_string) << json;
  EXPECT_EQ(braces, 0) << json;
  EXPECT_EQ(brackets, 0) << json;
}

/// A completed job's record with `targets` as its payload marker.
obs::JobRecord job_record(std::uint64_t job_id, std::size_t targets = 0) {
  obs::JobRecord r;
  r.job_id = job_id;
  r.job_status = "completed";
  r.solver = "ring-test";
  r.has_solution = true;
  r.targets = targets;
  return r;
}

TEST(JobLog, RingEvictsOldestAndKeepsIds) {
  obs::JobLog log(4);
  for (int i = 1; i <= 10; ++i) {
    const std::int64_t id =
        log.add(job_record(static_cast<std::uint64_t>(i),
                           static_cast<std::size_t>(i)));
    EXPECT_EQ(id, i);  // ids count every add, not just retained ones
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.capacity(), 4u);
  EXPECT_EQ(log.total(), 10);
  const std::vector<obs::JobRecord> recent = log.recent();
  ASSERT_EQ(recent.size(), 4u);
  // Oldest first: adds 7..10 survive, 1..6 were evicted.
  for (std::size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].id, static_cast<std::int64_t>(7 + i));
    EXPECT_EQ(recent[i].targets, static_cast<std::size_t>(7 + i));
  }
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total(), 10);  // history counter survives
  EXPECT_EQ(log.add(job_record(11)), 11);  // and so do the ids
}

TEST(JobLog, JsonCarriesTrajectoryAndTotals) {
  obs::JobLog log(8);
  obs::JobRecord r = job_record(3, 5);
  r.solver = "cubis-test";
  r.status = "optimal";
  r.cache = obs::CacheVerdict::kTransplant;
  r.attempts = 2;
  r.lb = 0.5;
  r.ub = 0.625;
  r.worst_case_utility = 0.6;
  r.binary_steps = 2;
  r.trajectory.push_back({0.0, 1.0, 2, 1});
  r.trajectory.push_back({0.5, 0.625, 1, 3});
  log.add(std::move(r));
  const std::string json = log.to_json(obs::JobView::kAll);
  EXPECT_NE(json.find("\"total\":1"), std::string::npos);
  EXPECT_NE(json.find("\"capacity\":8"), std::string::npos);
  EXPECT_NE(json.find("\"reports\":["), std::string::npos);
  EXPECT_NE(json.find("\"job_id\":3"), std::string::npos);
  EXPECT_NE(json.find("\"job_status\":\"completed\""), std::string::npos);
  EXPECT_NE(json.find("\"attempts\":2"), std::string::npos);
  EXPECT_NE(json.find("\"cache\":\"transplant\""), std::string::npos);
  EXPECT_NE(json.find("\"solver\":\"cubis-test\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"optimal\""), std::string::npos);
  EXPECT_NE(json.find("\"trajectory\""), std::string::npos);
  EXPECT_NE(json.find("\"feasible\":2"), std::string::npos);
  EXPECT_NE(json.find("\"infeasible\":3"), std::string::npos);
  // Gap of the second round: 0.625 - 0.5.
  EXPECT_NE(json.find("0.125"), std::string::npos);
  // Not slow, not audited: no forensic or verdict fields.
  EXPECT_EQ(json.find("\"phases\""), std::string::npos);
  EXPECT_EQ(json.find("\"worst_code\""), std::string::npos);
  expect_balanced_json(json);
}

TEST(JobLog, ConcurrentAddsKeepRingConsistent) {
  obs::JobLog log(16);
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        obs::JobRecord r = job_record(static_cast<std::uint64_t>(i + 1));
        r.solver = "writer-" + std::to_string(t);
        r.trajectory.push_back({0.0, 1.0, 1, 0});
        // A sprinkling of flagged records exercises the retention scan.
        r.slow = i % 97 == 0;
        log.add(std::move(r));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(log.size(), 16u);
  EXPECT_EQ(log.total(), std::int64_t{kThreads} * kAddsPerThread);
  EXPECT_EQ(log.total(obs::JobView::kSlow), std::int64_t{kThreads} * 6);
  // All ids unique and within the issued range.
  const std::vector<obs::JobRecord> recent = log.recent();
  for (std::size_t i = 1; i < recent.size(); ++i) {
    EXPECT_LT(recent[i - 1].id, recent[i].id);  // oldest-first ordering
  }
}

TEST(Trace, JobScopeTagsSpansAndManualEvents) {
  obs::set_trace_enabled(true);
  obs::clear_trace();
  EXPECT_EQ(obs::current_trace_job(), 0u);
  {
    obs::TraceJobScope scope(42);
    EXPECT_EQ(obs::current_trace_job(), 42u);
    obs::TraceSpan span("test.tagged");
  }
  EXPECT_EQ(obs::current_trace_job(), 0u);
  const std::int64_t now = obs::trace_now_ns();
  obs::record_trace_event("test.manual", now - 1000, 1000, 7);
  obs::set_trace_enabled(false);
  const std::vector<obs::TraceEvent> events = obs::collect_trace_events();
  const obs::TraceEvent* tagged = nullptr;
  const obs::TraceEvent* manual = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "test.tagged") tagged = &e;
    if (e.name == "test.manual") manual = &e;
  }
  ASSERT_NE(tagged, nullptr);
  EXPECT_EQ(tagged->job, 42u);
  ASSERT_NE(manual, nullptr);
  EXPECT_EQ(manual->job, 7u);
  EXPECT_EQ(manual->dur_ns, 1000);
  // Job ids surface in the Chrome export args.
  obs::set_trace_enabled(true);
  const std::string json = obs::trace_to_chrome_json();
  obs::set_trace_enabled(false);
  EXPECT_NE(json.find("\"job\":42"), std::string::npos);
  EXPECT_NE(json.find("\"job\":7"), std::string::npos);
  obs::clear_trace();
}

// Satellite coverage: many workers emitting spans while exports run
// concurrently.  The export must stay valid Chrome JSON, every worker's
// events must carry its job id, and per-thread completion timestamps must
// be monotonic.  TSAN judges the buffer/export synchronization.
TEST(Trace, ConcurrentSpansExportValidChromeJson) {
  obs::set_trace_enabled(true);
  obs::clear_trace();
  constexpr int kThreads = 6;
  constexpr int kSpansPerThread = 200;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&go, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      obs::TraceJobScope scope(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::TraceSpan outer("test.ct.outer");
        obs::TraceSpan inner("test.ct.inner");
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Exports race the writers; they only see completed events but must
  // never tear or crash.
  for (int i = 0; i < 5; ++i) {
    const std::string json = obs::trace_to_chrome_json();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  }
  for (std::thread& t : threads) t.join();
  obs::set_trace_enabled(false);

  const std::vector<obs::TraceEvent> events = obs::collect_trace_events();
  std::map<int, std::int64_t> last_end_by_tid;
  std::map<std::uint64_t, int> events_by_job;
  for (const obs::TraceEvent& e : events) {
    if (e.name != "test.ct.outer" && e.name != "test.ct.inner") continue;
    EXPECT_GE(e.start_ns, 0);
    EXPECT_GE(e.dur_ns, 0);
    EXPECT_GE(e.job, 1u);
    EXPECT_LE(e.job, static_cast<std::uint64_t>(kThreads));
    ++events_by_job[e.job];
    // Spans complete in order on each thread, so per-tid completion
    // timestamps are monotonic in buffer order.
    const std::int64_t end_ns = e.start_ns + e.dur_ns;
    auto it = last_end_by_tid.find(e.tid);
    if (it != last_end_by_tid.end()) EXPECT_GE(end_ns, it->second);
    last_end_by_tid[e.tid] = end_ns;
  }
  ASSERT_EQ(events_by_job.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [job, count] : events_by_job) {
    EXPECT_EQ(count, 2 * kSpansPerThread) << "job " << job;
  }

  // Final export: full well-formedness check.
  obs::set_trace_enabled(true);
  const std::string json = obs::trace_to_chrome_json();
  obs::set_trace_enabled(false);
  std::int64_t braces = 0;
  std::int64_t brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (ch == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += ch == '{' ? 1 : (ch == '}' ? -1 : 0);
    brackets += ch == '[' ? 1 : (ch == ']' ? -1 : 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  obs::clear_trace();
}

TEST(Trace, PhaseAccountingAccumulatesPerName) {
  obs::set_phase_accounting_enabled(true);
  obs::begin_phase_accounting();
  for (int i = 0; i < 3; ++i) {
    obs::TraceSpan span("test.phase_a");
  }
  {
    obs::TraceSpan span("test.phase_b");
  }
  const std::vector<obs::PhaseTotal> phases =
      obs::collect_phase_accounting();
  obs::set_phase_accounting_enabled(false);
  const obs::PhaseTotal* a = nullptr;
  const obs::PhaseTotal* b = nullptr;
  for (const obs::PhaseTotal& p : phases) {
    if (p.name == "test.phase_a") a = &p;
    if (p.name == "test.phase_b") b = &p;
  }
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->count, 3);
  EXPECT_GE(a->total_ns, 0);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->count, 1);
  // Phase accounting alone must not feed the trace buffers.
  for (const obs::TraceEvent& e : obs::collect_trace_events()) {
    EXPECT_NE(e.name, "test.phase_a");
  }
}

#if defined(__GNUC__)
__attribute__((noinline))
#endif
double
profiler_test_burn(int iters) {
  volatile double acc = 0.0;
  for (int i = 0; i < iters; ++i) acc = acc + 1e-9 * i;
  return acc;
}

TEST(Profiler, CapturesSamplesFromBusyThread) {
  if (!obs::profiler_available()) {
    // Stub surface: every entry point must be safe to call.
    EXPECT_FALSE(obs::profiler_start({}));
    EXPECT_FALSE(obs::profiler_running());
    EXPECT_NE(obs::profiler_last_error().find("compiled out"),
              std::string::npos);
    obs::profiler_register_this_thread();
    obs::profiler_unregister_this_thread();
    obs::profiler_stop();
    EXPECT_EQ(obs::profiler_samples_total(), 0);
    EXPECT_TRUE(obs::profiler_collapsed_stacks().empty());
    GTEST_SKIP() << "profiler compiled out or unsupported platform";
  }
  obs::profiler_register_this_thread();
  obs::profiler_clear();
  obs::ProfilerOptions opts;
  opts.hz = 997;  // dense sampling keeps the busy window short
  ASSERT_TRUE(obs::profiler_start(opts)) << obs::profiler_last_error();
  EXPECT_TRUE(obs::profiler_running());
  // A second start while running must fail and leave sampling intact.
  EXPECT_FALSE(obs::profiler_start(opts));
  EXPECT_TRUE(obs::profiler_running());
  // Burn until samples arrive (bounded; ~250ms of work at 997 Hz yields
  // hundreds of samples even on a loaded box).
  double sink = 0.0;
  for (int round = 0; round < 200 && obs::profiler_samples_total() < 5;
       ++round) {
    sink += profiler_test_burn(2000000);
  }
  obs::profiler_stop();
  EXPECT_FALSE(obs::profiler_running());
  EXPECT_GT(sink, 0.0);
  EXPECT_GE(obs::profiler_samples_total(), 5);

  const std::string collapsed = obs::profiler_collapsed_stacks();
  ASSERT_FALSE(collapsed.empty());
  // Every line is "frame[;frame...] count\n".
  std::size_t begin = 0;
  while (begin < collapsed.size()) {
    std::size_t end = collapsed.find('\n', begin);
    ASSERT_NE(end, std::string::npos) << "unterminated collapsed line";
    const std::string line = collapsed.substr(begin, end - begin);
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(space, 0u) << line;
    for (std::size_t i = space + 1; i < line.size(); ++i) {
      EXPECT_TRUE(line[i] >= '0' && line[i] <= '9') << line;
    }
    begin = end + 1;
  }

  obs::profiler_clear();
  EXPECT_EQ(obs::profiler_samples_total(), 0);
  EXPECT_TRUE(obs::profiler_collapsed_stacks().empty());
  obs::profiler_unregister_this_thread();
}

TEST(Profiler, SamplesRegisteredWorkerThreads) {
  if (!obs::profiler_available()) {
    GTEST_SKIP() << "profiler compiled out or unsupported platform";
  }
  obs::profiler_clear();
  ASSERT_TRUE(obs::profiler_start({})) << obs::profiler_last_error();
  std::atomic<bool> stop{false};
  // ProfiledThreadScope registers while sampling is live, so the timer
  // arms immediately — the path engine/pool workers take.
  std::thread worker([&stop] {
    obs::ProfiledThreadScope profiled;
    while (!stop.load(std::memory_order_acquire)) {
      profiler_test_burn(500000);
    }
  });
  for (int round = 0; round < 200 && obs::profiler_samples_total() < 3;
       ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_release);
  worker.join();
  obs::profiler_stop();
  EXPECT_GE(obs::profiler_samples_total(), 3);
  obs::profiler_clear();
}

TEST(JobLog, SlowViewHoldsOnlyRecordsOverTheArmedSlo) {
  obs::JobLog log(4);
  EXPECT_FALSE(log.over_slo(10.0));  // disarmed: nothing is slow
  log.add(job_record(1));
  EXPECT_TRUE(log.recent(obs::JobView::kSlow).empty());

  log.arm(0.25);
  EXPECT_TRUE(log.armed());
  EXPECT_DOUBLE_EQ(log.slo_seconds(), 0.25);
  EXPECT_FALSE(log.over_slo(0.2));
  EXPECT_TRUE(log.over_slo(0.25));  // meeting the SLO counts
  for (int i = 2; i <= 11; ++i) {
    obs::JobRecord r = job_record(static_cast<std::uint64_t>(i));
    r.solve_seconds = 0.3 + 0.01 * i;
    r.slow = log.over_slo(r.solve_seconds);
    EXPECT_EQ(log.add(std::move(r)), i);
  }
  // Every retained record is flagged, so the oldest go first.
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total(obs::JobView::kSlow), 10);
  const std::vector<obs::JobRecord> slow = log.recent(obs::JobView::kSlow);
  ASSERT_EQ(slow.size(), 4u);
  for (std::size_t i = 0; i < slow.size(); ++i) {
    EXPECT_EQ(slow[i].id, static_cast<std::int64_t>(8 + i));
    EXPECT_EQ(slow[i].job_id, 8 + i);
  }
  log.disarm();
  EXPECT_FALSE(log.armed());
  EXPECT_FALSE(log.over_slo(10.0));
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total(obs::JobView::kSlow), 10);
}

TEST(JobLog, ArmTogglesPhaseAccounting) {
  obs::JobLog log(2);
  EXPECT_FALSE(obs::phase_accounting_enabled());
  log.arm(1.0);
  EXPECT_TRUE(obs::phase_accounting_enabled());
  log.disarm();
  EXPECT_FALSE(obs::phase_accounting_enabled());
}

TEST(JobLog, JsonCarriesForensicFields) {
  obs::JobLog log(8);
  log.arm(0.1);
  obs::JobRecord r = job_record(9);
  r.tag = "t200_k10";
  r.worker = 2;
  r.queue_seconds = 0.004;
  r.solve_seconds = 0.35;
  r.slow = log.over_slo(r.solve_seconds);
  r.slo_seconds = 0.1;
  r.deadline_seconds = 1.5;
  r.budget_nodes = 123;
  r.budget_iterations = 456;
  r.phases.push_back({"cubis.round", 2000000, 5});
  r.solver = "cubis";
  r.status = "optimal";
  log.add(std::move(r));
  log.add(job_record(10));  // fast: in /solvez, not in /slowz
  log.disarm();
  const std::string json = log.to_json(obs::JobView::kSlow);
  EXPECT_NE(json.find("\"armed\":false"), std::string::npos);
  EXPECT_NE(json.find("\"entries\":["), std::string::npos);
  EXPECT_NE(json.find("\"total\":1"), std::string::npos);
  EXPECT_NE(json.find("\"slo_seconds\":0.1"), std::string::npos);
  EXPECT_NE(json.find("\"job_id\":9"), std::string::npos);
  EXPECT_EQ(json.find("\"job_id\":10"), std::string::npos);
  EXPECT_NE(json.find("\"tag\":\"t200_k10\""), std::string::npos);
  EXPECT_NE(json.find("\"worker\":2"), std::string::npos);
  EXPECT_NE(json.find("\"deadline_seconds\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"nodes_charged\":123"), std::string::npos);
  EXPECT_NE(json.find("\"iterations_charged\":456"), std::string::npos);
  EXPECT_NE(json.find("\"cubis.round\""), std::string::npos);
  EXPECT_NE(json.find("\"solver\":\"cubis\""), std::string::npos);
  expect_balanced_json(json);
  const std::string all = log.to_json(obs::JobView::kAll);
  EXPECT_NE(all.find("\"job_id\":10"), std::string::npos);
  expect_balanced_json(all);
}

TEST(JobLog, AuditVerdictAttachesToTheNewestRecordOfItsJob) {
  obs::JobLog log(8);
  log.add(job_record(5));
  const std::int64_t newest = log.add(job_record(5));
  log.add(job_record(6));
  obs::AuditVerdict clean;
  clean.worst_code = "ok";
  EXPECT_EQ(log.attach_audit(6, "t", "cubis", clean), 3);
  EXPECT_EQ(log.attach_audit(99, "t", "cubis", clean), 0);  // dropped
  obs::AuditVerdict bad;
  bad.worst_code = "worst-case-mismatch";
  bad.findings = 1;
  EXPECT_EQ(log.attach_audit(5, "t", "cubis", bad), newest);
  EXPECT_EQ(log.size(), 3u);  // attached, not inserted
  // No record of job 7 (and job 0 never matches): audit-only records.
  const std::int64_t orphan = log.attach_audit(7, "orphan", "cubis", bad);
  EXPECT_EQ(orphan, 4);
  EXPECT_EQ(log.attach_audit(0, "verify", "cubis", bad), 5);
  EXPECT_EQ(log.total(obs::JobView::kFailedAudit), 3);
  const std::vector<obs::JobRecord> failed =
      log.recent(obs::JobView::kFailedAudit);
  ASSERT_EQ(failed.size(), 3u);
  EXPECT_EQ(failed[0].id, newest);
  EXPECT_EQ(failed[1].tag, "orphan");
  EXPECT_TRUE(failed[1].job_status.empty());
  const std::string json = log.to_json(obs::JobView::kFailedAudit);
  EXPECT_NE(json.find("\"failures\":["), std::string::npos);
  EXPECT_NE(json.find("\"worst_code\":\"worst-case-mismatch\""),
            std::string::npos);
  // The audit-only record renders no job section.
  EXPECT_EQ(failed[1].to_json().find("\"job_status\""), std::string::npos);
  expect_balanced_json(json);
}

// Retention: a burst of ordinary traffic larger than the ring must not
// flush a slow job or an audit failure out of view.
TEST(JobLog, FlaggedRecordsSurviveAnUnflaggedBurst) {
  obs::JobLog log;  // the production capacity
  obs::JobRecord slow = job_record(1);
  slow.slow = true;
  const std::int64_t slow_id = log.add(std::move(slow));
  const std::int64_t failed_id = log.add(job_record(2));
  obs::AuditVerdict bad;
  bad.worst_code = "infeasible-strategy";
  bad.findings = 2;
  ASSERT_EQ(log.attach_audit(2, "", "cubis", bad), failed_id);
  for (std::size_t i = 0; i < obs::JobLog::kCapacity; ++i) {
    log.add(job_record(100 + i));
  }
  EXPECT_EQ(log.size(), obs::JobLog::kCapacity);
  const std::vector<obs::JobRecord> all = log.recent();
  EXPECT_EQ(all.front().id, slow_id);
  EXPECT_EQ(all[1].id, failed_id);
  // The two oldest unflagged records were the ones evicted.
  EXPECT_EQ(all[2].job_id, 102u);
  EXPECT_EQ(all.back().job_id, 100 + obs::JobLog::kCapacity - 1);
  ASSERT_EQ(log.recent(obs::JobView::kSlow).size(), 1u);
  ASSERT_EQ(log.recent(obs::JobView::kFailedAudit).size(), 1u);
}

// Caller text (scenario paths, audit details) may hold any byte: every
// one below 0x20 must be \u-escaped so the views stay parseable JSON.
TEST(JobLog, ControlBytesInTagAndDetailAreEscaped) {
  obs::JobLog log(2);
  obs::JobRecord r = job_record(1);
  r.tag = "a\tb\x01.scn";
  log.add(std::move(r));
  obs::AuditVerdict bad;
  bad.worst_code = "worst-case-mismatch";
  bad.detail = "line1\nline2\t\x01\"q\"\\";
  bad.findings = 1;
  log.attach_audit(1, "", "cubis", bad);
  for (const obs::JobView view :
       {obs::JobView::kAll, obs::JobView::kFailedAudit}) {
    const std::string json = log.to_json(view);
    for (const char ch : json) {
      EXPECT_GE(static_cast<unsigned char>(ch), 0x20) << json;
    }
    EXPECT_NE(json.find("a\\u0009b\\u0001.scn"), std::string::npos) << json;
    EXPECT_NE(json.find("line1\\u000aline2\\u0009\\u0001\\\"q\\\"\\\\"),
              std::string::npos)
        << json;
    expect_balanced_json(json);
  }
}

TEST(ProcessMetrics, PopulatesSelfGauges) {
  if (!obs::process_metrics_available()) {
    obs::update_process_metrics();  // must be a safe no-op
    GTEST_SKIP() << "process metrics compiled out or unsupported platform";
  }
  obs::update_process_metrics();
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  auto gauge = [&snap](const std::string& name) {
    for (const auto& g : snap.gauges) {
      if (g.name == name) return g.value;
    }
    ADD_FAILURE() << "gauge " << name << " not registered";
    return 0.0;
  };
  EXPECT_GT(gauge("process.resident_memory_bytes"), 0.0);
  EXPECT_GT(gauge("process.virtual_memory_bytes"), 0.0);
  EXPECT_GE(gauge("process.cpu_user_seconds"), 0.0);
  EXPECT_GE(gauge("process.cpu_system_seconds"), 0.0);
  EXPECT_GT(gauge("process.open_fds"), 0.0);
  EXPECT_GE(gauge("process.uptime_seconds"), 0.0);
}

}  // namespace
}  // namespace cubisg
