// Live HTTP exporter: routing, status codes, content types, and — the
// reason this binary carries the `tsan` ctest label — concurrent
// exposition: scraper threads GET /metrics while worker threads hammer
// counters and histograms, and every response must be well-formed with
// internally consistent histograms (no torn snapshots).
//
// Requests are issued with a raw POSIX-socket helper so the tests stay
// dependency-free like the server itself.  On non-POSIX targets the
// exporter is compiled out and only the availability check runs.
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/http_exporter.hpp"
#include "obs/job_log.hpp"
#include "obs/metrics.hpp"
#include "obs/process_metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/prometheus.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#define CUBISG_TEST_HAVE_SOCKETS 1
#else
#define CUBISG_TEST_HAVE_SOCKETS 0
#endif

namespace cubisg {
namespace {

struct HttpResponse {
  bool ok = false;       ///< transport succeeded (socket/connect/recv)
  int status = 0;        ///< parsed HTTP status code
  std::string headers;   ///< raw header block
  std::string body;
};

#if CUBISG_TEST_HAVE_SOCKETS
/// Minimal blocking HTTP/1.0-style GET against 127.0.0.1:port.
HttpResponse http_request(int port, const std::string& request_line) {
  HttpResponse resp;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return resp;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    ::close(fd);
    return resp;
  }
  const std::string request =
      request_line + "\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return resp;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0) {
      ::close(fd);
      return resp;
    }
    if (n == 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t split = raw.find("\r\n\r\n");
  if (split == std::string::npos || raw.compare(0, 5, "HTTP/") != 0) {
    return resp;
  }
  resp.headers = raw.substr(0, split);
  resp.body = raw.substr(split + 4);
  const std::size_t sp = resp.headers.find(' ');
  if (sp == std::string::npos) return resp;
  resp.status = std::stoi(resp.headers.substr(sp + 1));
  resp.ok = true;
  return resp;
}

HttpResponse http_get(int port, const std::string& path) {
  return http_request(port, "GET " + path + " HTTP/1.1");
}
#endif  // CUBISG_TEST_HAVE_SOCKETS

#if CUBISG_TEST_HAVE_SOCKETS
/// Checks one /metrics body for structural sanity and histogram
/// self-consistency: every line is a comment or `name[{labels}] value`,
/// buckets are cumulative, and each `_count` equals its +Inf bucket.
void check_exposition_consistent(const std::string& body) {
  std::size_t pos = 0;
  std::int64_t last_bucket = 0;
  std::int64_t inf_bucket = -1;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "unterminated final line";
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      if (line.find(" histogram") != std::string::npos) {
        last_bucket = 0;
        inf_bucket = -1;
      }
      continue;
    }
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    ASSERT_LT(sp + 1, line.size()) << line;
    const std::string value = line.substr(sp + 1);
    if (line.find("_bucket{le=") != std::string::npos) {
      const std::int64_t v = std::stoll(value);
      EXPECT_GE(v, last_bucket) << "non-cumulative bucket: " << line;
      last_bucket = v;
      if (line.find("le=\"+Inf\"") != std::string::npos) inf_bucket = v;
    } else if (line.size() > sp && line.find("_count ") == sp - 6 &&
               inf_bucket >= 0) {
      EXPECT_EQ(std::stoll(value), inf_bucket)
          << "+Inf bucket != _count: " << line;
    }
  }
}
#endif  // CUBISG_TEST_HAVE_SOCKETS

TEST(HttpExporter, AvailabilityMatchesBuild) {
#if CUBISG_TEST_HAVE_SOCKETS
  EXPECT_TRUE(obs::http_exporter_available());
#else
  EXPECT_FALSE(obs::http_exporter_available());
  obs::HttpExporter server;
  EXPECT_FALSE(server.start());
  EXPECT_NE(server.last_error().find("unavailable"), std::string::npos);
#endif
}

#if CUBISG_TEST_HAVE_SOCKETS

class HttpExporterFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::HttpExporterOptions opts;
    opts.port = 0;  // ephemeral: tests never collide on a fixed port
    ASSERT_TRUE(server_.start(opts)) << server_.last_error();
    ASSERT_TRUE(server_.running());
    ASSERT_GT(server_.port(), 0);
  }

  obs::HttpExporter server_;
};

TEST_F(HttpExporterFixture, HealthzIs200Ok) {
  const HttpResponse resp = http_get(server_.port(), "/healthz");
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, "ok\n");
}

TEST_F(HttpExporterFixture, MetricsServesPrometheusText) {
  obs::Registry::global().counter("httptest.hits").add(3);
  const HttpResponse resp = http_get(server_.port(), "/metrics");
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.headers.find(obs::kPrometheusContentType),
            std::string::npos);
  EXPECT_NE(resp.body.find("httptest_hits_total 3"), std::string::npos);
  // The exporter instruments itself; its own families must be present.
  EXPECT_NE(resp.body.find("# TYPE obs_http_requests_total counter"),
            std::string::npos);
  check_exposition_consistent(resp.body);
}

TEST_F(HttpExporterFixture, MetricsIgnoresQueryString) {
  const HttpResponse resp =
      http_get(server_.port(), "/metrics?format=prometheus");
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.status, 200);
}

TEST_F(HttpExporterFixture, SolvezServesReportJson) {
  obs::JobRecord report;
  report.job_status = "completed";
  report.solver = "http-test-solver";
  report.has_solution = true;
  report.status = "optimal";
  report.targets = 9;
  report.lb = 1.25;
  report.ub = 1.5;
  report.trajectory.push_back({1.25, 1.5, 1, 2});
  obs::JobLog::global().add(std::move(report));

  const HttpResponse resp = http_get(server_.port(), "/solvez");
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.headers.find("application/json"), std::string::npos);
  EXPECT_NE(resp.body.find("\"reports\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"http-test-solver\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"trajectory\""), std::string::npos);
}

TEST_F(HttpExporterFixture, UnknownPathIs404) {
  const HttpResponse resp = http_get(server_.port(), "/nope");
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.status, 404);
}

TEST_F(HttpExporterFixture, NonGetIs405) {
  const HttpResponse resp =
      http_request(server_.port(), "POST /metrics HTTP/1.1");
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.status, 405);
}

TEST_F(HttpExporterFixture, StopIsIdempotentAndRestartable) {
  server_.stop();
  EXPECT_FALSE(server_.running());
  server_.stop();  // second stop is a no-op
  obs::HttpExporterOptions opts;
  opts.port = 0;
  ASSERT_TRUE(server_.start(opts)) << server_.last_error();
  const HttpResponse resp = http_get(server_.port(), "/healthz");
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.status, 200);
}

TEST_F(HttpExporterFixture, SecondStartWhileRunningFails) {
  obs::HttpExporterOptions opts;
  opts.port = 0;
  EXPECT_FALSE(server_.start(opts));
  EXPECT_FALSE(server_.last_error().empty());
}

TEST_F(HttpExporterFixture, SlowzServesSlowJobRecords) {
  obs::JobLog& log = obs::JobLog::global();
  log.clear();
  log.arm(0.25);
  obs::JobRecord entry;
  entry.job_id = 77;
  entry.tag = "http-slow-test";
  entry.job_status = "completed";
  entry.solve_seconds = 0.4;
  entry.slow = log.over_slo(entry.solve_seconds);
  entry.slo_seconds = 0.25;
  entry.phases.push_back({"cubis.solve", 1000000, 1});
  ASSERT_GT(log.add(std::move(entry)), 0);
  log.disarm();

  const HttpResponse resp = http_get(server_.port(), "/slowz");
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.headers.find("application/json"), std::string::npos);
  EXPECT_NE(resp.body.find("\"entries\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"job_id\":77"), std::string::npos);
  EXPECT_NE(resp.body.find("\"http-slow-test\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"cubis.solve\""), std::string::npos);
  log.clear();
}

TEST_F(HttpExporterFixture, AuditzServesFailureRing) {
  obs::JobLog& log = obs::JobLog::global();
  log.clear();
  obs::AuditVerdict verdict;
  verdict.worst_code = "worst-case-mismatch";
  verdict.detail = "claimed -1.25 but recomputed -1.75";
  verdict.findings = 1;
  verdict.max_residual = 0.5;
  verdict.recomputed_worst_case = -1.75;
  verdict.verify_seconds = 0.002;
  ASSERT_GT(log.attach_audit(42, "http-audit-test", "cubis",
                             std::move(verdict)),
            0);

  const HttpResponse resp = http_get(server_.port(), "/auditz");
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.headers.find("application/json"), std::string::npos);
  EXPECT_NE(resp.body.find("\"failures\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"job_id\":42"), std::string::npos);
  EXPECT_NE(resp.body.find("\"http-audit-test\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"worst-case-mismatch\""), std::string::npos);
  log.clear();
}

TEST_F(HttpExporterFixture, MetricsCarriesBuildInfo) {
  const HttpResponse resp = http_get(server_.port(), "/metrics");
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.status, 200);
  // Provenance gauge: constant 1 with the build stamped into labels, so
  // any scrape ties a metrics series back to an exact binary.
  EXPECT_NE(resp.body.find("# TYPE cubisg_build_info gauge"),
            std::string::npos);
  const std::size_t pos = resp.body.find("cubisg_build_info{");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t eol = resp.body.find('\n', pos);
  ASSERT_NE(eol, std::string::npos);
  const std::string line = resp.body.substr(pos, eol - pos);
  EXPECT_NE(line.find("version=\""), std::string::npos);
  EXPECT_NE(line.find("git_sha=\""), std::string::npos);
  EXPECT_TRUE(line.size() >= 2 &&
              line.compare(line.size() - 2, 2, " 1") == 0)
      << line;
  check_exposition_consistent(resp.body);
}

TEST_F(HttpExporterFixture, MetricsRefreshesProcessGauges) {
  if (!obs::process_metrics_available()) {
    GTEST_SKIP() << "process metrics unavailable on this platform";
  }
  const HttpResponse resp = http_get(server_.port(), "/metrics");
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.status, 200);
  // Scrape-time refresh: the gauges exist and RSS is a positive number.
  EXPECT_NE(resp.body.find("# TYPE process_resident_memory_bytes gauge"),
            std::string::npos);
  const std::string sample = "\nprocess_resident_memory_bytes ";
  const std::size_t pos = resp.body.find(sample);
  ASSERT_NE(pos, std::string::npos);
  EXPECT_GT(std::stod(resp.body.substr(pos + sample.size())), 0.0);
  EXPECT_NE(resp.body.find("process_open_fds "), std::string::npos);
  EXPECT_NE(resp.body.find("process_cpu_user_seconds "), std::string::npos);
}

TEST_F(HttpExporterFixture, ProfilezReturnsCollapsedStacksOrExplains) {
  if (!obs::profiler_available()) {
    const HttpResponse resp = http_get(server_.port(), "/profilez");
    ASSERT_TRUE(resp.ok);
    EXPECT_EQ(resp.status, 501);
    return;
  }
  // Run a live session so the route takes the snapshot path instead of
  // sleeping for a full on-demand window inside the test.
  obs::profiler_clear();
  obs::profiler_register_this_thread();
  ASSERT_TRUE(obs::profiler_start({})) << obs::profiler_last_error();
  volatile double sink = 0.0;
  for (int round = 0; round < 2000 && obs::profiler_samples_total() < 2;
       ++round) {
    for (int i = 0; i < 1000000; ++i) sink = sink + 1e-9 * i;
  }
  ASSERT_GE(obs::profiler_samples_total(), 2);
  const HttpResponse resp = http_get(server_.port(), "/profilez?seconds=1");
  obs::profiler_stop();
  obs::profiler_unregister_this_thread();
  obs::profiler_clear();
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.headers.find("text/plain"), std::string::npos);
  ASSERT_FALSE(resp.body.empty());
  // Collapsed format: last token of the first line is a count.
  const std::size_t eol = resp.body.find('\n');
  ASSERT_NE(eol, std::string::npos);
  const std::string first = resp.body.substr(0, eol);
  const std::size_t sp = first.rfind(' ');
  ASSERT_NE(sp, std::string::npos);
  for (std::size_t i = sp + 1; i < first.size(); ++i) {
    EXPECT_TRUE(first[i] >= '0' && first[i] <= '9') << first;
  }
}

// The headline tsan test: scrapers pull /metrics while writers hammer a
// counter and a histogram.  Every scrape must be transport-complete,
// 200, and internally consistent; after the writers join, one final
// scrape must read the exact totals.
TEST_F(HttpExporterFixture, ConcurrentScrapesWhileWritersHammer) {
  obs::Counter& counter =
      obs::Registry::global().counter("httptest.hammer_total");
  obs::Histogram& hist = obs::Registry::global().histogram(
      "httptest.hammer_latency", std::vector<double>{0.25, 0.5, 0.75});
  counter.reset();
  hist.reset();

  constexpr int kWriters = 4;
  constexpr std::int64_t kOpsPerWriter = 20000;
  constexpr int kScrapers = 3;
  std::atomic<bool> writers_done{false};
  std::atomic<int> scrapes_ok{0};
  std::atomic<int> scrapers_live{kScrapers};
  std::atomic<std::int64_t> ops_total{0};

  // Writers run at least kOpsPerWriter ops each and then keep going until
  // kScrapers scrapes have completed against live writers: on a loaded
  // host the fixed batch alone can end before the first scrape lands,
  // leaving nothing concurrent to check.  A scraper that bails out
  // on a failed assertion leaves scrapers_live, so writers never spin on it.
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&counter, &hist, &scrapes_ok, &scrapers_live,
                          &ops_total, w] {
      std::int64_t i = 0;
      for (; i < kOpsPerWriter ||
             (scrapes_ok.load(std::memory_order_acquire) < kScrapers &&
              scrapers_live.load(std::memory_order_acquire) > 0);
           ++i) {
        counter.add(1);
        hist.record(static_cast<double>((i + w) % 5) * 0.25);
      }
      ops_total.fetch_add(i, std::memory_order_relaxed);
    });
  }

  struct LeaveOnExit {
    std::atomic<int>& live;
    ~LeaveOnExit() { live.fetch_sub(1, std::memory_order_release); }
  };
  std::vector<std::thread> scrapers;
  scrapers.reserve(kScrapers);
  const int port = server_.port();
  for (int s = 0; s < kScrapers; ++s) {
    scrapers.emplace_back([&writers_done, &scrapes_ok, &scrapers_live,
                           port] {
      const LeaveOnExit leave{scrapers_live};
      while (!writers_done.load(std::memory_order_acquire)) {
        const HttpResponse resp = http_get(port, "/metrics");
        ASSERT_TRUE(resp.ok);
        EXPECT_EQ(resp.status, 200);
        check_exposition_consistent(resp.body);
        scrapes_ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (std::thread& t : writers) t.join();
  writers_done.store(true, std::memory_order_release);
  for (std::thread& t : scrapers) t.join();
  EXPECT_GT(scrapes_ok.load(), 0);

  // Quiescent scrape: the exact totals must now be visible.
  const HttpResponse resp = http_get(port, "/metrics");
  ASSERT_TRUE(resp.ok);
  const std::int64_t total = ops_total.load();
  EXPECT_GE(total, kWriters * kOpsPerWriter);
  const std::string want_counter =
      "httptest_hammer_total " + std::to_string(total) + "\n";
  EXPECT_NE(resp.body.find(want_counter), std::string::npos);
  const std::string want_count =
      "httptest_hammer_latency_count " + std::to_string(total) + "\n";
  EXPECT_NE(resp.body.find(want_count), std::string::npos);
}

#endif  // CUBISG_TEST_HAVE_SOCKETS

}  // namespace
}  // namespace cubisg
