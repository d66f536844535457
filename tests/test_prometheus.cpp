// Prometheus text-exposition serializer: golden output from hand-built
// snapshots, name/label escaping, cumulative bucket monotonicity, the
// `+Inf` bucket == `_count` invariant, and `promtool check metrics`-style
// lint rules encoded as assertions.
//
// The serializer is pure (reads a MetricsSnapshot aggregate), so the
// snapshots here are built by hand, not recorded.
#include <cctype>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"

namespace cubisg {
namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char ch) {
    return std::isalpha(static_cast<unsigned char>(ch)) || ch == '_' ||
           ch == ':';
  };
  auto tail = [&head](char ch) {
    return head(ch) || std::isdigit(static_cast<unsigned char>(ch));
  };
  if (!head(name[0])) return false;
  for (std::size_t i = 1; i < name.size(); ++i) {
    if (!tail(name[i])) return false;
  }
  return true;
}

/// One parsed sample line: `name` or `name{labels}` followed by a value.
struct Sample {
  std::string name;    ///< including any _bucket/_sum/_count suffix
  std::string labels;  ///< raw text between braces ("" when absent)
  std::string value;
};

/// promtool-style lint over exposition text.  Asserts (via gtest) that:
///   - every line is a comment or a well-formed sample,
///   - every sample's family has a preceding # TYPE line,
///   - no family is declared twice,
///   - counter sample names end in _total,
///   - histogram buckets are cumulative (monotone non-decreasing in le
///     order as emitted) and the +Inf bucket equals _count.
/// Fills `out` (when given) with the parsed samples for test-specific
/// checks.  Void so gtest ASSERT macros are usable.
void lint_exposition(const std::string& text,
                     std::vector<Sample>* out = nullptr) {
  std::map<std::string, std::string> family_type;  // name -> counter/...
  std::string last_family;
  std::int64_t last_bucket_value = 0;
  bool saw_inf_bucket = false;
  std::int64_t inf_bucket_value = 0;

  for (const std::string& line : split_lines(text)) {
    if (line.empty()) {
      ADD_FAILURE() << "blank line in exposition";
      continue;
    }
    if (line[0] == '#') {
      std::istringstream in(line);
      std::string hash, keyword;
      in >> hash >> keyword;
      if (keyword == "TYPE") {
        std::string name, type;
        in >> name >> type;
        EXPECT_TRUE(valid_metric_name(name)) << line;
        EXPECT_TRUE(type == "counter" || type == "gauge" ||
                    type == "histogram")
            << line;
        EXPECT_EQ(family_type.count(name), 0u)
            << "family declared twice: " << name;
        family_type[name] = type;
        last_family = name;
        last_bucket_value = 0;
        saw_inf_bucket = false;
      }
      continue;  // other comments are free-form
    }

    // Sample line: name[{labels}] SP value
    Sample s;
    std::size_t i = line.find_first_of("{ ");
    ASSERT_NE(i, std::string::npos) << "malformed sample: " << line;
    s.name = line.substr(0, i);
    EXPECT_TRUE(valid_metric_name(s.name)) << line;
    if (line[i] == '{') {
      const std::size_t close = line.find("\"}", i);
      ASSERT_NE(close, std::string::npos) << "unclosed labels: " << line;
      s.labels = line.substr(i + 1, close + 1 - (i + 1));
      i = close + 2;
      ASSERT_LT(i, line.size()) << line;
      ASSERT_EQ(line[i], ' ') << line;
    }
    s.value = line.substr(i + 1);
    EXPECT_FALSE(s.value.empty()) << line;
    EXPECT_EQ(s.value.find(' '), std::string::npos) << line;

    // Resolve the family: exact name, or name minus a histogram suffix.
    std::string family = s.name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::size_t n = std::string(suffix).size();
      if (family_type.count(family) == 0 && family.size() > n &&
          family.compare(family.size() - n, n, suffix) == 0) {
        const std::string base = family.substr(0, family.size() - n);
        if (family_type.count(base) != 0 &&
            family_type[base] == "histogram") {
          family = base;
          break;
        }
      }
    }
    ASSERT_EQ(family_type.count(family), 1u)
        << "sample without # TYPE: " << line;
    EXPECT_EQ(family, last_family)
        << "sample outside its family block: " << line;

    const std::string& type = family_type[family];
    if (type == "counter") {
      EXPECT_TRUE(s.name.size() >= 6 &&
                  s.name.compare(s.name.size() - 6, 6, "_total") == 0)
          << "counter without _total: " << line;
    }
    if (type == "histogram" && s.name == family + "_bucket") {
      const std::int64_t v = std::stoll(s.value);
      EXPECT_GE(v, last_bucket_value)
          << "non-cumulative bucket: " << line;
      last_bucket_value = v;
      if (s.labels.find("le=\"+Inf\"") != std::string::npos) {
        saw_inf_bucket = true;
        inf_bucket_value = v;
      }
    }
    if (type == "histogram" && s.name == family + "_count") {
      EXPECT_TRUE(saw_inf_bucket)
          << "histogram without +Inf bucket: " << family;
      EXPECT_EQ(std::stoll(s.value), inf_bucket_value)
          << "+Inf bucket != _count for " << family;
    }
    if (out != nullptr) out->push_back(std::move(s));
  }
}

obs::MetricsSnapshot example_snapshot() {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"cubis.solves", 3});
  snap.counters.push_back({"simplex.pivots_total", 1234567});
  snap.gauges.push_back({"milp.frontier_open_nodes", 17.0});
  snap.gauges.push_back({"lp.relative_gap", 0.000123456789});
  obs::HistogramSnapshot h;
  h.name = "cubis.solve_seconds";
  h.bounds = {0.001, 0.01, 0.1};
  h.counts = {2, 5, 0, 1};  // last = overflow
  h.count = 8;
  h.sum = 0.475;
  snap.histograms.push_back(h);
  return snap;
}

TEST(Prometheus, GoldenExposition) {
  const std::string text = obs::to_prometheus_text(example_snapshot());
  const char* golden =
      "# TYPE cubis_solves_total counter\n"
      "cubis_solves_total 3\n"
      "# TYPE simplex_pivots_total counter\n"
      "simplex_pivots_total 1234567\n"
      "# TYPE milp_frontier_open_nodes gauge\n"
      "milp_frontier_open_nodes 17\n"
      "# TYPE lp_relative_gap gauge\n"
      "lp_relative_gap 0.000123456789\n"
      "# TYPE cubis_solve_seconds histogram\n"
      "cubis_solve_seconds_bucket{le=\"0.001\"} 2\n"
      "cubis_solve_seconds_bucket{le=\"0.01\"} 7\n"
      "cubis_solve_seconds_bucket{le=\"0.1\"} 7\n"
      "cubis_solve_seconds_bucket{le=\"+Inf\"} 8\n"
      "cubis_solve_seconds_sum 0.475\n"
      "cubis_solve_seconds_count 8\n";
  EXPECT_EQ(text, golden);
  lint_exposition(text);
}

TEST(Prometheus, MetricNameMapping) {
  EXPECT_EQ(obs::prometheus_metric_name("cubis.solves", true),
            "cubis_solves_total");
  // Already-suffixed counters are not double-suffixed.
  EXPECT_EQ(obs::prometheus_metric_name("log.lines_total", true),
            "log_lines_total");
  EXPECT_EQ(obs::prometheus_metric_name("threadpool.queue-depth"),
            "threadpool_queue_depth");
  EXPECT_EQ(obs::prometheus_metric_name("7zip.speed"), "_7zip_speed");
  EXPECT_EQ(obs::prometheus_metric_name("a:b_c9"), "a:b_c9");
  EXPECT_EQ(obs::prometheus_metric_name(""), "_");
  // Multi-byte UTF-8 maps each byte to '_' (2 per é, 1 per space).
  EXPECT_EQ(obs::prometheus_metric_name("m\xc3\xa9tric \xc3\xa9"),
            "m__tric___");
}

TEST(Prometheus, LabelEscaping) {
  EXPECT_EQ(obs::prometheus_escape_label("plain"), "plain");
  EXPECT_EQ(obs::prometheus_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::prometheus_escape_label("say \"hi\""),
            "say \\\"hi\\\"");
  EXPECT_EQ(obs::prometheus_escape_label("line1\nline2"),
            "line1\\nline2");
  EXPECT_EQ(obs::prometheus_escape_label("\\\"\n"), "\\\\\\\"\\n");
}

TEST(Prometheus, BucketsAreCumulativeAndInfEqualsCount) {
  obs::MetricsSnapshot snap;
  obs::HistogramSnapshot h;
  h.name = "test.latency";
  h.bounds = {1.0, 2.0, 4.0, 8.0};
  h.counts = {3, 0, 7, 2, 11};
  // Deliberately torn `count` (racing writers): exposition must still be
  // self-consistent, deriving _count from the same bucket sum as +Inf.
  h.count = 5;
  h.sum = 99.5;
  snap.histograms.push_back(h);
  const std::string text = obs::to_prometheus_text(snap);
  std::vector<Sample> samples;
  lint_exposition(text, &samples);

  std::vector<std::int64_t> buckets;
  std::int64_t count = -1;
  for (const Sample& s : samples) {
    if (s.name == "test_latency_bucket") {
      buckets.push_back(std::stoll(s.value));
    }
    if (s.name == "test_latency_count") count = std::stoll(s.value);
  }
  ASSERT_EQ(buckets.size(), 5u);  // 4 bounds + Inf
  EXPECT_EQ(buckets, (std::vector<std::int64_t>{3, 3, 10, 12, 23}));
  EXPECT_EQ(count, 23);  // bucket-derived, not the torn field
}

TEST(Prometheus, SpecialSampleValues) {
  obs::MetricsSnapshot snap;
  snap.gauges.push_back(
      {"test.inf", std::numeric_limits<double>::infinity()});
  snap.gauges.push_back(
      {"test.neg_inf", -std::numeric_limits<double>::infinity()});
  snap.gauges.push_back(
      {"test.nan", std::numeric_limits<double>::quiet_NaN()});
  snap.gauges.push_back({"test.big_int", 1e14});
  const std::string text = obs::to_prometheus_text(snap);
  EXPECT_NE(text.find("test_inf +Inf\n"), std::string::npos);
  EXPECT_NE(text.find("test_neg_inf -Inf\n"), std::string::npos);
  EXPECT_NE(text.find("test_nan NaN\n"), std::string::npos);
  EXPECT_NE(text.find("test_big_int 100000000000000\n"),
            std::string::npos);
}

TEST(Prometheus, DuplicateCollapsedFamiliesAreSkipped) {
  obs::MetricsSnapshot snap;
  snap.gauges.push_back({"dup.name", 1.0});
  snap.gauges.push_back({"dup:name", 2.0});  // ':' is valid, distinct
  snap.gauges.push_back({"dup-name", 3.0});  // collapses onto dup_name
  const std::string text = obs::to_prometheus_text(snap);
  EXPECT_NE(text.find("dup_name 1\n"), std::string::npos);
  EXPECT_NE(text.find("dup:name 2\n"), std::string::npos);
  EXPECT_EQ(text.find("dup_name 3"), std::string::npos);
  EXPECT_NE(text.find("# cubisg: skipped \"dup-name\""),
            std::string::npos);
  lint_exposition(text);  // the skip comment keeps output lint-clean
}

TEST(Prometheus, EmptySnapshotIsEmptyText) {
  EXPECT_EQ(obs::to_prometheus_text(obs::MetricsSnapshot{}), "");
}

// Lint: the profiler and slow-job metric families — process
// self-metrics, the engine queue-wait histogram, the slow-solve counter —
// must serialize promtool-clean.
TEST(Prometheus, NewObservabilityFamiliesLintClean) {
  obs::MetricsSnapshot snap;
  snap.gauges.push_back({"process.resident_memory_bytes", 1.5e8});
  snap.gauges.push_back({"process.virtual_memory_bytes", 9.1e8});
  snap.gauges.push_back({"process.cpu_user_seconds", 12.25});
  snap.gauges.push_back({"process.cpu_system_seconds", 0.75});
  snap.gauges.push_back({"process.open_fds", 24.0});
  snap.gauges.push_back({"process.uptime_seconds", 360.5});
  snap.counters.push_back({"engine.slow_solves_total", 2});
  obs::HistogramSnapshot h;
  h.name = "engine.queue_wait_seconds";
  h.bounds = {0.001, 0.01, 0.1};
  h.counts = {3, 2, 1, 0};
  h.count = 6;
  h.sum = 0.05;
  snap.histograms.push_back(h);

  const std::string text = obs::to_prometheus_text(snap);
  std::vector<Sample> samples;
  lint_exposition(text, &samples);

  // Names map to the documented prometheus families, with no accidental
  // double _total suffix on the already-suffixed counter.
  const char* want[] = {
      "process_resident_memory_bytes", "process_virtual_memory_bytes",
      "process_cpu_user_seconds",      "process_cpu_system_seconds",
      "process_open_fds",              "process_uptime_seconds",
      "engine_slow_solves_total",      "engine_queue_wait_seconds_count",
  };
  for (const char* name : want) {
    bool found = false;
    for (const Sample& s : samples) found = found || s.name == name;
    EXPECT_TRUE(found) << "family missing from exposition: " << name;
  }
  EXPECT_EQ(text.find("engine_slow_solves_total_total"), std::string::npos);
  EXPECT_NE(text.find("# TYPE engine_queue_wait_seconds histogram"),
            std::string::npos);
}

// Satellite lint: the audit.* families added by the certificate/verifier
// PR must serialize promtool-clean too — counters keep a single _total,
// the residual gauge and verify-latency histogram obey the bucket
// invariants.
TEST(Prometheus, AuditFamiliesLintClean) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"audit.checks_total", 128});
  snap.counters.push_back({"audit.failures_total", 1});
  snap.counters.push_back({"audit.dropped_total", 0});
  snap.gauges.push_back({"audit.max_residual", 3.1e-12});
  obs::HistogramSnapshot h;
  h.name = "audit.verify_seconds";
  h.bounds = {0.0001, 0.001, 0.01, 0.1};
  h.counts = {90, 30, 7, 1, 0};
  h.count = 128;
  h.sum = 0.42;
  snap.histograms.push_back(h);

  const std::string text = obs::to_prometheus_text(snap);
  std::vector<Sample> samples;
  lint_exposition(text, &samples);

  const char* want[] = {
      "audit_checks_total",        "audit_failures_total",
      "audit_dropped_total",       "audit_max_residual",
      "audit_verify_seconds_count",
  };
  for (const char* name : want) {
    bool found = false;
    for (const Sample& s : samples) found = found || s.name == name;
    EXPECT_TRUE(found) << "family missing from exposition: " << name;
  }
  // Already-suffixed counters must not get a second _total.
  EXPECT_EQ(text.find("_total_total"), std::string::npos);
  EXPECT_NE(text.find("# TYPE audit_verify_seconds histogram"),
            std::string::npos);
}

TEST(Prometheus, LiveRegistrySnapshotLints) {
  obs::Registry::global().counter("promtest.events").add(4);
  obs::Registry::global().gauge("promtest.depth").set(2.5);
  obs::Registry::global()
      .histogram("promtest.latency", std::vector<double>{0.5, 1.5})
      .record(1.0);
  const std::string text =
      obs::to_prometheus_text(obs::Registry::global().snapshot());
  std::vector<Sample> samples;
  lint_exposition(text, &samples);
  bool saw_counter = false;
  for (const Sample& s : samples) {
    if (s.name == "promtest_events_total") {
      saw_counter = true;
      EXPECT_EQ(std::stoll(s.value), 4);
    }
  }
  EXPECT_TRUE(saw_counter);
}

}  // namespace
}  // namespace cubisg
