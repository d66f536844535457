// Chrome trace-event-format export of the collected spans.
//
// Format reference: the "Trace Event Format" doc (complete events, ph="X",
// timestamps in microseconds).  chrome://tracing and Perfetto both nest
// same-thread events by their [ts, ts+dur) containment, which is exactly
// how TraceSpan scopes nest, so parent/child structure needs no explicit
// linkage.
#include <algorithm>
#include <cstdio>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace cubisg::obs {

namespace {

void append_us(std::string& out, std::int64_t ns) {
  // Microseconds with nanosecond precision kept as decimals.
  char buf[40];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

}  // namespace

std::string trace_to_chrome_json() {
  std::vector<TraceEvent> events = collect_trace_events();
  // Stable viewing order: by thread, then start time, then outermost first.
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.depth < b.depth;
            });

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    detail::append_escaped(out, e.name);
    out += ",\"cat\":\"cubisg\",\"ph\":\"X\",\"pid\":0,\"tid\":";
    out += std::to_string(e.tid);
    out += ",\"ts\":";
    append_us(out, e.start_ns);
    out += ",\"dur\":";
    append_us(out, e.dur_ns);
    out += ",\"args\":{\"depth\":";
    out += std::to_string(e.depth);
    if (e.job != 0) {
      out += ",\"job\":";
      out += std::to_string(e.job);
    }
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool write_trace_json(const std::string& path) {
  return detail::write_file(path, trace_to_chrome_json());
}

}  // namespace cubisg::obs
