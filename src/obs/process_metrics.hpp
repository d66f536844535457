// Process self-metrics: RSS, CPU seconds, open fds, uptime.
//
// Registered as gauges under the standard Prometheus `process_*` names
// (after the exporter's dot-to-underscore mapping) and refreshed lazily:
// the HTTP exporter calls update_process_metrics() on every /metrics
// scrape, and the CLI refreshes once before flushing --metrics-out.
// Sources are getrusage(2) plus /proc/self on Linux; on platforms
// without /proc the /proc-derived gauges stay at their last value (0).
#pragma once

namespace cubisg::obs {

/// True when at least the rusage-based metrics can be collected here.
bool process_metrics_available();

/// Refreshes the process.* gauges in the global registry.  Cheap (a few
/// syscalls + /proc reads); call at scrape/flush time, not per solve.
/// No-op where process_metrics_available() is false.
void update_process_metrics();

}  // namespace cubisg::obs
