// Minimal blocking HTTP/1.1 server exposing the telemetry layer live:
//
//   GET /metrics  -> Prometheus text exposition of the global registry
//                    (refreshes the process_* self-metrics per scrape)
//   GET /healthz  -> 200 "ok" while the process is alive
//   GET /solvez   -> JSON: every retained per-job record (obs/job_log.hpp)
//   GET /slowz    -> JSON: the records whose solve met the armed SLO
//   GET /auditz   -> JSON: the records whose audit verdict failed
//   GET /profilez?seconds=N -> collapsed flamegraph stacks from an
//                    N-second (default 5, max 60) on-demand sampling
//                    session; snapshots a live --profile-out session
//                    without stopping it
//
// Dependency-free (POSIX sockets only).  One acceptor thread accepts
// connections and hands each socket to a small bounded ThreadPool
// (src/parallel); beyond `max_inflight` concurrently served requests the
// acceptor answers 503 inline, so a scrape storm cannot pile threads or
// queue memory onto a solving process.  Every socket carries recv/send
// timeouts, so a stalled client cannot wedge a handler.
//
// On non-POSIX targets the server is compiled out:
// http_exporter_available() is false and start() fails with an
// explanatory last_error(), so callers need no #ifs.
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace cubisg::obs {

/// True when the server was compiled in (POSIX target); when false,
/// start() always fails.
bool http_exporter_available();

/// Every path the server answers: the built-in endpoints, then the
/// status pages registered so far (obs/status_page.hpp).  The 404 hint
/// and the CLI's --listen banner both print this list.
std::vector<std::string> http_exporter_paths();

struct HttpExporterOptions {
  std::string bind_address = "127.0.0.1";
  int port = 9464;               ///< 0 binds an ephemeral port (see port())
  std::size_t handler_threads = 2;
  std::size_t max_inflight = 32;  ///< beyond this the acceptor answers 503
  int io_timeout_ms = 2000;       ///< per-socket recv/send timeout
};

/// The server.  start()/stop() are not thread-safe against each other;
/// drive them from one owning thread (handlers run on the pool).
class HttpExporter {
 public:
  HttpExporter();
  ~HttpExporter();  ///< stops the server if still running

  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  /// Binds, listens and launches the acceptor; false (with last_error()
  /// set) on failure.  Calling start() on a running server fails.
  bool start(const HttpExporterOptions& options = {});

  /// Stops accepting, joins the acceptor and drains in-flight handlers.
  /// Idempotent.
  void stop();

  bool running() const;
  /// The bound port (resolves port 0 requests); 0 when not running.
  int port() const;
  const std::string& last_error() const { return error_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::string error_;
};

}  // namespace cubisg::obs
