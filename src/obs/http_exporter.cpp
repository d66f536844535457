#include "obs/http_exporter.hpp"

#include "obs/metrics.hpp"
#include "obs/status_page.hpp"

namespace cubisg::obs {

std::vector<std::string> http_exporter_paths() {
  std::vector<std::string> paths = {"/metrics", "/healthz", "/solvez",
                                    "/slowz",   "/auditz",  "/profilez"};
  for (std::string& p : status_page_paths()) paths.push_back(std::move(p));
  return paths;
}

}  // namespace cubisg::obs

#if defined(__unix__) || defined(__APPLE__)
#define CUBISG_HTTP_EXPORTER 1
#else
#define CUBISG_HTTP_EXPORTER 0
#endif

#if CUBISG_HTTP_EXPORTER

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/build_info.hpp"
#include "obs/job_log.hpp"
#include "obs/process_metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/prometheus.hpp"
#include "parallel/thread_pool.hpp"

namespace cubisg::obs {

namespace {

/// `cubisg_build_info{...} 1` — the standard Prometheus idiom for build
/// provenance: a constant gauge whose labels carry the sha/compiler/flag
/// identity of the running binary.  Appended by hand because the registry
/// is label-free by design.
std::string build_info_exposition() {
  std::string out = "# TYPE cubisg_build_info gauge\ncubisg_build_info{";
  out += "version=\"" +
         prometheus_escape_label(buildinfo::kVersion) + "\",";
  out += "git_sha=\"" + prometheus_escape_label(buildinfo::kGitSha) + "\",";
  out += "compiler=\"" +
         prometheus_escape_label(buildinfo::kCompiler) + "\",";
  out += "fault_injection=\"" +
         prometheus_escape_label(buildinfo::kFaultInjection) + "\"";
  out += "} 1\n";
  return out;
}

/// Exporter self-metrics (they show up in /metrics like everything else).
struct ExporterMetrics {
  Counter& requests = Registry::global().counter("obs.http_requests_total");
  Counter& rejected = Registry::global().counter("obs.http_rejected_total");
  Histogram& scrape_seconds = Registry::global().histogram(
      "obs.scrape_seconds", Histogram::latency_bounds_seconds());

  static ExporterMetrics& get() {
    static ExporterMetrics m;
    return m;
  }
};

void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return;  // peer gone or timeout; nothing to salvage
    sent += static_cast<std::size_t>(n);
  }
}

void send_response(int fd, const char* status_line,
                   const std::string& content_type,
                   const std::string& body) {
  std::string out = "HTTP/1.1 ";
  out += status_line;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  send_all(fd, out);
}

void set_socket_timeouts(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

/// Reads until the end of the request head; false on timeout/overflow.
bool read_request_head(int fd, std::string& head) {
  char buf[1024];
  while (head.find("\r\n\r\n") == std::string::npos) {
    if (head.size() > 8192) return false;
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return false;
    head.append(buf, static_cast<std::size_t>(n));
  }
  return true;
}

/// GET /profilez?seconds=N — on-demand profiling session.  Arms the
/// sampler at the default 99 Hz, sleeps N seconds (default 5, capped at
/// 60) on this handler thread, then returns collapsed stacks.  When a
/// continuous session is already live (--profile-out), returns a
/// snapshot of the accumulated samples immediately instead of stopping
/// it.  Handler-pool note: the sleeping thread occupies one pool slot;
/// the inflight cap already 503s pile-ups.
void handle_profilez(int fd, const std::string& query_string) {
  if (!profiler_available()) {
    send_response(fd, "501 Not Implemented", "text/plain",
                  profiler_last_error() + "\n");
    return;
  }
  int seconds = 5;
  const std::size_t pos = query_string.find("seconds=");
  if (pos != std::string::npos) {
    seconds = std::atoi(query_string.c_str() + pos + 8);
  }
  seconds = std::min(60, std::max(1, seconds));

  if (profiler_running()) {
    send_response(fd, "200 OK", "text/plain", profiler_collapsed_stacks());
    return;
  }
  profiler_clear();  // scope the response to this window
  if (!profiler_start({})) {
    send_response(fd, "503 Service Unavailable", "text/plain",
                  profiler_last_error() + "\n");
    return;
  }
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  profiler_stop();
  send_response(fd, "200 OK", "text/plain", profiler_collapsed_stacks());
}

void handle_connection(int fd) {
  std::string head;
  if (!read_request_head(fd, head)) {
    ::close(fd);
    return;
  }
  // Request line: METHOD SP target SP version.
  const std::size_t m_end = head.find(' ');
  const std::size_t t_end =
      m_end == std::string::npos ? std::string::npos
                                 : head.find(' ', m_end + 1);
  if (t_end == std::string::npos) {
    send_response(fd, "400 Bad Request", "text/plain", "bad request\n");
    ::close(fd);
    return;
  }
  const std::string method = head.substr(0, m_end);
  std::string target = head.substr(m_end + 1, t_end - m_end - 1);
  std::string query_string;
  const std::size_t query = target.find('?');
  if (query != std::string::npos) {
    query_string = target.substr(query + 1);
    target.resize(query);
  }

  ExporterMetrics::get().requests.add(1);
  if (method != "GET") {
    send_response(fd, "405 Method Not Allowed", "text/plain",
                  "only GET is supported\n");
  } else if (target == "/metrics") {
    const auto t0 = std::chrono::steady_clock::now();
    update_process_metrics();  // process_* gauges are scrape-time lazy
    const std::string body = build_info_exposition() +
        to_prometheus_text(Registry::global().snapshot());
    ExporterMetrics::get().scrape_seconds.record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    send_response(fd, "200 OK", kPrometheusContentType, body);
  } else if (target == "/healthz") {
    send_response(fd, "200 OK", "text/plain", "ok\n");
  } else if (target == "/solvez") {
    send_response(fd, "200 OK", "application/json",
                  JobLog::global().to_json(JobView::kAll));
  } else if (target == "/slowz") {
    send_response(fd, "200 OK", "application/json",
                  JobLog::global().to_json(JobView::kSlow));
  } else if (target == "/auditz") {
    send_response(fd, "200 OK", "application/json",
                  JobLog::global().to_json(JobView::kFailedAudit));
  } else if (target == "/profilez") {
    handle_profilez(fd, query_string);
  } else {
    // Pluggable pages (e.g. the supervisor's /workersz) registered by
    // subsystems above this library in the link graph.
    std::string content_type;
    std::string body;
    if (render_status_page(target, content_type, body)) {
      send_response(fd, "200 OK", content_type.c_str(), body);
    } else {
      std::string hint = "unknown path (try";
      for (const std::string& p : http_exporter_paths()) hint += " " + p;
      hint += ")\n";
      send_response(fd, "404 Not Found", "text/plain", hint);
    }
  }
  ::close(fd);
}

}  // namespace

bool http_exporter_available() { return true; }

struct HttpExporter::Impl {
  HttpExporterOptions opt;
  int listen_fd = -1;
  int bound_port = 0;
  std::atomic<bool> running{false};
  std::atomic<std::size_t> inflight{0};
  std::unique_ptr<ThreadPool> pool;
  std::thread acceptor;

  void accept_loop() {
    while (running.load(std::memory_order_acquire)) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (!running.load(std::memory_order_acquire)) break;
        if (errno == EINTR || errno == ECONNABORTED) continue;
        break;  // listen socket gone; stop() is the only cause
      }
      set_socket_timeouts(fd, opt.io_timeout_ms);
      if (inflight.load(std::memory_order_relaxed) >= opt.max_inflight) {
        ExporterMetrics::get().rejected.add(1);
        send_response(fd, "503 Service Unavailable", "text/plain",
                      "scrape overload, retry later\n");
        ::close(fd);
        continue;
      }
      inflight.fetch_add(1, std::memory_order_relaxed);
      pool->submit([this, fd] {
        handle_connection(fd);
        inflight.fetch_sub(1, std::memory_order_relaxed);
      });
    }
  }
};

HttpExporter::HttpExporter() = default;

HttpExporter::~HttpExporter() { stop(); }

bool HttpExporter::start(const HttpExporterOptions& options) {
  if (impl_) {
    error_ = "exporter already running";
    return false;
  }
  auto impl = std::make_unique<Impl>();
  impl->opt = options;

  impl->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (impl->listen_fd < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(impl->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    error_ = "invalid bind address " + options.bind_address;
    ::close(impl->listen_fd);
    return false;
  }
  if (::bind(impl->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(impl->listen_fd, 16) != 0) {
    error_ = std::string("bind/listen on ") + options.bind_address + ":" +
             std::to_string(options.port) + ": " + std::strerror(errno);
    ::close(impl->listen_fd);
    return false;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(impl->listen_fd, reinterpret_cast<sockaddr*>(&addr),
                    &len) == 0) {
    impl->bound_port = ntohs(addr.sin_port);
  }

  impl->pool = std::make_unique<ThreadPool>(
      std::max<std::size_t>(1, options.handler_threads));
  impl->running.store(true, std::memory_order_release);
  impl->acceptor = std::thread([ptr = impl.get()] { ptr->accept_loop(); });
  impl_ = std::move(impl);
  error_.clear();
  return true;
}

void HttpExporter::stop() {
  if (!impl_) return;
  impl_->running.store(false, std::memory_order_release);
  // shutdown() wakes a blocked accept() (EINVAL) without invalidating the
  // descriptor; close() only after the join so a concurrently reused fd
  // number can never be accepted on.
  ::shutdown(impl_->listen_fd, SHUT_RDWR);
  if (impl_->acceptor.joinable()) impl_->acceptor.join();
  ::close(impl_->listen_fd);
  impl_->pool.reset();  // drains in-flight handlers
  impl_.reset();
}

bool HttpExporter::running() const { return impl_ != nullptr; }

int HttpExporter::port() const {
  return impl_ ? impl_->bound_port : 0;
}

}  // namespace cubisg::obs

#else  // !CUBISG_HTTP_EXPORTER: the service is compiled out.

namespace cubisg::obs {

bool http_exporter_available() { return false; }

struct HttpExporter::Impl {};

HttpExporter::HttpExporter() = default;
HttpExporter::~HttpExporter() = default;

bool HttpExporter::start(const HttpExporterOptions&) {
  error_ = "http exporter unavailable (non-POSIX build)";
  return false;
}

void HttpExporter::stop() {}
bool HttpExporter::running() const { return false; }
int HttpExporter::port() const { return 0; }

}  // namespace cubisg::obs

#endif  // CUBISG_HTTP_EXPORTER
