#include "obs/process_metrics.hpp"

#include "obs/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define CUBISG_PROCESS_METRICS 1
#else
#define CUBISG_PROCESS_METRICS 0
#endif

#if CUBISG_PROCESS_METRICS
#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#endif

namespace cubisg::obs {

#if CUBISG_PROCESS_METRICS

namespace {

struct ProcessGauges {
  Gauge& rss_bytes;
  Gauge& vsize_bytes;
  Gauge& cpu_user_seconds;
  Gauge& cpu_system_seconds;
  Gauge& open_fds;
  Gauge& uptime_seconds;

  static ProcessGauges& get() {
    // Raw names use dots like every other cubisg metric; the Prometheus
    // exporter maps them to the conventional process_* family.
    static ProcessGauges g{
        Registry::global().gauge("process.resident_memory_bytes"),
        Registry::global().gauge("process.virtual_memory_bytes"),
        Registry::global().gauge("process.cpu_user_seconds"),
        Registry::global().gauge("process.cpu_system_seconds"),
        Registry::global().gauge("process.open_fds"),
        Registry::global().gauge("process.uptime_seconds"),
    };
    return g;
  }
};

/// /proc/self/statm: size and resident, in pages (Linux; fails quietly
/// elsewhere and the memory gauges keep their last value).
void update_memory(ProcessGauges& g) {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return;
  long size_pages = 0;
  long rss_pages = 0;
  const int got = std::fscanf(f, "%ld %ld", &size_pages, &rss_pages);
  std::fclose(f);
  if (got != 2) return;
  const double page = static_cast<double>(sysconf(_SC_PAGESIZE));
  g.vsize_bytes.set(static_cast<double>(size_pages) * page);
  g.rss_bytes.set(static_cast<double>(rss_pages) * page);
}

void update_cpu(ProcessGauges& g) {
  struct rusage ru;
  std::memset(&ru, 0, sizeof ru);
  if (getrusage(RUSAGE_SELF, &ru) != 0) return;
  g.cpu_user_seconds.set(static_cast<double>(ru.ru_utime.tv_sec) +
                         static_cast<double>(ru.ru_utime.tv_usec) * 1e-6);
  g.cpu_system_seconds.set(static_cast<double>(ru.ru_stime.tv_sec) +
                           static_cast<double>(ru.ru_stime.tv_usec) * 1e-6);
}

void update_fds(ProcessGauges& g) {
  DIR* d = opendir("/proc/self/fd");
  if (d == nullptr) return;
  long count = 0;
  while (const dirent* e = readdir(d)) {
    if (e->d_name[0] != '.') ++count;
  }
  closedir(d);
  // The opendir fd itself is counted; report the steady-state number.
  g.open_fds.set(static_cast<double>(count > 0 ? count - 1 : 0));
}

/// True process uptime from /proc: system uptime minus the process start
/// tick — stateless, so it is correct even on the first scrape.
void update_uptime(ProcessGauges& g) {
  double sys_uptime = 0.0;
  {
    std::FILE* f = std::fopen("/proc/uptime", "r");
    if (f == nullptr) return;
    const int got = std::fscanf(f, "%lf", &sys_uptime);
    std::fclose(f);
    if (got != 1) return;
  }
  std::FILE* f = std::fopen("/proc/self/stat", "r");
  if (f == nullptr) return;
  char buf[1024];
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  // Field 2 (comm) may contain spaces; fields are reliable only after
  // the closing paren.  starttime is the 20th field after it.
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) return;
  ++p;
  long long start_ticks = -1;
  int field = 0;
  for (const char* q = p; *q != '\0' && field < 20;) {
    while (*q == ' ') ++q;
    ++field;
    if (field == 20) {
      start_ticks = std::atoll(q);
      break;
    }
    while (*q != '\0' && *q != ' ') ++q;
  }
  if (start_ticks < 0) return;
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  if (ticks <= 0) return;
  const double up =
      sys_uptime - static_cast<double>(start_ticks) / ticks;
  if (up >= 0) g.uptime_seconds.set(up);
}

}  // namespace

bool process_metrics_available() { return true; }

void update_process_metrics() {
  ProcessGauges& g = ProcessGauges::get();
  update_memory(g);
  update_cpu(g);
  update_fds(g);
  update_uptime(g);
}

#else  // !CUBISG_PROCESS_METRICS

bool process_metrics_available() { return false; }
void update_process_metrics() {}

#endif  // CUBISG_PROCESS_METRICS

}  // namespace cubisg::obs
