#include "obs/profiler.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#if defined(__linux__) && (defined(__x86_64__) || defined(__aarch64__))
#define CUBISG_PROFILER 1
#else
#define CUBISG_PROFILER 0
#endif

#if CUBISG_PROFILER
#include <cxxabi.h>
#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdlib>
#endif

namespace cubisg::obs {

#if CUBISG_PROFILER

namespace {

// Linux-only sigevent plumbing: SIGEV_THREAD_ID routes the timer's signal
// to one specific thread instead of the process, which is what makes
// per-thread wall-clock sampling work.  Older glibc headers hide the
// field behind a macro; provide the fallbacks.
#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

constexpr std::size_t kMaxFrames = 64;
constexpr std::size_t kSlotWords = kMaxFrames + 1;  // [0] = frame count
constexpr std::size_t kRingSlots = 1024;  // ~520 KiB per thread

/// Per-thread sample ring.  The SIGPROF handler (running on the owning
/// thread) is the only producer; the collector is the only consumer.
/// head/tail count samples monotonically; slot = index % kRingSlots.
struct ThreadProf {
  std::atomic<std::uint64_t> head{0};     ///< samples committed (producer)
  std::atomic<std::uint64_t> tail{0};     ///< samples consumed (consumer)
  std::atomic<std::uint64_t> dropped{0};  ///< ring-full drops
  std::vector<std::uintptr_t> ring;
  std::uintptr_t stack_hi = 0;  ///< top of this thread's stack
  pid_t tid = 0;
  timer_t timer{};
  bool timer_armed = false;
};

struct ProfState {
  std::mutex mutex;  ///< guards registry, start/stop, aggregate
  std::vector<std::shared_ptr<ThreadProf>> threads;
  bool running = false;
  bool handler_installed = false;
  int hz = 99;
  /// Unique raw stacks (leaf-first PCs) -> occurrence count.
  std::map<std::vector<std::uintptr_t>, std::uint64_t> aggregate;
  std::int64_t drained_samples = 0;
  std::string last_error;
};

ProfState& pstate() {
  // Immortal: thread-exit unregistration can run during static
  // destruction (same pattern as the metrics registry).
  static ProfState* s = new ProfState();
  return *s;
}

/// Global sampling gate read by the handler; a timer tick that races a
/// stop() just drops its sample.
std::atomic<bool> g_sampling{false};

/// The handler's view of this thread's ring.  Atomic because the handler
/// interrupts the owning thread mid-instruction; relaxed is enough (the
/// handler runs on the same thread that stores it).
thread_local std::atomic<ThreadProf*> t_prof{nullptr};

void sigprof_handler(int /*signo*/, siginfo_t* /*info*/, void* ucontext) {
  // Async-signal-safe: atomics, raw loads from the already-mapped stack
  // region, and writes into a preallocated ring.  No locks, no malloc.
  ThreadProf* tp = t_prof.load(std::memory_order_relaxed);
  if (tp == nullptr || !g_sampling.load(std::memory_order_relaxed)) return;

  std::uintptr_t pc = 0;
  std::uintptr_t fp = 0;
  std::uintptr_t sp = 0;
  const ucontext_t* uc = static_cast<const ucontext_t*>(ucontext);
#if defined(__x86_64__)
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  sp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
  sp = static_cast<std::uintptr_t>(uc->uc_mcontext.sp);
#endif

  const std::uint64_t head = tp->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = tp->tail.load(std::memory_order_acquire);
  if (head - tail >= kRingSlots) {
    tp->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::uintptr_t* slot = tp->ring.data() + (head % kRingSlots) * kSlotWords;

  // Frame-pointer walk from the interrupted context.  Every dereference
  // is bounds-checked against [sp, stack_hi): the region at and above the
  // interrupted stack pointer is mapped, and the chain only walks upward.
  // Anchoring the lower bound at SP (not at the first fp) matters: code
  // built without frame pointers (libc, libm) uses RBP as a scratch
  // register, and a scratch value below SP can point at the unmapped
  // guard region under the stack — such samples stay leaf-only.
  std::size_t n = 0;
  slot[1 + n++] = pc;
  const std::uintptr_t lo = sp;
  const std::uintptr_t hi = tp->stack_hi;
  while (n < kMaxFrames) {
    if (fp < lo || fp + 2 * sizeof(std::uintptr_t) > hi ||
        (fp & (sizeof(std::uintptr_t) - 1)) != 0) {
      break;
    }
    const std::uintptr_t next =
        reinterpret_cast<const std::uintptr_t*>(fp)[0];
    const std::uintptr_t ret =
        reinterpret_cast<const std::uintptr_t*>(fp)[1];
    if (ret < 0x1000) break;  // not a plausible return address
    slot[1 + n++] = ret;
    if (next <= fp) break;  // chain must strictly ascend
    fp = next;
  }
  slot[0] = static_cast<std::uintptr_t>(n);
  tp->head.store(head + 1, std::memory_order_release);
}

void install_handler_locked(ProfState& s) {
  if (s.handler_installed) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = &sigprof_handler;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  s.handler_installed = true;
}

bool arm_thread_locked(ProfState& s, ThreadProf& tp) {
  if (tp.timer_armed) return true;
  struct sigevent sev;
  std::memset(&sev, 0, sizeof sev);
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = tp.tid;
  if (timer_create(CLOCK_MONOTONIC, &sev, &tp.timer) != 0) {
    s.last_error = "timer_create failed";
    return false;
  }
  const long period_ns = 1000000000L / s.hz;
  struct itimerspec its;
  std::memset(&its, 0, sizeof its);
  its.it_interval.tv_sec = period_ns / 1000000000L;
  its.it_interval.tv_nsec = period_ns % 1000000000L;
  its.it_value = its.it_interval;
  if (timer_settime(tp.timer, 0, &its, nullptr) != 0) {
    timer_delete(tp.timer);
    s.last_error = "timer_settime failed";
    return false;
  }
  tp.timer_armed = true;
  return true;
}

void disarm_thread_locked(ThreadProf& tp) {
  if (!tp.timer_armed) return;
  timer_delete(tp.timer);
  tp.timer_armed = false;
}

/// Moves every buffered sample from `tp`'s ring into the aggregate.
void drain_thread_locked(ProfState& s, ThreadProf& tp) {
  const std::uint64_t head = tp.head.load(std::memory_order_acquire);
  std::uint64_t tail = tp.tail.load(std::memory_order_relaxed);
  while (tail < head) {
    const std::uintptr_t* slot =
        tp.ring.data() + (tail % kRingSlots) * kSlotWords;
    const std::size_t n =
        std::min<std::size_t>(static_cast<std::size_t>(slot[0]), kMaxFrames);
    std::vector<std::uintptr_t> key(slot + 1, slot + 1 + n);
    ++s.aggregate[key];
    ++s.drained_samples;
    ++tail;
  }
  tp.tail.store(tail, std::memory_order_release);
}

void drain_all_locked(ProfState& s) {
  for (const auto& tp : s.threads) drain_thread_locked(s, *tp);
}

/// Resolves one PC to a human-readable frame (cached).  Frames beyond the
/// leaf are return addresses, so `adjust` backs them up by one byte to
/// attribute the sample to the call site, not the next statement.
const std::string& symbolize(
    std::uintptr_t pc, bool adjust,
    std::map<std::uintptr_t, std::string>& cache) {
  const std::uintptr_t lookup = adjust ? pc - 1 : pc;
  auto it = cache.find(lookup);
  if (it != cache.end()) return it->second;

  std::string name;
  Dl_info info;
  std::memset(&info, 0, sizeof info);
  if (dladdr(reinterpret_cast<void*>(lookup), &info) != 0 &&
      info.dli_sname != nullptr) {
    int status = -1;
    char* dem =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    name = (status == 0 && dem != nullptr) ? dem : info.dli_sname;
    std::free(dem);
  } else {
    char buf[2 * sizeof(std::uintptr_t) + 8];
    std::snprintf(buf, sizeof buf, "0x%zx", static_cast<std::size_t>(pc));
    name = buf;
  }
  // ';' is the collapsed-format frame separator; control chars would
  // break line-oriented consumers.
  for (char& c : name) {
    if (c == ';' || static_cast<unsigned char>(c) < 0x20) c = ':';
  }
  return cache.emplace(lookup, std::move(name)).first->second;
}

}  // namespace

bool profiler_available() { return true; }

bool profiler_start(const ProfilerOptions& opts) {
  ProfState& s = pstate();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.running) {
    s.last_error = "profiler already running";
    return false;
  }
  s.hz = std::min(1000, std::max(1, opts.hz));
  install_handler_locked(s);
  g_sampling.store(true, std::memory_order_relaxed);
  bool any_failed = false;
  for (const auto& tp : s.threads) {
    if (!arm_thread_locked(s, *tp)) any_failed = true;
  }
  (void)any_failed;  // partial coverage still profiles; error is recorded
  s.running = true;
  return true;
}

void profiler_stop() {
  ProfState& s = pstate();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (!s.running) return;
  g_sampling.store(false, std::memory_order_relaxed);
  for (const auto& tp : s.threads) disarm_thread_locked(*tp);
  drain_all_locked(s);
  s.running = false;
}

bool profiler_running() {
  ProfState& s = pstate();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.running;
}

std::string profiler_last_error() {
  ProfState& s = pstate();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.last_error;
}

void profiler_register_this_thread() {
  if (t_prof.load(std::memory_order_relaxed) != nullptr) return;
  auto tp = std::make_shared<ThreadProf>();
  tp->ring.assign(kRingSlots * kSlotWords, 0);
  tp->tid = static_cast<pid_t>(::syscall(SYS_gettid));

  // Stack top for the handler's bounds check.  pthread_getattr_np works
  // for the main thread too (glibc reads /proc/self/maps).
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* stack_addr = nullptr;
    std::size_t stack_size = 0;
    if (pthread_attr_getstack(&attr, &stack_addr, &stack_size) == 0) {
      tp->stack_hi =
          reinterpret_cast<std::uintptr_t>(stack_addr) + stack_size;
    }
    pthread_attr_destroy(&attr);
  }
  if (tp->stack_hi == 0) {
    // No bounds => never dereference: the walk yields leaf-only samples.
    tp->stack_hi = reinterpret_cast<std::uintptr_t>(&attr);
  }

  ProfState& s = pstate();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.threads.push_back(tp);
  t_prof.store(tp.get(), std::memory_order_relaxed);
  if (s.running) arm_thread_locked(s, *tp);
}

void profiler_unregister_this_thread() {
  ThreadProf* raw = t_prof.load(std::memory_order_relaxed);
  if (raw == nullptr) return;
  ProfState& s = pstate();
  std::lock_guard<std::mutex> lock(s.mutex);
  // Disarm before clearing t_prof: a pending SIGPROF delivered after
  // timer_delete sees a null t_prof and returns immediately.
  for (auto it = s.threads.begin(); it != s.threads.end(); ++it) {
    if (it->get() == raw) {
      disarm_thread_locked(**it);
      t_prof.store(nullptr, std::memory_order_relaxed);
      drain_thread_locked(s, **it);
      s.threads.erase(it);
      break;
    }
  }
}

std::int64_t profiler_samples_total() {
  ProfState& s = pstate();
  std::lock_guard<std::mutex> lock(s.mutex);
  std::int64_t total = s.drained_samples;
  for (const auto& tp : s.threads) {
    total += static_cast<std::int64_t>(
        tp->head.load(std::memory_order_acquire) -
        tp->tail.load(std::memory_order_relaxed));
  }
  return total;
}

std::int64_t profiler_samples_dropped() {
  ProfState& s = pstate();
  std::lock_guard<std::mutex> lock(s.mutex);
  std::int64_t total = 0;
  for (const auto& tp : s.threads) {
    total +=
        static_cast<std::int64_t>(tp->dropped.load(std::memory_order_relaxed));
  }
  return total;
}

std::string profiler_collapsed_stacks() {
  ProfState& s = pstate();
  std::lock_guard<std::mutex> lock(s.mutex);
  drain_all_locked(s);

  // Symbolize and merge: distinct raw stacks can collapse to the same
  // symbolized line (e.g. different PCs inside one function).
  std::map<std::uintptr_t, std::string> cache;
  std::map<std::string, std::uint64_t> lines;
  for (const auto& [stack, count] : s.aggregate) {
    std::string line;
    // Raw stacks are leaf-first; collapsed format wants root-first.
    for (std::size_t i = stack.size(); i-- > 0;) {
      if (!line.empty()) line += ';';
      line += symbolize(stack[i], /*adjust=*/i != 0, cache);
    }
    if (line.empty()) continue;
    lines[line] += count;
  }

  std::string out;
  char buf[32];
  for (const auto& [line, count] : lines) {
    out += line;
    std::snprintf(buf, sizeof buf, " %llu\n",
                  static_cast<unsigned long long>(count));
    out += buf;
  }
  return out;
}

void profiler_clear() {
  ProfState& s = pstate();
  std::lock_guard<std::mutex> lock(s.mutex);
  drain_all_locked(s);  // consume buffered samples so they don't reappear
  s.aggregate.clear();
  s.drained_samples = 0;
  for (const auto& tp : s.threads) {
    tp->dropped.store(0, std::memory_order_relaxed);
  }
}

#else  // !CUBISG_PROFILER — stubs only; no sampling machinery is built.

bool profiler_available() { return false; }

bool profiler_start(const ProfilerOptions& /*opts*/) { return false; }

void profiler_stop() {}

bool profiler_running() { return false; }

std::string profiler_last_error() {
  return "profiler compiled out (unsupported platform)";
}

void profiler_register_this_thread() {}
void profiler_unregister_this_thread() {}

std::int64_t profiler_samples_total() { return 0; }
std::int64_t profiler_samples_dropped() { return 0; }

std::string profiler_collapsed_stacks() { return std::string(); }

void profiler_clear() {}

#endif  // CUBISG_PROFILER

bool write_profile_collapsed(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = profiler_collapsed_stacks();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace cubisg::obs
