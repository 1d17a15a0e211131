#include "hostwatch.hpp"

#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>

#include "common.hpp"

namespace kbench {

namespace {

/// The calling thread's CPU time, in ns.  Time the host takes from the
/// vCPU (steal) is not charged to the thread.
std::int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// The calling thread's run delay — time spent runnable while another
/// thread had its CPU — from /proc/thread-self/schedstat, in ns; -1 when
/// the kernel does not report it.
std::int64_t run_delay_ns(int fd) {
  char buf[128];
  const ssize_t n = ::pread(fd, buf, sizeof buf - 1, 0);
  if (n <= 0) return -1;
  buf[n] = '\0';
  unsigned long long exec = 0;
  unsigned long long delay = 0;
  if (std::sscanf(buf, "%llu %llu", &exec, &delay) != 2) return -1;
  return static_cast<std::int64_t>(delay);
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

std::vector<HostWatch::Interval> merge_intervals(std::vector<HostWatch::Interval> v) {
  std::sort(v.begin(), v.end());
  std::vector<HostWatch::Interval> out;
  for (const auto& iv : v) {
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

ScopedPin::ScopedPin(int first, int count) {
  CPU_ZERO(&saved_);
  if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0 || CPU_COUNT(&saved_) < 4) return;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (int c = 0, i = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &saved_)) continue;
    if (i >= first && i < first + count) CPU_SET(c, &chosen);
    ++i;
  }
  pinned_ = CPU_COUNT(&chosen) > 0 && ::sched_setaffinity(0, sizeof chosen, &chosen) == 0;
}

ScopedPin::~ScopedPin() {
  if (pinned_) ::sched_setaffinity(0, sizeof saved_, &saved_);
}

HostWatch::HostWatch() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  std::atomic<std::size_t> started{0};
  std::atomic<bool> refused{false};
  for (int cpu : cpus) {
    threads_.emplace_back([this, cpu, &started, &refused] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_param param{};
      param.sched_priority = 0;
      const bool ok =
          ::pthread_setaffinity_np(::pthread_self(), sizeof one, &one) == 0 &&
          ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param) == 0;
      if (!ok) refused = true;
      ++started;  // the constructor may return now: touch no local after it
      if (ok) spin();
    });
  }
  while (started.load() < threads_.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (refused.load()) {
    stop_ = true;
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }
}

HostWatch::~HostWatch() {
  stop_ = true;
  for (std::thread& t : threads_) t.join();
}

void HostWatch::spin() {
  const int fd = ::open("/proc/thread-self/schedstat", O_RDONLY | O_CLOEXEC);
  if (fd < 0) {  // no run delay to tell steal from preemption: spin only
    while (!stop_.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 128; ++i) cpu_relax();
      ::sched_yield();
    }
    return;
  }
  std::int64_t last = now_ns();
  std::int64_t last_cpu = thread_cpu_ns();
  std::int64_t last_delay = run_delay_ns(fd);
  while (!stop_.load(std::memory_order_relaxed)) {
    // Mostly pause, which leaves the core's resources to a sibling
    // hyperthread; yield every few microseconds, since SCHED_IDLE alone
    // still grants the spinner a slice now and then while a program
    // thread waits for this CPU.
    for (int i = 0; i < 128; ++i) cpu_relax();
    ::sched_yield();
    // A consistent sample: no switch between the clock reads, or the run
    // delay would count a wait the wall-clock gap does not hold yet.
    const std::int64_t t0 = now_ns();
    const std::int64_t cpu = thread_cpu_ns();
    const std::int64_t delay = run_delay_ns(fd);
    const std::int64_t t = now_ns();
    if (delay < 0 || t - t0 > kSampleNs) continue;
    // Wall time since the last sample that the spinner neither ran nor
    // waited for another thread of the guest: the host held the vCPU.
    if ((t - last) - (cpu - last_cpu) - (delay - last_delay) > kGapNs) {
      const std::lock_guard<std::mutex> lock(mu_);
      stalls_.emplace_back(last, t);
    }
    last = t;
    last_cpu = cpu;
    last_delay = delay;
  }
  ::close(fd);
}

std::vector<HostWatch::Interval> HostWatch::stalls(std::int64_t t0,
                                                   std::int64_t t1) const {
  std::vector<Interval> out;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Interval& iv : stalls_) {
    if (iv.second >= t0 && iv.first <= t1) out.push_back(iv);
  }
  return merge_intervals(std::move(out));
}

}  // namespace kbench
