#pragma once

// Keeps every CPU of the process awake and records when the host did not
// run one.  On a shared virtual machine an idle vCPU is parked by the host,
// and waking it again takes up to tens of milliseconds; the server's
// threads sleep between requests, so those wake-ups, not the program, would
// set the latency tail.  One spinner per CPU, at SCHED_IDLE priority so
// that any program thread preempts it at once, keeps the vCPUs from
// parking.  When a spinner's loop stops for longer than kGapNs beyond the
// time it ran and the time it waited for other threads of the guest (its
// schedstat run delay), the host held that vCPU: the span is a host stall,
// which the load generator uses to leave out requests in flight across it.
// A stall the host takes while a program thread, not the spinner, runs on
// a vCPU is not seen.

#include <sched.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace kbench {

class HostWatch {
 public:
  using Interval = std::pair<std::int64_t, std::int64_t>;  ///< [from, to] ns

  /// Starts the spinners; when the SCHED_IDLE policy is refused none run
  /// (a spinner at normal priority would take CPU from the program).
  HostWatch();
  /// Stops and joins every spinner.
  ~HostWatch();
  HostWatch(const HostWatch&) = delete;
  HostWatch& operator=(const HostWatch&) = delete;

  [[nodiscard]] std::size_t cpus() const { return threads_.size(); }

  /// Host stalls on any CPU that overlap [t0, t1], sorted by start.
  [[nodiscard]] std::vector<Interval> stalls(std::int64_t t0, std::int64_t t1) const;

  /// A spinner loop pause with this much time unaccounted for by the guest
  /// is a host stall.  Calm loop passes take a few microseconds.
  static constexpr std::int64_t kGapNs = 500'000;
  /// Longest a consistent sample of the spinner's clocks may take.
  static constexpr std::int64_t kSampleNs = 50'000;

 private:
  void spin();

  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
  mutable std::mutex mu_;
  std::vector<Interval> stalls_;
};

/// Pins the calling thread to `count` of the CPUs it may run on, starting
/// at the `first`-th, for the object's lifetime, when the process may run
/// on at least four; restores the previous CPU set after.  Threads started
/// meanwhile inherit the set.  The benchmark places its load generator, its
/// reload driver and the server's threads on CPUs of their own, so that
/// where the guest's scheduler happens to put a thread does not change the
/// figures from run to run.
class ScopedPin {
 public:
  ScopedPin(int first, int count);
  ~ScopedPin();
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Where ScopedPin puts each of the benchmark's threads.
inline constexpr int kGeneratorCpu = 0;
inline constexpr int kReloadCpu = 1;
inline constexpr int kServerCpus = 2;  ///< first of two

/// Merge possibly overlapping intervals into disjoint ones, in time order.
[[nodiscard]] std::vector<HostWatch::Interval> merge_intervals(
    std::vector<HostWatch::Interval> v);

}  // namespace kbench
