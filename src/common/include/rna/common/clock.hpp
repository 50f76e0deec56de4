#pragma once

// Time helpers. Real time is always measured with steady_clock; simulated
// time lives in rna::sim. Durations inside the project are expressed as
// double seconds to keep arithmetic with workload models simple.

#include <cerrno>
#include <chrono>
#include <cmath>
#include <ctime>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

namespace rna::common {

using SteadyClock = std::chrono::steady_clock;

/// Seconds as a double; the unit used throughout the simulator and the
/// workload models.
using Seconds = double;

/// The deadline of every protocol wait in a fault-free run (see
/// train::DeadlinesFor). Nothing can drop a message there, so the bound is
/// never reached unless a protocol bug loses one; the run then takes the
/// fault path's recovery instead of hanging.
inline constexpr Seconds kLosslessDeadline = 30.0;

inline Seconds ToSeconds(SteadyClock::duration d) {
  return std::chrono::duration<double>(d).count();
}

inline SteadyClock::duration FromSeconds(Seconds s) {
  return std::chrono::duration_cast<SteadyClock::duration>(
      std::chrono::duration<double>(s));
}

/// The project's sanctioned blocking sleep, used only to model real time
/// passing (straggler injection in WorkerContext). Library code must not
/// sleep for synchronization — wait on a CondVar instead so shutdown can
/// interrupt the wait; tools/lint.py bans std::this_thread::sleep_for and
/// the nanosleep calls outside this header and tests.
///
/// The sleep runs to an absolute CLOCK_MONOTONIC deadline (retried on
/// EINTR, so a signal cannot shorten it), and on Linux the calling
/// thread's timer slack is set to 1 ns before its first sleep. On a 4-vCPU
/// VM, a 1 ms std::this_thread::sleep_for under the default 50 µs slack
/// overshot by a median 64 µs, and this sleep by 14–18 µs. The slack is a
/// per-thread attribute, so only the program's own sleeping threads change.
inline void SleepFor(Seconds s) {
  if (!(s > 0.0)) return;
#if defined(__linux__)
  static thread_local const bool slack_set =
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL) == 0;
  (void)slack_set;
#endif
  timespec deadline{};
  clock_gettime(CLOCK_MONOTONIC, &deadline);
  // Round the fraction up, so the deadline is never short of `s`.
  const auto whole = static_cast<std::time_t>(s);
  const long nanos =
      deadline.tv_nsec +
      static_cast<long>(std::ceil((s - static_cast<Seconds>(whole)) * 1e9));
  deadline.tv_sec += whole + nanos / 1'000'000'000L;
  deadline.tv_nsec = nanos % 1'000'000'000L;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &deadline,
                         nullptr) == EINTR) {
  }
}

/// CPU seconds consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID).
/// For busy-time accounting that must mean "work done": a thread that is
/// descheduled accrues no CPU time, so the figure stays comparable when
/// hundreds of threads oversubscribe the cores (where wall-clock sections
/// would mostly measure preemption).
inline Seconds ThreadCpuSeconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<Seconds>(ts.tv_sec) +
         1e-9 * static_cast<Seconds>(ts.tv_nsec);
#else
  return ToSeconds(SteadyClock::now().time_since_epoch());
#endif
}

/// RAII delta of ThreadCpuSeconds() added to `*acc` on destruction.
class ScopedCpuAccumulator {
 public:
  explicit ScopedCpuAccumulator(Seconds* acc)
      : acc_(acc), start_(ThreadCpuSeconds()) {}
  ScopedCpuAccumulator(const ScopedCpuAccumulator&) = delete;
  ScopedCpuAccumulator& operator=(const ScopedCpuAccumulator&) = delete;
  ~ScopedCpuAccumulator() { *acc_ += ThreadCpuSeconds() - start_; }

 private:
  Seconds* acc_;
  Seconds start_;
};

/// Simple wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(SteadyClock::now()) {}

  void Reset() { start_ = SteadyClock::now(); }

  Seconds Elapsed() const { return ToSeconds(SteadyClock::now() - start_); }

 private:
  SteadyClock::time_point start_;
};

}  // namespace rna::common
