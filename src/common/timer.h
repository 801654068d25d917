// Monotonic wall-clock timing utilities, plus the calling thread's CPU
// clock.

#ifndef SIMPUSH_COMMON_TIMER_H_
#define SIMPUSH_COMMON_TIMER_H_

#include <time.h>

#include <chrono>
#include <cstdint>

namespace simpush {

/// Simple monotonic stopwatch.
class Timer {
 public:
  Timer() { Restart(); }

  /// Resets the start point to now.
  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction / last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed since construction / last Restart().
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

  /// Microseconds elapsed since construction / last Restart().
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// CPU seconds the calling thread has consumed so far
/// (CLOCK_THREAD_CPUTIME_ID). A difference around a call is the CPU it
/// took on this thread: time the thread spent descheduled or blocked
/// does not count, unlike a Timer's.
inline double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/// Accumulates elapsed time across several start/stop intervals; used by
/// the benchmark harness to attribute time to algorithm stages.
class StageTimer {
 public:
  void Start() { running_.Restart(); }
  void Stop() { total_ += running_.ElapsedSeconds(); }
  void Reset() { total_ = 0.0; }
  double TotalSeconds() const { return total_; }

 private:
  Timer running_;
  double total_ = 0.0;
};

}  // namespace simpush

#endif  // SIMPUSH_COMMON_TIMER_H_
