#ifndef KBQA_UTIL_TIMER_H_
#define KBQA_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace kbqa {

/// Monotonic wall-clock stopwatch for coarse pipeline timing (offline
/// training phases, per-question latency in effectiveness benches).
/// Fine-grained latency numbers use google-benchmark instead.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time since construction / last Reset.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  uint64_t ElapsedMicros() const {
    return static_cast<uint64_t>(ElapsedSeconds() * 1e6);
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace kbqa

#endif  // KBQA_UTIL_TIMER_H_
