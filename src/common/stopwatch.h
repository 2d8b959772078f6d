#ifndef COMOVE_COMMON_STOPWATCH_H_
#define COMOVE_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>

/// \file
/// Wall-clock stopwatch used by the latency/throughput metrics collectors.

namespace comove {

/// Measures elapsed wall time from construction or the latest Restart().
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  std::int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - start_)
        .count();
  }
  std::int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace comove

#endif  // COMOVE_COMMON_STOPWATCH_H_
