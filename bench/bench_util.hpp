// Shared helpers for the paper-reproduction benches.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdio>
#include <string>

namespace zkdet::bench {

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID), or of the
// whole process (CLOCK_PROCESS_CPUTIME_ID), since construction.
class CpuStopwatch {
 public:
  explicit CpuStopwatch(clockid_t clock = CLOCK_THREAD_CPUTIME_ID)
      : clock_(clock), start_(now()) {}
  [[nodiscard]] double seconds() const { return now() - start_; }

 private:
  [[nodiscard]] double now() const {
    timespec ts{};
    clock_gettime(clock_, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  clockid_t clock_;
  double start_;
};

inline std::string fmt_seconds(double s) {
  char buf[64];
  if (s < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2f us", s * 1e6);
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", s * 1e3);
  } else if (s < 120.0) {
    std::snprintf(buf, sizeof(buf), "%.2f s", s);
  } else {
    std::snprintf(buf, sizeof(buf), "%dmin%02ds", static_cast<int>(s) / 60,
                  static_cast<int>(s) % 60);
  }
  return buf;
}

}  // namespace zkdet::bench
