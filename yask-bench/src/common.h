// Small shared helpers of yask-bench: wall and CPU clocks, quantiles,
// process peak RSS, progress logging and the result line.

#ifndef YASK_BENCH_COMMON_H_
#define YASK_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

namespace yask_bench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Nearest-rank quantile of `values` (copied, so callers keep their order).
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Peak resident set size of this process, in MB.
inline double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// User plus system CPU time of this process so far, in ms.
inline double ProcessCpuMs() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return (static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec)) *
             1e3 +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e3;
}

/// CPU time of the calling thread so far, in ms.
inline double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// CPU time the hypervisor took from this machine's vCPUs so far (the
/// `steal` column of /proc/stat), in seconds; 0 where it is not reported.
inline double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  if (got != 8) return 0.0;
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Progress and human-readable figures go to stderr; stdout carries only the
/// result line.
inline void Log(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::fflush(stderr);
}

/// The metrics of one run, in the order they were recorded.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  /// {"name": {"value": v, "unit": "u"}, ...} with every digit of v.
  std::string ToJson() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}";
  }

  void LogAll() const {
    for (const auto& m : metrics_) {
      Log("  %-40s %16.4f %s", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace yask_bench

#endif  // YASK_BENCH_COMMON_H_
