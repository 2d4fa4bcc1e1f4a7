// Small helpers shared by the serving benchmark: a monotonic clock,
// order statistics, and the one-line JSON result.
#ifndef SERVEBENCH_SUPPORT_H_
#define SERVEBENCH_SUPPORT_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile (p in (0, 1]) of `values`; 0 for an empty set.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

/// Median with the midpoint rule for even counts (matches Python's
/// statistics.median, which steady.py uses on the run-level figures).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The mean of `values` without the lowest and the highest `trim` share of
/// them; 0 for an empty set.
inline double TrimmedMean(std::vector<double> values, double trim) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t cut = static_cast<size_t>(trim * double(values.size()));
  const size_t end = values.size() - cut;
  if (end <= cut) return Median(std::move(values));
  double sum = 0.0;
  for (size_t i = cut; i < end; ++i) sum += values[i];
  return sum / static_cast<double>(end - cut);
}

/// The typical latency of a workload's apps: each app's 10%-trimmed mean,
/// averaged over the apps (empty groups are skipped). The apps' latencies
/// differ in size, so a median of their pooled samples sits where one app's
/// samples end and the next app's begin and jumps by the gap when the apps'
/// shares shift; and on a host whose speed flips between two states every
/// second or so, a median jumps between the states too. A trimmed mean
/// moves in proportion to the share of slow samples and ignores stalls.
inline double TypicalLatency(const std::vector<std::vector<double>>& groups) {
  double sum = 0.0;
  int count = 0;
  for (const std::vector<double>& group : groups) {
    if (group.empty()) continue;
    sum += TrimmedMean(group, 0.10);
    ++count;
  }
  return count > 0 ? sum / count : 0.0;
}

/// Samples strictly above the nearest-rank p-th percentile: the tail the
/// percentile rests on. The benchmark reports p99 only with >= 10 of them.
inline size_t SamplesBeyond(size_t count, double p) {
  const size_t rank = static_cast<size_t>(std::ceil(p * double(count)));
  return count > rank ? count - rank : 0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: the last line of standard output.
inline void PrintResultLine(bool correct, int64_t attempted, int64_t failed,
                            const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Counts every output check and keeps the first few failures for the log.
class CheckLog {
 public:
  /// Records one check; `detail` is printed with a failure.
  void Expect(bool ok, const char* what, int64_t detail = 0) {
    ++checks_;
    if (ok) return;
    ++failures_;
    if (failures_ <= 20) {
      std::fprintf(stderr, "CHECK FAILED: %s (%lld)\n", what,
                   static_cast<long long>(detail));
    }
  }
  bool ok() const { return failures_ == 0; }
  int64_t checks() const { return checks_; }
  int64_t failures() const { return failures_; }

 private:
  int64_t checks_ = 0;
  int64_t failures_ = 0;
};

}  // namespace servebench

#endif  // SERVEBENCH_SUPPORT_H_
