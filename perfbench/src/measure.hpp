// Small measurement helpers shared by the benchmark's runners: sample
// statistics, process CPU and memory (including node child processes).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Linear-interpolated quantile (q in [0, 1]) of the samples; 0 if empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// User+system CPU seconds of this process plus every live child process
// (TcpLauncher's node processes), read from getrusage and /proc.
double cpu_seconds_with_children();
// Peak resident set of this process in MiB.
double self_peak_rss_mb();

}  // namespace perfbench
