// Shared helpers of the benchmark program: clocks, percentiles, Zipf
// sampling, the metric report and child-process control.
#pragma once

#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "amoeba/common/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank percentile of an unsorted sample (0 when empty).
[[nodiscard]] inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Log-linear latency histogram (HdrHistogram-style): fixed buckets with
/// under 0.8% relative width, so recording never allocates and memory does
/// not grow with throughput.  Percentiles interpolate within the bucket.
class Histogram {
 public:
  Histogram() : counts_(kBuckets, 0) {}

  void record_us(double us) {
    const auto ns = static_cast<std::uint64_t>(std::max(0.0, us) * 1e3 + 0.5);
    ++counts_[index(ns)];
    ++total_;
  }
  void merge(const Histogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }
  [[nodiscard]] std::uint64_t count() const { return total_; }
  /// Nearest-rank percentile in microseconds (0 when empty).
  [[nodiscard]] double percentile_us(double q) const;

 private:
  static constexpr int kSubBits = 8;  // 128 buckets per power of two
  static constexpr std::size_t kBuckets = (64 - kSubBits + 2) << (kSubBits - 1);

  [[nodiscard]] static std::size_t index(std::uint64_t ns) {
    if (ns < (1u << kSubBits)) return ns;
    const int shift = 63 - __builtin_clzll(ns) - (kSubBits - 1);
    return (static_cast<std::size_t>(shift) << (kSubBits - 1)) + (ns >> shift);
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Zipf(s) over [0, n): precomputed CDF, sampled by inverse transform.
class Zipf {
 public:
  Zipf(std::size_t n, double s) {
    cdf_.reserve(n);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  [[nodiscard]] std::uint32_t sample(amoeba::Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform01());
    return static_cast<std::uint32_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  }

 private:
  std::vector<double> cdf_;
};

/// Every metric and correctness check a run produces.  Metrics print as
/// one line each (name, value, unit, sample count); the closing JSON line
/// carries the metrics of the requested kind.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::uint64_t samples);
  /// Records one correctness check; a failed check fails the run.
  void check(const std::string& name, bool passed, const std::string& detail);
  /// A run-level fact (fingerprint, settings) printed and kept in the
  /// results file.
  void note(const std::string& key, const std::string& value);

  void add_attempted(std::uint64_t n) { attempted_ += n; }
  void add_failed(std::uint64_t n) { failed_ += n; }

  [[nodiscard]] bool correct() const { return correct_; }
  /// Prints the closing JSON line with exactly the metrics `names`, in
  /// that order, and appends the stamped result (every metric, sample
  /// counts, checks, notes) to `results_file`.  False, and no JSON line,
  /// when one of `names` was never emitted.
  [[nodiscard]] bool finish(const std::vector<std::string>& names,
                            const std::filesystem::path& results_file) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Peak resident set (VmHWM) of a process, in MB; 0 if unreadable.
[[nodiscard]] double peak_rss_mb(pid_t pid);

/// Child processes started by the benchmark; every one is killed and
/// reaped on every exit path.
class Children {
 public:
  Children() = default;
  Children(const Children&) = delete;
  Children& operator=(const Children&) = delete;
  ~Children() { stop_all(); }

  /// fork/exec with stdout+stderr appended to `log`.  The child dies with
  /// the benchmark process (PR_SET_PDEATHSIG), so a crashed run leaves no
  /// server.  Call from the main thread: the signal follows the spawning
  /// thread.
  pid_t spawn(const std::vector<std::string>& args,
              const std::filesystem::path& log);
  /// SIGTERM every child and wait for each to end.
  void stop_all();

 private:
  std::vector<pid_t> pids_;
};

}  // namespace perfbench
