#pragma once

// Result collection for one benchmark run: named metrics with units and
// sample counts, operation attempt/failure tallies, and the output format
// (one human-readable line per metric, then the single JSON result line).

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);

/// Linear-interpolated quantile q in [0, 1] (0 for an empty vector).
double quantile(std::vector<double> v, double q);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

class Report {
 public:
  /// Record metric `name`; `samples` is how many measurements the value
  /// summarises (printed beside it, not part of the JSON result).
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);

  /// One operation (a timed run, a verification run or a job) and
  /// whether it failed; `why` is printed for failures.
  void operation(bool failed, const std::string& why = "");

  /// A free-form line for the exclusive-time table and notes.
  void note(const std::string& line);

  std::int64_t failed() const { return failed_; }

  /// Print notes, one line per metric, then the JSON result line.
  void print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

}  // namespace perfbench
