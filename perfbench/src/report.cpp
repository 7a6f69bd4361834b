#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit, samples});
}

void Report::operation(bool failed, const std::string& why) {
  ++attempted_;
  if (failed) {
    ++failed_;
    notes_.push_back("FAILED: " + why);
  }
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::print() const {
  for (const std::string& n : notes_) std::cout << "# " << n << "\n";
  char buf[512];
  for (const Entry& e : metrics_) {
    std::snprintf(buf, sizeof buf, "%-40s %16.6g %-8s (n=%zu)", e.name.c_str(),
                  e.value, e.unit.c_str(), e.samples);
    std::cout << buf << "\n";
  }
  std::snprintf(buf, sizeof buf, "%-40s %16.6g %-8s (n=%lld)", "failed_frac",
                attempted_ > 0 ? static_cast<double>(failed_) /
                                     static_cast<double>(attempted_)
                               : 0.0,
                "1", static_cast<long long>(attempted_));
  std::cout << buf << "\n";

  std::cout << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    std::cout << buf;
  }
  std::cout << "}}" << std::endl;
}

}  // namespace perfbench
