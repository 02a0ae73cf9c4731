#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <sstream>

namespace perfbench {

namespace {
double g_start = 0;
}  // namespace

void MarkProcessStart() { g_start = NowSeconds(); }
double SinceStart() { return NowSeconds() - g_start; }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void RunResult::Fail(const std::string& what) {
  correct = false;
  problems.push_back(what);
}

std::string ResultJson(const RunResult& r) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << name << "\": " << (std::isfinite(value) ? value : 0.0);
  }
  out << "}}";
  return out.str();
}

void Note(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

std::string Spread(const std::vector<double>& values) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "median %.4g [q1 %.4g, q3 %.4g] n=%zu",
                Quantile(values, 0.5), Quantile(values, 0.25),
                Quantile(values, 0.75), values.size());
  return buf;
}

}  // namespace perfbench
