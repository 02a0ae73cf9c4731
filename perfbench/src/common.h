// Shared plumbing for the benchmark binary: run context, clocks, sample
// statistics, peak RSS and the metric record printed as the final JSON line.
#ifndef KWSDBG_PERFBENCH_COMMON_H_
#define KWSDBG_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Arguments of one benchmark run.
struct RunContext {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir;  ///< Per-run scratch (spill files, WAL); removed at exit.
  std::string out_dir;  ///< Where the trace file is written.
};

/// Seconds on the monotonic clock.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds since the process entered main() (set by MarkProcessStart).
double SinceStart();
void MarkProcessStart();

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMib();

/// Metric values by name, printed in name order. Units, and the list of
/// metrics a run must report, come from BENCHMARK.json (run.py adds them).
using MetricMap = std::map<std::string, double>;

/// Outcome of a workload run: what the final JSON line reports.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricMap metrics;
  std::vector<std::string> problems;  ///< Failed checks, printed to stderr.

  /// Records a failed correctness check (clears `correct`).
  void Fail(const std::string& what);
  /// Records a check outcome; returns `ok`.
  bool Expect(bool ok, const std::string& what) {
    if (!ok) Fail(what);
    return ok;
  }
};

/// Serialises `r` as the one-line JSON result printed last on stdout.
std::string ResultJson(const RunResult& r);

/// Prints a human-readable line to stderr (progress, quartiles, checks).
void Note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Median and quartiles of a sample, for the human-readable lines.
std::string Spread(const std::vector<double>& values);

}  // namespace perfbench

#endif  // KWSDBG_PERFBENCH_COMMON_H_
