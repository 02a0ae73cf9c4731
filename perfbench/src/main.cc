// kwsdbg benchmark binary: runs one workload and prints its metrics as the
// last line of stdout. Normally started by perfbench/run.py, which builds
// this binary first:
//
//   kwsdbg_perfbench --workload paper_cold|paper_spilled|serve_mixed
//                    --seed N --seconds S --trace 0|1
//                    --run-dir DIR --out-dir DIR
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones of
// a traced run, as bare values; run.py checks the names against
// BENCHMARK.json and adds the units. It also clears the library's KWSDBG_*
// knobs from the environment. Progress, spreads and failed checks go to
// stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "kwsdbg_perfbench: %s\nusage: kwsdbg_perfbench --workload "
               "paper_cold|paper_spilled|serve_mixed --seed N --seconds S "
               "--trace 0|1 --run-dir DIR --out-dir DIR\n",
               why);
  return 2;
}

}  // namespace

void NoteTraceOverhead(double traced_p50_ms, double untraced_p50_ms) {
  Note("# tracing overhead: traced query_ms_p50 %.4g ms vs untraced %.4g ms "
       "(%+.1f%%)",
       traced_p50_ms, untraced_p50_ms,
       untraced_p50_ms > 0 ? (traced_p50_ms / untraced_p50_ms - 1) * 100 : 0.0);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  MarkProcessStart();
  RunContext ctx;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      ctx.workload = value;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      ctx.seconds = std::atof(value);
    } else if (flag == "--trace") {
      ctx.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--run-dir") {
      ctx.run_dir = value;
    } else if (flag == "--out-dir") {
      ctx.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (!have_seed || ctx.run_dir.empty() || ctx.out_dir.empty()) {
    return Usage("--seed, --run-dir and --out-dir are required");
  }
  if (!(ctx.seconds > 0)) return Usage("--seconds must be positive");

  RunResult result;
  if (ctx.workload == "paper_cold") {
    result = RunPaper(ctx, /*spilled=*/false);
  } else if (ctx.workload == "paper_spilled") {
    result = RunPaper(ctx, /*spilled=*/true);
  } else if (ctx.workload == "serve_mixed") {
    result = RunServeMixed(ctx);
  } else {
    return Usage(("unknown workload '" + ctx.workload + "'").c_str());
  }
  for (const std::string& p : result.problems) Note("FAILED: %s", p.c_str());
  Note("# correct=%s attempted=%llu failed=%llu, %.1f s in all",
       result.correct ? "true" : "false",
       static_cast<unsigned long long>(result.attempted),
       static_cast<unsigned long long>(result.failed), SinceStart());
  std::printf("%s\n", ResultJson(result).c_str());
  return 0;
}
