// The benchmark's workloads. Each builds its inputs from the run's seed,
// discards a warm-up, measures whole rounds for the run's duration, checks
// the program's outputs, and returns the metrics of the run: end-to-end ones
// from an untraced run, per-layer ones from a traced run (ctx.trace).
#ifndef KWSDBG_PERFBENCH_WORKLOADS_H_
#define KWSDBG_PERFBENCH_WORKLOADS_H_


#include "common.h"

namespace perfbench {

/// paper_cold (spilled = false) and paper_spilled (spilled = true).
RunResult RunPaper(const RunContext& ctx, bool spilled);

/// serve_mixed.
RunResult RunServeMixed(const RunContext& ctx);

/// The traced run's overhead line: traced against untraced median latency.
void NoteTraceOverhead(double traced_p50_ms, double untraced_p50_ms);

}  // namespace perfbench

#endif  // KWSDBG_PERFBENCH_WORKLOADS_H_
