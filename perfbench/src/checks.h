// Correctness checks of debugger reports against the reference evaluator:
//   (b) every answer and every MPAN has a row, every non-answer and every
//       culprit has none;
//   (c) MPANs are maximal: each one-join-larger network inside the
//       non-answer's sub-lattice is empty;
//   (d) culprits are minimal: each one-join-smaller sub-network has a row.
// The report must also classify every MTN of every interpretation.
#ifndef KWSDBG_PERFBENCH_CHECKS_H_
#define KWSDBG_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>

#include "common.h"
#include "debugger/debug_report.h"
#include "lattice/lattice.h"
#include "reference.h"
#include "text/inverted_index.h"

namespace perfbench {

/// Counts of what CheckReport verified, summed over calls.
struct CheckTally {
  size_t reports = 0;
  size_t answers = 0;
  size_t non_answers = 0;
  size_t classified = 0;  ///< (b) answers, non-answers, MPANs, culprits.
  size_t maximality = 0;  ///< (c) larger networks checked empty.
  size_t minimality = 0;  ///< (d) smaller networks checked non-empty.
};

/// Runs checks (b)-(d) on `report`. (c) and (d) check at most
/// `sample_limit` networks, drawn with `sample_seed`; (b) checks all.
/// `index` must be the index the report was computed with (it decides the
/// keyword bindings); the reference evaluator reads only table rows.
void CheckReport(const kwsdbg::Lattice& lattice,
                 const kwsdbg::InvertedIndex& index,
                 const kwsdbg::DebugReport& report, ReferenceEvaluator* ref,
                 size_t sample_limit, uint64_t sample_seed, CheckTally* tally,
                 RunResult* result);

}  // namespace perfbench

#endif  // KWSDBG_PERFBENCH_CHECKS_H_
