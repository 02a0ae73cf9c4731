// The benchmark's data set (seeded DBLife, its text index and the level-5
// lattice) and the stage-by-stage debugging pipeline of the traced run.
#ifndef KWSDBG_PERFBENCH_DATASET_H_
#define KWSDBG_PERFBENCH_DATASET_H_

#include <map>
#include <memory>
#include <string>

#include "common.h"
#include "datasets/dblife.h"
#include "debugger/debug_report.h"
#include "lattice/lattice.h"
#include "sql/executor.h"
#include "text/inverted_index.h"
#include "trace.h"
#include "traversal/strategy.h"
#include "traversal/verdict_cache.h"

namespace perfbench {

/// DBLife at `scale` generated from `seed`, with its index and lattice.
struct Dataset {
  kwsdbg::DblifeDataset dblife;
  std::unique_ptr<kwsdbg::InvertedIndex> index;
  std::unique_ptr<kwsdbg::Lattice> lattice;

  kwsdbg::Database* db() const { return dblife.db.get(); }
};

/// Generates the data set. Set-up spans (datasets.generate, text.build,
/// lattice.generate) go to `tracer` when it is non-null. Heap-allocated
/// because the lattice points at the schema graph, which must not move.
std::unique_ptr<Dataset> BuildDataset(double scale, uint64_t seed,
                                      Tracer* tracer);

/// The lattice level every workload uses (the paper's default, Table 3).
inline constexpr size_t kLatticeLevel = 5;

/// Every workload debugs one DBLife instance per scale, like the paper's
/// single snapshot; a run's seed drives the order and mix of operations.
/// (Seeding the data too moved spilled SQL per query by 7% between seeds.)
inline constexpr uint64_t kDataSeed = 42;

/// Per-layer sums of the traced run, by metric name.
struct LayerSums {
  std::map<std::string, double> sum;
  void Add(const std::string& name, double v) { sum[name] += v; }
  double Get(const std::string& name) const {
    auto it = sum.find(name);
    return it == sum.end() ? 0.0 : it->second;
  }
};

/// One NonAnswerDebugger::Debug call taken apart: binds, prunes, traverses
/// and assembles the report through the library's public stage functions,
/// with a span around each stage and executor, storage and posting counters
/// read at the same boundaries. `executor` and `cache` play the debugger's
/// SQL session and verdict cache.
kwsdbg::StatusOr<kwsdbg::DebugReport> StagedDebug(
    const Dataset& data, const std::string& query, kwsdbg::TraversalKind kind,
    kwsdbg::Executor* executor, kwsdbg::VerdictCache* cache, Tracer* tracer,
    uint64_t query_id, LayerSums* sums);

/// Sums the traversal counters of every interpretation of `report`.
size_t ReportSql(const kwsdbg::DebugReport& report);

}  // namespace perfbench

#endif  // KWSDBG_PERFBENCH_DATASET_H_
