// paper_cold and paper_spilled: the Table 2 queries, each Debug() call in a
// fresh NonAnswerDebugger (a developer's first debugging call), over
// resident paper-sized DBLife or over a smaller DBLife whose tables page
// through the buffer pool under a quarter-size budget with the posting
// lists on disk.
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "common/logging.h"
#include "common/rng.h"
#include "dataset.h"
#include "datasets/workload.h"
#include "debugger/non_answer_debugger.h"
#include "reference.h"
#include "storage/disk_manager.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace kwsdbg;  // NOLINT: the benchmark drives the whole library.

namespace {

/// Paper-sized: DblifeConfig::Scaled(4.6) has 908,508 tuples against the
/// paper's 801,189.
constexpr double kColdScale = 4.6;
/// Out-of-core: 49,621 tuples. A pass over the paper-sized set takes about
/// 14 s spilled, too long for a run to hold several.
constexpr double kSpilledScale = 1.0;
/// Decoded posting lists the spilled index keeps in memory: fewer than the
/// workload's keywords touch, so posting lists are read from disk too.
constexpr size_t kPostingCacheLists = 8;
/// Networks checked per query for maximality/minimality (checks c and d).
constexpr size_t kSampledChecks = 24;
/// Spilled, the order of the calls decides what the buffer pool and the
/// posting cache hold, and so the pages each call reads: one seeded order
/// read 17% slower than another. A spilled run cycles through this many
/// seeded orders, in whole cycles, so it averages over them and its counts
/// still repeat exactly for its seed. Cold calls share no state, so one
/// order serves.
constexpr size_t kSpilledOrders = 4;

struct Op {
  size_t query;  ///< Index into PaperWorkload().
  TraversalKind kind;
};

/// One round: every (query, strategy) pair once, in the seed's `order`-th
/// order.
std::vector<Op> Round(const std::vector<TraversalKind>& kinds, uint64_t seed,
                      uint64_t order) {
  std::vector<Op> ops;
  for (size_t q = 0; q < PaperWorkload().size(); ++q) {
    for (TraversalKind k : kinds) ops.push_back(Op{q, k});
  }
  Rng rng((seed ^ 0x0DDBA11ull) + order * 0x9E3779B97F4A7C15ull);
  rng.Shuffle(&ops);
  return ops;
}

StatusOr<DebugReport> DebugOnce(const Dataset& data, const Op& op) {
  DebuggerOptions options;
  options.strategy = op.kind;
  NonAnswerDebugger debugger(data.db(), data.lattice.get(), data.index.get(),
                             options);
  return debugger.Debug(PaperWorkload()[op.query].text);
}

StatusOr<DebugReport> StagedOnce(const Dataset& data, const Op& op,
                                 Tracer* tracer, uint64_t query_id,
                                 LayerSums* sums) {
  Executor executor(data.db());
  executor.RegisterTextIndex(data.index.get());
  VerdictCache cache;
  return StagedDebug(data, PaperWorkload()[op.query].text, op.kind, &executor,
                     &cache, tracer, query_id, sums);
}

std::string OpName(const Op& op) {
  return PaperWorkload()[op.query].id + "/" +
         std::string(TraversalKindName(op.kind));
}

void Spill(Dataset* data, const RunContext& ctx, Tracer* tracer) {
  ScopedSpan span(tracer, "storage.spill", 0);
  Status st = data->index->SpillToDisk(ctx.run_dir, kPostingCacheLists);
  KWSDBG_CHECK(st.ok()) << st.ToString();
  SpillOptions options;
  options.page_size = DiskManager::kDefaultPageSize;
  options.spill_dir = ctx.run_dir;
  st = data->db()->ApplyMemoryBudget(data->db()->EstimateBytes() / 4, options);
  KWSDBG_CHECK(st.ok()) << st.ToString();
  KWSDBG_CHECK(data->db()->AnySpilled());
}

}  // namespace

RunResult RunPaper(const RunContext& ctx, bool spilled) {
  RunResult result;
  Tracer tracer;
  Tracer* tr = ctx.trace ? &tracer : nullptr;
  const std::vector<TraversalKind> kinds =
      spilled ? std::vector<TraversalKind>{TraversalKind::kTopDown,
                                           TraversalKind::kScoreBased}
              : AllTraversalKinds();
  std::unique_ptr<Dataset> owned =
      BuildDataset(spilled ? kSpilledScale : kColdScale, kDataSeed, tr);
  Dataset& data = *owned;
  const size_t resident_bytes = data.db()->EstimateBytes();
  if (spilled) Spill(&data, ctx, tr);
  Note("# %s: %zu tuples, %.1f MiB resident estimate, lattice %zu nodes",
       ctx.workload.c_str(), data.db()->TotalTuples(), resident_bytes / 1048576.0,
       data.lattice->num_nodes());
  if (spilled) {
    const StorageStats s = data.db()->storage_stats();
    Note("# spilled %zu tables (%.1f MiB on disk) under a %.1f MiB budget",
         s.spilled_tables, s.spilled_bytes / 1048576.0,
         resident_bytes / 4 / 1048576.0);
  }

  std::vector<std::vector<Op>> orders;
  for (size_t k = 0; k < (spilled ? kSpilledOrders : 1); ++k) {
    orders.push_back(Round(kinds, ctx.seed, k));
  }
  const std::vector<Op>& round = orders.front();
  // Warm-up, discarded. Spilled: the cycle's last round, so the buffer pool
  // holds the same pages at the start of every timed cycle. Cold: one call
  // per query (no state carries from one cold call to the next).
  LayerSums discard;
  for (size_t i = 0; i < round.size(); ++i) {
    if (!spilled && i >= PaperWorkload().size()) break;
    Op op = spilled ? orders.back()[i] : Op{i, kinds[i % kinds.size()]};
    auto report = ctx.trace ? StagedOnce(data, op, nullptr, 0, &discard)
                            : DebugOnce(data, op);
    KWSDBG_CHECK(report.ok()) << report.status().ToString();
  }

  // Timed rounds.
  const double setup_s = SinceStart();
  std::vector<double> latency_ms, round_qps;
  std::map<size_t, std::string> signature;  // by query
  std::map<size_t, DebugReport> first_report;
  std::map<std::string, std::string> staged_signature;  // by OpName
  LayerSums sums;
  size_t sql = 0;
  uint64_t query_id = 0;
  const double start = NowSeconds();
  while (round_qps.empty() || round_qps.size() % orders.size() != 0 ||
         NowSeconds() - start < ctx.seconds) {
    const double round_start = NowSeconds();
    const std::vector<Op>& ops = orders[round_qps.size() % orders.size()];
    for (const Op& op : ops) {
      ++result.attempted;
      const double t0 = NowSeconds();
      auto report = ctx.trace ? StagedOnce(data, op, tr, ++query_id, &sums)
                              : DebugOnce(data, op);
      latency_ms.push_back((NowSeconds() - t0) * 1e3);
      if (!report.ok()) {
        ++result.failed;
        result.problems.push_back(OpName(op) + ": " + report.status().ToString());
        continue;
      }
      sql += ReportSql(*report);
      // (a) every strategy, every round: one classification per query.
      const std::string sig = report->ClassificationSignature();
      auto [it, fresh] = signature.emplace(op.query, sig);
      result.Expect(it->second == sig,
                    OpName(op) + ": classification differs from another "
                                 "strategy or round");
      if (fresh) first_report.emplace(op.query, std::move(*report));
      if (ctx.trace) staged_signature[OpName(op)] = sig;
    }
    round_qps.push_back(ops.size() / (NowSeconds() - round_start));
  }
  const double wall = NowSeconds() - start;
  const double peak_rss = PeakRssMib();
  const double calls = static_cast<double>(result.attempted);
  Note("# %zu rounds of %zu calls in %.2f s; per-round queries/s %s",
       round_qps.size(), round.size(), wall, Spread(round_qps).c_str());
  Note("# latency ms %s, p95 %.4g", Spread(latency_ms).c_str(),
       Quantile(latency_ms, 0.95));

  // Checks, outside the timed rounds.
  std::unique_ptr<Dataset> resident_copy;
  const Dataset* resident = &data;
  if (spilled) {
    // (e) the same data, never spilled, classifies identically.
    resident_copy = BuildDataset(kSpilledScale, kDataSeed, nullptr);
    resident = resident_copy.get();
    for (const Op& op : round) {
      auto report = DebugOnce(*resident, op);
      KWSDBG_CHECK(report.ok()) << report.status().ToString();
      result.Expect(report->ClassificationSignature() == signature[op.query],
                    OpName(op) + ": spilled classification differs from the "
                                 "resident one");
      first_report[op.query] = std::move(*report);
    }
  }
  ReferenceEvaluator ref(resident->db());
  CheckTally tally;
  for (const auto& [q, report] : first_report) {
    CheckReport(*resident->lattice, *resident->index, report, &ref,
                kSampledChecks, ctx.seed + q, &tally, &result);
  }
  Note("# reference checks: %zu reports (%zu answers, %zu non-answers), "
       "%zu classified networks, %zu maximality and %zu minimality probes, "
       "%zu reference queries",
       tally.reports, tally.answers, tally.non_answers, tally.classified,
       tally.maximality, tally.minimality, ref.evaluated());

  if (!ctx.trace) {
    result.metrics["setup_s"] = setup_s;
    result.metrics["query_ms_p50"] = Quantile(latency_ms, 0.5);
    result.metrics["query_ms_p95"] = Quantile(latency_ms, 0.95);
    result.metrics["queries_per_s"] = calls / wall;
    result.metrics["sql_per_query"] = sql / calls;
    result.metrics["peak_rss_mib"] = peak_rss;
    return result;
  }

  // Traced run: the staged pipeline must agree with Debug() itself, whose
  // untraced latency gives the tracing overhead.
  std::vector<double> untraced_ms;
  for (const Op& op : round) {
    const double t0 = NowSeconds();
    auto report = DebugOnce(data, op);
    untraced_ms.push_back((NowSeconds() - t0) * 1e3);
    KWSDBG_CHECK(report.ok()) << report.status().ToString();
    result.Expect(report->ClassificationSignature() ==
                      staged_signature[OpName(op)],
                  OpName(op) + ": staged pipeline disagrees with Debug()");
  }
  NoteTraceOverhead(Quantile(latency_ms, 0.5), Quantile(untraced_ms, 0.5));
  const std::map<std::string, double> self = tracer.SelfMillis();
  auto self_ms = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  std::map<std::string, double> v;
  for (const char* name :
       {"sql.index_build_ms", "sql.index_builds", "sql.rows_probed",
        "sql.rows_filtered", "sql.semijoin_eliminations", "sql.flat_probes",
        "sql.posting_hits", "storage.page_hits", "storage.page_reads",
        "storage.page_evictions", "text.posting_reads", "kws.mtn_ms",
        "kws.interpretations", "kws.retained_nodes", "traversal.sql_queries",
        "traversal.cache_hits"}) {
    v[name] = sums.Get(name) / calls;
  }
  const double exec_total = sums.Get("sql.exec_total_ms");
  v["sql.exec_ms"] = (exec_total - sums.Get("sql.index_build_ms")) / calls;
  const double touched = sums.Get("storage.page_hits") + sums.Get("storage.page_reads");
  v["storage.pool_hit_ratio"] = touched > 0 ? sums.Get("storage.page_hits") / touched : 0;
  v["kws.bind_ms"] = self_ms("kws.bind") / calls;
  v["kws.prune_ms"] = (self_ms("kws.prune") - sums.Get("kws.mtn_ms")) / calls;
  v["debugger.report_ms"] = self_ms("debugger") / calls;
  v["traversal.self_ms"] = (self_ms("traversal") - exec_total) / calls;
  const double lookups = sums.Get("traversal.cache_hits") + sums.Get("traversal.cache_misses");
  v["traversal.cache_hit_ratio"] = lookups > 0 ? sums.Get("traversal.cache_hits") / lookups : 0;
  v["datasets.generate_ms"] = self_ms("datasets.generate");
  v["text.build_ms"] = self_ms("text.build");
  v["lattice.generate_ms"] = self_ms("lattice.generate");
  v["storage.spill_ms"] = self_ms("storage.spill");
  result.metrics = v;
  const std::string path = ctx.out_dir + "/trace-" + ctx.workload + "-" +
                           std::to_string(ctx.seed) + ".jsonl";
  result.Expect(tracer.Write(path), "cannot write " + path);
  Note("# %zu spans written to %s", tracer.size(), path.c_str());
  return result;
}

}  // namespace perfbench
