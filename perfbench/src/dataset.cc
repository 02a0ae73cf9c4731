#include "dataset.h"

#include "common/logging.h"
#include "debugger/ranking.h"
#include "kws/keyword_binding.h"
#include "kws/pruned_lattice.h"
#include "kws/query_builder.h"
#include "lattice/lattice_generator.h"
#include "traversal/evaluator.h"

namespace perfbench {

using namespace kwsdbg;  // NOLINT: the benchmark drives the whole library.

std::unique_ptr<Dataset> BuildDataset(double scale, uint64_t seed,
                                      Tracer* tracer) {
  auto data = std::make_unique<Dataset>();
  {
    ScopedSpan span(tracer, "datasets.generate", 0);
    DblifeConfig config;
    config.seed = seed;
    auto ds = GenerateDblife(config.Scaled(scale));
    KWSDBG_CHECK(ds.ok()) << ds.status().ToString();
    data->dblife = std::move(*ds);
  }
  {
    ScopedSpan span(tracer, "text.build", 0);
    data->index =
        std::make_unique<InvertedIndex>(InvertedIndex::Build(*data->db()));
  }
  {
    ScopedSpan span(tracer, "lattice.generate", 0);
    LatticeConfig config;
    config.max_joins = kLatticeLevel - 1;
    config.copy_policy = CopyPolicy::kTextRelationsOnly;
    config.num_keyword_copies = 3;  // Table 2 queries have at most 3 keywords.
    auto lattice = LatticeGenerator::Generate(data->dblife.schema, config);
    KWSDBG_CHECK(lattice.ok()) << lattice.status().ToString();
    data->lattice = std::move(*lattice);
  }
  return data;
}

size_t ReportSql(const DebugReport& report) {
  size_t n = 0;
  for (const auto& interp : report.interpretations) {
    n += interp.traversal_stats.sql_queries;
  }
  return n;
}

namespace {

StatusOr<NodeReport> NodeOf(const Dataset& data, NodeId id,
                            const KeywordBinding& binding) {
  const Lattice& lattice = *data.lattice;
  NodeReport report;
  report.node = id;
  report.level = lattice.node(id).level;
  report.network = lattice.node(id).tree.ToString(lattice.schema());
  KWSDBG_ASSIGN_OR_RETURN(JoinNetworkQuery query,
                          BuildNodeQuery(lattice, id, binding));
  KWSDBG_ASSIGN_OR_RETURN(report.sql, query.ToSql(*data.db()));
  return report;
}

}  // namespace

StatusOr<DebugReport> StagedDebug(const Dataset& data, const std::string& query,
                                  TraversalKind kind, Executor* executor,
                                  VerdictCache* cache, Tracer* tracer,
                                  uint64_t query_id, LayerSums* sums) {
  // Everything outside the child spans (strategy set-up, report assembly)
  // is the "debugger" span's self time.
  ScopedSpan top(tracer, "debugger", query_id);
  const Lattice& lattice = *data.lattice;
  DebugReport report;
  report.keyword_query = query;

  BindingResult bound;
  {
    ScopedSpan span(tracer, "kws.bind", query_id);
    const KeywordBinder binder(&lattice.schema(), data.index.get(),
                               lattice.config().EffectiveKeywordCopies());
    bound = binder.Bind(query);
  }
  report.keywords = bound.keywords;
  report.missing_keywords = bound.missing_keywords;
  report.bind_millis = bound.bind_millis;
  report.interpretations_skipped = bound.interpretations_skipped;
  if (!report.missing_keywords.empty()) return report;
  sums->Add("kws.interpretations", static_cast<double>(bound.interpretations.size()));

  std::unique_ptr<TraversalStrategy> strategy = MakeStrategy(kind);
  for (const KeywordBinding& binding : bound.interpretations) {
    InterpretationReport interp;
    interp.binding = binding.ToString(lattice.schema());
    PrunedLattice pl = [&] {
      ScopedSpan span(tracer, "kws.prune", query_id);
      return PrunedLattice::Build(lattice, binding);
    }();
    interp.prune_stats = pl.stats();
    sums->Add("kws.mtn_ms", pl.stats().mtn_millis);
    sums->Add("kws.retained_nodes", static_cast<double>(pl.stats().retained_nodes));

    const ExecutorStats exec_before = executor->stats();
    const StorageStats store_before = data.db()->storage_stats();
    const PostingIoStats post_before = data.index->io_stats();
    StatusOr<TraversalResult> run = [&] {
      ScopedSpan span(tracer, "traversal", query_id);
      QueryEvaluator evaluator(data.db(), executor, &pl, data.index.get(),
                               EvalOptions{}, cache);
      return strategy->Run(pl, &evaluator);
    }();
    const ExecutorStats& exec = executor->stats();
    const StorageStats store = data.db()->storage_stats();
    const PostingIoStats post = data.index->io_stats();
    sums->Add("sql.exec_total_ms", exec.exec_millis - exec_before.exec_millis);
    sums->Add("sql.index_build_ms",
              exec.index_build_millis - exec_before.index_build_millis);
    auto count = [&](const char* name, size_t after, size_t before) {
      sums->Add(name, static_cast<double>(after - before));
    };
    count("sql.index_builds", exec.index_builds, exec_before.index_builds);
    count("sql.rows_probed", exec.rows_probed, exec_before.rows_probed);
    count("sql.rows_filtered", exec.rows_filtered, exec_before.rows_filtered);
    count("sql.semijoin_eliminations", exec.semijoin_eliminations,
          exec_before.semijoin_eliminations);
    count("sql.flat_probes", exec.flat_probes, exec_before.flat_probes);
    count("sql.posting_hits", exec.posting_hits, exec_before.posting_hits);
    count("storage.page_hits", store.page_hits, store_before.page_hits);
    count("storage.page_reads", store.page_reads, store_before.page_reads);
    count("storage.page_evictions", store.page_evictions,
          store_before.page_evictions);
    count("text.posting_reads", post.posting_reads, post_before.posting_reads);
    KWSDBG_ASSIGN_OR_RETURN(TraversalResult traversal, std::move(run));
    sums->Add("traversal.sql_queries", static_cast<double>(traversal.stats.sql_queries));
    sums->Add("traversal.cache_hits", static_cast<double>(traversal.stats.cache_hits));
    sums->Add("traversal.cache_misses", static_cast<double>(traversal.stats.cache_misses));

    interp.traversal_stats = traversal.stats;
    interp.truncated = traversal.truncated;
    if (traversal.truncated) report.truncated = true;
    for (const MtnOutcome& outcome : traversal.outcomes) {
      if (outcome.alive) {
        AnswerReport answer;
        KWSDBG_ASSIGN_OR_RETURN(answer.query, NodeOf(data, outcome.mtn, binding));
        interp.answers.push_back(std::move(answer));
        continue;
      }
      NonAnswerReport na;
      KWSDBG_ASSIGN_OR_RETURN(na.query, NodeOf(data, outcome.mtn, binding));
      for (NodeId id : outcome.mpans) {
        KWSDBG_ASSIGN_OR_RETURN(NodeReport node, NodeOf(data, id, binding));
        na.mpans.push_back(std::move(node));
      }
      for (NodeId id : outcome.culprits) {
        KWSDBG_ASSIGN_OR_RETURN(NodeReport node, NodeOf(data, id, binding));
        na.culprits.push_back(std::move(node));
      }
      interp.non_answers.push_back(std::move(na));
    }
    RankAnswers(&interp.answers);
    report.interpretations.push_back(std::move(interp));
  }
  return report;
}

}  // namespace perfbench
