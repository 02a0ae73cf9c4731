// SBH (paper Sec. 2.5.3): greedily evaluate the node with the minimum
// expected remaining search space (Eq. 1).
//
// With S(m_i) = the unknown-status nodes in Desc+(m_i) and
// W(n) = |{ m_i : n in Desc+(m_i) }| for unknown n (0 once classified),
// Eq. 1 decomposes (see the paper's three-summand form) into
//
//   Score(n_j) = TotalW - W(n_j) - (1 - p_a) * A(n_j) - p_a * D(n_j)
//
// where A(n_j) / D(n_j) sum W over n_j's unknown retained ancestors /
// descendants. Minimizing Score is maximizing
// W(n_j) + (1-p_a) A(n_j) + p_a D(n_j), which this implementation maintains
// incrementally: classifying node u subtracts its old W from the D of its
// ancestors and the A of its descendants.
//
// Parallel mode prefetches verdicts speculatively: the top-K nodes by gain
// are evaluated as one batch, but verdicts are *applied* one at a time at
// the exact argmax the serial greedy would pick (a verdict is ground truth,
// so applying it at the serial selection point reproduces the serial status
// evolution bit for bit). Prefetched verdicts whose node the greedy never
// reselects cost extra SQL — that SQL still populates the shared verdict
// cache, so it is recouped across interpretations and repeated queries.
#include <algorithm>

#include "common/logging.h"
#include "common/timer.h"
#include "traversal/parallel_frontier.h"
#include "traversal/strategies.h"

namespace kwsdbg {

namespace {

class ScoreBasedStrategy : public TraversalStrategy {
 public:
  ScoreBasedStrategy(SbhOptions options, ParallelOptions parallel)
      : options_(options), parallel_(parallel) {}

  std::string_view name() const override { return "SBH"; }

  StatusOr<TraversalResult> Run(const PrunedLattice& pl,
                                QueryEvaluator* evaluator) override {
    Timer total;
    FrontierEvaluator frontier(evaluator, parallel_);
    const size_t num_nodes = pl.lattice().num_nodes();
    NodeStatusMap status(num_nodes);
    const double pa = options_.alive_probability;

    // Per-level p_a from the adaptive model, snapshotted at run start: the
    // verdicts this run produces feed the model for *later* queries, never
    // the schedule in flight, so the run is deterministic given the model
    // state. A cold model yields the 0.5 prior at every level — the
    // schedule is then bit-identical to static SBH @ 0.5.
    std::vector<double> level_pa;
    if (options_.pa_model != nullptr) {
      const size_t bucket = SelectivityBucketFor(pl, evaluator->index());
      const size_t max_level = pl.MaxRetainedLevel();
      level_pa.resize(max_level + 1, options_.pa_model->options().prior);
      for (size_t level = 1; level <= max_level; ++level) {
        level_pa[level] = options_.pa_model->Estimate(level, bucket);
      }
    }

    // W: how many MTN search spaces each node belongs to.
    std::vector<int64_t> w(num_nodes, 0);
    for (NodeId m : pl.mtns()) {
      ++w[m];
      for (NodeId d : pl.RetainedDescendants(m)) ++w[d];
    }
    // A/D: sums of W over unknown retained ancestors / descendants.
    std::vector<int64_t> a_sum(num_nodes, 0), d_sum(num_nodes, 0);
    for (NodeId n : pl.retained()) {
      for (NodeId anc : pl.RetainedAncestors(n)) a_sum[n] += w[anc];
      for (NodeId desc : pl.RetainedDescendants(n)) d_sum[n] += w[desc];
    }

    // Classifying u zeroes its W and shrinks the A/D of its closure.
    auto on_classified = [&](NodeId u) {
      const int64_t delta = w[u];
      if (delta == 0) return;
      w[u] = 0;
      for (NodeId anc : pl.RetainedAncestors(u)) d_sum[anc] -= delta;
      for (NodeId desc : pl.RetainedDescendants(u)) a_sum[desc] -= delta;
    };

    // Cancellation exit shared by every deadline check below: classified
    // statuses are all ground truth, so the partial result is safe.
    auto truncated_result = [&]() -> TraversalResult {
      TraversalResult partial = internal::BuildTruncatedOutcomes(pl, status);
      frontier.FillStats(&partial.stats);
      partial.stats.total_millis = total.ElapsedMillis();
      return partial;
    };

    auto gain_of = [&](NodeId n) {
      const double p =
          level_pa.empty() ? pa : level_pa[pl.lattice().node(n).level];
      return static_cast<double>(w[n]) +
             (1.0 - p) * static_cast<double>(a_sum[n]) +
             p * static_cast<double>(d_sum[n]);
    };
    // The speculation depth: enough to keep every worker busy without
    // evaluating far down a ranking the inference rules may invalidate.
    const size_t prefetch_depth =
        parallel_.num_threads > 1 ? 2 * parallel_.num_threads : 0;

    std::vector<NodeId> unknown = pl.retained();
    std::sort(unknown.begin(), unknown.end());
    // Prefetched verdicts keyed by batch position: `batch` holds the
    // speculated nodes, `batch_alive` their verdicts, `batch_consumed`
    // marks entries already applied. The batch is at most
    // 2 * num_threads entries, so a linear scan beats a hash map (and
    // allocates nothing per round).
    std::vector<std::pair<double, NodeId>> cands;
    std::vector<NodeId> batch;
    std::vector<char> batch_alive;
    std::vector<char> batch_consumed;
    auto take_prefetched = [&](NodeId n, bool* alive) {
      for (size_t i = 0; i < batch.size(); ++i) {
        if (batch[i] == n && !batch_consumed[i]) {
          batch_consumed[i] = 1;
          *alive = batch_alive[i] != 0;
          return true;
        }
      }
      return false;
    };
    while (!unknown.empty()) {
      // Compact out classified nodes and rank the survivors by gain. The
      // serial argmax is the highest gain, first (= lowest node id) wins
      // ties — `cands` is built in ascending id order, so strict `>` below
      // reproduces that tie-break exactly.
      size_t keep = 0;
      cands.clear();
      for (size_t i = 0; i < unknown.size(); ++i) {
        const NodeId n = unknown[i];
        if (status.IsKnown(n)) continue;
        unknown[keep++] = n;
        cands.emplace_back(gain_of(n), n);
      }
      unknown.resize(keep);
      if (unknown.empty()) break;
      size_t best = 0;
      for (size_t i = 1; i < cands.size(); ++i) {
        if (cands[i].first > cands[best].first) best = i;
      }
      const NodeId n = cands[best].second;

      if (frontier.cancelled()) return truncated_result();

      bool alive;
      if (take_prefetched(n, &alive)) {
        // Speculated verdict from an earlier batch — apply it here, at the
        // exact serial selection point.
      } else if (prefetch_depth == 0) {
        StatusOr<bool> alive_or = frontier.EvaluateOne(n);
        if (internal::IsDeadlineExceeded(alive_or.status())) {
          return truncated_result();
        }
        KWSDBG_ASSIGN_OR_RETURN(alive, std::move(alive_or));
      } else {
        // Speculate: batch the current top-K by (gain desc, id asc); the
        // argmax is first, so its verdict is always available below.
        const size_t k = std::min(prefetch_depth, cands.size());
        std::partial_sort(cands.begin(), cands.begin() + k, cands.end(),
                          [](const auto& a, const auto& b) {
                            return a.first != b.first ? a.first > b.first
                                                      : a.second < b.second;
                          });
        batch.clear();
        for (size_t i = 0; i < k; ++i) batch.push_back(cands[i].second);
        Status st = frontier.EvaluateBatch(batch, &batch_alive);
        if (internal::IsDeadlineExceeded(st)) return truncated_result();
        KWSDBG_RETURN_NOT_OK(st);
        batch_consumed.assign(batch.size(), 0);
        const bool hit = take_prefetched(n, &alive);
        KWSDBG_CHECK(hit) << "argmax missing from its own batch";
      }

      if (alive) {
        // R1: n and its unknown descendants become alive.
        std::vector<NodeId> newly = {n};
        for (NodeId d : pl.RetainedDescendants(n)) {
          if (!status.IsKnown(d)) newly.push_back(d);
        }
        status.MarkAliveWithDescendants(n, pl);
        for (NodeId u : newly) on_classified(u);
      } else {
        // R2: n and its unknown ancestors become dead.
        std::vector<NodeId> newly = {n};
        for (NodeId anc : pl.RetainedAncestors(n)) {
          if (!status.IsKnown(anc)) newly.push_back(anc);
        }
        status.MarkDeadWithAncestors(n, pl);
        for (NodeId u : newly) on_classified(u);
      }
    }

    KWSDBG_ASSIGN_OR_RETURN(TraversalResult result,
                            internal::BuildOutcomes(pl, status));
    frontier.FillStats(&result.stats);
    result.stats.total_millis = total.ElapsedMillis();
    return result;
  }

 private:
  SbhOptions options_;
  ParallelOptions parallel_;
};

}  // namespace

std::unique_ptr<TraversalStrategy> MakeScoreBased(SbhOptions options,
                                                  ParallelOptions parallel) {
  return std::make_unique<ScoreBasedStrategy>(options, parallel);
}

}  // namespace kwsdbg
