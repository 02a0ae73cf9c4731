#include "checks.h"

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "kws/keyword_binding.h"
#include "kws/pruned_lattice.h"
#include "kws/query_builder.h"

namespace perfbench {

using kwsdbg::DebugReport;
using kwsdbg::NodeId;

void CheckReport(const kwsdbg::Lattice& lattice,
                 const kwsdbg::InvertedIndex& index, const DebugReport& report,
                 ReferenceEvaluator* ref, size_t sample_limit,
                 uint64_t sample_seed, CheckTally* tally, RunResult* result) {
  const std::string& q = report.keyword_query;
  ++tally->reports;
  if (!result->Expect(!report.truncated, q + ": report truncated")) return;
  const kwsdbg::KeywordBinder binder(&lattice.schema(), &index,
                                     lattice.config().EffectiveKeywordCopies());
  const kwsdbg::BindingResult bound = binder.Bind(q);
  if (!result->Expect(bound.interpretations.size() ==
                          report.interpretations.size(),
                      q + ": interpretation count differs from a rebind")) {
    return;
  }

  // (kind, network, owning MTN) triples for the sampled checks (c)/(d).
  struct Probe {
    bool larger;  ///< (c) when true, (d) otherwise.
    NodeId node;
    size_t interp;
  };
  std::vector<Probe> probes;
  std::vector<kwsdbg::PrunedLattice> pls;
  pls.reserve(report.interpretations.size());

  auto exists = [&](size_t interp, NodeId node, bool* alive) {
    auto query =
        kwsdbg::BuildNodeQuery(lattice, node, bound.interpretations[interp]);
    if (!query.ok()) {
      result->Fail(q + ": BuildNodeQuery: " + query.status().ToString());
      return false;
    }
    auto got = ref->Exists(*query);
    if (!got.ok()) {
      result->Fail(q + ": reference: " + got.status().ToString());
      return false;
    }
    *alive = *got;
    return true;
  };
  auto expect_alive = [&](size_t interp, NodeId node, bool want,
                          const char* what) {
    bool alive = false;
    if (!exists(interp, node, &alive)) return;
    result->Expect(alive == want,
                   q + ": " + what + " " +
                       lattice.node(node).tree.ToString(lattice.schema()) +
                       (want ? " has no row" : " has a row"));
  };

  for (size_t i = 0; i < report.interpretations.size(); ++i) {
    const kwsdbg::InterpretationReport& interp = report.interpretations[i];
    const kwsdbg::KeywordBinding& binding = bound.interpretations[i];
    if (!result->Expect(interp.binding == binding.ToString(lattice.schema()),
                        q + ": binding order differs from a rebind")) {
      return;
    }
    pls.push_back(kwsdbg::PrunedLattice::Build(lattice, binding));
    const kwsdbg::PrunedLattice& pl = pls.back();
    result->Expect(interp.answers.size() + interp.non_answers.size() ==
                       pl.mtns().size(),
                   q + ": not every MTN was classified");
    for (const auto& ans : interp.answers) {
      expect_alive(i, ans.query.node, true, "answer");
      ++tally->answers;
      ++tally->classified;
    }
    for (const auto& na : interp.non_answers) {
      expect_alive(i, na.query.node, false, "non-answer");
      ++tally->non_answers;
      ++tally->classified;
      for (const auto& m : na.mpans) {
        expect_alive(i, m.node, true, "MPAN");
        ++tally->classified;
        // One-join-larger networks inside the non-answer's sub-lattice.
        const std::vector<NodeId>& desc = pl.RetainedDescendants(na.query.node);
        for (NodeId p : pl.RetainedParents(m.node)) {
          if (p == na.query.node ||
              std::find(desc.begin(), desc.end(), p) != desc.end()) {
            probes.push_back(Probe{true, p, i});
          }
        }
      }
      for (const auto& c : na.culprits) {
        expect_alive(i, c.node, false, "culprit");
        ++tally->classified;
        for (NodeId child : pl.RetainedChildren(c.node)) {
          probes.push_back(Probe{false, child, i});
        }
      }
    }
  }

  // Duplicate probes (an MPAN parent shared by siblings) are checked once.
  std::sort(probes.begin(), probes.end(), [](const Probe& a, const Probe& b) {
    return std::tie(a.interp, a.node, a.larger) <
           std::tie(b.interp, b.node, b.larger);
  });
  probes.erase(std::unique(probes.begin(), probes.end(),
                           [](const Probe& a, const Probe& b) {
                             return a.interp == b.interp && a.node == b.node &&
                                    a.larger == b.larger;
                           }),
               probes.end());
  kwsdbg::Rng rng(sample_seed);
  rng.Shuffle(&probes);
  if (probes.size() > sample_limit) probes.resize(sample_limit);
  for (const Probe& p : probes) {
    if (p.larger) {
      expect_alive(p.interp, p.node, false, "network one join above an MPAN");
      ++tally->maximality;
    } else {
      expect_alive(p.interp, p.node, true, "network one join below a culprit");
      ++tally->minimality;
    }
  }
}

}  // namespace perfbench
