// Reference evaluator: decides whether a join-network query returns a row
// without any of the program's query machinery — no Executor, posting list,
// FlatRowIndex or verdict cache. It reads Table rows directly, matches
// keywords with its own case-insensitive substring test, compares join
// values with the semantics of Value::SqlEquals (NULL joins nothing, int and
// double compare numerically) and decides existence with hash semijoins
// from the leaves of the (acyclic) join graph up to its root, which is exact
// for tree-shaped queries. Only resident tables can be evaluated.
#ifndef KWSDBG_PERFBENCH_REFERENCE_H_
#define KWSDBG_PERFBENCH_REFERENCE_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "sql/join_network.h"
#include "storage/database.h"

namespace perfbench {

class ReferenceEvaluator {
 public:
  explicit ReferenceEvaluator(const kwsdbg::Database* db) : db_(db) {}

  /// True iff `query` has at least one result row. Errors on spilled
  /// tables, unknown tables or columns, LIKE selections and cyclic joins,
  /// none of which the keyword-search templates produce.
  kwsdbg::StatusOr<bool> Exists(const kwsdbg::JoinNetworkQuery& query);

  /// Queries evaluated so far (for the progress lines).
  size_t evaluated() const { return evaluated_; }

 private:
  /// Live rows of `table` with `keyword` (lower-cased) inside some text
  /// cell, or every live row when `keyword` is empty. Memoised per table
  /// and keyword; the database must not change while this evaluator lives.
  const std::vector<uint32_t>& Candidates(const kwsdbg::Table& table,
                                          const std::string& keyword);

  const kwsdbg::Database* db_;
  std::map<std::pair<const kwsdbg::Table*, std::string>,
           std::vector<uint32_t>>
      candidates_;
  size_t evaluated_ = 0;
};

/// Case-insensitive (ASCII) substring test: does `text` contain `needle`?
/// `needle` must already be lower-case.
bool ContainsFolded(const std::string& text, const std::string& needle);

}  // namespace perfbench

#endif  // KWSDBG_PERFBENCH_REFERENCE_H_
