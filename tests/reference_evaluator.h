// Reference evaluator for join-network queries: the fuzz oracle that shares
// no code path with the Executor under test. It answers R(J) != empty by
// plain nested loops over Table rows — no join index, no posting list, no
// inverted index, no verdict cache — so a fault in candidate sourcing, the
// semijoin pass or the probe engine cannot hide behind an oracle that runs
// through the same code.
//
// Semantics follow the KWS-S templates (sql/join_network.h):
//   * a keyword instance keeps rows where some non-NULL text column contains
//     the keyword, ASCII case-folded (LIKE '%kw%' over the text columns);
//   * selections and joins use Value::SqlEquals (NULL never matches);
//   * column LIKE selections use LikeMatch;
//   * tombstoned rows are skipped.
#ifndef KWSDBG_TESTS_REFERENCE_EVALUATOR_H_
#define KWSDBG_TESTS_REFERENCE_EVALUATOR_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "sql/join_network.h"
#include "sql/like_matcher.h"
#include "storage/database.h"

namespace kwsdbg {
namespace testutil {

inline char RefFold(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// True iff `needle` occurs in `text`, ignoring ASCII case.
inline bool RefContains(std::string_view text, std::string_view needle) {
  for (size_t i = 0; i + needle.size() <= text.size(); ++i) {
    size_t j = 0;
    while (j < needle.size() && RefFold(text[i + j]) == RefFold(needle[j])) {
      ++j;
    }
    if (j == needle.size()) return true;
  }
  return false;
}

inline size_t RefColumn(const Table& table, const std::string& name) {
  StatusOr<size_t> col = table.schema().ColumnIndex(name);
  KWSDBG_CHECK(col.ok()) << col.status().ToString();
  return *col;
}

/// True iff `query` returns at least one row over `db`.
inline bool ReferenceNonEmpty(const Database& db,
                              const JoinNetworkQuery& query) {
  const size_t n = query.vertices.size();
  std::vector<const Table*> tables(n);
  for (size_t v = 0; v < n; ++v) {
    tables[v] = db.FindTable(query.vertices[v].table);
    KWSDBG_CHECK(tables[v] != nullptr) << query.vertices[v].table;
  }
  // Rows of each instance that pass its own filters.
  std::vector<std::vector<size_t>> rows(n);
  for (size_t v = 0; v < n; ++v) {
    const Table& t = *tables[v];
    const std::string& keyword = query.vertices[v].keyword;
    const std::vector<size_t> text_cols = t.schema().TextColumnIndices();
    for (size_t r = 0; r < t.num_rows(); ++r) {
      if (t.deleted(r)) continue;
      bool ok = keyword.empty();
      for (size_t c : text_cols) {
        const Value& cell = t.at(r, c);
        ok = ok || (!cell.is_null() && RefContains(cell.AsString(), keyword));
      }
      for (const QuerySelection& s : query.selections) {
        if (ok && s.vertex == v) {
          ok = t.at(r, RefColumn(t, s.column)).SqlEquals(s.value);
        }
      }
      for (const QueryLikeSelection& l : query.like_selections) {
        if (ok && l.vertex == v) {
          const Value& cell = t.at(r, RefColumn(t, l.column));
          ok = !cell.is_null() && LikeMatch(l.pattern, cell.AsString());
        }
      }
      if (ok) rows[v].push_back(r);
    }
  }
  // Each join, checked at the later of its two vertices in loop order.
  struct Join {
    size_t at, other, at_col, other_col;
  };
  std::vector<Join> joins;
  for (const QueryJoin& j : query.joins) {
    const size_t lcol = RefColumn(*tables[j.left], j.left_column);
    const size_t rcol = RefColumn(*tables[j.right], j.right_column);
    joins.push_back(j.left > j.right ? Join{j.left, j.right, lcol, rcol}
                                     : Join{j.right, j.left, rcol, lcol});
  }
  // Nested loops in vertex order.
  std::vector<size_t> bound(n);
  auto joins_hold = [&](size_t v) {
    for (const Join& j : joins) {
      if (j.at != v) continue;
      // Copies: on a spilled table the second at() may evict the page the
      // first one points into.
      const Value a = tables[j.at]->at(bound[j.at], j.at_col);
      const Value b = tables[j.other]->at(bound[j.other], j.other_col);
      if (!a.SqlEquals(b)) return false;
    }
    return true;
  };
  auto search = [&](auto&& self, size_t v) -> bool {
    if (v == n) return true;
    for (size_t r : rows[v]) {
      bound[v] = r;
      if (joins_hold(v) && self(self, v + 1)) return true;
    }
    return false;
  };
  return search(search, 0);
}

}  // namespace testutil
}  // namespace kwsdbg

#endif  // KWSDBG_TESTS_REFERENCE_EVALUATOR_H_
