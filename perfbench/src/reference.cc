#include "reference.h"

#include <cmath>
#include <cstring>
#include <unordered_set>

namespace perfbench {

using kwsdbg::JoinNetworkQuery;
using kwsdbg::Status;
using kwsdbg::StatusOr;
using kwsdbg::Table;
using kwsdbg::Value;

namespace {

char Fold(char c) { return (c >= 'A' && c <= 'Z') ? char(c - 'A' + 'a') : c; }

/// Appends an encoding of `v` under which two values encode equally iff
/// Value::SqlEquals holds between them. Returns false for values that equal
/// nothing (NULL, NaN).
bool AppendKey(const Value& v, std::string* key) {
  auto append_int = [key](int64_t i) {
    key->push_back('i');
    char buf[sizeof(i)];
    std::memcpy(buf, &i, sizeof(i));
    key->append(buf, sizeof(i));
  };
  if (v.is_null()) return false;
  if (v.is_int()) {
    append_int(v.AsInt());
    return true;
  }
  if (v.is_double()) {
    const double d = v.AsDouble();
    if (std::isnan(d)) return false;
    // Integral doubles compare equal to the matching integer.
    if (std::trunc(d) == d && d >= -9.2e18 && d <= 9.2e18) {
      append_int(static_cast<int64_t>(d));
      return true;
    }
    key->push_back('d');
    char buf[sizeof(d)];
    std::memcpy(buf, &d, sizeof(d));
    key->append(buf, sizeof(d));
    return true;
  }
  const std::string& s = v.AsString();
  key->push_back('s');
  const uint32_t n = static_cast<uint32_t>(s.size());
  char buf[sizeof(n)];
  std::memcpy(buf, &n, sizeof(n));
  key->append(buf, sizeof(n));
  key->append(s);
  return true;
}

/// Builds the key of `row` over `cols`; false if some value joins nothing.
bool RowKey(const Table& t, uint32_t row, const std::vector<size_t>& cols,
            std::string* key) {
  key->clear();
  for (size_t c : cols) {
    if (!AppendKey(t.at(row, c), key)) return false;
  }
  return true;
}

/// All equi-join predicates between one pair of vertices.
struct Edge {
  uint16_t a, b;
  std::vector<size_t> a_cols, b_cols;
};

}  // namespace

bool ContainsFolded(const std::string& text, const std::string& needle) {
  if (needle.empty()) return true;
  if (text.size() < needle.size()) return false;
  const size_t last = text.size() - needle.size();
  for (size_t i = 0; i <= last; ++i) {
    size_t j = 0;
    while (j < needle.size() && Fold(text[i + j]) == needle[j]) ++j;
    if (j == needle.size()) return true;
  }
  return false;
}

const std::vector<uint32_t>& ReferenceEvaluator::Candidates(
    const Table& table, const std::string& keyword) {
  auto key = std::make_pair(&table, keyword);
  auto it = candidates_.find(key);
  if (it != candidates_.end()) return it->second;
  std::vector<uint32_t> rows;
  const std::vector<size_t> text_cols = table.schema().TextColumnIndices();
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (table.deleted(r)) continue;
    bool keep = keyword.empty();
    for (size_t c = 0; !keep && c < text_cols.size(); ++c) {
      const Value& v = table.at(r, text_cols[c]);
      keep = v.is_string() && ContainsFolded(v.AsString(), keyword);
    }
    if (keep) rows.push_back(static_cast<uint32_t>(r));
  }
  return candidates_.emplace(key, std::move(rows)).first->second;
}

StatusOr<bool> ReferenceEvaluator::Exists(const JoinNetworkQuery& query) {
  ++evaluated_;
  const size_t n = query.vertices.size();
  if (n == 0) return Status::InvalidArgument("empty query");
  if (!query.like_selections.empty()) {
    return Status::Unimplemented("reference evaluator: LIKE selections");
  }
  std::vector<const Table*> tables(n);
  std::vector<std::vector<uint32_t>> rows(n);
  for (size_t v = 0; v < n; ++v) {
    const Table* t = db_->FindTable(query.vertices[v].table);
    if (t == nullptr) {
      return Status::NotFound("no table " + query.vertices[v].table);
    }
    if (t->spilled()) {
      return Status::FailedPrecondition("reference evaluator: table " +
                                        t->name() + " is spilled");
    }
    tables[v] = t;
    std::string kw;
    for (char c : query.vertices[v].keyword) kw.push_back(Fold(c));
    rows[v] = Candidates(*t, kw);
  }
  for (const auto& sel : query.selections) {
    if (sel.vertex >= n) return Status::InvalidArgument("bad selection");
    KWSDBG_ASSIGN_OR_RETURN(size_t col,
                            tables[sel.vertex]->schema().ColumnIndex(sel.column));
    std::vector<uint32_t> kept;
    for (uint32_t r : rows[sel.vertex]) {
      if (tables[sel.vertex]->at(r, col).SqlEquals(sel.value)) kept.push_back(r);
    }
    rows[sel.vertex] = std::move(kept);
  }

  // Collapse parallel predicates into one composite-key edge per pair.
  std::vector<Edge> edges;
  for (const auto& j : query.joins) {
    if (j.left >= n || j.right >= n || j.left == j.right) {
      return Status::InvalidArgument("bad join");
    }
    KWSDBG_ASSIGN_OR_RETURN(size_t lc,
                            tables[j.left]->schema().ColumnIndex(j.left_column));
    KWSDBG_ASSIGN_OR_RETURN(
        size_t rc, tables[j.right]->schema().ColumnIndex(j.right_column));
    Edge* e = nullptr;
    for (Edge& x : edges) {
      if ((x.a == j.left && x.b == j.right) ||
          (x.a == j.right && x.b == j.left)) {
        e = &x;
      }
    }
    if (e == nullptr) {
      edges.push_back(Edge{j.left, j.right, {}, {}});
      e = &edges.back();
    }
    e->a_cols.push_back(e->a == j.left ? lc : rc);
    e->b_cols.push_back(e->a == j.left ? rc : lc);
  }
  if (edges.size() != n - 1) {
    return Status::Unimplemented("reference evaluator: cyclic or disconnected "
                                 "join graph");
  }

  // Root the tree at vertex 0 and order vertices so children precede parents.
  std::vector<int> parent_edge(n, -1);
  std::vector<bool> seen(n, false);
  std::vector<uint16_t> order{0};
  seen[0] = true;
  for (size_t i = 0; i < order.size(); ++i) {
    const uint16_t v = order[i];
    for (size_t k = 0; k < edges.size(); ++k) {
      const uint16_t other = edges[k].a == v   ? edges[k].b
                             : edges[k].b == v ? edges[k].a
                                               : uint16_t(0xFFFF);
      if (other == 0xFFFF || seen[other]) continue;
      seen[other] = true;
      parent_edge[other] = static_cast<int>(k);
      order.push_back(other);
    }
  }
  if (order.size() != n) {
    return Status::Unimplemented("reference evaluator: disconnected joins");
  }

  // Bottom-up semijoins: keep a parent row only if some surviving child row
  // agrees with it on every predicate of their edge.
  std::string key;
  for (size_t i = n; i-- > 1;) {
    const uint16_t child = order[i];
    const Edge& e = edges[parent_edge[child]];
    const bool child_is_a = e.a == child;
    const uint16_t parent = child_is_a ? e.b : e.a;
    const std::vector<size_t>& ccols = child_is_a ? e.a_cols : e.b_cols;
    const std::vector<size_t>& pcols = child_is_a ? e.b_cols : e.a_cols;
    std::unordered_set<std::string> keys;
    keys.reserve(rows[child].size());
    for (uint32_t r : rows[child]) {
      if (RowKey(*tables[child], r, ccols, &key)) keys.insert(key);
    }
    std::vector<uint32_t> kept;
    for (uint32_t r : rows[parent]) {
      if (RowKey(*tables[parent], r, pcols, &key) && keys.count(key) > 0) {
        kept.push_back(r);
      }
    }
    rows[parent] = std::move(kept);
    if (rows[parent].empty()) return false;
  }
  return !rows[0].empty();
}

}  // namespace perfbench
