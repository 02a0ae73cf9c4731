// Probe engine existence microbench: a probe-heavy existence workload (does
// any row carry this join key?) over a synthetic duplicate-heavy column —
// millions of probes, ~half misses — timed two ways on the same
// FlatRowIndex (see sql/flat_row_index.h):
//
//   plain    — one Lookup per key;
//   batched  — Executor::RunJoin's pipeline: hash a window of keys,
//              PrefetchBucket each, then LookupHashed the window in order.
//
// Per-rep timings of the two loops are interleaved. Both hit counts must
// equal an inline std::unordered_map count of the column.
//
// Emits BENCH_probe_engine.json (per-rep timings, medians, speedup of
// batched over plain) and exits nonzero on a hit-count mismatch.
//
//   ./probe_engine_workload [--smoke] [--out=BENCH_probe_engine.json]
//
// The seed is fixed and printed.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "sql/flat_row_index.h"

namespace kwsdbg {
namespace bench {
namespace {

constexpr uint64_t kMicroSeed = 0xBEEFCAFEull;

struct ExistenceResult {
  size_t rows = 0;
  size_t probes = 0;
  size_t reps = 0;
  size_t hits = 0;
  std::vector<double> plain_millis;
  std::vector<double> batched_millis;
  double plain_median = 0;
  double batched_median = 0;
  double speedup = 0;
  size_t violations = 0;
};

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

void AppendArray(std::ostringstream* json, const std::vector<double>& xs) {
  *json << '[';
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) *json << ',';
    *json << xs[i];
  }
  *json << ']';
}

ExistenceResult RunExistenceWorkload(size_t num_rows, size_t num_probes,
                                     size_t reps) {
  ExistenceResult r;
  r.rows = num_rows;
  r.probes = num_probes;
  r.reps = reps;

  Rng rng(kMicroSeed);
  Schema schema({{"fk", DataType::kInt64}});
  Table table("probe_side", std::move(schema));
  std::unordered_map<int64_t, size_t> counts;
  for (size_t i = 0; i < num_rows; ++i) {
    const int64_t key = static_cast<int64_t>(rng.Uniform(num_rows));
    table.AppendRowUnchecked({Value(key)});
    ++counts[key];
  }
  std::vector<Value> probes;
  probes.reserve(num_probes);
  for (size_t i = 0; i < num_probes; ++i) {
    // Keys in [0, 2 * num_rows): roughly half probe for absent keys, the
    // miss-heavy shape of dead-network existence checks.
    const int64_t key = static_cast<int64_t>(rng.Uniform(2 * num_rows));
    probes.emplace_back(key);
    if (counts.count(key) != 0) ++r.hits;
  }

  Timer build_timer;
  const FlatRowIndex flat = FlatRowIndex::Build(table, 0);
  std::printf("  flat build: %.2f ms, %zu key(s), arena %zu bytes, "
              "buckets %zu bytes\n",
              build_timer.ElapsedMillis(), flat.num_keys(),
              flat.stats().arena_bytes, flat.stats().bucket_bytes);

  auto run_plain = [&]() {
    size_t hits = 0;
    for (const Value& v : probes) {
      if (!flat.Lookup(v).empty()) ++hits;
    }
    return hits;
  };
  constexpr size_t kWindow = 16;
  auto run_batched = [&]() {
    size_t hits = 0;
    uint64_t win_hash[kWindow];
    for (size_t i = 0; i < probes.size(); i += kWindow) {
      const size_t w = std::min(kWindow, probes.size() - i);
      for (size_t j = 0; j < w; ++j) {
        win_hash[j] = probes[i + j].Hash64();
        flat.PrefetchBucket(win_hash[j]);
      }
      for (size_t j = 0; j < w; ++j) {
        if (!flat.LookupHashed(win_hash[j], probes[i + j]).empty()) ++hits;
      }
    }
    return hits;
  };

  // One untimed warmup of each loop, then interleaved timed reps so
  // neither side benefits from running last with a hot cache.
  auto check = [&](const char* what, size_t got) {
    if (got == r.hits) return;
    ++r.violations;
    std::printf("  [GATE] %s loop found %zu hit(s), expected %zu\n", what,
                got, r.hits);
  };
  check("plain", run_plain());
  check("batched", run_batched());
  for (size_t rep = 0; rep < reps; ++rep) {
    Timer plain_timer;
    const size_t plain_hits = run_plain();
    r.plain_millis.push_back(plain_timer.ElapsedMillis());
    Timer batched_timer;
    const size_t batched_hits = run_batched();
    r.batched_millis.push_back(batched_timer.ElapsedMillis());
    check("plain", plain_hits);
    check("batched", batched_hits);
  }
  r.plain_median = Median(r.plain_millis);
  r.batched_median = Median(r.batched_millis);
  r.speedup = r.batched_median > 0 ? r.plain_median / r.batched_median : 0;
  return r;
}

int Run(bool smoke, const std::string& out_path) {
#ifdef NDEBUG
  const bool release = true;
#else
  const bool release = false;
#endif
  std::printf("Probe engine existence microbench: plain vs batched "
              "(prefetch) lookups, %s build, seed %#llx\n",
              release ? "release" : "debug",
              static_cast<unsigned long long>(kMicroSeed));
  const ExistenceResult ex =
      smoke ? RunExistenceWorkload(1u << 14, 1u << 13, 3)
            : RunExistenceWorkload(1u << 21, 1u << 20, 7);
  std::printf("  %zu rows, %zu probes, %zu hits, %zu rep(s): plain median "
              "%.2f ms, batched median %.2f ms, speedup %.2fx\n",
              ex.rows, ex.probes, ex.hits, ex.reps, ex.plain_median,
              ex.batched_median, ex.speedup);

  std::ostringstream json;
  json << "{\"bench\":\"probe_engine_workload\",\"smoke\":"
       << (smoke ? "true" : "false")
       << ",\"release\":" << (release ? "true" : "false")
       << ",\"existence\":{\"rows\":" << ex.rows << ",\"probes\":" << ex.probes
       << ",\"reps\":" << ex.reps << ",\"hits\":" << ex.hits
       << ",\"plain_millis\":";
  AppendArray(&json, ex.plain_millis);
  json << ",\"batched_millis\":";
  AppendArray(&json, ex.batched_millis);
  json << ",\"plain_median_millis\":" << ex.plain_median
       << ",\"batched_median_millis\":" << ex.batched_median
       << ",\"speedup\":" << ex.speedup
       << "},\"violations\":" << ex.violations << '}';
  std::ofstream f(out_path);
  if (f) {
    f << json.str() << '\n';
    std::printf("\nwrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
  }

  if (ex.violations > 0) {
    std::printf("\nPROBE ENGINE GATE FAILED: %zu violation(s)\n",
                ex.violations);
    return 1;
  }
  std::printf("\nPROBE ENGINE GATE OK: plain and batched hit counts match "
              "the reference count\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace kwsdbg

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_probe_engine.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=PATH]\n", argv[0]);
      return 2;
    }
  }
  return kwsdbg::bench::Run(smoke, out_path);
}
