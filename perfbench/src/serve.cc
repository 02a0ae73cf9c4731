// serve_mixed: a closed loop of two clients on a two-shard DebugService. The
// main thread plays both clients: a client sends its next operation only
// once its previous reply has arrived, so the process holds three threads
// (main + two workers). The stream is Zipf-skewed over a fixed query pool,
// with writes through ApplyMutation at fixed positions and the WAL on.
//
// The write mix is stationary: each cycle of four writes inserts a `writes`
// link, swaps one Publication title for another's, swaps it back and deletes
// the link, so table sizes and term frequencies return to where they were.
// (Random-term updates spread vocabulary into Publication and make reads
// dearer as a run goes on.)
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "checks.h"
#include "common/logging.h"
#include "common/rng.h"
#include "dataset.h"
#include "datasets/query_generator.h"
#include "datasets/workload.h"
#include "debugger/non_answer_debugger.h"
#include "reference.h"
#include "service/debug_service.h"
#include "text/tokenizer.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace kwsdbg;  // NOLINT: the benchmark drives the whole library.

namespace {

/// The service measurement of the stream this workload replays: DBLife
/// scale 2 (181,400 tuples), a 200-query pool, Zipf(0.9) popularity and one
/// write per 50 reads.
constexpr double kServeScale = 2.0;
/// Pool: the ten Table 2 queries plus generated ones, Zipf-popular.
constexpr size_t kPoolSize = 200;
constexpr double kPoolZipf = 0.9;
constexpr uint64_t kPoolSeed = 7;
/// One round of the stream: 1,000 reads and 20 writes (five whole cycles),
/// a write after every 50 reads.
constexpr size_t kWriteEvery = 51;
constexpr size_t kRoundOps = 20 * kWriteEvery;
constexpr size_t kClients = 2;
/// Reports of generated pool queries checked against the reference
/// evaluator, besides all ten Table 2 queries.
constexpr size_t kCheckedGenerated = 10;
constexpr size_t kSampledChecks = 12;

/// One operation of the stream. Writes come in cycles of four; the delete
/// targets the row its cycle's insert created, known only at run time.
struct StreamOp {
  enum Kind { kRead, kInsert, kSetTitle, kRestoreTitle, kDelete } kind = kRead;
  size_t query = 0;        ///< kRead: pool index.
  int64_t person = 0;      ///< kInsert: the link's ends.
  int64_t publication = 0;
  size_t row = 0;          ///< Title writes: the Publication row.
  Value title;             ///< kSetTitle: the borrowed title.
};

/// The query pool, most popular first. Fixed: runs with different seeds
/// differ in op order and write targets, not in which queries dominate
/// (a seeded pool alone moved reads/s by 30% between seeds).
std::vector<std::string> MakePool(const Dataset& data) {
  std::vector<std::string> pool;
  std::set<std::string> seen;
  for (const auto& q : PaperWorkload()) {
    if (seen.insert(q.text).second) pool.push_back(q.text);
  }
  QueryGeneratorConfig gen_config;
  gen_config.seed = kPoolSeed;
  gen_config.max_keywords = 2;
  RandomQueryGenerator gen(data.index.get(), gen_config);
  while (pool.size() < kPoolSize) {
    std::string q = gen.Next();
    if (seen.insert(q).second) pool.push_back(q);
  }
  Rng rng(kPoolSeed);
  rng.Shuffle(&pool);
  return pool;
}

/// Round `round` of the stream for `seed`: Zipf reads over the pool and a
/// write every kWriteEvery operations, in whole cycles, so every round starts
/// and ends with the data as generated (tombstones aside). Each round draws
/// afresh, so a run averages over as many draws as it has operations.
std::vector<StreamOp> MakeRound(const Dataset& data, size_t pool_size,
                                uint64_t seed, uint64_t round) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + round);
  const ZipfSampler zipf(pool_size, kPoolZipf);
  const Table* pubs = data.db()->FindTable("Publication");
  const Table* persons = data.db()->FindTable("Person");
  const size_t title_col = *pubs->schema().ColumnIndex("title");
  std::vector<StreamOp> ops;
  StreamOp cycle[4];
  size_t cycle_step = 0;
  for (size_t i = 0; i < kRoundOps; ++i) {
    if (i % kWriteEvery != kWriteEvery - 1) {
      StreamOp op;
      op.query = zipf.Sample(&rng);
      ops.push_back(op);
      continue;
    }
    if (cycle_step == 0) {
      cycle[0].kind = StreamOp::kInsert;
      cycle[0].person = static_cast<int64_t>(rng.Uniform(persons->num_rows())) + 1;
      cycle[0].publication = static_cast<int64_t>(rng.Uniform(pubs->num_rows())) + 1;
      const size_t a = rng.Uniform(pubs->num_rows());
      const size_t b = rng.Uniform(pubs->num_rows());
      cycle[1].kind = StreamOp::kSetTitle;
      cycle[1].row = a;
      cycle[1].title = pubs->at(b, title_col);
      cycle[2].kind = StreamOp::kRestoreTitle;
      cycle[2].row = a;
      cycle[2].title = pubs->at(a, title_col);
      cycle[3].kind = StreamOp::kDelete;
    }
    ops.push_back(cycle[cycle_step]);
    cycle_step = (cycle_step + 1) % 4;
  }
  KWSDBG_CHECK(cycle_step == 0) << "a round must hold whole write cycles";
  return ops;
}

/// What one pass over whole rounds measured.
struct Measured {
  std::vector<double> read_ms, write_ms, round_qps;
  size_t reads = 0, writes = 0, failed = 0, sql = 0;
  double wall = 0;
  std::vector<std::string> problems;
  std::map<std::string, double> layer;  ///< Per-layer sums over reads.
};

/// Drives the closed loop over whole rounds until `seconds` have passed
/// (at least one round). Spans go to `tracer` when it is non-null.
class ClosedLoop {
 public:
  ClosedLoop(DebugService* service, const Dataset& data,
             const std::vector<std::string>& pool, uint64_t seed)
      : service_(service), data_(data), pool_(pool), seed_(seed) {
    const Table* pubs = data.db()->FindTable("Publication");
    title_col_ = *pubs->schema().ColumnIndex("title");
  }

  /// Terms of every title a write has moved so far.
  const std::set<std::string>& touched_terms() const { return touched_; }

  Measured Run(double seconds, Tracer* tracer) {
    Measured m;
    tracer_ = tracer;
    const double start = NowSeconds();
    double round_start = start;
    size_t pos = 0;        // operations issued in this pass
    size_t issued = 0;     // reads issued in this pass
    size_t issued_at_round = 0;
    size_t in_flight = 0;
    bool stopping = false;
    auto issue = [&](size_t client) {
      // Writes run inline on this thread; the client moves on to its next
      // operation until one is a read.
      while (!stopping) {
        if (pos % kRoundOps == 0) {
          ops_ = MakeRound(data_, pool_.size(), seed_, rounds_++);
        }
        const StreamOp& op = ops_[pos % kRoundOps];
        ++pos;
        if (pos % kRoundOps == 0) {
          const double now = NowSeconds();
          m.round_qps.push_back((issued - issued_at_round) /
                                (now - round_start));
          issued_at_round = issued;
          round_start = now;
          stopping = now - start >= seconds;
        }
        if (op.kind != StreamOp::kRead) {
          Write(op, pos, &m);
          continue;
        }
        const double sent = NowSeconds();
        const uint64_t id = pos;
        Status st = service_->Submit(
            pool_[op.query], 0, [this, client, sent, id](QueryResult r) {
              const double end = NowSeconds();
              std::lock_guard<std::mutex> lock(mu_);
              done_.push_back(Done{client, sent, end, id, std::move(r)});
              cv_.notify_one();
            });
        if (!st.ok()) {
          ++m.reads;
          ++m.failed;
          m.problems.push_back("Submit: " + st.ToString());
          continue;
        }
        ++in_flight;
        ++issued;
        return;
      }
    };
    for (size_t c = 0; c < kClients; ++c) issue(c);
    while (in_flight > 0) {
      Done d;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return !done_.empty(); });
        d = std::move(done_.front());
        done_.pop_front();
      }
      --in_flight;
      ++m.reads;
      Record(d, &m);
      issue(d.client);
    }
    m.wall = NowSeconds() - start;
    return m;
  }

 private:
  struct Done {
    size_t client = 0;
    double sent = 0, end = 0;
    uint64_t id = 0;
    QueryResult result;
  };

  void Write(const StreamOp& op, uint64_t id, Measured* m) {
    Mutation mutation;
    switch (op.kind) {
      case StreamOp::kInsert:
        inserted_row_ = data_.db()->FindTable("writes")->num_rows();
        mutation = Mutation::Insert(
            "writes", {Value(static_cast<int64_t>(1000000 + inserted_row_)),
                       Value(op.person), Value(op.publication)});
        break;
      case StreamOp::kSetTitle:
      case StreamOp::kRestoreTitle:
        mutation = Mutation::Update("Publication", op.row, title_col_, op.title);
        for (auto& t : Tokenize(op.title.AsString())) touched_.insert(t);
        break;
      case StreamOp::kDelete:
        mutation = Mutation::Delete("writes", inserted_row_);
        break;
      case StreamOp::kRead:
        return;
    }
    const double t0 = NowSeconds();
    const Status st = service_->ApplyMutation(mutation);
    const double t1 = NowSeconds();
    if (tracer_ != nullptr) tracer_->Add("service.write", t0, t1, id);
    ++m->writes;
    if (!st.ok()) {
      ++m->failed;
      m->problems.push_back("ApplyMutation: " + st.ToString());
      return;
    }
    m->write_ms.push_back((t1 - t0) * 1e3);
  }

  void Record(const Done& d, Measured* m) {
    if (tracer_ != nullptr) tracer_->Add("service.request", d.sent, d.end, d.id);
    if (!d.result.status.ok()) {
      ++m->failed;
      m->problems.push_back(d.result.keyword_query + ": " +
                            d.result.status.ToString());
      return;
    }
    m->read_ms.push_back((d.end - d.sent) * 1e3);
    const DebugReport& rep = d.result.report;
    const size_t sql = ReportSql(rep);
    m->sql += sql;
    if (tracer_ == nullptr) return;
    // Stage times inside the service come from the report's own timers.
    auto& l = m->layer;
    l["service.queue_ms"] += d.result.queue_millis;
    l["service.exec_ms"] += d.result.exec_millis;
    l["service.steals"] += d.result.stolen ? 1 : 0;
    l["kws.bind_ms"] += rep.bind_millis;
    double staged = rep.bind_millis;
    l["kws.interpretations"] += static_cast<double>(rep.interpretations.size());
    for (const auto& interp : rep.interpretations) {
      const PruneStats& p = interp.prune_stats;
      const TraversalStats& t = interp.traversal_stats;
      l["kws.prune_ms"] += p.prune_millis;
      l["kws.mtn_ms"] += p.mtn_millis;
      l["kws.retained_nodes"] += static_cast<double>(p.retained_nodes);
      l["traversal.self_ms"] += t.total_millis - t.sql_millis;
      l["sql.exec_ms"] += t.sql_millis - t.index_build_millis;
      l["sql.index_build_ms"] += t.index_build_millis;
      l["sql.index_builds"] += static_cast<double>(t.index_builds);
      l["sql.rows_probed"] += static_cast<double>(t.rows_probed);
      l["sql.rows_filtered"] += static_cast<double>(t.rows_filtered);
      l["sql.semijoin_eliminations"] += static_cast<double>(t.semijoin_eliminations);
      l["sql.flat_probes"] += static_cast<double>(t.flat_probes);
      l["sql.posting_hits"] += static_cast<double>(t.posting_hits);
      l["storage.page_hits"] += static_cast<double>(t.page_hits);
      l["storage.page_reads"] += static_cast<double>(t.page_reads);
      l["storage.page_evictions"] += static_cast<double>(t.page_evictions);
      l["text.posting_reads"] += static_cast<double>(t.posting_reads);
      l["traversal.sql_queries"] += static_cast<double>(t.sql_queries);
      l["traversal.cache_hits"] += static_cast<double>(t.cache_hits);
      l["traversal.cache_misses"] += static_cast<double>(t.cache_misses);
      staged += p.prune_millis + p.mtn_millis + t.total_millis;
    }
    l["debugger.report_ms"] += rep.debug_millis - staged;
  }

  DebugService* service_;
  const Dataset& data_;
  const std::vector<std::string>& pool_;
  const uint64_t seed_;
  uint64_t rounds_ = 0;         ///< Rounds drawn so far (the next round's id).
  std::vector<StreamOp> ops_;   ///< The current round.
  std::set<std::string> touched_;
  size_t title_col_ = 0;
  size_t inserted_row_ = 0;
  Tracer* tracer_ = nullptr;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Done> done_;  // guarded by mu_
};

ServiceOptions MakeServiceOptions(const RunContext& ctx) {
  ServiceOptions options;
  options.num_workers = 2;
  options.num_shards = 2;
  options.durability.dir = ctx.run_dir + "/wal";
  options.durability.wal.fsync_policy = FsyncPolicy::kEveryRecord;
  return options;
}

/// (h): every table of `a` holds the same rows, tombstones included, as `b`.
bool SameRows(const Database& a, const Database& b, std::string* where) {
  if (a.TableNames() != b.TableNames()) {
    *where = "table list";
    return false;
  }
  for (const std::string& name : a.TableNames()) {
    const Table* x = a.FindTable(name);
    const Table* y = b.FindTable(name);
    bool same = x->num_rows() == y->num_rows();
    for (size_t r = 0; same && r < x->num_rows(); ++r) {
      same = x->deleted(r) == y->deleted(r) && x->row(r) == y->row(r);
    }
    if (!same) {
      *where = name;
      return false;
    }
  }
  return true;
}

}  // namespace

RunResult RunServeMixed(const RunContext& ctx) {
  RunResult result;
  Tracer tracer;
  Tracer* tr = ctx.trace ? &tracer : nullptr;
  std::unique_ptr<Dataset> owned = BuildDataset(kServeScale, kDataSeed, tr);
  Dataset& data = *owned;
  const std::vector<std::string> pool = MakePool(data);
  Note("# serve_mixed: %zu tuples, pool %zu queries, %zu ops per round (a "
       "write after every %zu reads)",
       data.db()->TotalTuples(), pool.size(), kRoundOps, kWriteEvery - 1);

  auto service = std::make_unique<DebugService>(
      data.db(), data.lattice.get(), data.index.get(), MakeServiceOptions(ctx));
  KWSDBG_CHECK(service->durability_status().ok())
      << service->durability_status().ToString();
  ClosedLoop loop(service.get(), data, pool, ctx.seed);
  // Warm-up, discarded: one batch over the whole pool, so the rarely drawn
  // queries that no write evicts are not first computed in a timed round,
  // then one round, so the cache holds what the stream keeps in it.
  service->RunBatch(pool);
  loop.Run(0, nullptr);

  const double setup_s = SinceStart();
  const MutationStats& ms = service->mutator()->stats();
  const uint64_t evictions0 = ms.partial_evictions.load();
  const uint64_t patches0 = ms.index_patches.load();
  const WalStats wal0 = service->wal()->stats();
  Measured m = loop.Run(ctx.seconds, tr);
  const double peak_rss = PeakRssMib();
  result.attempted = m.reads + m.writes;
  result.failed = m.failed;
  result.problems = m.problems;
  Note("# %zu rounds, %zu reads + %zu writes in %.2f s; per-round reads/s %s",
       m.round_qps.size(), m.reads, m.writes, m.wall, Spread(m.round_qps).c_str());
  Note("# read ms %s, p95 %.4g, p99 %.4g; write ms %s, p99 %.4g",
       Spread(m.read_ms).c_str(), Quantile(m.read_ms, 0.95),
       Quantile(m.read_ms, 0.99), Spread(m.write_ms).c_str(),
       Quantile(m.write_ms, 0.99));
  const double reads = static_cast<double>(m.reads);
  const double writes = static_cast<double>(m.writes);

  std::map<std::string, double> v;
  if (ctx.trace) {
    const WalStats wal = service->wal()->stats();
    for (const auto& [name, sum] : m.layer) v[name] = sum / reads;
    v["service.query_ms_p99"] = Quantile(m.read_ms, 0.99);
    v["service.write_ms_p50"] = Quantile(m.write_ms, 0.5);
    v["service.write_ms_p99"] = Quantile(m.write_ms, 0.99);
    v["service.partial_evictions"] = (ms.partial_evictions.load() - evictions0) / writes;
    v["text.index_patches"] = (ms.index_patches.load() - patches0) / writes;
    v["storage.wal_records"] = (wal.records_appended - wal0.records_appended) / writes;
    v["storage.wal_bytes"] = (wal.bytes_appended - wal0.bytes_appended) / writes;
    v["storage.wal_fsyncs"] = (wal.fsyncs - wal0.fsyncs) / writes;
    const double lookups = m.layer["traversal.cache_hits"] + m.layer["traversal.cache_misses"];
    v["traversal.cache_hit_ratio"] = lookups > 0 ? m.layer["traversal.cache_hits"] / lookups : 0;
    v.erase("traversal.cache_misses");
    const auto self = tracer.SelfMillis();
    for (const char* name : {"datasets.generate", "text.build", "lattice.generate"}) {
      auto it = self.find(name);
      v[std::string(name) + "_ms"] = it == self.end() ? 0 : it->second;
    }
    // Tracing overhead: one more round without spans.
    const Measured plain = loop.Run(0, nullptr);
    NoteTraceOverhead(Quantile(m.read_ms, 0.5), Quantile(plain.read_ms, 0.5));
  }

  // (f) after the last write, the service answers every pool query as a
  // fresh serial debugger over an index rebuilt from scratch does.
  const BatchResult batch = service->RunBatch(pool);
  const InvertedIndex rebuilt = InvertedIndex::Build(*data.db());
  NonAnswerDebugger serial(data.db(), data.lattice.get(), &rebuilt);
  std::vector<DebugReport> serial_reports;
  for (size_t i = 0; i < pool.size(); ++i) {
    auto report = serial.Debug(pool[i]);
    KWSDBG_CHECK(report.ok()) << report.status().ToString();
    const QueryResult& r = batch.results[i];
    result.Expect(r.status.ok() && r.report.ClassificationSignature() ==
                                       report->ClassificationSignature(),
                  pool[i] + ": service answer differs from a fresh "
                                   "serial debugger over a rebuilt index");
    serial_reports.push_back(std::move(*report));
  }
  // (g) posting lists of every term a write moved match the rebuilt index.
  for (const std::string& term : loop.touched_terms()) {
    result.Expect(data.index->PostingsFor(term) == rebuilt.PostingsFor(term),
                  "posting list of '" + term + "' differs from a rebuild");
  }
  // (b)-(d) on every Table 2 query and a seeded sample of generated ones.
  ReferenceEvaluator ref(data.db());
  CheckTally tally;
  std::vector<size_t> checked, generated;
  for (size_t i = 0; i < pool.size(); ++i) {
    const bool paper = std::any_of(
        PaperWorkload().begin(), PaperWorkload().end(),
        [&](const WorkloadQuery& q) { return q.text == pool[i]; });
    (paper ? checked : generated).push_back(i);
  }
  Rng pick(ctx.seed);
  pick.Shuffle(&generated);
  generated.resize(std::min(generated.size(), kCheckedGenerated));
  checked.insert(checked.end(), generated.begin(), generated.end());
  for (size_t i : checked) {
    CheckReport(*data.lattice, rebuilt, serial_reports[i], &ref, kSampledChecks,
                ctx.seed + i, &tally, &result);
  }
  Note("# reference checks: %zu reports (%zu answers, %zu non-answers), "
       "%zu classified networks, %zu maximality and %zu minimality probes; "
       "%zu touched terms compared",
       tally.reports, tally.answers, tally.non_answers, tally.classified,
       tally.maximality, tally.minimality, loop.touched_terms().size());

  // (h) a service recovered from the run's WAL over freshly generated data
  // holds the same rows as the live one.
  service.reset();
  {
    std::unique_ptr<Dataset> fresh = BuildDataset(kServeScale, kDataSeed, nullptr);
    DebugService recovered(fresh->db(), fresh->lattice.get(), fresh->index.get(),
                           MakeServiceOptions(ctx));
    result.Expect(recovered.durability_status().ok(),
                  "recovery: " + recovered.durability_status().ToString());
    std::string where;
    result.Expect(SameRows(*data.db(), *fresh->db(), &where),
                  "recovered rows differ from the live ones in " + where);
  }

  if (ctx.trace) {
    result.metrics = v;
    const std::string path = ctx.out_dir + "/trace-" + ctx.workload + "-" +
                             std::to_string(ctx.seed) + ".jsonl";
    result.Expect(tracer.Write(path), "cannot write " + path);
    Note("# %zu spans written to %s", tracer.size(), path.c_str());
    return result;
  }
  result.metrics["setup_s"] = setup_s;
  result.metrics["query_ms_p50"] = Quantile(m.read_ms, 0.5);
  result.metrics["query_ms_p95"] = Quantile(m.read_ms, 0.95);
  result.metrics["queries_per_s"] = reads / m.wall;
  result.metrics["sql_per_query"] = m.sql / reads;
  result.metrics["peak_rss_mib"] = peak_rss;
  return result;
}

}  // namespace perfbench
