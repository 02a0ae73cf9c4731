// DebugService: a sharded worker pool serving keyword-query debugging
// requests over one shared immutable Lattice + Database. The engine is
// partitioned DRAMHiT-style: each shard owns a bounded task queue (batched
// handoff in and out), a verdict-cache partition, and a flat-index tier
// shared by the shard's workers — no shared lock sits on the hot path.
// Queries route to shards by canonical-keyword-label hash, so every verdict
// key a query can touch — (canonical label, binding signature, epoch) pairs
// are a pure function of its keyword multiset — lives on the shard (core)
// that computes it. Idle workers steal the oldest half of the deepest other
// queue, so a skewed routing distribution cannot idle cores; stolen queries
// still read/write their home shard's caches.
//
// Two entry points: synchronous RunBatch (results in input order plus the
// batch aggregate) and asynchronous Submit (open-loop load generation —
// callers inject at their own arrival rate and collect completions from a
// callback; see bench/service_scale_workload).
//
// Per-query deadlines degrade gracefully: a query that exhausts its budget
// returns a partial report marked `truncated` containing only ground-truth
// verdicts (see common/cancellation.h), never a crash or a wrong verdict.
#ifndef KWSDBG_SERVICE_DEBUG_SERVICE_H_
#define KWSDBG_SERVICE_DEBUG_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"
#include "debugger/non_answer_debugger.h"
#include "service/live_mutator.h"
#include "sql/flat_row_index.h"
#include "storage/checkpoint.h"
#include "storage/relation_fences.h"
#include "storage/wal.h"
#include "traversal/verdict_cache.h"

namespace kwsdbg {

/// Durability configuration (see storage/wal.h, storage/checkpoint.h).
/// With a non-empty `dir`, a mutable-constructed service recovers on
/// construction (validates the text index against the checkpoint
/// fingerprint, replays the WAL suffix through the mutation engine, chops
/// any torn tail) and every acknowledged ApplyMutation is WAL-logged.
struct DurabilityOptions {
  std::string dir;  ///< WAL + checkpoint directory; "" = durability off.
  WalOptions wal;   ///< Fsync policy + group-commit window.
};

/// Service configuration.
struct ServiceOptions {
  /// Worker pool size (threads); each worker runs whole queries, so this is
  /// the inter-query parallelism. Intra-query parallelism is configured
  /// separately via `debugger.parallel` and multiplies with this.
  size_t num_workers = 4;
  /// Engine shards. Workers are assigned round-robin (worker i serves shard
  /// i % num_shards); each shard owns a task queue, a verdict-cache
  /// partition, and a flat-index tier shared by its workers. 1 (default)
  /// reproduces the pre-sharding single-queue, single-cache service; 0
  /// means one shard per worker. Values above num_workers are clamped to
  /// num_workers (a shard with no worker would drain only via stealing).
  size_t num_shards = 1;
  /// Cross-shard work stealing: a worker whose own queue is empty takes the
  /// oldest half of the deepest other queue (capped at handoff_batch), so
  /// skewed workloads cannot idle cores while one shard backs up.
  bool work_stealing = true;
  /// Batched handoff: the most tasks a worker drains from a queue (its own
  /// or a steal victim's) per lock acquisition.
  size_t handoff_batch = 8;
  /// Default per-query wall-clock budget in milliseconds (0 = unbounded);
  /// RunBatch overloads can override it per batch.
  double default_deadline_millis = 0;
  /// Total verdict-cache entry budget, split evenly across shards.
  size_t shared_cache_capacity = VerdictCache::kDefaultCapacity;
  /// Admission control: maximum queued (not yet picked up) tasks per shard;
  /// queries routed to a full shard are shed at enqueue time with
  /// kResourceExhausted instead of growing the queue without limit.
  /// 0 = unbounded (default). With one shard this bounds the whole queue,
  /// matching the pre-sharding behavior.
  size_t max_queue_depth = 0;
  /// Retry budget for queries failing with a retryable status (IsRetryable:
  /// kUnavailable / kResourceExhausted — transient dependency outages, not
  /// deadline expiry or malformed input). 0 disables retries, in which case
  /// the first transient failure surfaces as the query's typed status.
  size_t max_retries = 2;
  /// Exponential backoff between retry attempts: sleep
  /// min(base * 2^attempt, max) * jitter, jitter uniform in [0.5, 1.0),
  /// drawn from a per-worker Rng seeded from `retry_seed` (deterministic
  /// schedules per worker). Backoff never sleeps past the query deadline.
  double retry_backoff_base_millis = 1.0;
  double retry_backoff_max_millis = 50.0;
  uint64_t retry_seed = 0x5EEDu;
  /// Durability: WAL + checkpoint dir and fsync policy. Ignored (with a
  /// non-OK durability_status()) for const-constructed services — there is
  /// no write path to log.
  DurabilityOptions durability;
  /// Template for each worker's debugger. `shared_verdict_cache`,
  /// `executor.shared_flat_indexes`, and `deadline_millis` are overwritten
  /// by the service (wired to the worker's shard).
  DebuggerOptions debugger;
};

/// Outcome of one query.
struct QueryResult {
  std::string keyword_query;
  /// Non-OK when the pipeline failed outright (deadline expiry is NOT a
  /// failure — it yields an OK status and `report.truncated`).
  Status status = Status::OK();
  DebugReport report;        ///< Valid iff `status.ok()`.
  double queue_millis = 0;   ///< Enqueue -> worker pickup.
  double exec_millis = 0;    ///< Worker pickup -> report ready.
  size_t worker = 0;         ///< Which worker served it.
  size_t shard = 0;          ///< Home shard (canonical-label routing).
  bool stolen = false;       ///< Served by another shard's worker.
  size_t retries = 0;        ///< Retry attempts consumed (0 = first try won).
  bool shed = false;         ///< Rejected by admission control (never ran).
};

/// Per-shard telemetry (ServiceStats::shards, service_json "shards").
struct ShardStats {
  size_t workers = 0;          ///< Workers homed on this shard.
  size_t routed = 0;           ///< Queries whose label hash routed here.
  size_t executed = 0;         ///< Queries run by this shard's workers.
  size_t steals = 0;           ///< Queries this shard's workers stole.
  size_t stolen_away = 0;      ///< Home queries run by another shard.
  size_t shed = 0;             ///< Admission rejects at this shard's queue.
  size_t max_queue_depth = 0;  ///< Enqueue-time high-water mark.
  /// Verdict hits against this shard's cache partition, split by whether
  /// the probing worker was home (local) or stealing (remote).
  size_t local_cache_hits = 0;
  size_t remote_cache_hits = 0;
  VerdictCacheStats cache;     ///< This shard's verdict partition.
  /// Lifetime p_a observations held by this shard's adaptive tier (zero
  /// when the service runs without adaptive mode).
  size_t pa_observations = 0;
};

/// Aggregated batch statistics (the service-level analogue of
/// TraversalStats, exported via ServiceStatsToJson).
struct ServiceStats {
  size_t queries = 0;
  size_t truncated = 0;      ///< Queries whose report is partial.
  size_t failed = 0;         ///< Queries with a non-OK status.
  size_t retries = 0;        ///< Retry attempts across the batch.
  size_t shed = 0;           ///< Queries rejected by admission control
                             ///< (kResourceExhausted; included in failed).
  size_t steals = 0;         ///< Queries served by a non-home shard.
  /// Degraded-mode executor fallbacks summed over the batch (nonzero only
  /// under fault injection; see common/fault_injector.h).
  size_t index_fallbacks = 0;
  size_t semijoin_fallbacks = 0;
  /// Join-index probe traffic summed over the batch.
  size_t flat_probes = 0;
  size_t prefetch_batches = 0;
  /// Out-of-core I/O summed over the batch (zero when every table and the
  /// index are resident, the usual service configuration).
  size_t page_hits = 0;
  size_t page_reads = 0;
  size_t page_evictions = 0;
  size_t posting_reads = 0;
  /// Adaptive-traversal traffic summed over the batch (zero when the
  /// debugger template runs a static strategy).
  size_t planner_decisions = 0;
  size_t planner_explored = 0;
  size_t pa_observations = 0;
  double wall_millis = 0;    ///< Batch submit -> last query done.
  double queries_per_second = 0;
  /// Latency distribution over exec_millis of queries that actually ran
  /// (shed queries never ran and are excluded — see ComputeServiceStats).
  double p50_millis = 0;
  double p95_millis = 0;
  double p99_millis = 0;
  double p999_millis = 0;
  double max_millis = 0;
  double mean_queue_millis = 0;  ///< Average worker wait (ran queries only).
  /// SQL actually issued vs. verdicts answered from cache, summed over the
  /// batch's traversal stats (hits here include intra-query reuse).
  size_t sql_queries = 0;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  /// Live-write counters since service construction (all zero for a service
  /// built over a const database; see LiveMutator).
  size_t mutations_applied = 0;
  size_t partial_evictions = 0;  ///< Verdicts evicted by relation masks.
  size_t index_patches = 0;      ///< Posting-list + flat-arena in-place
                                 ///< patches.
  /// Durability counters since service construction (all zero without a
  /// WAL dir; see DurabilityOptions).
  size_t wal_records = 0;        ///< WAL records appended.
  size_t wal_fsyncs = 0;
  size_t checkpoints = 0;        ///< Checkpoints written (Checkpoint/Drain).
  size_t wal_replayed = 0;       ///< Records replayed at construction.
  size_t recovery_torn_bytes = 0;  ///< Torn-tail bytes dropped at recovery.
  /// Aggregate of every shard's verdict partition after the batch (hits /
  /// misses count lookups from every worker since service construction).
  VerdictCacheStats shared_cache;
  size_t num_shards = 1;
  /// Per-shard counters for this batch (reset at batch start); the cache
  /// field inside is the partition's lifetime counters.
  std::vector<ShardStats> shards;

  /// One-paragraph human-readable rendering for bench/CLI output.
  std::string ToString() const;
};

/// Builds the aggregate over per-query results. Two correctness rules live
/// here (regression-tested in tests/service/service_stats_test.cc):
///   * Shed queries never ran — their zero exec/queue times are admission
///     outcomes, not latencies, and are excluded from the percentile sample
///     and the mean-queue-wait denominator (folding them in dragged
///     p50/p95 toward zero exactly when the service was overloaded).
///   * queries_per_second divides by a nonzero-clamped wall time, so tiny
///     batches that complete inside the timer's resolution report a finite
///     QPS instead of a vacuous 0 that slips through >= gates.
/// Shard-level fields (num_shards, shards, shared_cache) are filled by the
/// service, not here. Also used by the open-loop harness for per-sweep
/// windows.
ServiceStats ComputeServiceStats(const std::vector<QueryResult>& results,
                                 double wall_millis);

/// A completed batch: per-query results in input order plus the aggregate.
struct BatchResult {
  /// Batch-level status: kInvalidArgument when RunBatch was called while
  /// another batch was already in flight (the call is rejected wholesale —
  /// no query runs); OK otherwise, even if individual queries failed.
  Status status = Status::OK();
  std::vector<QueryResult> results;
  ServiceStats stats;
};

/// Sharded thread pool over one shared database/lattice pair. RunBatch is
/// synchronous; one batch runs at a time (a concurrent RunBatch call is
/// rejected with a kInvalidArgument batch status). Submit is asynchronous
/// and may be called from any thread; pair it with WaitIdle. The referenced
/// db/lattice/index must outlive the service.
///
/// Write contract: constructed over const pointers, the database and index
/// must stay unmodified while queries are in flight (legacy single-writer
/// deployments: mutate + BumpEpoch() only while quiescent). Constructed
/// over mutable pointers, ApplyMutation() is the thread-safe write path —
/// it fences in-flight queries per relation (storage/relation_fences.h), so
/// a write to one table waits only for the queries that bind it, patches
/// the text index and every shard's flat-index tier in place, and evicts
/// only the verdicts whose relation set the write intersects. Quiescence is
/// no longer required.
class DebugService {
 public:
  DebugService(const Database* db, const Lattice* lattice,
               const InvertedIndex* index, ServiceOptions options = {});

  /// Live-write construction: same service, plus ApplyMutation() backed by
  /// a LiveMutator over the (mutable) database and index. `index` may be
  /// null when the service runs without a text index.
  DebugService(Database* db, const Lattice* lattice, InvertedIndex* index,
               ServiceOptions options = {});

  ~DebugService();

  DebugService(const DebugService&) = delete;
  DebugService& operator=(const DebugService&) = delete;

  /// Runs every query to completion on the pool and returns results in
  /// input order, using the configured default deadline.
  BatchResult RunBatch(const std::vector<std::string>& queries);

  /// Same, with an explicit per-query deadline for this batch (0 = none).
  BatchResult RunBatch(const std::vector<std::string>& queries,
                       double deadline_millis);

  /// Asynchronous single-query submission for open-loop load generation:
  /// routes to the home shard and returns immediately. On acceptance,
  /// `done` is invoked exactly once, on the executing worker's thread, with
  /// the completed result. When the home shard's queue is at
  /// max_queue_depth the query is shed: kResourceExhausted is returned and
  /// `done` is never called. Callers must WaitIdle() (or otherwise observe
  /// every callback) before destroying the service.
  Status Submit(std::string query, double deadline_millis,
                std::function<void(QueryResult)> done);

  /// Blocks until every accepted Submit has completed. (RunBatch callers
  /// don't need this — RunBatch waits for its own batch.)
  void WaitIdle();

  /// Home shard for `query` under `num_shards`: a hash of the canonical
  /// keyword label (sorted, deduplicated tokens). Queries sharing a keyword
  /// multiset share every (canonical label, binding signature) verdict key
  /// they can generate, so label routing pins a sub-network's verdicts and
  /// the shard's flat indexes to the core that computes them. Exposed for
  /// tests and the load harness.
  static size_t HomeShard(const std::string& query, size_t num_shards);

  size_t num_shards() const { return shards_.size(); }

  /// Shard `i`'s verdict partition (tests: inspect hit rates, Clear()).
  VerdictCache* shard_cache(size_t shard) { return &shards_[shard]->cache; }

  /// Back-compat accessor: shard 0's partition — with the default single
  /// shard, the process-wide tier every worker consults.
  VerdictCache* shared_cache() { return shard_cache(0); }

  /// Shard `i`'s adaptive tier (p_a model + planner), or null when the
  /// debugger template has `adaptive` off. Shared by the shard's workers
  /// the same way they share the verdict partition and flat-index tier.
  AdaptiveState* shard_adaptive(size_t shard) {
    return shards_[shard]->adaptive.get();
  }

  /// Point-in-time per-shard counters accumulated since construction or
  /// the last ResetShardCounters()/RunBatch (RunBatch resets on entry so
  /// its aggregate reports per-batch deltas).
  std::vector<ShardStats> ShardSnapshot() const;

  /// Zeroes the per-shard routed/executed/steal/shed/depth counters
  /// (verdict-partition cache counters are lifetime and unaffected).
  void ResetShardCounters();

  /// Drops every shard's verdict partition and flat-index tier (e.g. after
  /// a database mutation epoch, to reclaim memory from dead-epoch entries).
  void ClearCaches();

  /// Applies one live write (insert/delete/update) through the mutation
  /// engine: safe to call while queries are in flight — the write fences
  /// only the mutated relation. Serialized against concurrent ApplyMutation
  /// calls by the relation fences themselves. Returns kFailedPrecondition
  /// when the service was constructed over a const database.
  Status ApplyMutation(const Mutation& m);

  /// The mutation engine, or null for a const-constructed service (tests
  /// inspect MutationStats through it).
  LiveMutator* mutator() { return mutator_.get(); }

  /// Health of the durability subsystem. OK when durability is disabled or
  /// recovery succeeded; kDataLoss when the checkpoint/WAL failed checksum
  /// or the index fingerprint did not match (the service still serves
  /// reads, but ApplyMutation is rejected so divergence cannot compound).
  Status durability_status() const { return durability_status_; }

  /// Crash-consistent snapshot of the database + index fingerprint into the
  /// durability dir, then truncates the WAL at the covered seq. Excludes
  /// writers for the duration by taking every relation fence shared (reads
  /// proceed). kFailedPrecondition when durability is off.
  Status Checkpoint();

  /// Graceful shutdown: stop admitting work (Submit/RunBatch/ApplyMutation
  /// return kUnavailable), wait for in-flight queries to finish, fsync the
  /// WAL, and checkpoint. After an OK Drain, recovery replays zero records.
  Status Drain();

  /// The mutation log, or null when durability is off (the crash harness
  /// reads durable_seq() to decide which acks the zero-loss gate covers).
  WalWriter* wal() { return wal_.get(); }

  const ServiceOptions& options() const { return options_; }

 private:
  struct Task {
    std::string query;
    double deadline_millis = 0;
    size_t home_shard = 0;
    Timer enqueued;  ///< Started at enqueue time.
    /// Completion sink: writes a batch slot or runs a Submit callback.
    std::function<void(QueryResult&&)> done;
  };

  /// One engine partition: queue + verdict cache + flat-index tier. The
  /// queue mutex is per-shard, so enqueue/dequeue on different shards never
  /// contend; counters are relaxed atomics read by ShardSnapshot.
  struct Shard {
    explicit Shard(size_t cache_capacity) : cache(cache_capacity) {}
    mutable std::mutex mu;
    std::deque<Task> queue;       // guarded by mu
    size_t max_depth = 0;         // guarded by mu
    std::atomic<size_t> queued{0};  ///< queue.size() mirror for lock-free
                                    ///< victim selection and idle checks.
    VerdictCache cache;
    SharedFlatRowIndexManager flat_indexes;
    /// Shard-shared adaptive tier; null when adaptive mode is off.
    std::unique_ptr<AdaptiveState> adaptive;
    std::atomic<size_t> workers{0};
    std::atomic<size_t> routed{0};
    std::atomic<size_t> executed{0};
    std::atomic<size_t> steals{0};
    std::atomic<size_t> stolen_away{0};
    std::atomic<size_t> shed{0};
    std::atomic<size_t> local_cache_hits{0};
    std::atomic<size_t> remote_cache_hits{0};
  };

  void WorkerLoop(size_t worker_id);
  void ExecuteTask(NonAnswerDebugger* debugger, Rng* backoff_rng,
                   size_t worker_id, size_t my_shard, Task task);
  /// Pushes one task onto its home shard's queue; false = shed (queue at
  /// max_queue_depth). Callers notify workers after a successful push.
  bool Enqueue(Task task);
  /// Batched handoff (enqueue side): pushes a whole routed group under one
  /// shard-lock acquisition. Tasks that do not fit under max_queue_depth
  /// move to `rejected` (admission order = batch order). Returns the number
  /// accepted; callers notify workers afterwards.
  size_t EnqueueGroup(size_t shard, std::vector<Task>* tasks,
                      std::vector<Task>* rejected);
  /// Drains up to handoff_batch tasks from the front of `shard`'s queue.
  void PopBatch(size_t shard, std::vector<Task>* out);
  /// Steals the oldest ceil(depth/2) tasks (capped at handoff_batch) from
  /// the deepest non-`thief` queue. Oldest-first keeps stealing a tail-
  /// latency rescue, not a LIFO cache optimization.
  void StealBatch(size_t thief, std::vector<Task>* out);
  /// True when `shard`'s worker can find work without sleeping.
  bool HasVisibleWork(size_t shard) const;
  void NotifyWorkers(size_t tasks);

  /// Shared constructor body; `mutable_db` non-null enables the write path.
  DebugService(const Database* db, const Lattice* lattice,
               const InvertedIndex* index, ServiceOptions options,
               Database* mutable_db, InvertedIndex* mutable_index);

  /// Recovery-on-construct: validates the index fingerprint against the
  /// checkpoint, replays the WAL suffix through the mutation engine, and
  /// attaches the writer. Runs before worker threads start; failures land
  /// in durability_status_ (constructors cannot return a Status).
  void SetupDurability(Database* mutable_db);

  const Database* db_;
  const Lattice* lattice_;
  const InvertedIndex* index_;
  ServiceOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Present iff constructed mutable: per-relation fences shared by every
  /// worker's evaluator and the mutation engine.
  std::unique_ptr<RelationFences> fences_;
  std::unique_ptr<LiveMutator> mutator_;

  /// Durability state (see DurabilityOptions). wal_ is created by
  /// SetupDurability before workers start and never reassigned, so workers
  /// may read it without locking; checkpoint_mu_ serializes Checkpoint and
  /// Drain against each other.
  std::unique_ptr<WalWriter> wal_;
  Status durability_status_ = Status::OK();
  std::mutex checkpoint_mu_;
  std::atomic<bool> draining_{false};
  std::atomic<size_t> checkpoints_{0};
  size_t wal_replayed_ = 0;        ///< Set once during SetupDurability.
  size_t recovery_torn_bytes_ = 0;  ///< Set once during SetupDurability.

  /// Total queued-but-not-picked-up tasks across shards (stealing workers
  /// wait on this; per-shard `queued` serves the non-stealing predicate).
  std::atomic<size_t> pending_{0};
  std::mutex idle_mu_;                ///< Guards stop_; pairs with idle_cv_.
  std::condition_variable idle_cv_;   ///< Wakes sleeping workers.
  bool stop_ = false;                 // guarded by idle_mu_

  std::mutex mu_;                     ///< Batch/Submit completion tracking.
  std::condition_variable done_cv_;
  size_t completed_ = 0;              // guarded by mu_
  bool batch_in_flight_ = false;      // guarded by mu_
  std::atomic<size_t> outstanding_submits_{0};

  std::vector<std::thread> workers_;
};

}  // namespace kwsdbg

#endif  // KWSDBG_SERVICE_DEBUG_SERVICE_H_
