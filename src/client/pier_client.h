// PierClient: the one entry point applications use to talk to PIER
// (§3.3.2–§3.3.3, restructured as a narrow façade).
//
// The paper's client interface is two verbs — publish tuples, submit a query
// at any node (which becomes the query's proxy) — but the reproduction had
// grown five: three Publish* variants that each restated index metadata, and
// two front ends (CompileSql / ParseUfl) whose output was hand-carried into
// SubmitQuery with raw callbacks. PierClient folds them back into two:
//
//   client.Publish(table, tuple)        // catalog-driven index fan-out
//   client.Query(Sql("SELECT ..."))     // or Ufl("graph ..."), or a native
//   client.Query(std::move(plan))       // QueryPlan — all return QueryHandle
//
// A QueryHandle owns the streaming result channel: OnTuple/OnDone
// registration, Cancel(), per-query Stats, and a blocking Collect() for
// tests and examples (it drives the simulation's virtual clock).

#ifndef PIER_CLIENT_PIER_CLIENT_H_
#define PIER_CLIENT_PIER_CLIENT_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/catalog.h"
#include "obs/metrics.h"
#include "opt/optimizer.h"
#include "qp/query_processor.h"

namespace pier {

class PierClient;

/// A SQL query plus the per-query compiler knobs (everything table-shaped
/// comes from the catalog instead).
struct Sql {
  std::string text;
  /// "flat" two-phase rehash, "hier" aggregation-tree (§3.3.4), or "auto":
  /// the cost-based optimizer chooses, defaulting to flat when the client
  /// has no usable statistics for the table.
  std::string agg_strategy = "auto";
  /// "off", or "auto" (mirroring agg_strategy=auto): for CONTINUOUS
  /// queries, the client re-runs the optimizer over the query once per
  /// window as statistics drift and swaps the physical plan at a window
  /// boundary when the chosen strategy changed and the running plan costs
  /// PierClient::kReplanCostRatio times the candidate. Ignored for snapshot
  /// queries. Anything else is an InvalidArgument.
  std::string replan = "off";

  Sql() = default;
  explicit Sql(std::string query) : text(std::move(query)) {}
  Sql& WithAggStrategy(std::string strategy) {
    agg_strategy = std::move(strategy);
    return *this;
  }
  Sql& WithReplan(std::string mode) {
    replan = std::move(mode);
    return *this;
  }
};

/// A UFL dataflow program (the text equivalent of the paper's Lighthouse).
struct Ufl {
  std::string text;
  explicit Ufl(std::string program) : text(std::move(program)) {}
};

/// What PierClient::Explain returns: the chosen physical plan plus the
/// optimizer's decisions and a per-operator cost breakdown.
struct ExplainResult {
  QueryPlan plan;
  PlanExplain detail;

  std::string ToString() const { return detail.ToString(); }
};

/// What PierClient::ExplainAnalyze returns: the optimizer's pre-execution
/// estimate side by side with the metered per-operator cost report the proxy
/// aggregated (local meters plus the snapshots piggybacked on answers).
struct ExplainAnalyzeResult {
  PlanExplain estimate;    // per-op est_rows and modeled network cost
  QueryCostReport actual;  // per-op tuples/messages/bytes actually metered
  /// True once the query completed and `actual` is the final ledger; false
  /// for a live snapshot of a still-running query.
  bool final = false;

  std::string ToString() const;
};

/// A live query owned by the client. Cheap to copy (shared state); the
/// underlying query keeps running until its timeout, Cancel(), or process
/// exit — dropping every handle does NOT cancel it (soft state drains on its
/// own, §3.3.2).
class QueryHandle {
 public:
  struct Stats {
    uint64_t tuples = 0;   // answers that reached this handle
    /// Answers discarded because a Collect-style handle's buffer held
    /// kMaxBuffered already.
    uint64_t dropped = 0;
    /// Automatic plan swaps performed on this query (replan=auto).
    uint32_t replans = 0;
    TimeUs submitted_at = 0;
    TimeUs first_tuple_latency = -1;  // -1 until the first answer arrives
    TimeUs last_tuple_latency = -1;
    bool done = false;               // timeout fired or Cancel()ed
    bool cancelled = false;
    /// Final per-query cost totals, filled when the proxy emits the query's
    /// cost report (completion or cancellation). Zero until then; the full
    /// per-operator breakdown is PierClient::ExplainAnalyze's.
    uint64_t op_tuples = 0;  // tuples produced across all metered operators
    uint64_t op_msgs = 0;    // wire messages charged to the query
    uint64_t op_bytes = 0;   // wire bytes charged to the query
  };

  /// Answers a handle buffers for Collect() or until OnTuple registers: a
  /// continuous query whose handle was dropped (the qp callbacks keep its
  /// state alive until done) must not accumulate tuples without bound.
  static constexpr size_t kMaxBuffered = 64 * 1024;

  QueryHandle() = default;

  bool valid() const { return state_ != nullptr; }
  uint64_t id() const;

  /// Register the streaming callbacks. Answers that arrived before
  /// registration were buffered and are replayed synchronously. Returns
  /// *this so registration chains off Query().
  QueryHandle& OnTuple(std::function<void(const Tuple&)> fn);
  QueryHandle& OnDone(std::function<void()> fn);

  /// Stop delivery and tear down execution. At a live proxy this cancels
  /// the query properly (continuous queries broadcast a tombstone, on which
  /// remote executors tear down) and returns Ok. On an already-
  /// ORPHANED query — the proxy-side record is gone, so there is no proxy
  /// round-trip to make — it tears down locally, completes the handle, and
  /// returns Unavailable instead of leaving the handle hanging until the
  /// deadline. Either way the handle completes: a registered OnDone fires
  /// once, synchronously, and answers still in flight are ignored.
  Status Cancel();

  bool done() const;
  const Stats& stats() const;

  /// Drive the environment until the query completes (or `max_wait` elapses;
  /// 0 waits until the query ends, plus slack). Requires a run driver —
  /// clients made by SimPier have one.
  Status Wait(TimeUs max_wait = 0);

  /// Blocking convenience for tests and examples: Wait(), then return the
  /// buffered answers (the first kMaxBuffered — overflow is dropped and
  /// counted in Stats::dropped; register OnTuple for unbounded streams).
  /// Only meaningful if OnTuple was never registered (answers go to the
  /// streaming callback once one is registered). On a
  /// completed query the buffer is drained into the return value; on a
  /// still-running continuous query Collect returns a COPY and leaves the
  /// buffer in place, so a later Collect sees the full prefix rather than a
  /// surprise suffix.
  std::vector<Tuple> Collect(TimeUs max_wait = 0);

 private:
  friend class PierClient;
  struct State;
  explicit QueryHandle(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// The per-node client façade: a QueryProcessor (this node is the proxy for
/// queries submitted here) plus the application's shared Catalog.
class PierClient {
 public:
  /// Advances the execution environment by a time span — the simulation's
  /// RunFor. Optional; without it Wait/Collect cannot block.
  using RunFn = std::function<void(TimeUs)>;

  /// `qp` and `catalog` must outlive the client; one catalog is typically
  /// shared by many clients. Every plan submitted or swapped in through the
  /// client is checked against the catalog first (PIER itself keeps none).
  /// `stats` is the statistics registry Publish accrues into (shared across
  /// clients by the runtime that boots them); null makes the client own a
  /// private one. The `sys.stats` system table is registered in the catalog
  /// so stats rows are publishable and queryable like any other table.
  PierClient(QueryProcessor* qp, Catalog* catalog, RunFn run = nullptr,
             StatsRegistry* stats = nullptr);
  ~PierClient();

  PierClient(const PierClient&) = delete;
  PierClient& operator=(const PierClient&) = delete;

  Catalog* catalog() { return catalog_; }
  QueryProcessor* qp() { return qp_; }
  StatsRegistry* stats() { return stats_; }

  /// Cost-model parameters for this client's optimizer (network size above
  /// all — a node cannot discover N itself, the booting runtime injects it).
  void set_cost_params(const CostParams& p) { cost_params_ = p; }
  const CostParams& cost_params() const { return cost_params_; }

  // --- Publishing ------------------------------------------------------------

  /// Lifetime of a published object whose publish and table spec both say 0.
  static constexpr TimeUs kPublishLifetime = 10LL * 60 * kSecond;

  /// Publish one application tuple. The catalog's TableSpec drives the
  /// fan-out: local-only tables go to this node's soft-state store; DHT
  /// tables go to the primary index, every declared secondary index, and
  /// every declared PHT range index. lifetime 0 uses the spec's default,
  /// then kPublishLifetime.
  Status Publish(const std::string& table, const Tuple& t, TimeUs lifetime = 0);

  // --- Batched publishing ----------------------------------------------------
  //
  // Every publish is a batch. The client builds a batch's whole index
  // fan-out (primary rows and secondary entries alike) as DhtPutItems, each
  // named with Dht::NextSuffix, and hands it to Dht::PutBatch: it is grouped
  // by responsible node, each destination receives ONE wire message, and
  // each row is observed once into the statistics registry. With
  // auto-batching off (the default), Publish ships its tuple at once as a
  // batch of one — its primary and secondary entries still share a frame
  // when one owner holds both. Larger batches amortize the per-message
  // overhead further. Two ways in:
  //
  //   client.PublishBatch("ev", rows);          // explicit batch
  //   client.SetPublishBatching(64, 5000);      // auto: buffer Publish()es
  //
  // Auto-batching (max_tuples > 1) keeps a per-table buffer that flushes at
  // `max_tuples`, when `max_delay` elapses after the first buffered tuple,
  // on Flush(), and on client destruction. Local-only tables are never
  // buffered. Range (PHT) indexes are fanned out per tuple at ship time
  // (trie inserts are multi-step and do not batch).
  //
  // When is auto-batching safe? Publish keeps full validation (errors stay
  // synchronous), but delivery becomes deferred: a reader does not see a
  // buffered tuple until its batch flushes, and tuples buffered in a
  // crashing process are lost — acceptable exactly where soft state already
  // is (PIER promises best-effort, lifetime-bounded visibility, §3.2.3).
  // Keep it off when a Publish must be queryable before the next client
  // call, e.g. tests that publish one tuple then immediately query it.
  //
  // Delivery is asynchronous either way: publish_failures() counts every
  // index entry, from Publish or PublishBatch, that never reached its owner
  // or lost replica copies.

  /// Publish a whole batch for `table` in one shot. Every tuple is
  /// validated against the spec FIRST; any invalid tuple fails the call and
  /// nothing is published. lifetime 0 resolves as in Publish.
  Status PublishBatch(const std::string& table,
                      const std::vector<Tuple>& tuples, TimeUs lifetime = 0);

  /// Opt-in auto-batching on Publish(): buffer up to `max_tuples` per table
  /// and at most `max_delay` after the first buffered tuple, then flush as
  /// one PublishBatch. max_delay 0 flushes at the next event-loop turn (a
  /// synchronous burst still batches). max_tuples 0 or 1 disables (flushing
  /// anything held).
  void SetPublishBatching(size_t max_tuples, TimeUs max_delay);

  /// Flush every table's publish buffer now. Returns the first error any
  /// flush produced (later tables still flush).
  Status Flush();

  /// Publish pacing: one sys.stats row per table per this many tuples. Any
  /// node can then fold the cluster-wide view out of
  /// `SELECT * FROM sys.stats`.
  static constexpr uint64_t kStatsPublishEvery = 64;

  /// Partial-failure accounting for every publish. Dht::PutBatch reports
  /// per-group status, so a batch whose destinations PARTIALLY fail (one
  /// owner dead, the rest fine) counts exactly the index entries that never
  /// reached an owner.
  struct PublishFailures {
    uint64_t failed_batches = 0;  // batches with at least one failed group
    uint64_t dropped_items = 0;   // index entries (tuples/secondaries) lost
    /// Always 0: the owner places replica copies, so a publish learns only
    /// of its owner deliveries. Kept because benchmark/pier_bench.cc reads it.
    uint64_t degraded_items = 0;
    Status last_error = Status::Ok();
  };
  const PublishFailures& publish_failures() const { return *publish_failures_; }

  /// Start the background statistics refresh: a CONTINUOUS query over
  /// `sys.stats` whose answers are auto-folded into this client's registry
  /// (own-origin rows are skipped), replacing by-hand StatsRegistry::Fold
  /// loops. One refresh per client; calling again while one runs returns
  /// the running handle. Cancel() the handle (or destroy the client) to
  /// stop it. `window` paces re-delivery checks; `lifetime` bounds the
  /// refresh query like any continuous query.
  Result<QueryHandle> StartStatsRefresh(TimeUs window = 5 * kSecond,
                                        TimeUs lifetime = 10 * 60 * kSecond);

  /// Replanning policy for queries submitted with replan=auto: check once
  /// per effective window (at least 1 s apart), and swap only when the
  /// running plan costs at least kReplanCostRatio times the candidate (20%
  /// more; see Optimizer::Consider).
  static constexpr double kReplanCostRatio = 1.2;

  // --- Queries ---------------------------------------------------------------

  Result<QueryHandle> Query(const Sql& sql);
  Result<QueryHandle> Query(const Ufl& ufl);
  /// Native plans: query_id (if 0) and proxy are filled in on submission.
  Result<QueryHandle> Query(QueryPlan plan);

  /// Bind a fresh handle to a query THIS node proxies — the re-attach path
  /// after this node adopted an orphaned continuous query via proxy
  /// failover (it also works on the original proxy). Answers buffered while
  /// the query had no client are replayed into the handle. NotFound if this
  /// node does not proxy the query. An attached query is not auto-replanned:
  /// the replan loop lived at the proxy that submitted it.
  Result<QueryHandle> Attach(uint64_t query_id);

  /// Compile SQL against the catalog (or parse UFL) without submitting —
  /// plan inspection for tests and EXPLAIN-style tooling. The returned plan
  /// can be submitted with Query(std::move(plan)). A non-null `explain`
  /// receives the optimizer's physical-plan decisions.
  Result<QueryPlan> Compile(const Sql& sql,
                            PlanExplain* explain = nullptr) const;
  Result<QueryPlan> Compile(const Ufl& ufl) const;

  /// EXPLAIN: compile (SQL goes through the cost-based optimizer; UFL is
  /// taken as-is) and annotate the physical plan with the chosen strategies
  /// and a per-operator cost breakdown. Nothing is submitted; pass
  /// result->plan to Query() to run exactly what was explained.
  Result<ExplainResult> Explain(const Sql& sql) const;
  Result<ExplainResult> Explain(const Ufl& ufl) const;

  /// EXPLAIN ANALYZE: the optimizer's estimate for `h`'s plan next to the
  /// ACTUAL per-operator tuples/messages/bytes the proxy aggregated from
  /// query meters. On a completed (or cancelled) query the report is the
  /// final ledger; on a running one it is a live snapshot. The handle must
  /// have been issued by this client (or attached through it).
  Result<ExplainAnalyzeResult> ExplainAnalyze(const QueryHandle& h) const;

  // --- Metrics export --------------------------------------------------------

  /// Attach this node's metrics registry: enables PublishMetrics. (SimPier
  /// wires this to the per-node registry.)
  void set_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }
  MetricsRegistry* metrics() { return metrics_; }

  /// Snapshot the registry and publish every sample as a `sys.metrics` row
  /// (columns: metric, labels, origin, kind, value, count, sum, updated_us;
  /// histograms publish their _sum/_count, not per-bucket rows). Readers
  /// fold by newest updated_us per (metric, labels, origin) — republished
  /// soft-state rows coexist until their lifetime expires. A non-null `out`
  /// receives the snapshot that was published. `lifetime` 0 uses
  /// kPublishLifetime. InvalidArgument without a registry attached.
  Status PublishMetrics(std::vector<MetricSample>* out = nullptr,
                        TimeUs lifetime = 0);

  /// Point lookup through a declared secondary index (§3.3.3): stream the
  /// BASE tuples whose `attr` equals `v`. The opgraph travels to the index
  /// partition's owner, which fetches each matching base tuple by its
  /// primary key (a Fetch Matches over the locator column).
  Result<QueryHandle> QueryByIndex(const std::string& table,
                                   const std::string& attr, const Value& v,
                                   TimeUs timeout = 10 * kSecond);

 private:
  /// One query being auto-replanned: the logical description to recompile,
  /// the running physical plan (for recosting) and its strategy fingerprint.
  struct ReplanTask {
    std::weak_ptr<QueryHandle::State> handle;
    Sql sql;
    QueryPlan current;
    std::string fingerprint;
    TimeUs period = 0;
    uint64_t timer = 0;
  };

  /// One table's auto-batching buffer (tuples wait here for the size or
  /// delay trigger; lifetimes resolved at Publish time ride along).
  struct PublishBuffer {
    std::vector<Tuple> tuples;
    std::vector<TimeUs> lifetimes;
    uint64_t timer = 0;
  };

  Result<QueryHandle> Submit(QueryPlan plan);
  /// Ask the proxy to deliver the final cost report into `state` when the
  /// query completes (shared by Submit and Attach).
  void RequestFinalCosts(std::shared_ptr<QueryHandle::State> state);
  /// The qp-facing callbacks every handle uses, shared by Submit and
  /// Attach so an attached handle behaves exactly like a submitted one
  /// (stats, buffering, done-guard).
  static QueryProcessor::TupleCallback MakeOnTuple(
      std::shared_ptr<QueryHandle::State> state);
  static QueryProcessor::DoneCallback MakeOnDone(
      std::shared_ptr<QueryHandle::State> state);
  /// Shared validation for Publish/PublishBatch: the catalog-driven checks
  /// that reject tuples the index fan-out would mis-key or drop.
  Status ValidateAgainstSpec(const TableSpec& spec, const Tuple& t) const;
  /// Reject a spec whose replication factor exceeds what the overlay's
  /// routing protocol can place (chord: its successor-list length).
  Status CheckReplicas(const TableSpec& spec) const;
  /// Ship one batch (validated tuples) through the whole index fan-out —
  /// the one write path every Publish, PublishBatch and flush ends in.
  Status ShipBatch(const TableSpec& spec, const std::vector<Tuple>& tuples,
                   const std::vector<TimeUs>& lifetimes);
  Status FlushTable(const std::string& table);
  /// Compile `sql` with a pinned query id (0 mints a fresh one) — replan
  /// recompiles must reuse the running query's id so rendezvous namespaces
  /// ("q<id>.*") stay stable across generations.
  Result<QueryPlan> CompileSqlPinned(const Sql& sql, uint64_t query_id,
                                     PlanExplain* explain) const;
  void EnableAutoReplan(const QueryHandle& h, const Sql& sql, QueryPlan plan,
                        const PlanExplain& explain);
  void ScheduleReplanCheck(uint64_t query_id);
  void ReplanTick(uint64_t query_id);
  /// NotFound if `plan` reads a table the catalog does not know in the role
  /// it reads it (relation, or PHT range index); namespaces the plan itself
  /// produces are exempt. Run before a plan is submitted or swapped in.
  Status CheckTablesKnown(const QueryPlan& plan) const;
  /// A cost-based optimizer over this client's statistics, priced now.
  Optimizer MakeOptimizer() const;
  /// Publish one sys.stats row for `table` from the registry's local view.
  void PublishSysStatsRow(const std::string& table);

  QueryProcessor* qp_;
  Catalog* catalog_;
  RunFn run_;
  StatsRegistry* stats_ = nullptr;
  std::unique_ptr<StatsRegistry> owned_stats_;  // when none was injected
  CostParams cost_params_;
  std::map<uint64_t, ReplanTask> replans_;
  /// Shared with in-flight batch completions, which may outlive the client.
  std::shared_ptr<PublishFailures> publish_failures_ =
      std::make_shared<PublishFailures>();
  /// Auto-batching state: 0 max_tuples = off (the default).
  size_t publish_batch_max_ = 0;
  TimeUs publish_batch_delay_ = 0;
  std::map<std::string, PublishBuffer> publish_buffers_;
  /// The background sys.stats refresh query, if started. Cancelled on
  /// destruction: its OnTuple callback captures this client's registry.
  QueryHandle stats_refresh_;
  /// Metrics export: the node's registry (not owned).
  MetricsRegistry* metrics_ = nullptr;
};

}  // namespace pier

#endif  // PIER_CLIENT_PIER_CLIENT_H_
