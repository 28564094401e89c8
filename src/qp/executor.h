// Query execution on one node: opgraph instantiation, flush scheduling and
// timeout-driven teardown (§3.3.2).
//
// "A node continues to execute an opgraph until a timeout specified in the
// query expires" — there are no EOFs. The executor arms one close timer per
// query; snapshot queries additionally get a flush pass (blocking operators
// emit their state) partway through the lifetime, continuous queries get one
// per window.

#ifndef PIER_QP_EXECUTOR_H_
#define PIER_QP_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "qp/dataflow.h"
#include "qp/opgraph.h"

namespace pier {

class MetricsRegistry;

/// One opgraph instantiated on this node.
class OpGraphInstance {
 public:
  OpGraphInstance(ExecContext cx, OpGraph graph);
  ~OpGraphInstance();

  OpGraphInstance(const OpGraphInstance&) = delete;
  OpGraphInstance& operator=(const OpGraphInstance&) = delete;

  /// Instantiate operators, wire edges, topologically order.
  Status Build();

  /// Open every operator (control flows parent -> child; access methods
  /// start producing).
  void Start();

  /// Flush blocking state in dataflow order.
  void Flush();

  void Close();

  Operator* FindOp(uint32_t op_id);
  uint32_t graph_id() const { return graph_.id; }
  const OpGraph& graph() const { return graph_; }
  ExecContext* context() { return &cx_; }

 private:
  ExecContext cx_;
  OpGraph graph_;
  std::vector<std::unique_ptr<Operator>> ops_;  // topological (sources first)
  std::map<uint32_t, Operator*> by_id_;
  bool closed_ = false;
};

/// All queries running on this node.
class QueryExecutor {
 public:
  QueryExecutor(Vri* vri, Dht* dht);
  ~QueryExecutor();

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  /// Where answer batches go: the QueryProcessor frames one answer message
  /// per batch toward the query's current proxy.
  using AnswerSink = std::function<void(
      uint64_t query_id, const NetAddress& proxy, const TupleBatch&)>;
  void set_answer_sink(AnswerSink sink) { answer_sink_ = std::move(sink); }

  /// Observer for tuples operators publish into the DHT (the Put exchange);
  /// copied into every graph's ExecContext. The statistics subsystem hangs
  /// off this to accrue table stats from operator execution.
  using PublishObserver =
      std::function<void(const std::string& ns,
                         const std::vector<std::string>& key_attrs,
                         const Tuple& t, size_t bytes)>;
  void set_publish_observer(PublishObserver o) {
    publish_observer_ = std::move(o);
  }

  /// Continuous-query window bounds: a windowless continuous plan (window 0,
  /// possible on hand-built QueryPlans) gets `kDefaultWindow`; explicit
  /// windows are floored at `kMinWindow` so a degenerate plan cannot flood
  /// the event loop with per-millisecond flushes.
  static constexpr TimeUs kMinWindow = 10 * kMillisecond;
  static constexpr TimeUs kDefaultWindow = 5 * kSecond;

  /// Proxy-lease bounds for continuous queries executing for a REMOTE proxy:
  /// the proxy re-broadcasts a metadata refresh every EffectiveLease/3; an
  /// executor that heard nothing for a full lease period presumes the proxy
  /// dead and either fails over to the next successor or reaps the query.
  static constexpr TimeUs kMinLeasePeriod = 500 * kMillisecond;
  static constexpr TimeUs kDefaultLeasePeriod = 10 * kSecond;
  /// UdpCc give-ups needed on the current proxy before failing over (one
  /// give-up is already 4 retransmits; two keeps a single congestion
  /// collapse from usurping a live proxy).
  static constexpr uint32_t kForwardFailuresBeforeFailover = 2;
  /// Answer tuples forwarded HERE for a query this node does not proxy — the
  /// fast adoption signal: other executors already declared the proxy dead
  /// and this node is next in the successor chain.
  static constexpr uint32_t kStrayAnswersBeforeAdopt = 2;

  /// The flush period a continuous query described by `meta` actually runs
  /// with (re-read at every window boundary, so rewindowing a running query
  /// takes effect at the next tick).
  static TimeUs EffectiveWindow(const QueryPlan& meta);

  /// The proxy-lease period `meta` actually runs with.
  static TimeUs EffectiveLease(const QueryPlan& meta);

  /// Instantiate `graphs` of the query described by `meta` on this node.
  /// The first arrival arms the flush/close timers; later arrivals (more
  /// graphs of the same query) just add instances. Re-arrivals with:
  ///   - the same generation refresh the window metadata (rewindowing) and
  ///     dedup already-instantiated graphs;
  ///   - a higher generation swap the plan: the running instances get a
  ///     final flush (the window boundary is the quiesce point), are closed,
  ///     and the new generation's graphs are instantiated in their place,
  ///     under the same query id and close timer.
  /// An empty `graphs` list never creates a query (metadata-only refresh).
  Status StartGraphs(const QueryPlan& meta, const std::vector<OpGraph>& graphs);

  /// Tear down a query: close instances, cancel timers, drop state. Safe to
  /// call from inside an operator (deferred to a zero-delay event).
  void StopQuery(uint64_t query_id);

  // --- Churn: proxy failover and orphan reaping --------------------------------
  // A continuous query's proxy can die mid-run. Executors detect it two
  // ways — the proxy's lease (refreshed by metadata re-broadcasts) expires,
  // or forwarding answers to it fails — then walk the plan's ordered
  // successor list: answer routing re-targets successors[epoch], each
  // failed candidate granting the next one a fresh lease. The node that
  // finds ITSELF next in the chain adopts the proxy role through the adopt
  // handler (the QueryProcessor installs it). When the chain is exhausted
  // the query is reaped locally: opgraphs torn down, timers cancelled, the
  // orphan-abort reason recorded in stats().

  /// Invoked (synchronously) when this node becomes a query's proxy via
  /// failover; receives the query's metadata (graphs cleared, proxy =
  /// local, proxy_epoch advanced).
  using AdoptHandler = std::function<void(const QueryPlan& meta)>;
  void set_adopt_handler(AdoptHandler h) { adopt_handler_ = std::move(h); }

  /// What a point-to-point proxy probe learned: the node is gone, it
  /// answers and owns the query, or it answers but does NOT own it (an
  /// un-adopted successor, or a proxy whose record ended — a missed cancel
  /// tombstone). The distinction matters: reachability alone must not park
  /// the failover walk on a successor that will never adopt.
  enum class ProbeVerdict : uint8_t { kDead = 0, kProxying = 1,
                                      kNotProxying = 2 };

  /// Point-to-point proxy probe, installed by the QueryProcessor. An
  /// expired lease alone is weak evidence — the refresh channel (the
  /// distribution tree) is itself broken right after churn — so before
  /// acting the executor probes the proxy directly. Without a prober
  /// installed, expiry fails over immediately.
  using ProxyProber =
      std::function<void(uint64_t query_id, const NetAddress& target,
                         std::function<void(ProbeVerdict)>)>;
  void set_proxy_prober(ProxyProber p) { proxy_prober_ = std::move(p); }

  /// Missed-swap repair, installed by the QueryProcessor: when a lease
  /// refresh reveals a generation this node never received (the swap
  /// broadcast was lost to a mid-repair tree), the executor keeps the stale
  /// generation running — answers beat silence — and asks the proxy for the
  /// current plan point-to-point.
  /// Called just before a RunningQuery is torn down, while its meter is
  /// still alive: (query_id, current proxy). The query processor ships the
  /// final cost snapshot to the proxy — executors that never produced an
  /// answer would otherwise leave their ledger out of the aggregate.
  using CostsFlusher =
      std::function<void(uint64_t query_id, const NetAddress& proxy)>;
  void set_costs_flusher(CostsFlusher f) { costs_flusher_ = std::move(f); }

  using PlanFetcher =
      std::function<void(uint64_t query_id, const NetAddress& proxy)>;
  void set_plan_fetcher(PlanFetcher f) { plan_fetcher_ = std::move(f); }

  /// Report that forwarding an answer of `query_id` to `target` failed
  /// (UdpCc gave up). Stale reports about a proxy this query already failed
  /// away from are ignored.
  void NoteAnswerForwardFailure(uint64_t query_id, const NetAddress& target);

  /// Report that an answer forward to `target` was ACKed. An ack from the
  /// current proxy refreshes its lease: the answer path is live proof of
  /// liveness, so a busy query never reaps just because the distribution
  /// tree (the lease-refresh channel) is mid-repair after churn.
  void NoteAnswerForwardSuccess(uint64_t query_id, const NetAddress& target);

  /// Report an answer frame that arrived here for a query this node does
  /// not proxy. If this node runs the query and is next in its successor
  /// chain, this counts toward adoption (and may adopt synchronously).
  void NoteStrayAnswer(uint64_t query_id);

  struct Stats {
    uint64_t proxy_failovers = 0;  // answer routing re-targeted a successor
    uint64_t orphan_reaps = 0;     // queries torn down with no live proxy
    uint64_t forward_failures = 0; // UdpCc give-ups on answer forwards
    uint64_t stray_answers = 0;    // answers received for un-proxied queries
    std::string last_orphan_reason;
    /// Post-hoc churn diagnosis: every reap tagged with why, every probe
    /// verdict counted ("dead" / "proxying" / "not_proxying"). Mirrored as
    /// labeled registry counters when a MetricsRegistry is attached.
    std::map<std::string, uint64_t> orphan_reaps_by_reason;
    std::map<std::string, uint64_t> probe_verdicts;
  };
  const Stats& stats() const { return stats_; }

  /// Attach a metrics registry: failover/reap/probe events additionally land
  /// in labeled `pier_exec_*` counters (reason / verdict labels).
  void set_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Toggle per-query cost metering (default on). With metering off, new
  /// queries get no QueryMeter and every operator's ledger slot is null —
  /// the "compiled to no-ops" baseline the overhead benches compare against.
  void set_metering(bool on) { metering_ = on; }

  /// The actual-cost ledger of a running query (null if unknown/unmetered).
  /// Shared with the query's opgraph instances; survives plan swaps.
  std::shared_ptr<QueryMeter> Meter(uint64_t query_id) const;

  /// Charge `rows` forwarded answers to `query_id`'s answer pseudo-op slot
  /// and return the live meter (null with metering off / unknown query), so
  /// charging and the piggyback lookup share one find. Called by the
  /// QueryProcessor, which alone knows whether the answers crossed the wire
  /// (on_wire: one message of `bytes`) or were delivered to a local proxy.
  QueryMeter* MeterAnswer(uint64_t query_id, uint64_t rows, uint64_t bytes,
                          bool on_wire);

  bool HasQuery(uint64_t query_id) const { return queries_.count(query_id) > 0; }
  size_t num_active() const { return queries_.size(); }

  /// The broadcast-disseminated opgraphs this node runs for `query_id` — an
  /// adopting proxy rebuilds its stored plan from these, so it can serve
  /// missed-swap plan fetches and future re-disseminations.
  std::vector<OpGraph> BroadcastGraphs(uint64_t query_id) const;

  /// Introspection for tests and benches.
  Operator* FindOp(uint64_t query_id, uint32_t graph_id, uint32_t op_id);

  /// Push a batch into an injectable Source op (range-index dissemination
  /// feeds PHT results into a local graph this way; tests drive graphs so).
  Status InjectBatch(uint64_t query_id, uint32_t graph_id, uint32_t op_id,
                     const TupleBatch& batch);

  /// Force a flush pass now (tests and benches).
  void FlushQuery(uint64_t query_id);

 private:
  struct RunningQuery {
    QueryPlan meta;  // graphs emptied; metadata only
    /// Actual-cost ledger, shared with every instance's ExecContext (and
    /// with callers of Meter()). Declared before `instances` so operators
    /// caching slot pointers are destroyed first. Null when metering is off.
    std::shared_ptr<QueryMeter> meter;
    /// The meter's answer pseudo-op slot, resolved once (stable address):
    /// MeterAnswer runs once per answer frame. Null iff meter is null.
    OpCost* answer_cost = nullptr;
    std::vector<std::unique_ptr<OpGraphInstance>> instances;
    std::vector<uint64_t> flush_timers;
    /// The repeating window tick. Living here (not in a self-capturing
    /// shared_ptr) keeps the reschedule cycle leak-free: scheduled events
    /// hold copies that only capture (executor, query id).
    std::function<void()> window_tick;
    uint64_t window_timer = 0;
    uint64_t close_timer = 0;
    TimeUs start_time = 0;
    uint32_t generation = 0;
    bool stopping = false;
    /// Proxy-lease state (continuous queries with a remote proxy). The
    /// repeating check lives in its own tick function for the same
    /// leak-free reason as window_tick.
    TimeUs lease_expires = 0;
    std::function<void()> lease_tick;
    uint64_t lease_timer = 0;
    uint32_t forward_failures = 0;
    uint32_t stray_answers = 0;
    /// An expired-lease probe is in flight (with its own shorter timeout);
    /// late verdicts are staled by the sequence number and the (epoch,
    /// target) they were sent under. `probe_strikes` counts consecutive
    /// reachable-but-not-proxying verdicts before the walk moves on.
    bool probe_inflight = false;
    uint64_t probe_seq = 0;
    uint32_t probe_strikes = 0;
  };

  void ArmQueryTimers(RunningQuery* rq);
  void ArmWindowTimer(RunningQuery* rq);
  void ArmLeaseTimer(RunningQuery* rq);
  /// Lease expired: probe the proxy (if a prober is installed) and fail
  /// over on a dead verdict or probe timeout; fail over immediately without
  /// a prober.
  void OnLeaseExpired(RunningQuery* rq);
  void ArmInstanceFlush(RunningQuery* rq, OpGraphInstance* inst,
                        int32_t stage);
  void DoStop(uint64_t query_id);
  /// Grant the current proxy a fresh lease (any dissemination or metadata
  /// refresh for the query counts as hearing from it).
  void RefreshLease(RunningQuery* rq);
  /// Advance the failover chain one step: re-target answers at the next
  /// successor (adopting locally if that is us), or reap the query as an
  /// orphan when the chain is exhausted. Returns false iff reaped (the
  /// RunningQuery is gone). `tag` is the compact label value a reap is
  /// counted under; `reason` the human-readable story for the log.
  bool FailoverStep(RunningQuery* rq, const char* tag,
                    const std::string& reason);

  /// Count a probe verdict / reap reason in stats_ and, when attached, in
  /// the labeled registry counters.
  void CountProbeVerdict(ProbeVerdict v);
  void CountOrphanReap(const std::string& reason);

  Vri* vri_;
  Dht* dht_;
  MetricsRegistry* metrics_ = nullptr;
  bool metering_ = true;
  AnswerSink answer_sink_;
  PublishObserver publish_observer_;
  AdoptHandler adopt_handler_;
  ProxyProber proxy_prober_;
  PlanFetcher plan_fetcher_;
  CostsFlusher costs_flusher_;
  std::map<uint64_t, RunningQuery> queries_;
  Stats stats_;
};

}  // namespace pier

#endif  // PIER_QP_EXECUTOR_H_
