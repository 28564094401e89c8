// The executing role of the "life of a query" (§3.3.2): everything a node
// does, and everything it sends, because it runs a query's opgraphs.
//
// "A node continues to execute an opgraph until a timeout specified in the
// query expires" — there are no EOFs. Each running query has one clock, an
// event that fires when one of its graphs is due to flush (blocking
// operators emit their state) and closes the query at its deadline. Every
// node reads the same instants off the proxy's submit instant.
//
// The line between the two roles is the wire. QueryExecutor sends every
// frame an executing node sends for a query — answer batches with their
// piggybacked cost block, lease probes and the teardown cost snapshot — and
// consumes the probe responses. QueryProcessor (the proxy role) answers
// them. The executor calls the proxy directly for only three things:
// adopting a query whose failover walk lands on this node, delivering
// answers and the teardown cost snapshot when this node is the query's
// proxy, and reading a continuous query's durable plan record to repair a
// missed swap.

#ifndef PIER_QP_EXECUTOR_H_
#define PIER_QP_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "qp/dataflow.h"
#include "qp/opgraph.h"

namespace pier {

class Histogram;
class MetricsRegistry;
class QueryProcessor;

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
  const OpGraph& graph() const { return graph_; }
  /// When the query's clock flushes this graph next (after its one flush, a
  /// snapshot graph waits for the deadline, where the query closes).
  TimeUs next_flush = 0;

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
  /// `proxy` is this node's proxy role (it owns the executor).
  QueryExecutor(Vri* vri, Dht* dht, QueryProcessor* proxy);
  ~QueryExecutor();

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  // --- Wire types of the query layer -----------------------------------------
  // Router direct-message types (every layer's are tabled in
  // src/overlay/README.md). Executors send 33, 37 and 38; proxies send 36.

  /// Lease probe (body: u64 query id): does the receiver still proxy the
  /// query? The response (u64 query id + u8 proxying) matters both ways:
  /// "reachable but not proxying" is how the failover walk moves past a
  /// successor that never adopts and how executors that missed a cancel
  /// tombstone converge.
  static constexpr uint8_t kMsgLeaseProbe = 33;
  static constexpr uint8_t kMsgLeaseProbeResp = 36;
  /// Final per-op cost snapshot from an executor tearing a query down (body:
  /// u64 query id + QueryMeter cost block). Covers executors that ran
  /// operators but never forwarded an answer. A local proxy gets the same
  /// snapshot through QueryProcessor::NoteCosts, the call this frame reaches.
  static constexpr uint8_t kMsgQueryCosts = 37;
  /// Answers: u64 query id + TupleBatch wire format (+ an optional cost
  /// block). Framing once per batch amortizes the header and cost block
  /// across every row of a window flush.
  static constexpr uint8_t kMsgAnswerBatch = 38;

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
  /// with (re-read at every flush, so rewindowing a running query takes
  /// effect after each graph's next flush).
  static TimeUs EffectiveWindow(const QueryPlan& meta);

  /// The proxy-lease period `meta` actually runs with.
  static TimeUs EffectiveLease(const QueryPlan& meta);

  /// Instantiate `graphs` of the query described by `meta` on this node.
  /// The first arrival arms the query's clock; later arrivals (more graphs
  /// of the same query) add instances to it. Re-arrivals with:
  ///   - the same generation refresh the window metadata (rewindowing) and
  ///     dedup already-instantiated graphs;
  ///   - a higher generation swap the plan: the running instances get a
  ///     final flush (the swap is their quiesce point), are closed, and the
  ///     new generation's graphs are instantiated in their place, under the
  ///     same query id and clock;
  ///   - a higher generation and no graphs (a refresh after a missed swap)
  ///     read the query's durable plan record and swap to its broadcast
  ///     graphs under the refresh's metadata.
  /// An empty `graphs` list never creates a query (metadata-only refresh).
  Status StartGraphs(const QueryPlan& meta, const std::vector<OpGraph>& graphs);

  /// Tear down a query: close instances, cancel timers, drop state. Safe to
  /// call from inside an operator (deferred to a zero-delay event).
  void StopQuery(uint64_t query_id);

  // --- Churn: proxy failover and orphan reaping ------------------------------
  // A continuous query's proxy can die mid-run. Executors detect it two
  // ways — the proxy's lease (refreshed by metadata re-broadcasts) expires,
  // or forwarding answers to it fails — then walk the plan's ordered
  // successor list: answer routing re-targets successors[epoch], each
  // failed candidate granting the next one a fresh lease. The node that
  // finds ITSELF next in the chain adopts the proxy role
  // (QueryProcessor::AdoptQuery). When the chain is exhausted the query is
  // reaped locally: opgraphs torn down, timers cancelled, the orphan-abort
  // reason recorded in stats().
  //
  // An expired lease alone is weak evidence — the refresh channel (the
  // broadcast) is itself broken right after churn — so before acting
  // the executor probes the proxy point-to-point (kMsgLeaseProbe). The
  // verdict: the node is gone (transport give-up or no response within
  // lease/2), it answers and owns the query, or it answers but does NOT own
  // it. Reachability alone must not park the walk on a successor that will
  // never adopt.

  /// Report an answer frame that arrived here for a query this node does
  /// not proxy. If this node runs the query and is next in its successor
  /// chain, this counts toward adoption (and may adopt synchronously).
  void NoteStrayAnswer(uint64_t query_id);

  struct Stats {
    uint64_t proxy_failovers = 0;    // answer routing re-targeted a successor
    uint64_t orphan_reaps = 0;       // queries torn down with no live proxy
    uint64_t answers_forwarded = 0;  // answer tuples sent to a remote proxy
    uint64_t forward_failures = 0;   // UdpCc give-ups on answer forwards
    uint64_t stray_answers = 0;      // answers received for un-proxied queries
    std::string last_orphan_reason;
    /// Post-hoc churn diagnosis: every reap tagged with why, every probe
    /// verdict counted ("dead" / "proxying" / "not_proxying"). Mirrored as
    /// labeled registry counters when a MetricsRegistry is attached.
    std::map<std::string, uint64_t> orphan_reaps_by_reason;
    std::map<std::string, uint64_t> probe_verdicts;
  };
  const Stats& stats() const { return stats_; }

  /// Attach a metrics registry: failover/reap/probe events land in labeled
  /// `pier_exec_*` counters (reason / verdict labels) and forwarded answer
  /// frames in the `pier_query_answer_bytes` histogram.
  void set_metrics(MetricsRegistry* metrics);

  /// Toggle per-query cost metering (default on). With metering off, new
  /// queries get no QueryMeter and every operator's ledger slot is null —
  /// the "compiled to no-ops" baseline the overhead benches compare against.
  void set_metering(bool on) { metering_ = on; }

  /// The actual-cost ledger of a running query (null if unknown/unmetered);
  /// survives plan swaps. A local proxy folds it into QueryCosts while the
  /// query runs here; at teardown DoStop reports its final snapshot.
  const QueryMeter* Meter(uint64_t query_id) const;

  bool HasQuery(uint64_t qid) const { return queries_.count(qid) > 0; }
  size_t num_active() const { return queries_.size(); }

  /// Introspection for tests and benches.
  Operator* FindOp(uint64_t query_id, uint32_t graph_id, uint32_t op_id);

  /// Push a batch into an injectable Source op (range-index dissemination
  /// feeds PHT results into a local graph this way; tests drive graphs so).
  Status InjectBatch(uint64_t query_id, uint32_t graph_id, uint32_t op_id,
                     const TupleBatch& batch);

  /// Force a flush pass now (tests and benches).
  void FlushQuery(uint64_t query_id);

 private:
  enum class ProbeVerdict : uint8_t { kDead, kProxying, kNotProxying };

  struct RunningQuery {
    QueryPlan meta;  // graphs emptied; metadata only
    /// Actual-cost ledger, lent to every instance's ExecContext. Declared
    /// before `instances` so operators caching slot pointers are destroyed
    /// first. Null when metering is off.
    std::unique_ptr<QueryMeter> meter;
    /// The meter's answer pseudo-op slot, resolved once (stable address).
    /// Null iff meter is null.
    OpCost* answer_cost = nullptr;
    std::vector<std::unique_ptr<OpGraphInstance>> instances;
    bool stopping = false;
    /// Pending events, all released by Release(): the query's clock (armed
    /// for `clock_at`), the self-rescheduling lease tick, and the deferred
    /// failovers.
    uint64_t clock = 0;
    TimeUs clock_at = 0;
    uint64_t lease_timer = 0;
    std::vector<uint64_t> one_shots;
    /// Proxy-lease state (continuous queries with a remote proxy).
    TimeUs lease_expires = 0;
    uint32_t forward_failures = 0;
    uint32_t stray_answers = 0;
    /// The outstanding lease probe (timeout != 0 while one is in flight):
    /// the target and failover epoch it was sent under — a verdict counts
    /// only while both are still current — and its lease/2 timeout.
    /// `probe_strikes` counts consecutive reachable-but-not-proxying
    /// verdicts before the walk moves on.
    struct Probe {
      NetAddress target;
      uint32_t epoch = 0;
      uint64_t timeout = 0;
    } probe;
    uint32_t probe_strikes = 0;
  };

  /// The query clock: when a graph of flush stage `stage` flushes next after
  /// `now`, origin + (k+1)·P + stage·δ, where origin = deadline_us − timeout
  /// is the proxy's submit instant. A snapshot plan has (P, δ) = (T/4, T/4)
  /// and k = 0 (a graph that starts after that instant flushes at once); a
  /// continuous one has (W, W/4) for W = EffectiveWindow, and k ≥ 0.
  static TimeUs NextFlush(const QueryPlan& meta, int32_t stage, TimeUs now);
  /// Arm the query's one clock event for the earliest of its graphs' next
  /// flushes and its deadline (now, once it is stopping), unless armed there.
  void ArmClock(RunningQuery* rq);
  /// The clock fired: close the query if it is stopping or at its deadline,
  /// else flush the graphs that are due, advance each, and re-arm.
  void ClockTick(uint64_t query_id);
  /// Arm a continuous query's proxy-liveness check (LeaseTick) lease/4 out
  /// unless one is pending; each tick re-arms itself through here.
  void ArmLeaseTick(RunningQuery* rq);
  void LeaseTick(uint64_t query_id);
  /// Lease expired: probe the proxy; a dead verdict or the probe timeout
  /// fails over.
  void StartProbe(RunningQuery* rq);
  /// Resolve the outstanding probe of `query_id` with a verdict about `from`
  /// (ignored when no probe is out to `from`; a verdict the query moved past
  /// meanwhile clears the probe and counts nothing).
  void ResolveProbe(uint64_t query_id, const NetAddress& from,
                    ProbeVerdict v);
  void DoStop(uint64_t query_id);
  /// The one teardown of a record: cancel every pending event, close every
  /// instance. Run by DoStop (stop, reap, cancel, deadline) and ~QueryExecutor.
  void Release(RunningQuery* rq);
  /// Grant the current proxy a fresh lease (any dissemination or metadata
  /// refresh for the query counts as hearing from it).
  void RefreshLease(RunningQuery* rq);
  /// Hear from `meta`'s proxy: take its identity, failover chain and lease
  /// period, drop the failure evidence gathered against the previous one,
  /// and grant it a fresh lease.
  void FollowProxy(RunningQuery* rq, const QueryPlan& meta);
  /// Advance the failover chain one step: re-target answers at the next
  /// successor (adopting locally if that is us), or reap the query as an
  /// orphan when the chain is exhausted (the RunningQuery is then gone).
  /// `tag` is the compact label value a reap is counted under; `reason` the
  /// human-readable story for the log.
  void FailoverStep(RunningQuery* rq, const char* tag,
                    const std::string& reason);

  /// Answer path: deliver a batch to the local client when this node is the
  /// proxy, else frame it (with the piggybacked cost block) to the proxy.
  void ForwardAnswers(uint64_t query_id, const TupleBatch& batch);
  /// A forwarded answer frame to `target` was ACKed (ok) or given up on. An
  /// ack from the current proxy refreshes its lease: the answer path is live
  /// proof of liveness. Give-ups against the current proxy count toward
  /// failover; stale ones (a proxy already failed away from) are ignored.
  void OnForwardDelivery(uint64_t query_id, const NetAddress& target,
                         const Status& s);

  /// Count a probe verdict / reap reason in stats_ and, when attached, in
  /// the labeled registry counters.
  void CountProbeVerdict(ProbeVerdict v);
  void CountOrphanReap(const std::string& reason);

  Vri* vri_;
  Dht* dht_;
  QueryProcessor* proxy_;
  MetricsRegistry* metrics_ = nullptr;
  /// Histogram of forwarded answer frame sizes (null: no registry).
  Histogram* answer_bytes_metric_ = nullptr;
  bool metering_ = true;
  PublishObserver publish_observer_;
  std::map<uint64_t, RunningQuery> queries_;
  Stats stats_;
};

}  // namespace pier

#endif  // PIER_QP_EXECUTOR_H_
