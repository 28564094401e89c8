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
// frame an executing node sends for a query: answer batches with their
// piggybacked cost block, and the teardown cost snapshot. QueryProcessor
// (the proxy role) receives them. The executor calls the proxy directly for
// only three things: the ring rule of a query's proxy (adopting a query
// whose proxy's id this node now owns, or handing an adoption back),
// delivering answers and the teardown cost snapshot when this node is the
// query's proxy, and reading a continuous query's durable plan record to
// repair a missed swap.

#ifndef PIER_QP_EXECUTOR_H_
#define PIER_QP_EXECUTOR_H_

#include <limits>
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
  /// When the query's clock flushes this graph next (QueryExecutor::kNever
  /// after a snapshot graph's one flush or a continuous graph's last).
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
  // src/overlay/README.md). Executors send both.

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

  /// The flush period a continuous query described by `meta` actually runs
  /// with. The window is fixed at submission: SwapQuery keeps it.
  static TimeUs EffectiveWindow(const QueryPlan& meta);

  /// How long a query runs past its deadline. A continuous plan reports the
  /// window that ends at the deadline, whose last flush stage falls
  /// kMaxFlushStage quarter windows later; no later window opens. A snapshot
  /// plan ends at its deadline. Executors close and the proxy's done timer
  /// fires this long after the deadline.
  static TimeUs FlushTail(const QueryPlan& meta);

  /// Instantiate `graphs` of the query described by `meta` on this node.
  /// The first arrival arms the query's clock; later arrivals (more graphs
  /// of the same query) add instances to it. Re-arrivals with:
  ///   - the same generation follow a later proxy epoch and dedup
  ///     already-instantiated graphs;
  ///   - a higher generation swap the plan: the running instances get a
  ///     final flush (the swap is their quiesce point), are closed, and the
  ///     new generation's graphs are instantiated in their place, under the
  ///     same query id and clock;
  ///   - a higher generation and no graphs (a metadata broadcast after a
  ///     missed swap: adoption, hand-back or a graphless swap) read the
  ///     query's durable plan record and swap to its broadcast graphs under
  ///     that broadcast's metadata.
  /// An empty `graphs` list never creates a query (metadata-only refresh).
  Status StartGraphs(const QueryPlan& meta, const std::vector<OpGraph>& graphs);

  /// Tear down a query: close instances, cancel timers, drop state. Safe to
  /// call from inside an operator (deferred to a zero-delay event).
  void StopQuery(uint64_t query_id);

  // --- Churn: the ring names the proxy ---------------------------------------
  // The proxy of a continuous query is the ring owner of its current proxy's
  // node id (NodeIdFromAddress of meta.proxy). A live proxy owns its own id;
  // once it leaves, the ring's maintenance hands that id to its successor.
  // Two paths find the new owner, neither with a message of its own:
  //   - every clock tick of a continuous query asks the routing protocol
  //     whether this node now owns the proxy's id, and if so adopts the
  //     query (QueryProcessor::AdoptQuery). Chord drops a dead node within
  //     about 4.25 s (src/overlay/README.md, "Detection bounds"), so a
  //     successor that runs a graph of the query adopts within that plus
  //     one window;
  //   - a successor that runs no graph of the query (an equality or range
  //     plan) never ticks. There, an answer forward that UdpCC gives up on
  //     looks up the owner of the proxy's id and re-targets answers at it;
  //     the owner adopts when it reads the durable record for the answers
  //     it does not expect (QueryProcessor::HandleAnswerBatchMsg).
  // An adopted query that no client attaches to within
  // QueryProcessor::kAttachGrace is cancelled at the adopter; executors
  // tear down on the cancel broadcast. An adoption of a proxy that is still
  // alive (a ring view that dropped it for a moment) is handed back, also
  // at a clock tick, once that proxy owns its id again
  // (QueryProcessor::FollowRing).

  struct Stats {
    uint64_t proxy_failovers = 0;    // answers re-targeted at a new owner
    uint64_t answers_forwarded = 0;  // answer tuples sent to a remote proxy
    uint64_t forward_failures = 0;   // UdpCc give-ups on answer forwards
  };
  const Stats& stats() const { return stats_; }

  /// Attach a metrics registry: forwarded answer frames land in the
  /// `pier_query_answer_bytes` histogram.
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
    /// The query's one pending event, its clock (armed for `clock_at`),
    /// released by Release().
    uint64_t clock = 0;
    TimeUs clock_at = 0;
  };

  /// A graph's next_flush once it has none left.
  static constexpr TimeUs kNever = std::numeric_limits<TimeUs>::max();
  /// The query clock: when a graph of flush stage `stage` flushes next after
  /// `now`, origin + (k+1)·P + stage·δ, where
  /// origin = deadline_us − timeout is the proxy's submit instant. A
  /// snapshot plan has (P, δ) = (T/4, T/4) and k = 0 (a graph that starts
  /// after that instant flushes at once, one that starts at the deadline
  /// never); a continuous one has (W, W/4) for W = EffectiveWindow, and
  /// k ≥ 0 up to the last window that ends by the deadline (kNever past
  /// it).
  static TimeUs NextFlush(const QueryPlan& meta, int32_t stage, TimeUs now);
  /// Arm the query's one clock event for the earliest of its graphs' next
  /// flushes and its close, FlushTail past the deadline (now, once it is
  /// stopping), unless armed there.
  void ArmClock(RunningQuery* rq);
  /// The clock fired: close the query if it is stopping. Else apply a
  /// continuous query's ring rule (QueryProcessor::FollowRing) before the
  /// deadline, flush the graphs that are due, advance each, and close the
  /// query at its close instant or re-arm.
  void ClockTick(uint64_t query_id);
  void DoStop(uint64_t query_id);
  /// The one teardown of a record: cancel its clock, close every instance.
  /// Run by DoStop (stop, cancel, deadline) and ~QueryExecutor.
  void Release(RunningQuery* rq);
  /// Take `meta`'s proxy identity (address and adoption epoch).
  void FollowProxy(RunningQuery* rq, const QueryPlan& meta);

  /// Answer path: deliver a batch to the local client when this node is the
  /// proxy, else frame it (with the piggybacked cost block) to the proxy.
  void ForwardAnswers(uint64_t query_id, const TupleBatch& batch);
  /// A forwarded answer frame to `target` was given up on (`s` not ok).
  /// When `target` is still the continuous query's proxy, look up the owner
  /// of its id and re-target answers there (adopting when that is this
  /// node); a stale give-up, or a lookup that names `target` again, changes
  /// nothing.
  void OnForwardDelivery(uint64_t query_id, const NetAddress& target,
                         const Status& s);

  Vri* vri_;
  Dht* dht_;
  QueryProcessor* proxy_;
  /// Histogram of forwarded answer frame sizes (null: no registry).
  Histogram* answer_bytes_metric_ = nullptr;
  bool metering_ = true;
  PublishObserver publish_observer_;
  std::map<uint64_t, RunningQuery> queries_;
  Stats stats_;
};

}  // namespace pier

#endif  // PIER_QP_EXECUTOR_H_
