// The per-node PIER query processor: the proxy role of the "life of a
// query" (§3.3.2).
//
// A client submits a plan at any node; that node becomes the query's proxy.
// The proxy disseminates each opgraph to the nodes that need it — everyone
// via the router's broadcast (true-predicate index), one partition owner via
// DHT routing (equality-predicate index), PHT leaves for ranges, or just the
// proxy itself for final collection graphs. Executing nodes forward answer
// tuples back to the proxy, which delivers them to the client. Everything is
// bounded by the query timeout; there is no completion protocol.
//
// The line between the roles is the wire (qp/executor.h). This class owns
// the proxy's records (ClientQuery), dissemination, and the responders to
// what executors send: answer batches, teardown cost snapshots and lease
// probes. Its QueryExecutor owns the executing role and every frame an
// executing node sends; it calls back here only to adopt a query
// (AdoptQuery), to deliver answers when this node is the proxy, and to read
// a query's durable record after a missed swap (ReadDurablePlan).
//
// Nothing else lives here. Publishing is the client's: PierClient builds its
// DHT puts itself and names every object with Dht::NextSuffix, as operators
// do. So is the catalog: PIER keeps none (§4.2.1), and PierClient checks a
// plan's tables against its own before it submits or swaps it. The one
// publishing path left here is PublishRange, because a PHT handle is
// node-lifetime state that range dissemination reads too (PhtFor).
//
// Churn-hardening of the continuous-query lifecycle:
//
//   * Proxy leases. The proxy of every continuous query re-broadcasts a
//     metadata-only refresh of the plan every EffectiveLease/3 (the same
//     soft-state-refresh idiom the rest of the system uses). An executor
//     that has heard nothing for a full lease period — or whose answer
//     forwards to the proxy fail — presumes the proxy dead.
//   * Successor adoption. QueryPlan::successors is an ordered failover
//     chain (client-settable; carried on the wire and through UFL).
//     Executors that declare the proxy dead re-target answer forwarding at
//     successors[proxy_epoch], advancing the epoch; the node that finds
//     itself next in the chain adopts the proxy role (AdoptQuery): it
//     creates the proxy-side record, re-broadcasts the plan announcing
//     itself (higher proxy_epoch wins; a late refresh from a superseded
//     proxy is ignored), resumes lease refreshing, and from then on owns
//     rewindow/swap/replan/cancel. Answers arriving before a client
//     re-attaches (PierClient::Attach / QueryHandle::Reattach) are buffered,
//     bounded, and replayed on attach. A query whose whole chain is dead is
//     reaped at every executor within one lease period — opgraphs torn
//     down, timers cancelled, the orphan-abort reason in executor stats.
//   * Swap-time catch-up suppression. SwapQuery stamps the new generation
//     with catchup_floor_us (proxy clock, carried on the wire); swapped-in
//     Scan / catch-up NewData operators skip soft state stored before it,
//     so the first post-swap window no longer double-counts history the
//     previous generation already answered. On nodes that ran the previous
//     generation the floor is tightened to the local final-flush instant
//     (the quiesce point).

#ifndef PIER_QP_QUERY_PROCESSOR_H_
#define PIER_QP_QUERY_PROCESSOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "overlay/dht.h"
#include "overlay/pht.h"
#include "qp/executor.h"
#include "qp/opgraph.h"

namespace pier {

class MetricsRegistry;
class Counter;

/// Actual, measured cost of one (graph, op) slot aggregated across every
/// node that executed it — the runtime counterpart of the optimizer's
/// ExplainOp estimate. Slot (0, 0) is the answer-forwarding pseudo-op.
struct QueryCostOp {
  uint32_t graph_id = 0;
  uint32_t op_id = 0;
  OpCost cost;
  uint32_t nodes = 0;  // executors that reported this slot
};

/// Per-query actual-cost report assembled at the proxy: every executor's
/// latest meter snapshot, the proxy's own executor's included.
struct QueryCostReport {
  uint64_t query_id = 0;
  std::vector<QueryCostOp> ops;  // sorted by (graph_id, op_id)
  OpCost total;
};

class QueryProcessor {
 public:
  /// Extra slack past the timeout before the client's on_done fires.
  static constexpr TimeUs kDoneSlack = 1 * kSecond;

  QueryProcessor(Vri* vri, Dht* dht);
  ~QueryProcessor();

  QueryProcessor(const QueryProcessor&) = delete;
  QueryProcessor& operator=(const QueryProcessor&) = delete;

  /// Publish into a PHT range index keyed by integer column `key_attr`
  /// (§3.3.3), through this node's handle for (pht_table, key_bits).
  void PublishRange(const std::string& pht_table, const std::string& key_attr,
                    const Tuple& t, int key_bits, TimeUs lifetime);

  // --- Client API (this node is the proxy) -------------------------------------

  using TupleCallback = std::function<void(const Tuple&)>;
  using DoneCallback = std::function<void()>;

  /// Parse-free entry point: submit an already-built plan. Fills in
  /// query_id (if 0), proxy and the absolute deadline_us (if 0: now +
  /// timeout), validates, disseminates. Returns the id. PIER keeps no
  /// catalog (§4.2.1), so any table a plan reads is accepted; PierClient
  /// checks its own catalog before it submits.
  Result<uint64_t> SubmitQuery(QueryPlan plan, TupleCallback on_tuple,
                               DoneCallback on_done = nullptr);

  /// Stop delivering results and tear down local execution. Snapshot
  /// queries' remote opgraphs drain via their own timeouts (soft state, no
  /// recall protocol); a cancelled CONTINUOUS query additionally stops its
  /// lease refresh, so remote executors reap it within one lease period.
  void CancelQuery(uint64_t query_id);

  /// Is this node currently the proxy of `query_id` (submitted or adopted,
  /// not yet done)? A handle whose query lost its proxy uses this to decide
  /// between a proper cancel and a local-teardown-only one.
  bool HasClientQuery(uint64_t query_id) const {
    return clients_.count(query_id) > 0;
  }

  /// (Re-)bind client callbacks to a query this node proxies — the re-attach
  /// path after a successor adopted an orphaned query (also works on the
  /// original proxy). Answers buffered while the query had no client are
  /// replayed synchronously into `on_tuple`. `plan_out` (optional) receives
  /// the stored plan metadata (graphs cleared) so the caller can recover the
  /// deadline. NotFound if this node does not proxy the query.
  Status AttachClient(uint64_t query_id, TupleCallback on_tuple,
                      DoneCallback on_done, QueryPlan* plan_out = nullptr);

  /// Become the proxy of a continuous query this node executes (the adopt
  /// half of proxy failover; the executor calls this when the successor
  /// walk lands on this node). Creates the
  /// proxy-side record from `meta`, arms the done timer from the original
  /// deadline, starts lease refreshing and re-broadcasts the plan so every
  /// executor re-targets its answers. The plan's graphs come from the
  /// query's durable record, which un-adopts a cancelled query instead.
  /// Idempotent while already the proxy.
  void AdoptQuery(const QueryPlan& meta);

  // --- Continuous-query lifecycle (this node must be the proxy) ---------------

  /// Adjust a running continuous query's window. The change is broadcast as
  /// a metadata-only refresh; every node running the query's opgraphs adopts
  /// it at its next window boundary. Errors: NotFound if this node is not
  /// the query's proxy (or it already ended), NotSupported for snapshot
  /// queries, InvalidArgument for window <= 0.
  Status RewindowQuery(uint64_t query_id, TimeUs window);

  /// Swap a new physical plan in under the same query id (continuous
  /// queries only). The plan is re-disseminated with a bumped generation;
  /// each executing node final-flushes its running instances and
  /// instantiates the new generation in their place. Answer routing and the
  /// client's done timer are untouched — the query's lifetime stays fixed
  /// at its original submission.
  Status SwapQuery(uint64_t query_id, QueryPlan new_plan);

  // --- Introspection -------------------------------------------------------------

  /// The stored plan of a query this node proxies (test/introspection
  /// accessor; NotFound when this node does not proxy `query_id`).
  Result<QueryPlan> ProxyPlan(uint64_t query_id) const {
    auto it = clients_.find(query_id);
    if (it == clients_.end() || !it->second.plan.continuous)
      return Status::NotFound("no stored plan for this query");
    return it->second.plan;
  }

  QueryExecutor* executor() { return executor_.get(); }
  Dht* dht() { return dht_; }
  Vri* vri() { return vri_; }

  // --- Per-query cost accounting ---------------------------------------------
  // Every operator's tuples are counted in its query's ledger
  // (qp/dataflow.h) by PushBatch, and its network calls by the base
  // Operator's Put/Send/Get; answer frames are charged where the executor
  // sends them. Each executor reports its ledger as absolute per-op
  // snapshots — piggybacked on answer frames, and once more at teardown —
  // so a lost or reordered frame costs freshness, never correctness. Every
  // snapshot, the proxy's own executor's included, arrives through
  // NoteCosts; the proxy folds the latest one per executor.

  /// The freshest aggregated cost picture of a query this node proxies:
  /// the snapshots noted so far plus, while the query still runs here, the
  /// local executor's live ledger. Usable mid-flight; the final report also
  /// reaches the costs callback.
  QueryCostReport QueryCosts(uint64_t query_id) const;

  /// Install a callback that receives the query's FINAL cost report just
  /// before its proxy record is torn down (done timer or cancel). NotFound
  /// if this node does not proxy the query.
  using CostsCallback = std::function<void(const QueryCostReport&)>;
  Status SetCostsCallback(uint64_t query_id, CostsCallback cb);

  /// Attach a metrics registry: the processor mints a per-query
  /// `pier_query_answers_total{qid=...}` counter for each record it proxies
  /// (retired when the record ends) and forwards the registry to the
  /// executor (answer-size histogram, labeled failover counters).
  void set_metrics(MetricsRegistry* metrics);

  struct Stats {
    uint64_t queries_submitted = 0;
    uint64_t graphs_received = 0;
    uint64_t answers_forwarded = 0;  // sent toward a remote proxy
    uint64_t answers_delivered = 0;  // handed to a local client
    uint64_t adoptions = 0;          // proxy roles taken over via failover
    uint64_t answers_buffered = 0;   // held for a not-yet-attached client
    uint64_t malformed_broadcasts = 0;  // undecodable plans dropped
  };
  /// A snapshot: answers_forwarded is the executor's count (it sends them).
  Stats stats() const {
    Stats s = stats_;
    s.answers_forwarded = executor_->stats().answers_forwarded;
    return s;
  }

 private:
  /// The executing half delivers a local proxy's answers via DeliverBatch
  /// and its final costs via NoteCosts, and repairs a missed swap via
  /// ReadDurablePlan.
  friend class QueryExecutor;

  /// Namespace of a continuous query's one durable record, keyed by query
  /// id: the latest generation's full plan (SubmitQuery, SwapQuery) or the
  /// cancel tombstone (CancelQuery). Replicated with the plan's factor, it
  /// outlives the node that stored it, so adoption and missed-swap repair
  /// read it (ReadDurablePlan) even after the proxy died.
  static constexpr const char* kPlanNs = "!qplan";
  /// Namespace that carries targeted (equality) dissemination objects.
  static constexpr const char* kDissemNs = "!dissem";

  /// The proxy record of one query, submitted here or adopted.
  struct ClientQuery {
    /// Held by shared_ptr so delivery can keep the closure alive across the
    /// call with one refcount bump per tuple — a client calling Cancel()
    /// from inside its own on_tuple erases this entry mid-delivery, and
    /// destroying the executing closure would be a use-after-free.
    std::shared_ptr<const TupleCallback> on_tuple;
    DoneCallback on_done;
    /// Continuous queries keep their plan so the lifecycle operations
    /// (rewindow, swap) can re-disseminate it; a snapshot query's record
    /// keeps a default plan (continuous = false).
    QueryPlan plan;
    /// Answers that arrived while no client was attached (an adopted query
    /// before re-attach). Bounded by kPendingAnswerCap; replayed on
    /// AttachClient.
    std::vector<Tuple> pending;
    /// The done timer and, for a continuous query, the self-rescheduling
    /// lease refresh (RefreshTick). Both are released by Release().
    uint64_t done_timer = 0;
    uint64_t lease_timer = 0;
    /// Latest per-op meter snapshot from each executor, this node's own
    /// included (absolute values: each replaces its sender's previous one).
    std::map<NetAddress, std::map<QueryMeter::Key, OpCost>> costs;
    /// Fires with the final QueryCosts report at teardown.
    CostsCallback on_costs;
    /// Cached `pier_query_answers_total{qid=...}` handle (null: no registry).
    Counter* answers_metric = nullptr;
  };

  /// Most answers an un-attached (freshly adopted) query buffers before
  /// dropping: enough to bridge a re-attach, never unbounded.
  static constexpr size_t kPendingAnswerCap = 4096;

  /// Start the lease refresh of a continuous query this node proxies:
  /// a metadata-only re-broadcast every EffectiveLease/3 (RefreshTick).
  void StartLeaseRefresh(uint64_t query_id);
  void RefreshTick(uint64_t query_id);
  /// The one teardown of a record's timers: run by EndClient and
  /// ~QueryProcessor.
  void Release(ClientQuery* client);
  /// The proxy record's single erase (done timer, cancel): releases its
  /// timers, fires the final cost report, retires its per-query series.
  /// Returns the record's on_done for the caller to fire.
  DoneCallback EndClient(std::map<uint64_t, ClientQuery>::iterator it);
  /// Store (or overwrite) a continuous query's durable record under kPlanNs:
  /// its full plan, or its cancel tombstone.
  void StoreDurablePlan(const QueryPlan& plan);
  /// Read `meta`'s durable record with the plan's replication factor and
  /// hand it to `on_record`; a missing or undecodable record calls nothing.
  void ReadDurablePlan(const QueryPlan& meta,
                       std::function<void(QueryPlan)> on_record);
  /// Arm the proxy-side completion timer: at `delay` + kDoneSlack the
  /// client record is torn down and on_done fires. Shared by SubmitQuery
  /// and AdoptQuery so the two teardown paths cannot drift apart.
  uint64_t ArmDoneTimer(uint64_t query_id, TimeUs delay);
  /// Hand a batch of answers to the local client record, row by row: the
  /// attached callback if any, the bounded pending buffer otherwise. The
  /// record is re-found per row because a client may Cancel() from inside
  /// its own on_tuple.
  void DeliverBatch(uint64_t query_id, const TupleBatch& batch);
  void DeliverAnswer(ClientQuery* client, const Tuple& t);
  /// Fire the final cost report into `on_costs` (if installed) — called on
  /// every teardown path BEFORE the client record is erased.
  void EmitFinalCosts(ClientQuery* client, uint64_t query_id);
  /// Keep `costs` as executor `from`'s latest snapshot of a query this node
  /// proxies (ignored once the record ended): a kMsgQueryCosts frame, the
  /// block piggybacked on an answer frame, or the local executor's
  /// teardown report.
  void NoteCosts(uint64_t query_id, const NetAddress& from,
                 std::map<QueryMeter::Key, OpCost> costs);
  /// Mint/cache the per-query answers counter when a registry is attached.
  void BindQueryMetrics(ClientQuery* client, uint64_t query_id);
  void Disseminate(const QueryPlan& plan);
  /// Broadcast `plan` without its opgraphs, the metadata-only refresh that
  /// executors running the query apply and every other node ignores, and
  /// return the graphless copy that was sent.
  QueryPlan BroadcastMetadata(QueryPlan plan);
  void HandleDisseminationBlob(std::string_view blob);
  void HandleAnswerBatchMsg(const NetAddress& from, std::string_view body);
  void StartRangeGraph(const QueryPlan& meta, const OpGraph& g);

  Vri* vri_;
  Dht* dht_;
  std::unique_ptr<QueryExecutor> executor_;
  /// This node's PHT handle per (table, key_bits), shared by PublishRange
  /// and range dissemination: Pht::Insert is asynchronous, so the instance
  /// must outlive the operation, and its split bookkeeping suppresses
  /// concurrent splits of one leaf only within one instance.
  Pht* PhtFor(const std::string& table, int key_bits);

  std::map<std::string, std::unique_ptr<Pht>> phts_;
  std::map<uint64_t, ClientQuery> clients_;
  uint64_t dissem_sub_ = 0;
  Stats stats_;
  MetricsRegistry* metrics_ = nullptr;
};

}  // namespace pier

#endif  // PIER_QP_QUERY_PROCESSOR_H_
