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
// the proxy's records (ClientQuery), dissemination, and the receivers of
// what executors send: answer batches and teardown cost snapshots. Its
// QueryExecutor owns the executing role and every frame an executing node
// sends; it calls back here only for the ring rule of a query's proxy
// (FollowRing at a clock tick, AdoptQuery after a forward gave up), to deliver
// answers when this node is the proxy, and to read a query's durable record
// after a missed swap (ReadDurablePlan).
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
//   * The ring names the proxy. The proxy of a continuous query is the
//     ring owner of its current proxy's node id. A live proxy owns its own
//     id; when it leaves, the ring's maintenance makes its successor the
//     owner (Chord: within about 4.25 s, src/overlay/README.md,
//     "Detection bounds"). That successor adopts the query (AdoptQuery) at
//     its next clock tick when it runs a graph of the query, or, when it
//     runs none, once an executor's answer forward to the dead proxy gives
//     up, looks the id up and sends the answers here: an answer for a query
//     this node does not proxy reads the durable record, and the node
//     adopts when the record's proxy id falls in its range. Adoption bumps
//     proxy_epoch (higher wins at executors), stores the record again
//     naming this node, and broadcasts the metadata, so every executor
//     re-targets its answers. A ring view can hand a LIVE proxy's id to
//     its successor for a moment; the adopter hands the query back
//     (HandBack, the next epoch, no cancel) once a lookup names the node
//     it adopted from as that id's owner again. Answers arriving before a
//     client attaches (PierClient::Attach) are buffered, bounded, and
//     replayed on attach. An adopted query that no client attaches to
//     within kAttachGrace is cancelled (CancelQuery: the tombstone, stored
//     and broadcast).
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
#include <set>
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

  // --- Client API (this node is the proxy) -----------------------------------

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
  /// recall protocol); a cancelled CONTINUOUS query also stores and
  /// broadcasts its cancel tombstone, on which remote executors tear down.
  void CancelQuery(uint64_t query_id);

  /// Is this node currently the proxy of `query_id` (submitted or adopted,
  /// not yet done)? A handle whose query lost its proxy uses this to decide
  /// between a proper cancel and a local-teardown-only one.
  bool HasClientQuery(uint64_t query_id) const {
    return clients_.count(query_id) > 0;
  }

  /// (Re-)bind client callbacks to a query this node proxies — the re-attach
  /// path after this node adopted a query (also works on the original
  /// proxy); it stops the adopted query's kAttachGrace countdown. Answers
  /// buffered while the query had no client are replayed synchronously into
  /// `on_tuple`. `plan_out` (optional) receives the stored plan metadata
  /// (graphs cleared) so the caller can recover the deadline. NotFound if
  /// this node does not proxy the query.
  Status AttachClient(uint64_t query_id, TupleCallback on_tuple,
                      DoneCallback on_done, QueryPlan* plan_out = nullptr);

  /// Become the proxy of the continuous query `meta` describes, whose
  /// proxy's id this node now owns. Creates the proxy-side record with the
  /// next proxy_epoch, arms the done timer from the original deadline and
  /// the kAttachGrace countdown, and broadcasts the metadata so every
  /// executor re-targets its answers. The plan's graphs are `meta`'s, or,
  /// when it has none, the durable record's; a tombstone record un-adopts
  /// instead. The record is stored again naming this node. Idempotent while
  /// already the proxy.
  void AdoptQuery(QueryPlan meta);

  /// How long an adopted query waits for a client to attach before it is
  /// cancelled: a query nobody reads ends instead of running to its
  /// deadline.
  static constexpr TimeUs kAttachGrace = 10 * kSecond;

  /// Bounds on the record reads that answers for a query this node does
  /// not proxy cause (the forward-give-up failover path): at most
  /// kMaxRecordReads at once, and none for kRecordMissTtl for a query whose
  /// record said no, kept for at most kMaxRecordMisses queries.
  static constexpr size_t kMaxRecordReads = 4;
  static constexpr TimeUs kRecordMissTtl = 2 * kSecond;
  static constexpr size_t kMaxRecordMisses = 256;

  // --- Continuous-query lifecycle (this node must be the proxy) -------------

  /// Swap a new physical plan in under the same query id (continuous
  /// queries only). The plan is re-disseminated with a bumped generation;
  /// each executing node final-flushes its running instances and
  /// instantiates the new generation in their place. Answer routing and the
  /// client's done timer are untouched — the query's lifetime and window
  /// stay fixed at its original submission.
  Status SwapQuery(uint64_t query_id, QueryPlan new_plan);

  // --- Introspection ---------------------------------------------------------

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
    uint64_t handbacks = 0;          // adoptions returned to a live proxy
    uint64_t record_reads = 0;       // record reads for unexpected answers
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
    /// Continuous queries keep their plan so a swap or an adoption can
    /// re-disseminate it; a snapshot query's record
    /// keeps a default plan (continuous = false).
    QueryPlan plan;
    /// Answers that arrived while no client was attached (an adopted query
    /// before re-attach). Bounded by kPendingAnswerCap; replayed on
    /// AttachClient.
    std::vector<Tuple> pending;
    /// The done timer and, for an adopted query until a client attaches,
    /// the kAttachGrace countdown. Both are released by Release().
    uint64_t done_timer = 0;
    uint64_t attach_timer = 0;
    /// An adopted query's previous proxy, kept while this node's claim may
    /// still be handed back to it (ReviewAdoption); null otherwise.
    NetAddress adopted_from;
    /// A ReviewAdoption lookup is in flight.
    bool reviewing = false;
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

  /// Answers arrived for `query_id`, which this node does not proxy: read
  /// its durable record and adopt when the record's proxy id now falls in
  /// this node's range. At most kMaxRecordReads reads run at once, one per
  /// query; a record that says no (missing, ended, not this node's) is not
  /// read again for kRecordMissTtl, or until it drains if it ended.
  void AdoptFromRecord(uint64_t query_id);
  /// The ring rule at a clock tick of the continuous query `meta`
  /// describes (QueryExecutor::ClockTick): adopt it when this node owns
  /// its proxy's id; review an adoption once this node no longer owns the
  /// id of the node it adopted the query from.
  void FollowRing(const QueryPlan& meta);
  /// Look up the owner of the adopted-from node's id: when that node owns
  /// it again, hand the query back (HandBack); when a third node does, the
  /// adoption stands and is not reviewed again.
  void ReviewAdoption(uint64_t query_id);
  /// Name the adopted-from node the proxy again under the next epoch (the
  /// record and a metadata broadcast), and end this node's record without
  /// a cancel; a client attached here gets its on_done.
  void HandBack(std::map<uint64_t, ClientQuery>::iterator it);
  /// Arm the kAttachGrace countdown of an adopted query.
  uint64_t ArmAttachGrace(uint64_t query_id);
  /// Does this node own `node`'s ring id?
  bool OwnsIdOf(const NetAddress& node) const;
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
  /// hand it, or why there is none, to `on_record`.
  void ReadDurablePlan(const QueryPlan& meta,
                       std::function<void(Result<QueryPlan>)> on_record);
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
  /// Queries whose record AdoptFromRecord is reading.
  std::set<uint64_t> record_reads_;
  /// Queries whose record AdoptFromRecord found wanting, until when.
  std::map<uint64_t, TimeUs> record_misses_;
  uint64_t dissem_sub_ = 0;
  Stats stats_;
  MetricsRegistry* metrics_ = nullptr;
};

}  // namespace pier

#endif  // PIER_QP_QUERY_PROCESSOR_H_
