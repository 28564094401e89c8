// The per-node PIER query processor: the "life of a query" (§3.3.2).
//
// A client submits a plan at any node; that node becomes the query's proxy.
// The proxy disseminates each opgraph to the nodes that need it — everyone
// via the distribution tree (true-predicate index), one partition owner via
// DHT routing (equality-predicate index), PHT leaves for ranges, or just the
// proxy itself for final collection graphs. Executing nodes forward answer
// tuples back to the proxy, which delivers them to the client. Everything is
// bounded by the query timeout; there is no completion protocol.
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
#include "overlay/distribution_tree.h"
#include "overlay/pht.h"
#include "qp/executor.h"
#include "qp/opgraph.h"

namespace pier {

class MetricsRegistry;
class Counter;
class Histogram;

/// Actual, measured cost of one (graph, op) slot aggregated across every
/// node that executed it — the runtime counterpart of the optimizer's
/// ExplainOp estimate. Slot (0, 0) is the answer-forwarding pseudo-op.
struct QueryCostOp {
  uint32_t graph_id = 0;
  uint32_t op_id = 0;
  OpCost cost;
  uint32_t nodes = 0;  // executors that reported this slot
};

/// Per-query actual-cost report assembled at the proxy: remote executors'
/// piggybacked meter snapshots plus the proxy's own local ledger.
struct QueryCostReport {
  uint64_t query_id = 0;
  std::vector<QueryCostOp> ops;  // sorted by (graph_id, op_id)
  OpCost total;
};

class QueryProcessor {
 public:
  struct Options {
    DistributionTree::Options tree;
    /// Default lifetime for published base tuples.
    TimeUs publish_lifetime = 10LL * 60 * kSecond;
    /// Extra slack past the timeout before the client's on_done fires.
    TimeUs done_slack = 1 * kSecond;
  };

  QueryProcessor(Vri* vri, Dht* dht, Options options);
  QueryProcessor(Vri* vri, Dht* dht) : QueryProcessor(vri, dht, Options{}) {}
  ~QueryProcessor();

  QueryProcessor(const QueryProcessor&) = delete;
  QueryProcessor& operator=(const QueryProcessor&) = delete;

  // --- Publishing (primary/secondary indexes, §3.3.3) -------------------------

  /// Publish a tuple into the DHT under `table`, partitioned by `key_attrs`
  /// (the primary index). lifetime 0 uses the default; `replicas` copies are
  /// placed (0 = the DHT's configured factor). Returns the stored object's
  /// encoded size (statistics accrual reuses it).
  size_t Publish(const std::string& table, const std::vector<std::string>& key_attrs,
                 const Tuple& t, TimeUs lifetime = 0, int replicas = 0);

  /// Publish a secondary index entry: a (index-key, tupleID-ish) pair — a
  /// small tuple holding the indexed value and the base tuple's location
  /// (table + primary key), per §3.3.3.
  void PublishSecondary(const std::string& index_table,
                        const std::string& index_attr,
                        const std::string& base_table,
                        const std::vector<std::string>& base_key_attrs,
                        const Tuple& t, TimeUs lifetime = 0, int replicas = 0);

  // --- Batched publishing ------------------------------------------------------
  // Build-then-ship: the client accumulates every index fan-out of a whole
  // tuple batch (primary rows AND secondary entries) into one item list,
  // then PublishBatch ships it as a single DHT batch — one Lookup per
  // distinct key, one wire message per destination owner.

  /// Append the primary-index put for `t` to `items` without sending.
  /// `replicas` copies are placed when the batch ships (0 = the DHT's
  /// default). Returns the encoded tuple size (statistics accrual reuses it).
  size_t MakePublishItem(const std::string& table,
                         const std::vector<std::string>& key_attrs,
                         const Tuple& t, TimeUs lifetime,
                         std::vector<DhtPutItem>* items, int replicas = 0);

  /// Append an already-encoded put (partition key + wire value built by the
  /// caller, e.g. from TupleBatch rows) to `items`, minting the suffix and
  /// applying the default lifetime exactly like MakePublishItem. Returns the
  /// value size.
  size_t MakePublishItemRaw(const std::string& ns, std::string key,
                            std::string value, TimeUs lifetime,
                            std::vector<DhtPutItem>* items, int replicas = 0);

  /// Ship pre-built items as one DHT batch. `done` (optional) receives the
  /// per-destination-group outcome, so partial failures name exactly which
  /// items were dropped instead of collapsing into one error.
  void PublishBatch(std::vector<DhtPutItem> items,
                    Dht::BatchCallback done = nullptr);

  /// Publish into a PHT range index keyed by integer column `key_attr`.
  /// lifetime 0 uses the default.
  void PublishRange(const std::string& pht_table, const std::string& key_attr,
                    const Tuple& t, int key_bits = 32, TimeUs lifetime = 0);

  /// Store a tuple in this node's local soft-state table WITHOUT shipping it
  /// anywhere — data "in situ" (§2.1.2): endpoint monitoring sources (packet
  /// traces, firewall logs) stay at their origin and are reached by scans
  /// in broadcast-disseminated opgraphs. Returns the encoded size.
  size_t StoreLocal(const std::string& table, const Tuple& t,
                    TimeUs lifetime = 0);

  // --- Client API (this node is the proxy) -------------------------------------

  using TupleCallback = std::function<void(const Tuple&)>;
  using DoneCallback = std::function<void()>;

  /// How a plan uses a namespace it reads: a scannable relation (scan /
  /// newdata / fetch-matches target) or a PHT range-dissemination table.
  /// The two are distinct stores — scanning a PHT namespace can never
  /// produce tuples, so a resolver must not conflate them.
  enum class TableRole { kRelation, kRangeIndex };

  /// Answers "does the application have published metadata for this table,
  /// used in this role?". PIER itself keeps no catalog, so the check is
  /// injected by the client layer (PierClient wires it to its Catalog).
  /// Unset means "accept all", the paper's original bake-it-in contract.
  using TableResolver =
      std::function<bool(const std::string& table, TableRole role)>;
  /// Install (or clear) the resolver. Returns an installation token: the
  /// installer passes it to ClearTableResolver so that tearing down an old
  /// client cannot disturb a newer one's resolver.
  uint64_t set_table_resolver(TableResolver resolver) {
    table_resolver_ = std::move(resolver);
    return ++table_resolver_epoch_;
  }
  /// Clear the resolver iff `token` identifies the current installation.
  void ClearTableResolver(uint64_t token) {
    if (token == table_resolver_epoch_) table_resolver_ = nullptr;
  }

  /// Parse-free entry point: submit an already-built plan. Fills in
  /// query_id (if 0) and proxy, validates, disseminates. Returns the id.
  /// With a table resolver installed, a plan whose access methods read a
  /// table with no published metadata is rejected with NotFound instead of
  /// silently succeeding and timing out with zero answers.
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
  /// half of proxy failover; the executor invokes this through its adopt
  /// handler when the successor walk lands on this node). Creates the
  /// proxy-side record from `meta`, arms the done timer from the original
  /// deadline, starts lease refreshing and re-broadcasts the plan so every
  /// executor re-targets its answers. Idempotent while already the proxy.
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

  /// Forward an operator-publish observer to the executor (statistics
  /// accrual from operator execution, §"introspect via queries").
  void set_publish_observer(QueryExecutor::PublishObserver o) {
    executor_->set_publish_observer(std::move(o));
  }

  // --- Introspection -------------------------------------------------------------

  /// The stored plan of a query this node proxies (test/introspection
  /// accessor; NotFound when this node does not proxy `query_id`).
  Result<QueryPlan> ProxyPlan(uint64_t query_id) const {
    auto it = clients_.find(query_id);
    if (it == clients_.end() || !it->second.plan_stored)
      return Status::NotFound("no stored plan for this query");
    return it->second.plan;
  }

  QueryExecutor* executor() { return executor_.get(); }
  Dht* dht() { return dht_; }
  Vri* vri() { return vri_; }
  DistributionTree* tree() { return tree_.get(); }
  const Options& options() const { return options_; }

  // --- Per-query cost accounting (PR 7) ----------------------------------------
  // Every operator meters tuples/messages/bytes into its query's ledger
  // (qp/dataflow.h). Executors piggyback their ledger on answer forwarding
  // as absolute per-op snapshots — idempotent, so a lost or reordered answer
  // frame costs freshness, never correctness — and the proxy folds the
  // latest snapshot per executor together with its own local ledger.

  /// The freshest aggregated cost picture of a query this node proxies.
  /// Usable mid-flight; the final report also reaches the costs callback.
  QueryCostReport QueryCosts(uint64_t query_id) const;

  /// Install a callback that receives the query's FINAL cost report just
  /// before its proxy record is torn down (done timer or cancel). NotFound
  /// if this node does not proxy the query.
  using CostsCallback = std::function<void(const QueryCostReport&)>;
  Status SetCostsCallback(uint64_t query_id, CostsCallback cb);

  /// Attach a metrics registry: the processor mints per-query
  /// `pier_query_answers_total{qid=...}` counters, an answer-size histogram,
  /// and forwards the registry to the executor's labeled counters.
  void set_metrics(MetricsRegistry* metrics);

  struct Stats {
    uint64_t queries_submitted = 0;
    uint64_t graphs_received = 0;
    uint64_t answers_forwarded = 0;  // sent toward a remote proxy
    uint64_t answers_delivered = 0;  // handed to a local client
    uint64_t adoptions = 0;          // proxy roles taken over via failover
    uint64_t answers_buffered = 0;   // held for a not-yet-attached client
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Router direct-message type for answers (16-21 are the DHT's): query id
  /// + TupleBatch wire format (+ an optional cost block). A single answer is
  /// a batch of one; framing once per batch amortizes the per-message header
  /// and cost-block overhead across every row of a window flush.
  static constexpr uint8_t kMsgAnswerBatch = 38;
  /// Namespace of durable cancel tombstones: CancelQuery of a continuous
  /// query stores one under the query id (lifetime = remaining deadline),
  /// and AdoptQuery checks it after adopting — a successor that missed the
  /// tombstone BROADCAST still un-adopts a cancelled query.
  static constexpr const char* kTombNs = "!qtomb";
  /// Namespace of durable continuous-query plans: SubmitQuery and SwapQuery
  /// store the full encoded plan under the query id (replicated with the
  /// DHT's factor). An adopting successor whose own executor only ran the
  /// query's BROADCAST graphs reads the plan back through it, so equality /
  /// range / local graphs survive proxy failover too — even when the
  /// original proxy (the plan's storing node) is the node that died.
  static constexpr const char* kPlanNs = "!qplan";
  /// Proxy probe (expired-lease corroboration): the request carries the
  /// query id; the probed node answers kMsgLeaseProbeResp with whether it
  /// still proxies the query. "Reachable but not proxying" matters: it is
  /// how the failover walk moves past a successor that never adopts (it
  /// does not run the query) and how executors that missed a cancel
  /// tombstone eventually converge.
  static constexpr uint8_t kMsgLeaseProbe = 33;
  static constexpr uint8_t kMsgLeaseProbeResp = 36;
  /// Missed-swap repair: an executor that learned of a newer generation from
  /// a metadata-only refresh asks the proxy for the full plan (kMsgPlanFetch,
  /// body = query id); the proxy replies with its stored plan's broadcast
  /// graphs (kMsgPlanPush, body = encoded plan) which re-enters the normal
  /// dissemination path.
  static constexpr uint8_t kMsgPlanFetch = 34;
  static constexpr uint8_t kMsgPlanPush = 35;
  /// Final per-op cost snapshot from an executor tearing a query down
  /// (body: u64 query id + the same cost block answers piggyback). Covers
  /// executors that ran operators but never forwarded an answer.
  static constexpr uint8_t kMsgQueryCosts = 37;
  /// Namespace that carries targeted (equality) dissemination objects.
  static constexpr const char* kDissemNs = "!dissem";

  struct ClientQuery {
    /// Held by shared_ptr so delivery can keep the closure alive across the
    /// call with one refcount bump per tuple — a client calling Cancel()
    /// from inside its own on_tuple erases this entry mid-delivery, and
    /// destroying the executing closure would be a use-after-free.
    std::shared_ptr<const TupleCallback> on_tuple;
    DoneCallback on_done;
    uint64_t done_timer = 0;
    /// Continuous queries keep their plan so the lifecycle operations
    /// (rewindow, swap) can re-disseminate it; snapshot plans are dropped
    /// after dissemination as before.
    QueryPlan plan;
    bool plan_stored = false;
    /// Answers that arrived while no client was attached (an adopted query
    /// before re-attach). Bounded by kPendingAnswerCap; replayed on
    /// AttachClient.
    std::vector<Tuple> pending;
    /// The proxy-lease refresh tick for continuous queries (metadata-only
    /// re-broadcast every EffectiveLease/3). Same leak-free pattern as the
    /// executor's window tick.
    std::function<void()> lease_tick;
    uint64_t lease_timer = 0;
    /// Latest piggybacked per-op meter snapshot from each remote executor
    /// (absolute values: each frame replaces its sender's previous one).
    std::map<NetAddress, std::map<QueryMeter::Key, OpCost>> remote_costs;
    /// The proxy's own executor ledger, pinned while the query is live. The
    /// executor tears its RunningQuery down at the deadline, before the
    /// done timer folds final costs — holding the shared_ptr here keeps the
    /// local contribution readable at that point.
    std::shared_ptr<QueryMeter> local_meter;
    /// Fires with the final QueryCosts report at teardown.
    CostsCallback on_costs;
    /// Cached `pier_query_answers_total{qid=...}` handle (null: no registry).
    Counter* answers_metric = nullptr;
  };

  /// Most answers an un-attached (freshly adopted) query buffers before
  /// dropping: enough to bridge a re-attach, never unbounded.
  static constexpr size_t kPendingAnswerCap = 4096;

  Status CheckTablesKnown(const QueryPlan& plan) const;
  void StartLeaseRefresh(uint64_t query_id);
  /// Store (or refresh) the durable replicated copy of a continuous query's
  /// full plan under kPlanNs.
  void StoreDurablePlan(const QueryPlan& plan);
  /// Arm the proxy-side completion timer: at `delay` + done_slack the
  /// client record is torn down and on_done fires. Shared by SubmitQuery
  /// and AdoptQuery so the two teardown paths cannot drift apart.
  uint64_t ArmDoneTimer(uint64_t query_id, TimeUs delay);
  /// Hand one answer to the local client record: the attached callback if
  /// any, the bounded pending buffer otherwise.
  void DeliverAnswer(ClientQuery* client, const Tuple& t);
  /// Fire the final cost report into `on_costs` (if installed) — called on
  /// every teardown path BEFORE the client record is erased.
  void EmitFinalCosts(ClientQuery* client, uint64_t query_id);
  /// Capture the proxy's own executor ledger into the ClientQuery (no-op on
  /// non-proxy nodes and once pinned).
  void PinLocalMeter(uint64_t query_id);
  /// The piggybacked/flushed cost-block wire format (absolute snapshots).
  static void AppendCostBlock(WireWriter* w, const QueryMeter& meter);
  static bool DecodeCostBlock(WireReader* r,
                              std::map<QueryMeter::Key, OpCost>* out);
  /// Mint/cache the per-query answers counter when a registry is attached.
  void BindQueryMetrics(ClientQuery* client, uint64_t query_id);
  void Disseminate(const QueryPlan& plan);
  void HandleDisseminationBlob(std::string_view blob);
  void HandleAnswerBatchMsg(const NetAddress& from, std::string_view body);
  /// Deliver a batch of answers to the local client, or forward it to a
  /// remote proxy as one kMsgAnswerBatch frame.
  void ForwardAnswerBatch(uint64_t query_id, const NetAddress& proxy,
                          const TupleBatch& batch);
  void StartRangeGraph(const QueryPlan& meta, const OpGraph& g);

  Vri* vri_;
  Dht* dht_;
  Options options_;
  std::unique_ptr<DistributionTree> tree_;
  std::unique_ptr<QueryExecutor> executor_;
  /// Persistent PHT handles per (table, key_bits): Pht::Insert is
  /// asynchronous, so the instance must outlive the operation (and a stable
  /// instance keeps its uniquifier counter monotone).
  Pht* PhtFor(const std::string& table, int key_bits);

  std::map<std::string, std::unique_ptr<Pht>> phts_;
  std::map<uint64_t, ClientQuery> clients_;
  /// One outstanding proxy probe: who was asked, and how to resolve it.
  /// The target is checked against the responder — a LATE response from a
  /// previous probe's (different) target must not resolve the current one.
  struct PendingProbe {
    NetAddress target;
    std::function<void(QueryExecutor::ProbeVerdict)> verdict;
    /// Expiry sweep for this entry; cancelled when the probe resolves (and
    /// at teardown, so no expiry closure outlives the processor).
    uint64_t gc_timer = 0;
  };
  /// Outstanding proxy probes by query id (latest wins): resolved by the
  /// probed node's kMsgLeaseProbeResp, or by a transport give-up.
  std::map<uint64_t, PendingProbe> pending_probes_;
  TableResolver table_resolver_;
  uint64_t table_resolver_epoch_ = 0;
  uint64_t dissem_sub_ = 0;
  uint64_t next_suffix_ = 1;
  Stats stats_;
  MetricsRegistry* metrics_ = nullptr;
  /// Histogram of forwarded answer frame sizes (null: no registry).
  Histogram* answer_bytes_metric_ = nullptr;
};

}  // namespace pier

#endif  // PIER_QP_QUERY_PROCESSOR_H_
