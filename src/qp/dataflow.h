// Local dataflow (§3.3.5): the non-blocking iterator model.
//
// PIER's event-driven core cannot block in handlers, so the classic pull
// iterator is split: control flows parent -> child as Open()/probe function
// calls, and data flows child -> parent as push calls (ProcessBatch), one
// TupleBatch at a time; a single row is a batch of one. A row flows upward
// until an operator drops it (selection), absorbs it into state (join,
// group-by), or parks it in a Queue, whose zero-delay timer yields the stack
// back to the Main Scheduler. Probe tags accompany every pushed batch so
// operators with reordered nested probes can match data to stored state.
//
// Blocking state (group-by, top-k, Bloom build) is emitted on Flush(), which
// the executor drives (QueryExecutor::ArmStageFlush): a snapshot graph of
// flush stage s flushes once, at start + (s+1)·step, where step is
// timeout/4 — so stage-0 partials land before stage-1 finals flush;
// continuous graphs flush once per window. There are no EOFs, by design
// (§3.3.2).
//
// Lifecycle: Init (parse params) -> Open (children first, then OnOpen) ->
// ProcessBatch / Flush -> Close. The base Operator owns every event-loop
// resource an operator acquires, through its helpers: timers (After),
// newData subscriptions (Subscribe, CatchUp), upcalls (Intercept) and DHT
// reply guards (Guarded). Close() is non-virtual and idempotent: it cancels
// and unregisters all of them, expires the guards, then runs OnClose for the
// operator's own state. Nothing an operator scheduled or registered calls
// back into it after Close.

#ifndef PIER_QP_DATAFLOW_H_
#define PIER_QP_DATAFLOW_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "data/tuple.h"
#include "data/tuple_batch.h"
#include "overlay/dht.h"
#include "qp/opgraph.h"
#include "runtime/vri.h"

namespace pier {

/// Actual resource usage of one operator instance (PR-7 cost accounting; the
/// measured counterpart of the optimizer's Cost estimate). Message/byte
/// counts cover DHT/wire traffic the operator originates — local object-store
/// writes (join state, materialized results) are deliberately NOT messages.
struct OpCost {
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  uint64_t msgs = 0;
  uint64_t bytes = 0;

  OpCost& operator+=(const OpCost& o) {
    tuples_in += o.tuples_in;
    tuples_out += o.tuples_out;
    msgs += o.msgs;
    bytes += o.bytes;
    return *this;
  }
};

/// Per-query actual-cost ledger: one OpCost slot per (graph_id, op_id),
/// shared by all opgraph instances of one query on one node. Slots are
/// created on first touch and their addresses are stable thereafter, so
/// operators resolve their slot once at Init and pay a plain-field increment
/// per event. Slot (0, 0) is reserved for the answer-forwarding pseudo-op
/// (metered by the QueryExecutor, where local vs wire delivery is known).
class QueryMeter {
 public:
  using Key = std::pair<uint32_t, uint32_t>;  // (graph_id, op_id)

  /// The answer-forwarding pseudo-op slot.
  static constexpr Key kAnswerSlot{0, 0};

  OpCost* At(uint32_t graph_id, uint32_t op_id) {
    return &costs_[{graph_id, op_id}];
  }

  const std::map<Key, OpCost>& costs() const { return costs_; }

  OpCost Total() const {
    OpCost t;
    for (const auto& [k, c] : costs_) t += c;
    return t;
  }

  /// Rate limit for piggybacking the full snapshot on answer frames: true
  /// on the first and every 16th frame. Encoding the whole ledger per
  /// answer is the metering path's only O(ops) cost, and the teardown
  /// flush ships the final snapshot regardless — skipping frames costs
  /// mid-query freshness, never accuracy of the final report.
  bool ShouldPiggyback() { return (piggyback_tick_++ % 16) == 0; }

  /// The cost block executors append to answer and teardown frames: an
  /// absolute snapshot of every slot, so a receiver replaces the sender's
  /// previous one and a lost or reordered frame never double counts.
  void EncodeTo(WireWriter* w) const;
  /// Decode a cost block; false (and nothing usable) when the frame carries
  /// none or it is truncated.
  static bool DecodeSnapshot(WireReader* r, std::map<Key, OpCost>* out);

 private:
  std::map<Key, OpCost> costs_;  // node-local, single event thread: no lock
  uint32_t piggyback_tick_ = 0;
};

/// Node-local services an operator may use. One context per opgraph instance.
class ExecContext {
 public:
  Vri* vri = nullptr;
  Dht* dht = nullptr;
  uint64_t query_id = 0;
  uint32_t graph_id = 0;
  NetAddress proxy;
  bool continuous = false;
  TimeUs window = 5 * kSecond;
  /// Remaining lifetime of the query from the moment the graph started here;
  /// operators use it as the soft-state lifetime for published state.
  TimeUs query_lifetime = 30 * kSecond;
  /// Catch-up high-water mark for swapped-in plans (QueryPlan's
  /// catchup_floor_us, tightened to the local quiesce instant on a swap):
  /// access methods skip soft state stored before this instant during their
  /// catch-up scan — the predecessor generation already counted it. 0 = no
  /// suppression (first dissemination reads everything, §3.3.4).
  TimeUs catchup_floor_us = 0;
  /// Replication factor for state this query publishes into the DHT
  /// (QueryPlan::replicas; 0 = the DHT default).
  int32_t replicas = 0;

  /// Per-query cost ledger (owned by the executor's RunningQuery). Null when
  /// metering is disabled — operators must tolerate that, and the base
  /// Operator::Init caches a null slot so the hot path is one branch.
  QueryMeter* meter = nullptr;

  /// Forward a batch of answers to the proxy in one frame (wired up by the
  /// QueryExecutor).
  std::function<void(const TupleBatch&)> emit_result;

  /// Ask the executor to stop this query locally (e.g. LIMIT satisfied).
  std::function<void()> request_stop;

  /// Observe a tuple this node publishes into the DHT during operator
  /// execution (the Put exchange). Feeds the statistics subsystem; the
  /// installer decides which namespaces matter (per-query rendezvous
  /// namespaces are normally skipped).
  std::function<void(const std::string& ns,
                     const std::vector<std::string>& key_attrs, const Tuple& t,
                     size_t bytes)>
      observe_publish;

  /// Namespace scoped to this query ("q<id>.<what>"); used for rendezvous
  /// partitions, operator state and aggregation channels.
  std::string QueryNs(const std::string& what) const {
    return "q" + std::to_string(query_id) + "." + what;
  }

  /// Monotonic per-context uniquifier for DHT suffixes. The graph id is part
  /// of the name: two graph instances on the same node (e.g. the two sides
  /// of a rehash join writing into one namespace) must never mint the same
  /// suffix, or their objects would replace each other at the owner.
  std::string NextSuffix() {
    return std::to_string(graph_id) + "." + std::to_string(++suffix_counter_) +
           "@" + std::to_string(dht ? dht->local_address().host : 0);
  }

 private:
  uint64_t suffix_counter_ = 0;
};

/// Base class for all physical operators.
class Operator {
 public:
  explicit Operator(const OpSpec& spec);
  virtual ~Operator();

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  /// Parse parameters and acquire resources. Called before wiring completes;
  /// must not emit tuples.
  virtual Status Init(ExecContext* cx) {
    cx_ = cx;
    cost_ = cx->meter != nullptr ? cx->meter->At(cx->graph_id, spec_.id)
                                 : nullptr;
    return Status::Ok();
  }

  /// Control channel, parent -> child. Propagates to children exactly once,
  /// then runs OnOpen (access methods start producing there).
  void Open();

  /// Data channel, child -> parent: consume one pushed batch. A borrowed
  /// `batch` (batch.owned() == false) is only valid for the duration of this
  /// call; operators that retain rows must EnsureOwned() or materialize.
  virtual void ProcessBatch(int port, uint32_t tag,
                            const TupleBatch& batch) = 0;

  /// Emit blocking state downstream. The executor calls this in dataflow
  /// order, so upstream operators have already flushed.
  virtual void Flush() {}

  /// Release every timer, subscription, upcall and guard acquired through
  /// the helpers below, then run OnClose. Idempotent.
  void Close();

  // --- Wiring (done by the opgraph instance) ---------------------------------

  void AddOutput(Operator* op, int port) { outputs_.push_back({op, port}); }
  void AddChild(Operator* op) { children_.push_back(op); }

  const OpSpec& spec() const { return spec_; }

  /// Push a batch straight to this operator's outputs, bypassing its own
  /// ProcessBatch. Used by the executor to feed externally produced rows
  /// (range-index results) into a graph through a Source placeholder.
  void InjectBatchDownstream(const TupleBatch& b) { PushBatch(0, b); }

  struct OpStats {
    uint64_t consumed = 0;
    uint64_t emitted = 0;
  };
  const OpStats& op_stats() const { return stats_; }

  /// Named operator-specific counters for benches and tests (e.g. the eddy's
  /// "evaluations", the hierarchical join's "early_results"). The base
  /// answers "suppressed" for operators that run a catch-up feed. Returns -1
  /// for unknown names.
  virtual int64_t Metric(const std::string& name) const;

 protected:
  /// Hook for subclasses; runs once, after children are open.
  virtual void OnOpen() {}

  /// Hook for subclasses; runs once, from Close, after the base released
  /// its resources: drop buffers and operator state (e.g. DropNamespace).
  virtual void OnClose() {}

  /// Push a batch to every output edge (meters N tuples in one shot).
  void PushBatch(uint32_t tag, const TupleBatch& batch);

  /// Charge wire traffic this operator originates (DHT Put/Get/Send) to the
  /// query's ledger. No-op when metering is off.
  void MeterNet(uint64_t msgs, uint64_t bytes) {
    if (cost_ != nullptr) {
      cost_->msgs += msgs;
      cost_->bytes += bytes;
    }
  }

  // --- Owned resources -------------------------------------------------------

  /// Run `cb` once, `delay` from now. The returned handle (never 0 before
  /// Close) cancels it through CancelTimer; Close cancels every pending one.
  uint64_t After(TimeUs delay, std::function<void()> cb);
  /// Cancel a pending After callback; 0 and spent handles are no-ops.
  void CancelTimer(uint64_t handle);

  /// Live newData subscription to `ns`: objects stored from now on, one call
  /// each, with no catch-up of what is already stored.
  void Subscribe(const std::string& ns, Dht::NewDataHandler handler);

  /// Intercept in-transit Send objects in `ns` at this node (the upcall).
  void Intercept(const std::string& ns, OverlayRouter::UpcallHandler handler);

  /// Wrap an asynchronous reply callback (e.g. a DHT Get's) so that it is
  /// dropped once this operator has closed or been destroyed.
  template <typename F>
  auto Guarded(F f) {
    return [alive = AliveToken(), f = std::move(f)](auto&&... args) mutable {
      if (!alive.expired()) f(std::forward<decltype(args)>(args)...);
    };
  }

  /// One object delivered by a catch-up feed. Both fields alias DHT storage
  /// or a receive frame and are valid only during the delivery call.
  struct FeedItem {
    const ObjectName* name;
    std::string_view value;
  };
  using FeedFn = std::function<void(const std::vector<FeedItem>&)>;

  /// The exactly-once catch-up feed (§3.3.4, No Global Synchronization): a
  /// consumer reads what `ns` already holds on this node and then every later
  /// arrival, each object once. Subscribes to `ns` first, then — from a
  /// 0-delay event — scans the namespace, so nothing falls between the two.
  /// The scan skips objects stored before `floor` (a swapped-in plan's
  /// catch-up high-water mark; 0 reads everything) and counts them in
  /// Metric("suppressed"). Both paths dedup by object identity (key +
  /// suffix), never by content: distinct publishers legitimately produce
  /// byte-identical values. `fn` gets the scan's survivors as one group and
  /// each later store (or put frame) as another. One feed per operator.
  void CatchUp(const std::string& ns, TimeUs floor, FeedFn fn);

  ExecContext* cx_ = nullptr;
  OpCost* cost_ = nullptr;  // this op's ledger slot; null = metering off
  OpSpec spec_;
  std::vector<std::pair<Operator*, int>> outputs_;
  std::vector<Operator*> children_;
  OpStats stats_;

 private:
  struct Resources;

  /// The resource record, created on first use: operators that acquire
  /// nothing (Selection, Projection, ...) pay one null pointer.
  Resources& res();
  std::weak_ptr<char> AliveToken();
  /// Cancel and unregister everything held; Close, and the destructor for
  /// an operator destroyed without one (e.g. a graph that failed to build).
  void Release();

  std::unique_ptr<Resources> res_;
  bool opened_ = false;
  bool closed_ = false;
};

/// Factory: build the physical operator for a spec. Defined across the
/// op_*.cc files; returns InvalidArgument for unknown kinds.
Result<std::unique_ptr<Operator>> MakeOperator(const OpSpec& spec);

}  // namespace pier

#endif  // PIER_QP_DATAFLOW_H_
