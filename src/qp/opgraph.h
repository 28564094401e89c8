// UFL opgraphs: PIER's physical query plans (§3.3.2).
//
// A query plan is a set of operator graphs (opgraphs). Within an opgraph,
// edges are local dataflow channels (§3.3.5); between opgraphs the plan uses
// the DHT as a rendezvous point (a Put operator publishes into a namespace
// that a NewData access method in another opgraph watches) — PIER's version
// of the distributed Exchange. Opgraphs are the unit of dissemination: each
// graph carries a hint saying which nodes need it (everyone, the owners of an
// equality partition, or the owners of a key range).

#ifndef PIER_QP_OPGRAPH_H_
#define PIER_QP_OPGRAPH_H_

#include <map>
#include <string>
#include <vector>

#include "qp/expr.h"
#include "runtime/vri.h"
#include "util/status.h"
#include "util/wire.h"

namespace pier {

/// Physical operator kinds (§3.3.4). Several paper-named logical operators
/// have multiple physical implementations (join: SymHashJoin / FetchMatches /
/// HierJoin; aggregation: GroupBy / HierAgg).
enum class OpKind : uint8_t {
  kScan = 1,        // access method: localScan of a DHT namespace (+ catch-up)
  kNewData = 2,     // access method: subscription to newly arriving objects
  kSource = 3,      // access method: inline constant tuples (tests, examples)
  kSelection = 4,
  kProjection = 5,
  kTee = 6,
  kUnion = 7,
  kDupElim = 8,
  kGroupBy = 9,     // hash group-by with distributive/algebraic aggregates
  kSymHashJoin = 10,  // symmetric hash join [71]
  kFetchMatches = 11,  // Fetch Matches (distributed index) join [44]
  kQueue = 12,      // scheduler yield point (§3.3.5)
  kPut = 13,        // Exchange: repartition by publishing into the DHT
  kResult = 14,     // result handler: forward answer tuples to the proxy
  kMaterializer = 15,  // in-memory table materializer (local soft-state table)
  kLimit = 16,
  kTopK = 17,       // order-by + limit at the collection point
  kBloomCreate = 18,   // build a Bloom filter over a column
  kBloomProbe = 19,    // filter tuples against a published Bloom filter
  kHierAgg = 20,    // hierarchical aggregation over the aggregation tree
  kHierJoin = 21,   // hierarchical (in-network cache) join
  kEddy = 22,       // adaptive routing among predicate modules [2]
  kControl = 23,    // control flow manager: pause/resume gate
};

const char* OpKindName(OpKind k);

/// One operator instance in a plan: a kind plus string parameters.
/// Expressions are serialized into parameters (SetExpr/GetExpr); lists use
/// comma separation (SetStrings/GetStrings).
struct OpSpec {
  uint32_t id = 0;
  OpKind kind = OpKind::kSelection;
  std::map<std::string, std::string> params;

  OpSpec() = default;
  OpSpec(uint32_t id_in, OpKind kind_in) : id(id_in), kind(kind_in) {}

  bool Has(const std::string& key) const { return params.count(key) > 0; }
  void Set(const std::string& key, std::string value) {
    params[key] = std::move(value);
  }
  std::string GetString(const std::string& key, std::string def = "") const;
  int64_t GetInt(const std::string& key, int64_t def = 0) const;
  void SetInt(const std::string& key, int64_t v) {
    params[key] = std::to_string(v);
  }

  void SetExpr(const std::string& key, const ExprPtr& e);
  Result<ExprPtr> GetExpr(const std::string& key) const;

  void SetStrings(const std::string& key, const std::vector<std::string>& v);
  std::vector<std::string> GetStrings(const std::string& key) const;
};

/// A local dataflow edge: tuples pushed from `from` arrive at `to`'s input
/// `port` (join inputs: port 0 = left/build, port 1 = right/probe).
struct GraphEdge {
  uint32_t from = 0;
  uint32_t to = 0;
  uint8_t port = 0;
};

/// How an opgraph is disseminated (§3.3.3).
enum class DissemKind : uint8_t {
  kBroadcast = 0,  // true-predicate index: broadcast to every node
  kEquality = 1,   // equality-predicate index: route to the partition owner
  kLocal = 2,      // run only at the proxy (final collection graphs)
  kRange = 3,      // range-predicate index: PHT leaves covering [lo, hi]
};

struct OpGraph {
  uint32_t id = 0;
  std::vector<OpSpec> ops;
  std::vector<GraphEdge> edges;

  DissemKind dissem = DissemKind::kBroadcast;
  /// For kEquality: route to the owner of RoutingId(dissem_ns, dissem_key).
  /// For kRange: dissem_ns names the PHT table, range [dissem_lo, dissem_hi].
  std::string dissem_ns;
  std::string dissem_key;
  int64_t dissem_lo = 0;
  int64_t dissem_hi = 0;
  /// Flush staging on the query clock (QueryExecutor::NextFlush): a stage-s
  /// graph flushes s steps after each boundary, a step being a quarter of
  /// the timeout or window, so downstream stages of a multi-graph pipeline
  /// (partial aggregation -> final -> top-k, Bloom build -> the probe's
  /// filter fetch) flush after their inputs' state has arrived. Plans use
  /// stages 0 to kMaxFlushStage (QueryPlan::Validate refuses others, and a
  /// bloomprobe staged no later than its bloomcreate).
  static constexpr int32_t kMaxFlushStage = 2;
  int32_t flush_stage = 0;

  OpSpec* FindOp(uint32_t op_id);
  const OpSpec* FindOp(uint32_t op_id) const;

  /// Add an op, returns its id (ids are assigned 1..n).
  OpSpec& AddOp(OpKind kind);
  void Connect(uint32_t from, uint32_t to, uint8_t port = 0);

  /// Structural checks: edge endpoints exist, no duplicate ids, port arity.
  Status Validate() const;
};

/// A full query: metadata plus opgraphs.
struct QueryPlan {
  uint64_t query_id = 0;
  /// Node that owns the query and receives answer tuples (§3.3.2).
  NetAddress proxy;
  /// Every opgraph stops executing when the timeout expires (§3.3.2).
  TimeUs timeout = 30 * kSecond;
  /// Absolute end of the query's lifetime (proxy clock, microseconds),
  /// stamped by SubmitQuery as now + timeout and carried through every
  /// re-dissemination. The query clock closes the query at it, so a node
  /// whose FIRST sight of the query is a later generation does not restart
  /// the full timeout from swap time.
  TimeUs deadline_us = 0;
  /// Snapshot queries flush blocking state once per flush stage, a quarter
  /// of the timeout apart; continuous queries every `window`, both counted
  /// from deadline_us − timeout. window 0 on a continuous plan means "no
  /// WINDOW clause": the executor substitutes a sane default.
  bool continuous = false;
  TimeUs window = 5 * kSecond;
  /// Plan-swap generation for continuous queries. A re-disseminated plan with
  /// a higher generation replaces the running opgraphs under the same query
  /// id (the executor final-flushes the old instances first); the same
  /// generation only refreshes metadata (the proxy's epoch). Snapshot
  /// queries never bump it.
  uint32_t generation = 0;
  /// Adoptions so far: 0 = the original proxy; each node that adopts the
  /// query (it came to own the previous proxy's ring id) takes the next
  /// value. Executors accept a proxy change from a same-generation metadata
  /// broadcast only when it advances the epoch, so a late broadcast from a
  /// superseded proxy cannot roll the query back to a dead node.
  uint32_t proxy_epoch = 0;
  /// Catch-up high-water mark (proxy clock, microseconds): a swapped-in Scan
  /// (or catch-up NewData) must skip soft state stored before this instant —
  /// the predecessor generation already counted that history in its windows,
  /// and re-reading it double-counts the first post-swap window. Stamped by
  /// SwapQuery at swap time and carried on the wire; 0 = no suppression
  /// (first dissemination: catch-up reads everything, as §3.3.4 requires).
  TimeUs catchup_floor_us = 0;
  /// Cancel tombstone: a metadata-only re-dissemination with this set (and a
  /// bumped generation) tells executors the proxy ended the query ON
  /// PURPOSE: tear down now. Without it a cancelled query would look
  /// exactly like a dead proxy once its proxy left, and be adopted. The
  /// cancel also overwrites the query's plan record ("!qplan") with this
  /// tombstone, so a node that adopts later reads it and un-adopts; the
  /// absolute deadline bounds everything else.
  bool cancelled = false;
  /// Replication factor for the soft state this query publishes (Put
  /// exchanges, materialized tables): each object is placed at its owner
  /// plus replicas-1 of the owner's successors. 0 = the DHT's configured
  /// default. Set from `replicas = k;` in UFL.
  int32_t replicas = 0;

  std::vector<OpGraph> graphs;

  OpGraph& AddGraph();
  Status Validate() const;

  void EncodeTo(WireWriter* w) const;
  std::string Encode() const;
  static Result<QueryPlan> Decode(std::string_view wire);
};

}  // namespace pier

#endif  // PIER_QP_OPGRAPH_H_
