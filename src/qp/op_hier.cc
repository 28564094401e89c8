// Hierarchical (in-network) operators (§3.3.4, §3.3.6).
//
// HierAgg — hierarchical aggregation. Every node folds its local input into
// a GroupTable, the grouping core it shares with GroupBy (qp/agg_state.h).
// On flush the partials are routed (DHT send) toward a root identifier as
// one TupleBatch frame, in the same partial layout flat GroupBy rehashes.
// Intermediate nodes intercept the frame with an upcall, decode it, merge it
// into a pending table, and after a hold period forward a single combined
// frame one hop closer to the root; in the optimal case each node sends
// exactly one partial. The root merges everything and emits final tuples
// downstream (only the root instance emits). This shifts in-bandwidth from
// the collection point to the interior of the tree.
//
// HierJoin — hierarchical rehash join. Tuples are routed toward their hash
// bucket with DHT sends. Each intermediate node caches a copy annotated with
// the node's identity and joins it against opposite-side tuples already
// cached there; a pair whose annotation sets are disjoint has never met
// before, so the match is emitted "early" and sent directly to the proxy.
// The bucket owner joins arriving tuples too, suppressing pairs whose
// annotation sets intersect (those were already produced in-network). This
// offloads the hot bucket's out-bandwidth onto path nodes.

#include <cstdint>
#include <map>
#include <utility>

#include "qp/agg_state.h"
#include "qp/dataflow.h"
#include "qp/join_common.h"

namespace pier {

namespace {

// ---------------------------------------------------------------------------
// HierAgg
// ---------------------------------------------------------------------------

/// Decode one routed partial frame: a TupleBatch in the partial layout and
/// nothing after it. The batch aliases `wire`.
Result<TupleBatch> DecodePartials(std::string_view wire) {
  WireReader r(wire);
  PIER_ASSIGN_OR_RETURN(TupleBatch batch, TupleBatch::DecodeFrom(&r, wire));
  if (r.remaining() != 0) return Status::Corruption("trailing partial bytes");
  return batch;
}

/// hieragg[keys=?, aggs=?, hold_ms=?, table=?]
class HierAggOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    PIER_ASSIGN_OR_RETURN(std::vector<AggSpec> aggs,
                          ParseAggSpecs(spec_.GetString("aggs")));
    if (aggs.empty()) return Status::InvalidArgument("hieragg needs aggs");
    local_ = GroupTable(spec_.GetStrings("keys"), std::move(aggs));
    pending_ = root_ = local_;
    hold_ = spec_.GetInt("hold_ms", 500) * kMillisecond;
    out_table_ = spec_.GetString("table", "agg");
    ns_ = cx_->QueryNs("g" + std::to_string(cx_->graph_id) + ".op" +
                       std::to_string(spec_.id) + ".agg");
    root_key_ = "root";

    // Intercept partials flowing through this node toward the root.
    Intercept(ns_, [this](const RouteInfo&, std::string* payload) {
      Result<Dht::WireObject> obj = Dht::DecodeObject(*payload);
      if (!obj.ok()) return UpcallAction::kContinue;
      Result<TupleBatch> batch = DecodePartials(obj->value);
      if (!batch.ok()) return UpcallAction::kContinue;
      pending_.Merge(*batch);
      ArmForwardTimer();
      return UpcallAction::kDrop;
    });
    return Status::Ok();
  }

  void OnOpen() override {
    // The root merges whatever reaches the owner of (ns, root_key), each
    // partial exactly once, including partials that arrived before this node
    // got the opgraph; like every catch-up, it skips the partials a
    // superseded generation already folded and answered.
    CatchUp(ns_, cx_->catchup_floor_us,
            [this](const std::vector<FeedItem>& group) {
              for (const FeedItem& item : group) {
                Result<TupleBatch> batch = DecodePartials(item.value);
                if (!batch.ok()) continue;
                root_.Merge(*batch);
                ArmRootTimer();
              }
            });
  }

  void ProcessBatch(int, uint32_t, const TupleBatch& batch) override {
    local_.Fold(batch);
  }

  /// Send the local window's partials one step toward the root.
  void Flush() override { SendPartials(&local_); }

  void OnClose() override { cx_->dht->objects()->DropNamespace(ns_); }

 private:
  /// Route `table`'s groups toward the root as one partial frame, then
  /// clear it.
  void SendPartials(GroupTable* table) {
    if (table->empty()) return;
    WireWriter w;
    table->Emit(out_table_, /*partial=*/true, SIZE_MAX)[0].EncodeTo(&w);
    table->clear();
    Send(ns_, root_key_, std::move(w).data());
  }

  void ArmForwardTimer() {
    if (forward_timer_) return;
    forward_timer_ = After(hold_, [this]() {
      forward_timer_ = 0;
      SendPartials(&pending_);
    });
  }

  void ArmRootTimer() {
    // Debounced: every new arrival pushes the emission out by `hold`, so the
    // root emits once the partial stream quiesces. Stragglers trigger a
    // re-emission of the (cumulative) totals — monotone refinement, which is
    // PIER's relaxed answer model; downstream TopK dedups by group key.
    CancelTimer(root_timer_);
    root_timer_ = After(hold_, [this]() {
      root_timer_ = 0;
      EmitFinals();
    });
  }

  void EmitFinals() {
    for (const TupleBatch& b : root_.Emit(out_table_, /*partial=*/false))
      PushBatch(0, b);
    // root_ is kept (cumulative): late partials refine rather than reset.
    // Blocking operators downstream (TopK at the root) flushed before our
    // network round-trips finished; push them again now that finals exist.
    for (auto& [op, port] : outputs_) {
      (void)port;
      op->Flush();
    }
  }

  TimeUs hold_ = 500 * kMillisecond;
  std::string out_table_, ns_, root_key_;
  GroupTable local_;    // this node's own input
  GroupTable pending_;  // intercepted children partials awaiting forwarding
  GroupTable root_;     // root-side accumulation
  uint64_t forward_timer_ = 0;
  uint64_t root_timer_ = 0;
};

// ---------------------------------------------------------------------------
// HierJoin
// ---------------------------------------------------------------------------

/// A join tuple in flight: which side it belongs to, the nodes that have
/// cached it en route (the paper's annotations), and the tuple itself.
struct JoinRecord {
  uint8_t side = 0;  // 0 = left, 1 = right
  std::vector<uint32_t> path;  // annotating node hosts
  Tuple tuple;

  std::string Encode() const {
    WireWriter w;
    w.PutU8(side);
    w.PutVarint(path.size());
    for (uint32_t h : path) w.PutU32(h);
    tuple.EncodeTo(&w);
    return std::move(w).data();
  }

  static Result<JoinRecord> Decode(std::string_view wire) {
    WireReader r(wire);
    JoinRecord rec;
    PIER_RETURN_IF_ERROR(r.GetU8(&rec.side));
    uint64_t n;
    PIER_RETURN_IF_ERROR(r.GetVarint(&n));
    if (n > 4096) return Status::Corruption("absurd path length");
    for (uint64_t i = 0; i < n; ++i) {
      uint32_t h;
      PIER_RETURN_IF_ERROR(r.GetU32(&h));
      rec.path.push_back(h);
    }
    PIER_ASSIGN_OR_RETURN(rec.tuple, Tuple::DecodeFrom(&r));
    return rec;
  }

  bool PathIntersects(const JoinRecord& other) const {
    for (uint32_t a : path) {
      for (uint32_t b : other.path) {
        if (a == b) return true;
      }
    }
    return false;
  }
};

/// hierjoin[l_key=?, r_key=?, table=?]
/// Port 0/1 feed the left/right local streams; join results are sent
/// directly to the proxy (there are no downstream edges at non-proxy nodes).
class HierJoinOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    l_key_ = spec_.GetString("l_key");
    r_key_ = spec_.GetString("r_key");
    if (l_key_.empty() || r_key_.empty())
      return Status::InvalidArgument("hierjoin needs l_key and r_key");
    l_table_ = spec_.GetString("l_table");
    r_table_ = spec_.GetString("r_table");
    out_table_ = spec_.GetString("table", "join");
    ns_ = cx_->QueryNs("g" + std::to_string(cx_->graph_id) + ".op" +
                       std::to_string(spec_.id) + ".hj");

    // Intermediate nodes: cache + early join + annotate.
    Intercept(ns_, [this](const RouteInfo&, std::string* payload) {
      Result<Dht::WireObject> obj = Dht::DecodeObject(*payload);
      if (!obj.ok()) return UpcallAction::kContinue;
      Result<JoinRecord> rec = JoinRecord::Decode(obj->value);
      if (!rec.ok()) return UpcallAction::kContinue;
      ProcessAtCache(obj->name.key, *rec, /*at_owner=*/false);
      // Annotate with this node and forward the updated record.
      rec->path.push_back(cx_->dht->local_address().host);
      *payload = Dht::EncodeObject(obj->name, obj->lifetime, rec->Encode());
      return UpcallAction::kContinue;
    });
    return Status::Ok();
  }

  void OnOpen() override {
    // Bucket owner: join every record stored here exactly once, including
    // those routed here before this node received the opgraph, suppressing
    // pairs already produced in-network. Floor 0 on purpose — never
    // suppressed on swaps: owner records are the join's durable lookup
    // state (tuples still waiting to be matched), not already-counted
    // deltas; a swapped-in instance needs all of them or old-side × new-side
    // matches are silently lost.
    CatchUp(ns_, /*floor=*/0, [this](const std::vector<FeedItem>& group) {
      for (const FeedItem& item : group) {
        Result<JoinRecord> rec = JoinRecord::Decode(item.value);
        if (rec.ok()) ProcessAtCache(item.name->key, *rec, /*at_owner=*/true);
      }
    });
  }

  void ProcessBatch(int port, uint32_t, const TupleBatch& batch) override {
    const size_t n = batch.num_rows();
    const BatchSchema& in = *batch.schema();
    if (!l_table_.empty()) {
      // Mixed-stream mode: the batch's one table name picks the side.
      if (in.table == l_table_) {
        port = 0;
      } else if (in.table == r_table_) {
        port = 1;
      } else {
        return;
      }
    }
    if (port != 0 && port != 1) return;
    const int key_idx = in.Index(port == 0 ? l_key_ : r_key_);
    if (key_idx < 0) return;  // best-effort discard
    for (size_t r = 0; r < n; ++r) {
      JoinRecord rec;
      rec.side = static_cast<uint8_t>(port);
      rec.tuple = batch.RowTuple(r);
      Send(ns_,
           batch.ValueAt(r, static_cast<size_t>(key_idx)).CanonicalString(),
           rec.Encode());
    }
  }

  void OnClose() override {
    cache_.clear();
    cx_->dht->objects()->DropNamespace(ns_);
  }

  int64_t Metric(const std::string& name) const override {
    if (name == "early_results") return static_cast<int64_t>(early_results_);
    if (name == "owner_results") return static_cast<int64_t>(owner_results_);
    return Operator::Metric(name);
  }

 private:
  /// Join `rec` against the opposite side cached under `key`, then cache it.
  /// A pair is produced if and only if the two records' annotation sets are
  /// disjoint — at a shared cache node the incoming record does not yet carry
  /// this node, while at the owner both carry it, which makes the early
  /// result exactly-once.
  void ProcessAtCache(const std::string& key, const JoinRecord& rec,
                      bool at_owner) {
    CacheSlot& slot = cache_[key];
    BatchAssembler joined_rows;
    for (const JoinRecord& other : slot.side[1 - rec.side]) {
      if (rec.PathIntersects(other)) continue;
      const Tuple& l = rec.side == 0 ? rec.tuple : other.tuple;
      const Tuple& r = rec.side == 0 ? other.tuple : rec.tuple;
      joined_rows.Add(JoinTuples(l, r, out_table_));
      if (at_owner) {
        owner_results_++;
      } else {
        early_results_++;
      }
    }
    // Matches go straight to the proxy, one answer frame per arrival.
    if (cx_->emit_result) {
      for (const TupleBatch& b : joined_rows.TakeBatches()) cx_->emit_result(b);
    }
    // Cache the record annotated with this node so later arrivals pair
    // against it (and so the owner can suppress re-production).
    JoinRecord cached = rec;
    cached.path.push_back(cx_->dht->local_address().host);
    slot.side[rec.side].push_back(std::move(cached));
  }

  struct CacheSlot {
    std::vector<JoinRecord> side[2];
  };
  std::string l_key_, r_key_, l_table_, r_table_, out_table_, ns_;
  /// join key -> per-side cached records.
  std::map<std::string, CacheSlot> cache_;
  uint64_t early_results_ = 0;
  uint64_t owner_results_ = 0;
};

}  // namespace

std::unique_ptr<Operator> MakeHierOperator(const OpSpec& spec) {
  switch (spec.kind) {
    case OpKind::kHierAgg: return std::make_unique<HierAggOp>(spec);
    case OpKind::kHierJoin: return std::make_unique<HierJoinOp>(spec);
    default: return nullptr;
  }
}

}  // namespace pier
