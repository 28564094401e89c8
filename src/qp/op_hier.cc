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
#include <memory>
#include <utility>
#include <unordered_set>

#include "qp/agg_state.h"
#include "qp/dataflow.h"
#include "qp/join_common.h"
#include "util/hash.h"
#include "util/logging.h"

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
    alive_ = std::make_shared<char>(1);

    // Intercept partials flowing through this node toward the root.
    std::weak_ptr<char> alive = alive_;
    cx_->dht->RegisterUpcall(
        ns_, [this, alive](const RouteInfo&, std::string* payload) {
          if (alive.expired()) return UpcallAction::kContinue;
          Result<Dht::WireObject> obj = Dht::DecodeObject(*payload);
          if (!obj.ok()) return UpcallAction::kContinue;
          Result<TupleBatch> batch = DecodePartials(obj->value);
          if (!batch.ok()) return UpcallAction::kContinue;
          pending_.Merge(*batch);
          ArmForwardTimer();
          return UpcallAction::kDrop;
        });

    // The root receives whatever reaches the owner of (ns, root_key).
    newdata_sub_ = cx_->dht->OnNewData(
        ns_, [this, alive](const ObjectName& name, std::string_view value) {
          if (alive.expired()) return;
          AbsorbRootObject(name, value);
        });
    return Status::Ok();
  }

  void OnOpen() override {
    // Catch-up: partials that arrived before this node got the opgraph.
    std::weak_ptr<char> alive = alive_;
    catchup_timer_ = cx_->vri->ScheduleEvent(0, [this, alive]() {
      if (alive.expired()) return;
      catchup_timer_ = 0;
      // Like every catch-up scan, honor the swap-time high-water mark:
      // partials the superseded generation already folded and answered
      // must not re-enter the root accumulation.
      cx_->dht->LocalScan(
          ns_, [this](const ObjectName& name, std::string_view value,
                      TimeUs stored_at) {
            if (cx_->catchup_floor_us > 0 && stored_at < cx_->catchup_floor_us)
              return;
            AbsorbRootObject(name, value);
          });
    });
  }

  void ProcessBatch(int, uint32_t, const TupleBatch& batch) override {
    stats_.consumed += batch.num_rows();
    local_.Fold(batch);
  }

  /// Send the local window's partials one step toward the root.
  void Flush() override { SendPartials(&local_); }

  void Close() override {
    alive_.reset();
    cx_->dht->UnregisterUpcall(ns_);
    if (newdata_sub_) cx_->dht->CancelNewData(newdata_sub_);
    newdata_sub_ = 0;
    if (forward_timer_) cx_->vri->CancelEvent(forward_timer_);
    if (root_timer_) cx_->vri->CancelEvent(root_timer_);
    if (catchup_timer_) cx_->vri->CancelEvent(catchup_timer_);
    forward_timer_ = root_timer_ = catchup_timer_ = 0;
    cx_->dht->objects()->DropNamespace(ns_);
  }

 private:
  /// Route `table`'s groups toward the root as one partial frame, then
  /// clear it.
  void SendPartials(GroupTable* table) {
    if (table->empty()) return;
    WireWriter w;
    table->Emit(out_table_, /*partial=*/true, SIZE_MAX)[0].EncodeTo(&w);
    table->clear();
    cx_->dht->Send(ns_, root_key_, cx_->NextSuffix(), std::move(w).data(),
                   cx_->query_lifetime);
  }

  /// Root-side entry point shared by newdata and the catch-up scan; dedup by
  /// object identity (aggregate states must be merged exactly once).
  void AbsorbRootObject(const ObjectName& name, std::string_view value) {
    uint64_t id = HashCombine(Fnv1a64(name.key), Fnv1a64(name.suffix));
    if (!root_seen_.insert(id).second) return;
    Result<TupleBatch> batch = DecodePartials(value);
    if (!batch.ok()) return;
    root_.Merge(*batch);
    ArmRootTimer();
  }

  void ArmForwardTimer() {
    if (forward_timer_) return;
    std::weak_ptr<char> alive = alive_;
    forward_timer_ = cx_->vri->ScheduleEvent(hold_, [this, alive]() {
      if (alive.expired()) return;
      forward_timer_ = 0;
      SendPartials(&pending_);
    });
  }

  void ArmRootTimer() {
    // Debounced: every new arrival pushes the emission out by `hold`, so the
    // root emits once the partial stream quiesces. Stragglers trigger a
    // re-emission of the (cumulative) totals — monotone refinement, which is
    // PIER's relaxed answer model; downstream TopK dedups by group key.
    if (root_timer_) cx_->vri->CancelEvent(root_timer_);
    std::weak_ptr<char> alive = alive_;
    root_timer_ = cx_->vri->ScheduleEvent(hold_, [this, alive]() {
      if (alive.expired()) return;
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
  std::unordered_set<uint64_t> root_seen_;
  uint64_t newdata_sub_ = 0;
  uint64_t catchup_timer_ = 0;
  uint64_t forward_timer_ = 0;
  uint64_t root_timer_ = 0;
  std::shared_ptr<char> alive_;
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

/// hierjoin[l_key=?, r_key=?, table=?, qualify=0|1]
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
    qualify_ = spec_.GetInt("qualify", 0) != 0;
    ns_ = cx_->QueryNs("g" + std::to_string(cx_->graph_id) + ".op" +
                       std::to_string(spec_.id) + ".hj");
    alive_ = std::make_shared<char>(1);

    std::weak_ptr<char> alive = alive_;
    // Intermediate nodes: cache + early join + annotate.
    cx_->dht->RegisterUpcall(
        ns_, [this, alive](const RouteInfo&, std::string* payload) {
          if (alive.expired()) return UpcallAction::kContinue;
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

    // Bucket owner: join with suppression of already-produced pairs.
    newdata_sub_ = cx_->dht->OnNewData(
        ns_, [this, alive](const ObjectName& name, std::string_view value) {
          if (alive.expired()) return;
          ProcessOwnerRecord(name, value);
        });
    return Status::Ok();
  }

  void OnOpen() override {
    // Catch-up (§3.3.4, No Global Synchronization): tuples routed here
    // before this node received the opgraph are already stored; fold them in.
    std::weak_ptr<char> alive = alive_;
    catchup_timer_ = cx_->vri->ScheduleEvent(0, [this, alive]() {
      if (alive.expired()) return;
      catchup_timer_ = 0;
      // Deliberately NOT floor-suppressed on swaps: owner records are the
      // join's durable lookup state (tuples still waiting to be matched),
      // not already-counted deltas — a swapped-in instance needs all of
      // them or old-side × new-side matches are silently lost.
      cx_->dht->LocalScan(ns_, [this](const ObjectName& name,
                                      std::string_view value, TimeUs) {
        ProcessOwnerRecord(name, value);
      });
    });
  }

  void ProcessBatch(int port, uint32_t, const TupleBatch& batch) override {
    const size_t n = batch.num_rows();
    stats_.consumed += n;
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
      cx_->dht->Send(ns_,
                     batch.ValueAt(r, static_cast<size_t>(key_idx))
                         .CanonicalString(),
                     cx_->NextSuffix(), rec.Encode(), cx_->query_lifetime);
    }
  }

  void Close() override {
    alive_.reset();
    cx_->dht->UnregisterUpcall(ns_);
    if (newdata_sub_) cx_->dht->CancelNewData(newdata_sub_);
    newdata_sub_ = 0;
    if (catchup_timer_) cx_->vri->CancelEvent(catchup_timer_);
    catchup_timer_ = 0;
    cache_.clear();
    cx_->dht->objects()->DropNamespace(ns_);
  }

  uint64_t early_results() const { return early_results_; }
  uint64_t owner_results() const { return owner_results_; }

  int64_t Metric(const std::string& name) const override {
    if (name == "early_results") return static_cast<int64_t>(early_results_);
    if (name == "owner_results") return static_cast<int64_t>(owner_results_);
    return -1;
  }

 private:
  /// Owner-side entry point: newdata and the catch-up scan can both see the
  /// same stored object, so dedup by object identity before joining.
  void ProcessOwnerRecord(const ObjectName& name, std::string_view value) {
    uint64_t id = HashCombine(Fnv1a64(name.key), Fnv1a64(name.suffix));
    if (!owner_seen_.insert(id).second) return;
    Result<JoinRecord> rec = JoinRecord::Decode(value);
    if (!rec.ok()) return;
    ProcessAtCache(name.key, *rec, /*at_owner=*/true);
  }

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
      joined_rows.Add(JoinTuples(l, r, out_table_, qualify_));
      if (at_owner) {
        owner_results_++;
      } else {
        early_results_++;
      }
      stats_.emitted++;
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
  bool qualify_ = false;
  /// join key -> per-side cached records.
  std::map<std::string, CacheSlot> cache_;
  std::unordered_set<uint64_t> owner_seen_;
  uint64_t newdata_sub_ = 0;
  uint64_t catchup_timer_ = 0;
  uint64_t early_results_ = 0;
  uint64_t owner_results_ = 0;
  std::shared_ptr<char> alive_;
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
