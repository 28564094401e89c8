// Aggregation operators (§3.3.4).
//
// GroupBy implements hash aggregation with distributive/algebraic functions
// (COUNT, SUM, MIN, MAX, AVG). Its groups live in a GroupTable, the grouping
// core it shares with HierAgg (qp/agg_state.h), so partials have one layout
// whether they are rehashed here or routed in-network. Three modes compose
// into multi-phase plans (the paper's bandwidth-reducing aggregation [62]):
//
//   mode=local    fold the local input, emit finals (default)
//   mode=partial  fold the local input, emit partials (source side)
//   mode=final    merge partials, emit finals (collector side)
//
// Aggregates are emitted on Flush(): once per window for continuous queries
// (tumbling by default); for snapshot queries once, at start + (s+1)·step for
// the graph's flush stage s, where step is timeout/4
// (QueryExecutor::ArmStageFlush).
//
// TopK implements ORDER BY <col> [DESC] LIMIT k at a collection point; PIER
// uses no distributed sort (§2.1.3), so TopK only ever runs over a stream
// that has already been funneled to one node (typically the proxy).

#include <algorithm>
#include <map>

#include "qp/agg_state.h"
#include "qp/dataflow.h"

namespace pier {

namespace {

class GroupByOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    PIER_ASSIGN_OR_RETURN(std::vector<AggSpec> aggs,
                          ParseAggSpecs(spec_.GetString("aggs")));
    if (aggs.empty()) return Status::InvalidArgument("groupby needs aggs");
    std::string mode = spec_.GetString("mode", "local");
    if (mode != "local" && mode != "partial" && mode != "final")
      return Status::InvalidArgument("bad groupby mode '" + mode + "'");
    merge_input_ = mode == "final";
    emit_partial_ = mode == "partial";
    tumbling_ = spec_.GetInt("tumbling", 1) != 0;
    out_table_ = spec_.GetString("table", "agg");
    groups_ = GroupTable(spec_.GetStrings("keys"), std::move(aggs));
    return Status::Ok();
  }

  void ProcessBatch(int, uint32_t, const TupleBatch& batch) override {
    stats_.consumed += batch.num_rows();
    if (merge_input_) {
      groups_.Merge(batch);
    } else {
      groups_.Fold(batch);
    }
  }

  void Flush() override {
    for (const TupleBatch& b : groups_.Emit(out_table_, emit_partial_))
      PushBatch(0, b);
    if (tumbling_) groups_.clear();
  }

  void OnClose() override { groups_.clear(); }

 private:
  bool merge_input_ = false;  // mode=final: input rows are partials
  bool emit_partial_ = false;  // mode=partial: emit partials, not finals
  bool tumbling_ = true;
  std::string out_table_;
  GroupTable groups_;
};

/// topk[k=10, col=cnt, desc=1]: buffer, sort on Flush, emit the top k.
class TopKOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    k_ = static_cast<size_t>(spec_.GetInt("k", 10));
    col_ = spec_.GetString("col");
    if (col_.empty()) return Status::InvalidArgument("topk needs col");
    desc_ = spec_.GetInt("desc", 1) != 0;
    dedup_cols_ = spec_.GetStrings("dedup");
    return Status::Ok();
  }

  void ProcessBatch(int, uint32_t, const TupleBatch& batch) override {
    const size_t n = batch.num_rows();
    stats_.consumed += n;
    if (batch.schema()->Index(col_) < 0) return;  // no sort column: discard
    for (size_t r = 0; r < n; ++r) {
      if (!dedup_cols_.empty()) {
        // Upstream re-emissions (refined aggregates) replace by group key;
        // the latest value for a group wins.
        by_key_[batch.RowPartitionKey(r, dedup_cols_)] = batch.RowTuple(r);
      } else {
        buf_.push_back(batch.RowTuple(r));
      }
    }
  }

  void Flush() override {
    std::vector<Tuple> rows;
    if (!dedup_cols_.empty()) {
      rows.reserve(by_key_.size());
      for (auto& [k, t] : by_key_) {
        (void)k;
        rows.push_back(t);
      }
    } else {
      rows = std::move(buf_);
      buf_.clear();
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [this](const Tuple& a, const Tuple& b) {
                       Result<int> c =
                           Value::Compare(*a.Get(col_), *b.Get(col_));
                       if (!c.ok()) return false;
                       return desc_ ? *c > 0 : *c < 0;
                     });
    size_t n = std::min(k_, rows.size());
    if (!dedup_cols_.empty() && !emitted_keys_.empty()) {
      // Re-flush after refinement: only emit if the answer set changed.
      std::vector<std::string> keys;
      for (size_t i = 0; i < n; ++i) keys.push_back(rows[i].PartitionKey(dedup_cols_));
      // (Values may change too; we re-emit whenever anything differs.)
      bool same = keys.size() == emitted_keys_.size();
      for (size_t i = 0; same && i < n; ++i) {
        same = keys[i] == emitted_keys_[i] && rows[i] == emitted_rows_[i];
      }
      if (same) return;
    }
    emitted_keys_.clear();
    emitted_rows_.clear();
    BatchAssembler batches;
    for (size_t i = 0; i < n; ++i) {
      batches.Add(rows[i]);
      if (!dedup_cols_.empty()) {
        emitted_keys_.push_back(rows[i].PartitionKey(dedup_cols_));
        emitted_rows_.push_back(rows[i]);
      }
    }
    for (const TupleBatch& b : batches.TakeBatches()) PushBatch(0, b);
  }

  void OnClose() override {
    buf_.clear();
    by_key_.clear();
  }

 private:
  size_t k_ = 10;
  std::string col_;
  bool desc_ = true;
  std::vector<std::string> dedup_cols_;
  std::vector<Tuple> buf_;
  std::map<std::string, Tuple> by_key_;
  std::vector<std::string> emitted_keys_;
  std::vector<Tuple> emitted_rows_;
};

}  // namespace

std::unique_ptr<Operator> MakeAggOperator(const OpSpec& spec) {
  switch (spec.kind) {
    case OpKind::kGroupBy: return std::make_unique<GroupByOp>(spec);
    case OpKind::kTopK: return std::make_unique<TopKOp>(spec);
    default: return nullptr;
  }
}

}  // namespace pier
