// Aggregation operators (§3.3.4).
//
// GroupBy implements hash aggregation with distributive/algebraic functions
// (COUNT, SUM, MIN, MAX, AVG). Three modes compose into multi-phase plans
// (the paper's bandwidth-reducing aggregation [62]):
//
//   mode=local    complete aggregation of the local input (default)
//   mode=partial  emit mergeable partial-state tuples (source side)
//   mode=final    merge partial-state tuples and emit finals (collector side)
//
// Aggregates are emitted on Flush(): once near the timeout for snapshot
// queries, per window for continuous ones (tumbling by default).
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
    keys_ = spec_.GetStrings("keys");
    PIER_ASSIGN_OR_RETURN(aggs_, ParseAggSpecs(spec_.GetString("aggs")));
    if (aggs_.empty()) return Status::InvalidArgument("groupby needs aggs");
    std::string mode = spec_.GetString("mode", "local");
    if (mode == "local") {
      mode_ = Mode::kLocal;
    } else if (mode == "partial") {
      mode_ = Mode::kPartial;
    } else if (mode == "final") {
      mode_ = Mode::kFinal;
    } else {
      return Status::InvalidArgument("bad groupby mode '" + mode + "'");
    }
    tumbling_ = spec_.GetInt("tumbling", 1) != 0;
    out_table_ = spec_.GetString("table", "agg");
    return Status::Ok();
  }

  void ProcessBatch(int, uint32_t, const TupleBatch& batch) override {
    const size_t n = batch.num_rows();
    stats_.consumed += n;
    const BatchSchema& in = *batch.schema();
    // Resolve key and aggregate columns once per batch. A key column the
    // schema lacks discards every row (they all share the schema).
    std::vector<int> key_idx(keys_.size());
    for (size_t i = 0; i < keys_.size(); ++i) {
      key_idx[i] = in.Index(keys_[i]);
      if (key_idx[i] < 0) return;  // best-effort discard of the whole batch
    }
    std::vector<int> agg_idx(aggs_.size());
    for (size_t i = 0; i < aggs_.size(); ++i) {
      agg_idx[i] = aggs_[i].col.empty() ? -1 : in.Index(aggs_[i].col);
    }
    for (size_t r = 0; r < n; ++r) {
      // RowPartitionKey over the (all-present) keys is the canonical-string
      // group key.
      Group& g = groups_[batch.RowPartitionKey(r, keys_)];
      if (g.states.empty()) {
        Tuple kt(in.table);
        for (size_t i = 0; i < keys_.size(); ++i) {
          kt.Append(keys_[i],
                    batch.ValueAt(r, static_cast<size_t>(key_idx[i])));
        }
        g.key_tuple = std::move(kt);
        g.states.resize(aggs_.size());
      }
      if (mode_ == Mode::kFinal) {
        // Merge the row's partial-state columns, aggregate by aggregate; an
        // aggregate whose columns are absent or malformed is skipped.
        Tuple t = batch.RowTuple(r);
        for (size_t i = 0; i < aggs_.size(); ++i) {
          AggState incoming;
          if (incoming.FromPartialColumns(t, aggs_[i].alias))
            g.states[i].Merge(incoming);
        }
        continue;
      }
      for (size_t i = 0; i < aggs_.size(); ++i) {
        bool present = agg_idx[i] >= 0;
        g.states[i].UpdateValue(
            aggs_[i],
            present ? batch.ValueAt(r, static_cast<size_t>(agg_idx[i]))
                    : Value::Null(),
            present);
      }
    }
  }

  void Flush() override {
    // Window flushes leave as batches: groups (in deterministic map order)
    // are assembled into same-schema runs and pushed batch-at-a-time.
    BatchAssembler batches;
    for (auto& [gk, g] : groups_) {
      (void)gk;
      Tuple out(out_table_);
      for (const Column& c : g.key_tuple.columns()) out.Append(c.name, c.value);
      for (size_t i = 0; i < aggs_.size(); ++i) {
        if (mode_ == Mode::kPartial) {
          g.states[i].ToPartialColumns(aggs_[i].alias, &out);
        } else {
          out.Append(aggs_[i].alias, g.states[i].Finalize(aggs_[i].func));
        }
      }
      batches.Add(out);
    }
    for (const TupleBatch& b : batches.TakeBatches()) PushBatch(0, b);
    if (tumbling_) groups_.clear();
  }

  void Close() override { groups_.clear(); }

 private:
  enum class Mode { kLocal, kPartial, kFinal };

  struct Group {
    Tuple key_tuple;
    std::vector<AggState> states;
  };

  std::vector<std::string> keys_;
  std::vector<AggSpec> aggs_;
  Mode mode_ = Mode::kLocal;
  bool tumbling_ = true;
  std::string out_table_;
  // Ordered map: deterministic emission order across runs.
  std::map<std::string, Group> groups_;
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

  void Close() override {
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
