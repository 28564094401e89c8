// Relational operators: source, selection, projection, tee, union,
// duplicate elimination, queue, limit, control gate, materializer.
//
// All follow the best-effort policy (§3.3.4): a tuple that fails to evaluate
// (missing column, type mismatch) is silently discarded.

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "qp/dataflow.h"

namespace pier {
namespace {

/// Inline constant tuples, one per "tuple<i>" param (encoded). Used by tests
/// and examples as a trivial access method.
class SourceOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    BatchAssembler batches;
    for (int i = 0;; ++i) {
      std::string key = "tuple" + std::to_string(i);
      if (!spec_.Has(key)) break;
      PIER_ASSIGN_OR_RETURN(Tuple t, Tuple::Decode(spec_.GetString(key)));
      batches.Add(t);
    }
    batches_ = batches.TakeBatches();
    return Status::Ok();
  }

  void OnOpen() override {
    // Produce asynchronously: real access methods never emit inside Open.
    After(0, [this]() {
      for (const TupleBatch& b : batches_) PushBatch(0, b);
    });
  }

  void ProcessBatch(int, uint32_t, const TupleBatch&) override {}  // no inputs

 private:
  std::vector<TupleBatch> batches_;
};

/// selection[pred=<expr>]
class SelectionOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    PIER_ASSIGN_OR_RETURN(pred_, spec_.GetExpr("pred"));
    return Status::Ok();
  }

  void ProcessBatch(int, uint32_t tag, const TupleBatch& batch) override {
    const size_t n = batch.num_rows();
    std::vector<uint32_t> keep_rows;
    keep_rows.reserve(n);
    for (size_t r = 0; r < n; ++r) {
      Result<bool> keep = pred_->EvalPredicateRow(batch, r);
      if (keep.ok() && *keep) keep_rows.push_back(static_cast<uint32_t>(r));
    }
    if (keep_rows.size() == n) {
      PushBatch(tag, batch);
    } else if (!keep_rows.empty()) {
      PushBatch(tag, batch.Select(keep_rows));
    }
  }

 private:
  ExprPtr pred_;
};

/// projection[cols=a,b] or computed columns via expr params
/// ("out0=alias", "expr0=<expr>", "out1=...", ...).
class ProjectionOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    cols_ = spec_.GetStrings("cols");
    for (int i = 0;; ++i) {
      std::string out_key = "out" + std::to_string(i);
      std::string expr_key = "expr" + std::to_string(i);
      if (!spec_.Has(out_key) || !spec_.Has(expr_key)) break;
      PIER_ASSIGN_OR_RETURN(ExprPtr e, spec_.GetExpr(expr_key));
      computed_.push_back({spec_.GetString(out_key), std::move(e)});
    }
    if (cols_.empty() && computed_.empty())
      return Status::InvalidArgument("projection with nothing to project");
    out_table_ = spec_.GetString("table");
    return Status::Ok();
  }

  void ProcessBatch(int, uint32_t tag, const TupleBatch& batch) override {
    const BatchSchema& in = *batch.schema();
    // Resolve the projected columns once per batch (all rows share the
    // schema); missing columns are skipped, as in Tuple::Project.
    std::vector<int> keep;
    keep.reserve(cols_.size());
    for (const std::string& c : cols_) {
      int idx = in.Index(c);
      if (idx >= 0) keep.push_back(idx);
    }
    const size_t n = batch.num_rows();
    auto schema = std::make_shared<BatchSchema>();
    schema->table = out_table_.empty() ? in.table : out_table_;
    for (int idx : keep) schema->columns.push_back(in.columns[idx]);
    for (const auto& [name, expr] : computed_) schema->columns.push_back(name);
    if (schema->columns.empty()) {
      // Every projected column is missing: one column-less row per input
      // row. Such rows have no cells to delimit them, so they are counted.
      const Tuple empty_row(schema->table);
      TupleBatchBuilder out(std::move(schema));
      for (size_t r = 0; r < n; ++r) out.AppendTuple(empty_row);
      PushBatch(tag, out.Finish());
      return;
    }
    TupleBatchBuilder out(std::move(schema));
    std::vector<Value> computed_vals(computed_.size());
    for (size_t r = 0; r < n; ++r) {
      bool ok = true;
      for (size_t i = 0; i < computed_.size(); ++i) {
        Result<Value> v = computed_[i].second->EvalRow(batch, r);
        if (!v.ok()) {
          ok = false;  // best-effort: discard the whole row
          break;
        }
        computed_vals[i] = std::move(v).value();
      }
      if (!ok) continue;
      for (int idx : keep) {
        out.AppendCell(batch, batch.CellAt(r, static_cast<size_t>(idx)));
      }
      for (Value& v : computed_vals) out.AppendValue(v);
    }
    if (!out.empty()) PushBatch(tag, out.Finish());
  }

 private:
  std::vector<std::string> cols_;
  std::vector<std::pair<std::string, ExprPtr>> computed_;
  std::string out_table_;
};

/// Explicit tee: one input copied to every output edge.
class TeeOp : public Operator {
 public:
  using Operator::Operator;
  void ProcessBatch(int, uint32_t tag, const TupleBatch& batch) override {
    PushBatch(tag, batch);
  }
};

/// Union of any number of inputs (bag semantics; DupElim above for sets).
/// Optionally renames tuples onto one output table.
class UnionOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    out_table_ = spec_.GetString("table");
    return Status::Ok();
  }

  void ProcessBatch(int, uint32_t tag, const TupleBatch& batch) override {
    PushBatch(tag, out_table_.empty() ? batch : batch.WithTable(out_table_));
  }

 private:
  std::string out_table_;
};

/// Hash-based duplicate elimination on full tuple content (or on a column
/// subset via cols=...).
class DupElimOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    cols_ = spec_.GetStrings("cols");
    return Status::Ok();
  }

  void ProcessBatch(int, uint32_t tag, const TupleBatch& batch) override {
    const size_t n = batch.num_rows();
    std::vector<uint32_t> fresh_rows;
    fresh_rows.reserve(n);
    for (size_t r = 0; r < n; ++r) {
      // The dedup key is the whole row, or its projection onto `cols`.
      Tuple key = batch.RowTuple(r);
      if (!cols_.empty()) key = key.Project(cols_);
      auto [it, inserted] = seen_.try_emplace(key.Hash());
      // Hash collision check: only equal keys are duplicates.
      if (!inserted &&
          std::find(it->second.begin(), it->second.end(), key) !=
              it->second.end()) {
        continue;
      }
      it->second.push_back(std::move(key));
      fresh_rows.push_back(static_cast<uint32_t>(r));
    }
    if (fresh_rows.size() == n) {
      PushBatch(tag, batch);
    } else if (!fresh_rows.empty()) {
      PushBatch(tag, batch.Select(fresh_rows));
    }
  }

  void OnClose() override { seen_.clear(); }

 private:
  std::vector<std::string> cols_;
  std::unordered_map<uint64_t, std::vector<Tuple>> seen_;
};

/// Queue (§3.3.5): absorbs pushes and re-emits from a zero-delay timer so
/// deep dataflows yield the stack back to the Main Scheduler.
class QueueOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    max_size_ = static_cast<size_t>(spec_.GetInt("max_size", 1 << 16));
    return Status::Ok();
  }

  void ProcessBatch(int, uint32_t tag, const TupleBatch& batch) override {
    const size_t n = batch.num_rows();
    if (buffered_rows_ >= max_size_) {
      dropped_ += n;  // back-pressure by shedding, never by blocking
      return;
    }
    size_t take = std::min(n, max_size_ - buffered_rows_);
    dropped_ += n - take;
    // The batch is parked across events, so it must own its payloads (a
    // borrowed frame dies when this call returns).
    buf_.push_back(Item{tag, batch.Slice(0, take).EnsureOwned()});
    buffered_rows_ += take;
    Arm();
  }

  void Flush() override { Drain(); }

  void OnClose() override {
    buf_.clear();
    buffered_rows_ = 0;
  }

  int64_t Metric(const std::string& name) const override {
    if (name == "dropped") return static_cast<int64_t>(dropped_);
    return Operator::Metric(name);
  }

 private:
  struct Item {
    uint32_t tag;
    TupleBatch b;
  };

  void Arm() {
    if (timer_ == 0) timer_ = After(0, [this]() { Drain(); });
  }

  void Drain() {
    timer_ = 0;
    // Emit a bounded number of rows per activation, then yield again.
    size_t budget = 256;
    while (!buf_.empty() && budget > 0) {
      Item& front = buf_.front();
      if (front.b.num_rows() <= budget) {
        buffered_rows_ -= front.b.num_rows();
        budget -= front.b.num_rows();
        Item item = std::move(buf_.front());
        buf_.pop_front();
        PushBatch(item.tag, item.b);
      } else {
        TupleBatch head = front.b.Slice(0, budget);
        front.b = front.b.Slice(budget, front.b.num_rows() - budget);
        buffered_rows_ -= head.num_rows();
        budget = 0;
        PushBatch(front.tag, head);
      }
    }
    if (!buf_.empty()) Arm();
  }

  std::deque<Item> buf_;
  size_t max_size_ = 1 << 16;
  size_t buffered_rows_ = 0;
  uint64_t dropped_ = 0;
  uint64_t timer_ = 0;
};

/// limit[k=n]: pass the first k tuples, then ask the executor to stop the
/// query locally.
class LimitOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    k_ = spec_.GetInt("k", 10);
    return Status::Ok();
  }

  void ProcessBatch(int, uint32_t tag, const TupleBatch& batch) override {
    const size_t n = batch.num_rows();
    if (passed_ >= k_) return;
    size_t take = std::min(n, static_cast<size_t>(k_ - passed_));
    passed_ += static_cast<int64_t>(take);
    PushBatch(tag, take == n ? batch : batch.Slice(0, take));
    if (passed_ >= k_ && cx_->request_stop) cx_->request_stop();
  }

 private:
  int64_t k_ = 10;
  int64_t passed_ = 0;
};

/// Control flow manager (§3.3.4): a gate that, when built paused, buffers
/// the flow up to max_buffer rows (shedding the rest) and releases it on
/// each Flush, bounding in-flight work.
class ControlOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    paused_ = spec_.GetInt("paused", 0) != 0;
    max_buffer_ = static_cast<size_t>(spec_.GetInt("max_buffer", 4096));
    return Status::Ok();
  }

  void ProcessBatch(int, uint32_t tag, const TupleBatch& batch) override {
    const size_t n = batch.num_rows();
    if (!paused_) {
      PushBatch(tag, batch);
      return;
    }
    // Paused: park up to max_buffer rows (owned: they outlive this call) and
    // shed the rest.
    size_t take = std::min(n, max_buffer_ - buffered_rows_);
    if (take == 0) return;
    buf_.emplace_back(tag, batch.Slice(0, take).EnsureOwned());
    buffered_rows_ += take;
  }

  /// Release everything parked so far; the gate stays paused.
  void Flush() override {
    for (auto& [tag, b] : buf_) PushBatch(tag, b);
    buf_.clear();
    buffered_rows_ = 0;
  }

  void OnClose() override { buf_.clear(); }

 private:
  bool paused_ = false;
  size_t max_buffer_ = 4096;
  size_t buffered_rows_ = 0;
  std::deque<std::pair<uint32_t, TupleBatch>> buf_;
};

/// In-memory table materializer (§3.3.4): stores the input stream as a local
/// soft-state table in the DHT's object manager, making it visible to Scan
/// and FetchMatches on this node. Also passes tuples through.
class MaterializerOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    ns_ = spec_.GetString("ns");
    if (ns_.empty()) return Status::InvalidArgument("materializer needs ns");
    key_attrs_ = spec_.GetStrings("key");
    return Status::Ok();
  }

  void ProcessBatch(int, uint32_t tag, const TupleBatch& batch) override {
    const size_t n = batch.num_rows();
    for (size_t r = 0; r < n; ++r) {
      ObjectName name;
      name.ns = ns_;
      name.key = batch.RowPartitionKey(r, key_attrs_);
      name.suffix = cx_->dht->NextSuffix();
      cx_->dht->StoreLocal(std::move(name), batch.EncodeRow(r),
                           cx_->query_lifetime);
    }
    PushBatch(tag, batch);
  }

  void OnClose() override {
    if (spec_.GetInt("drop_on_close", 1) != 0)
      cx_->dht->objects()->DropNamespace(ns_);
  }

 private:
  std::string ns_;
  std::vector<std::string> key_attrs_;
};

}  // namespace

// Factory for this file's operators; the dispatcher lives in op_factory.cc.
std::unique_ptr<Operator> MakeRelationalOperator(const OpSpec& spec) {
  switch (spec.kind) {
    case OpKind::kSource: return std::make_unique<SourceOp>(spec);
    case OpKind::kSelection: return std::make_unique<SelectionOp>(spec);
    case OpKind::kProjection: return std::make_unique<ProjectionOp>(spec);
    case OpKind::kTee: return std::make_unique<TeeOp>(spec);
    case OpKind::kUnion: return std::make_unique<UnionOp>(spec);
    case OpKind::kDupElim: return std::make_unique<DupElimOp>(spec);
    case OpKind::kQueue: return std::make_unique<QueueOp>(spec);
    case OpKind::kLimit: return std::make_unique<LimitOp>(spec);
    case OpKind::kControl: return std::make_unique<ControlOp>(spec);
    case OpKind::kMaterializer: return std::make_unique<MaterializerOp>(spec);
    default: return nullptr;
  }
}

}  // namespace pier
