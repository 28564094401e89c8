// Join operators (§3.3.4): Symmetric Hash join [71], Fetch Matches join [44],
// and the Bloom-join building blocks (§2.1.1).
//
// Symmetric-hash state lives in the DHT's local object manager rather than a
// private hashtable — the paper's "Operator State" use of the overlay
// (§3.3.6) — so join state is soft state like everything else.
//
// Fetch Matches is the distributed index join: each outer tuple triggers a
// DHT get against the inner table's primary index ("each call to the index is
// like disseminating a small single-table subquery", §3.3.3).

#include <memory>

#include "qp/dataflow.h"
#include "qp/join_common.h"
#include "util/bloom.h"

namespace pier {

namespace {

/// shjoin[l_key=?, r_key=?, table=?, pred=<residual>]
/// Port 0 is the left input, port 1 the right. Alternatively, with
/// l_table/r_table set, a single mixed input (the usual rehash namespace) is
/// split by each tuple's self-described table name — the common shape after
/// a DHT rendezvous, where both sides arrive through one newdata scan.
class SymHashJoinOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    l_key_ = spec_.GetString("l_key");
    r_key_ = spec_.GetString("r_key");
    if (l_key_.empty() || r_key_.empty())
      return Status::InvalidArgument("shjoin needs l_key and r_key");
    out_table_ = spec_.GetString("table", "join");
    l_table_ = spec_.GetString("l_table");
    r_table_ = spec_.GetString("r_table");
    if (spec_.Has("pred")) {
      PIER_ASSIGN_OR_RETURN(residual_, spec_.GetExpr("pred"));
    }
    std::string base = cx_->QueryNs("g" + std::to_string(cx_->graph_id) +
                                    ".op" + std::to_string(spec_.id));
    ns_[0] = base + ".l";
    ns_[1] = base + ".r";
    return Status::Ok();
  }

  void ProcessBatch(int port, uint32_t tag, const TupleBatch& batch) override {
    const size_t n = batch.num_rows();
    const BatchSchema& in = *batch.schema();
    if (!l_table_.empty()) {
      // Mixed-stream mode: the whole batch shares one self-described table,
      // so the batch routes to one side in a single comparison.
      if (in.table == l_table_) {
        port = 0;
      } else if (in.table == r_table_) {
        port = 1;
      } else {
        return;  // neither side: discard (best effort)
      }
    }
    if (port != 0 && port != 1) return;
    const std::string& key_col = port == 0 ? l_key_ : r_key_;
    const int key_idx = in.Index(key_col);
    if (key_idx < 0) return;  // best-effort discard
    const int other = 1 - port;
    BatchAssembler joined_rows;
    for (size_t r = 0; r < n; ++r) {
      std::string k = batch.ValueAt(r, static_cast<size_t>(key_idx))
                          .CanonicalString();
      // Store this side's row without materializing a Tuple: EncodeRow is
      // byte-identical to Tuple::Encode of the row.
      ObjectName name;
      name.ns = ns_[port];
      name.key = k;
      name.suffix = cx_->dht->NextSuffix();
      cx_->dht->StoreLocal(std::move(name), batch.EncodeRow(r),
                           cx_->query_lifetime);
      auto matches = cx_->dht->objects()->Get(ns_[other], k);
      if (matches.empty()) continue;
      Tuple t = batch.RowTuple(r);  // materialize only on a probe hit
      for (const ObjectManager::Row* row : matches) {
        Result<Tuple> o = Tuple::Decode(row->second.value);
        if (!o.ok()) continue;
        const Tuple& l = port == 0 ? t : *o;
        const Tuple& rt = port == 0 ? *o : t;
        Tuple joined = JoinTuples(l, rt, out_table_);
        if (residual_) {
          Result<bool> keep = residual_->EvalPredicate(joined);
          if (!keep.ok() || !*keep) continue;
        }
        joined_rows.Add(joined);
      }
    }
    for (const TupleBatch& b : joined_rows.TakeBatches()) PushBatch(tag, b);
  }

  void OnClose() override {
    cx_->dht->objects()->DropNamespace(ns_[0]);
    cx_->dht->objects()->DropNamespace(ns_[1]);
  }

 private:
  std::string l_key_, r_key_, out_table_;
  std::string l_table_, r_table_;
  ExprPtr residual_;
  std::string ns_[2];
};

/// fmjoin[table=?, key_expr=<expr over outer>, pred=?, table_out=?,
/// raw_key=0|1]
/// The inner relation must be published into the DHT with its join attribute
/// as partitioning key; `key` computes the outer tuple's lookup value.
/// raw_key=1 means key_expr yields an already-formatted partition-key string
/// (a secondary index's base-tuple locator, §3.3.3) to use verbatim.
class FetchMatchesOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    inner_table_ = spec_.GetString("table");
    if (inner_table_.empty())
      return Status::InvalidArgument("fmjoin needs table");
    PIER_ASSIGN_OR_RETURN(key_expr_, spec_.GetExpr("key_expr"));
    out_table_ = spec_.GetString("table_out", "join");
    raw_key_ = spec_.GetInt("raw_key", 0) != 0;
    if (spec_.Has("pred")) {
      PIER_ASSIGN_OR_RETURN(residual_, spec_.GetExpr("pred"));
    }
    return Status::Ok();
  }

  void ProcessBatch(int, uint32_t tag, const TupleBatch& batch) override {
    const size_t n = batch.num_rows();
    for (size_t r = 0; r < n; ++r) {
      // Evaluate the lookup key against the batch row; the outer tuple is
      // materialized only once the key is known good (the common discard —
      // a failed key eval — never allocates).
      Result<Value> key = key_expr_->EvalRow(batch, r);
      if (!key.ok()) continue;
      std::string k;
      if (raw_key_) {
        // The key column already holds a full partition-key string.
        Result<std::string_view> s = key->AsString();
        if (!s.ok()) continue;
        k = std::string(*s);
      } else {
        // Must match Tuple::PartitionKey's single-attribute format.
        k = key->CanonicalString() + "|";
      }
      Lookup(tag, batch.RowTuple(r), std::move(k));
    }
  }

 private:
  void Lookup(uint32_t tag, Tuple t, std::string k) {
    Get(inner_table_, k,
        [this, tag, outer = std::move(t)](const Status& s,
                                          std::vector<DhtItem> items) {
          if (!s.ok()) return;
          // One batch per DHT reply: every match of this outer row.
          BatchAssembler joined_rows;
          for (const DhtItem& item : items) {
            Result<Tuple> inner = Tuple::Decode(item.value);
            if (!inner.ok()) continue;
            Tuple joined = JoinTuples(outer, *inner, out_table_);
            if (residual_) {
              Result<bool> keep = residual_->EvalPredicate(joined);
              if (!keep.ok() || !*keep) continue;
            }
            joined_rows.Add(joined);
          }
          for (const TupleBatch& b : joined_rows.TakeBatches())
            PushBatch(tag, b);
        });
  }

  std::string inner_table_, out_table_;
  ExprPtr key_expr_;
  ExprPtr residual_;
  bool raw_key_ = false;
};

/// bloomcreate[col=?, ns=?, bits=?]: fold the input column into a Bloom
/// filter (kHashes hash functions); on Flush, put the filter to the owner of
/// ("<ns>", "filter"), one message per contributing node. The owner merges
/// every arrival into ONE object, so probers fetch a few kilobytes, not N.
class BloomCreateOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    col_ = spec_.GetString("col");
    ns_ = spec_.GetString("ns");
    if (col_.empty() || ns_.empty())
      return Status::InvalidArgument("bloomcreate needs col and ns");
    size_t bits = static_cast<size_t>(spec_.GetInt("bits", 8192));
    filter_ = std::make_unique<BloomFilter>(bits, kHashes);

    // Owner-side merging: filters that reach the rendezvous owner are
    // merged into ONE object (the partials are removed locally), so probers
    // fetch a single filter no matter how many nodes contributed.
    Subscribe(ns_, [this](const ObjectName& name, std::string_view value) {
      if (name.suffix == kMergedSuffix) return;
      Result<BloomFilter> f = BloomFilter::Deserialize(value);
      if (!f.ok()) return;
      if (!owner_merged_) {
        owner_merged_ = std::make_unique<BloomFilter>(std::move(*f));
      } else if (!owner_merged_->Merge(*f).ok()) {
        return;
      }
      cx_->dht->objects()->Remove(name);
      ObjectName merged;
      merged.ns = name.ns;
      merged.key = name.key;
      merged.suffix = kMergedSuffix;
      cx_->dht->StoreLocal(std::move(merged), owner_merged_->Serialize(),
                           cx_->query_lifetime);
    });
    return Status::Ok();
  }

  void ProcessBatch(int, uint32_t, const TupleBatch& batch) override {
    const size_t n = batch.num_rows();
    const int idx = batch.schema()->Index(col_);
    if (idx < 0) return;  // best-effort discard
    for (size_t r = 0; r < n; ++r) {
      filter_->Add(
          batch.ValueAt(r, static_cast<size_t>(idx)).CanonicalString());
    }
    added_ += n;
  }

  void Flush() override {
    if (added_ == 0 && flushed_) return;  // nothing new to report
    flushed_ = true;
    added_ = 0;
    Put({DhtPutItem{ns_, "filter", cx_->dht->NextSuffix(), filter_->Serialize(),
                    cx_->query_lifetime, cx_->replicas}});
  }

 private:
  static constexpr const char* kMergedSuffix = "!merged";
  static constexpr int kHashes = 4;

  std::string col_, ns_;
  std::unique_ptr<BloomFilter> filter_;
  std::unique_ptr<BloomFilter> owner_merged_;  // rendezvous-owner merge
  uint64_t added_ = 0;
  bool flushed_ = false;
};

/// bloomprobe[col=?, ns=?]: buffer batches until the published filter is
/// fetched (one get against the rendezvous key, on the graph's first Flush:
/// a snapshot plan stages the probe's graph after its build's, so the build
/// side has flushed by then), then let only probable matches through. Fails
/// open: if no filter comes back, everything passes.
class BloomProbeOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    col_ = spec_.GetString("col");
    ns_ = spec_.GetString("ns");
    if (col_.empty() || ns_.empty())
      return Status::InvalidArgument("bloomprobe needs col and ns");
    return Status::Ok();
  }

  void ProcessBatch(int, uint32_t tag, const TupleBatch& batch) override {
    if (!ready_) {
      buf_.emplace_back(tag, batch.EnsureOwned());  // outlives this call
      return;
    }
    Probe(tag, batch);
  }

  void Flush() override {
    if (fetching_) return;
    fetching_ = true;
    Get(ns_, "filter", [this](const Status&, std::vector<DhtItem> items) {
      for (const DhtItem& item : items) {
        Result<BloomFilter> f = BloomFilter::Deserialize(item.value);
        if (!f.ok()) continue;
        if (!filter_) {
          filter_ = std::make_unique<BloomFilter>(std::move(*f));
        } else {
          filter_->Merge(*f).ok();  // geometry mismatch: skip
        }
      }
      ready_ = true;
      for (auto& [tag, b] : buf_) Probe(tag, b);
      buf_.clear();
    });
  }

  void OnClose() override { buf_.clear(); }

 private:
  /// Pass the rows that may match (all of them without a filter).
  void Probe(uint32_t tag, const TupleBatch& batch) {
    const int idx = batch.schema()->Index(col_);
    if (idx < 0) return;  // best-effort discard
    if (!filter_) {
      PushBatch(tag, batch);
      return;
    }
    const size_t n = batch.num_rows();
    std::vector<uint32_t> pass;
    pass.reserve(n);
    for (size_t r = 0; r < n; ++r) {
      if (filter_->MayContain(
              batch.ValueAt(r, static_cast<size_t>(idx)).CanonicalString())) {
        pass.push_back(static_cast<uint32_t>(r));
      }
    }
    if (pass.size() == n) {
      PushBatch(tag, batch);
    } else if (!pass.empty()) {
      PushBatch(tag, batch.Select(pass));
    }
  }

  std::string col_, ns_;
  bool fetching_ = false;
  bool ready_ = false;
  std::unique_ptr<BloomFilter> filter_;
  std::vector<std::pair<uint32_t, TupleBatch>> buf_;
};

}  // namespace

Tuple JoinTuples(const Tuple& l, const Tuple& r,
                 const std::string& out_table) {
  Tuple out(out_table);
  for (const Column& c : l.columns()) out.Append(c.name, c.value);
  for (const Column& c : r.columns()) {
    if (!out.Has(c.name)) out.Append(c.name, c.value);
  }
  return out;
}

std::unique_ptr<Operator> MakeJoinOperator(const OpSpec& spec) {
  switch (spec.kind) {
    case OpKind::kSymHashJoin: return std::make_unique<SymHashJoinOp>(spec);
    case OpKind::kFetchMatches: return std::make_unique<FetchMatchesOp>(spec);
    case OpKind::kBloomCreate: return std::make_unique<BloomCreateOp>(spec);
    case OpKind::kBloomProbe: return std::make_unique<BloomProbeOp>(spec);
    default: return nullptr;
  }
}

}  // namespace pier
