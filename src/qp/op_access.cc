// Access methods and DHT-facing operators (§3.3.1, §3.3.6):
//
//   scan      one access method under two names. scan[ns=<table>] reads a
//   newdata   base table, newdata[ns=<name>] the consuming half of a DHT
//             rendezvous between opgraphs; both deliver every object of the
//             namespace on this node exactly once — what is stored when the
//             graph arrives, then each later arrival — through the base
//             Operator's catch-up feed (§3.3.4, No Global Synchronization).
//   put       the Exchange: repartitions tuples by value by publishing them
//             into the DHT under a partitioning key (§3.3.6).
//   result    the result handler: forwards answer batches to the proxy.

#include "qp/dataflow.h"

namespace pier {
namespace {

/// scan[ns=?] / newdata[ns=?]: decode the catch-up feed's objects into
/// tuple batches; malformed objects are dropped (best effort). A swapped-in
/// plan's feed skips what its predecessor generation already counted (the
/// context's catch-up floor) — base tables and rendezvous namespaces alike,
/// since the latter are keyed by query id and outlive generations. (For a
/// JOIN rendezvous this trades lost old-side matches for no re-emitted ones;
/// the replanner only swaps when the strategy changes, which abandons the
/// old namespace anyway.)
class ScanOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    if (spec_.GetString("ns").empty())
      return Status::InvalidArgument(std::string(OpKindName(spec_.kind)) +
                                     " needs ns");
    return Status::Ok();
  }

  void OnOpen() override {
    CatchUp(spec_.GetString("ns"), cx_->catchup_floor_us,
            [this](const std::vector<FeedItem>& group) {
              BatchAssembler batches;
              for (const FeedItem& item : group) {
                if (batches.AddEncoded(item.value).ok()) stats_.consumed++;
              }
              for (const TupleBatch& b : batches.TakeBatches()) PushBatch(0, b);
            });
  }

  void ProcessBatch(int, uint32_t, const TupleBatch&) override {}  // no inputs
};

/// put[ns=<name>, key=<attrs>]: the distributed Exchange. Each tuple is
/// published into the DHT partitioned by its key attributes: the DHT resolves
/// the owner (from the router's owner cache once warm) and stores there with
/// one direct message (Figure 6). Operators that need upcalls en route
/// (hierarchical aggregation and join, the Bloom operators) call Dht::Send
/// themselves.
class PutOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    ns_ = spec_.GetString("ns");
    if (ns_.empty()) return Status::InvalidArgument("put needs ns");
    key_attrs_ = spec_.GetStrings("key");
    lifetime_ = spec_.GetInt("lifetime_ms", 0) * kMillisecond;
    if (lifetime_ <= 0) lifetime_ = cx_->query_lifetime;
    return Status::Ok();
  }

  void ProcessBatch(int, uint32_t, const TupleBatch& batch) override {
    const size_t n = batch.num_rows();
    stats_.consumed += n;
    // Rows are keyed/encoded straight off the batch cells and ship as one
    // PutBatch, which the DHT groups into one wire frame per destination.
    std::vector<DhtPutItem> items;
    items.reserve(n);
    for (size_t r = 0; r < n; ++r) {
      DhtPutItem item;
      item.ns = ns_;
      item.key = batch.RowPartitionKey(r, key_attrs_);
      item.suffix = cx_->NextSuffix();
      item.value = batch.EncodeRow(r);
      item.lifetime = lifetime_;
      item.replicas = cx_->replicas;
      MeterNet(1, item.value.size());
      if (cx_->observe_publish) {
        cx_->observe_publish(ns_, key_attrs_, batch.RowTuple(r),
                             item.value.size());
      }
      items.push_back(std::move(item));
    }
    if (!items.empty()) cx_->dht->PutBatch(std::move(items));
    stats_.emitted += n;
  }

 private:
  std::string ns_;
  std::vector<std::string> key_attrs_;
  TimeUs lifetime_ = 0;
};

/// result: forward every input batch to the query's proxy node (§3.3.2).
class ResultOp : public Operator {
 public:
  using Operator::Operator;

  void ProcessBatch(int, uint32_t, const TupleBatch& batch) override {
    const size_t n = batch.num_rows();
    stats_.consumed += n;
    if (!cx_->emit_result) return;
    cx_->emit_result(batch);
    stats_.emitted += n;
  }
};

}  // namespace

std::unique_ptr<Operator> MakeAccessOperator(const OpSpec& spec) {
  switch (spec.kind) {
    case OpKind::kScan:
    case OpKind::kNewData: return std::make_unique<ScanOp>(spec);
    case OpKind::kPut: return std::make_unique<PutOp>(spec);
    case OpKind::kResult: return std::make_unique<ResultOp>(spec);
    default: return nullptr;
  }
}

}  // namespace pier
