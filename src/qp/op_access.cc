// Access methods and DHT-facing operators (§3.3.1, §3.3.6):
//
//   scan      localScan of a DHT namespace on this node, with "catch-up":
//             tuples that arrive after the scan are delivered via newData
//             (§3.3.4, No Global Synchronization).
//   newdata   pure subscription to a namespace (rendezvous consumer).
//   put       the Exchange: repartitions tuples by value by publishing them
//             into the DHT under a partitioning key (§3.3.6).
//   result    the result handler: forwards answer batches to the proxy.

#include <unordered_set>

#include "qp/dataflow.h"
#include "util/hash.h"
#include "util/logging.h"

namespace pier {
namespace {

/// scan[ns=<table>, watch=0|1]: deliver every local tuple of a namespace.
/// The access method decodes stored objects into tuples; malformed objects
/// are dropped (best effort).
class ScanOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    ns_ = spec_.GetString("ns");
    if (ns_.empty()) return Status::InvalidArgument("scan needs ns");
    watch_ = spec_.GetInt("watch", 1) != 0;
    floor_ = cx->catchup_floor_us;
    return Status::Ok();
  }

  void OnOpen() override {
    // Subscribe before scanning so nothing falls between the two. The batch
    // subscription delivers a multi-object put frame as one grouped call and
    // a single store as a one-element group.
    if (watch_) {
      sub_ = cx_->dht->OnNewDataBatch(
          ns_, [this](const std::vector<Dht::NewDataEvent>& events) {
            DeliverBatch(events);
          });
    }
    timer_ = cx_->vri->ScheduleEvent(0, [this]() {
      timer_ = 0;
      // The catch-up scan honors the swap-time high-water mark: objects the
      // predecessor generation already counted are skipped, not re-emitted.
      // The newData subscription above is untouched — it only ever sees
      // stores later than this instant. Survivors are assembled into
      // batches and pushed downstream batch-at-a-time.
      BatchAssembler batches;
      size_t rows = 0;
      cx_->dht->LocalScan(
          ns_, [this, &batches, &rows](const ObjectName& name,
                                       std::string_view value,
                                       TimeUs stored_at) {
            if (floor_ > 0 && stored_at < floor_) {
              suppressed_++;
              return;
            }
            if (!Admit(name)) return;
            if (!batches.AddEncoded(value).ok()) {
              malformed_++;
              return;
            }
            rows++;
          });
      stats_.consumed += rows;
      for (const TupleBatch& b : batches.TakeBatches()) PushBatch(0, b);
    });
  }

  void ProcessBatch(int, uint32_t, const TupleBatch&) override {}  // no inputs

  void Close() override {
    if (sub_) cx_->dht->CancelNewData(sub_);
    sub_ = 0;
    if (timer_) cx_->vri->CancelEvent(timer_);
    timer_ = 0;
  }

  int64_t Metric(const std::string& name) const override {
    if (name == "suppressed") return static_cast<int64_t>(suppressed_);
    return -1;
  }

 private:
  /// Scan + watch can see the same object twice (stored mid-scan); dedup by
  /// the object's *identity* (key + suffix), never by content — distinct
  /// publishers legitimately produce byte-identical tuples.
  bool Admit(const ObjectName& name) {
    uint64_t h = HashCombine(Fnv1a64(name.key), Fnv1a64(name.suffix));
    return seen_.insert(h).second;
  }

  void DeliverBatch(const std::vector<Dht::NewDataEvent>& events) {
    BatchAssembler batches;
    size_t rows = 0;
    for (const Dht::NewDataEvent& ev : events) {
      if (!Admit(ev.name)) continue;
      if (!batches.AddEncoded(ev.value).ok()) {
        malformed_++;
        continue;
      }
      rows++;
    }
    stats_.consumed += rows;
    for (const TupleBatch& b : batches.TakeBatches()) PushBatch(0, b);
  }

  std::string ns_;
  bool watch_ = true;
  uint64_t sub_ = 0;
  uint64_t timer_ = 0;
  uint64_t malformed_ = 0;
  uint64_t suppressed_ = 0;
  TimeUs floor_ = 0;
  std::unordered_set<uint64_t> seen_;
};

/// newdata[ns=<name>]: subscription only — the consuming half of a DHT
/// rendezvous between opgraphs. With catchup=1 it also scans objects that
/// arrived before the graph reached this node (§3.3.4: operators must be
/// able to "catch up" because there is no global synchronization).
class NewDataOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    ns_ = spec_.GetString("ns");
    if (ns_.empty()) return Status::InvalidArgument("newdata needs ns");
    catchup_ = spec_.GetInt("catchup", 1) != 0;
    floor_ = cx->catchup_floor_us;
    return Status::Ok();
  }

  void OnOpen() override {
    sub_ = cx_->dht->OnNewDataBatch(
        ns_, [this](const std::vector<Dht::NewDataEvent>& events) {
          DeliverBatch(events);
        });
    if (catchup_) {
      timer_ = cx_->vri->ScheduleEvent(0, [this]() {
        timer_ = 0;
        // Rendezvous namespaces outlive plan generations (they are keyed by
        // query id), so a swapped-in consumer's catch-up must skip the
        // partials its predecessor already folded — same high-water mark as
        // the base-table scan. (For JOIN rendezvous this trades lost
        // old-side matches for no re-emitted ones; the replanner only swaps
        // when the strategy changes, which abandons the old namespace
        // anyway, so the trade only bites hand-driven same-shape swaps.)
        BatchAssembler batches;
        size_t rows = 0;
        cx_->dht->LocalScan(
            ns_, [this, &batches, &rows](const ObjectName& name,
                                         std::string_view value,
                                         TimeUs stored_at) {
              if (floor_ > 0 && stored_at < floor_) {
                suppressed_++;
                return;
              }
              if (!Admit(name)) return;
              if (!batches.AddEncoded(value).ok()) return;
              rows++;
            });
        stats_.consumed += rows;
        for (const TupleBatch& b : batches.TakeBatches()) PushBatch(0, b);
      });
    }
  }

  void ProcessBatch(int, uint32_t, const TupleBatch&) override {}  // no inputs

  void Close() override {
    if (sub_) cx_->dht->CancelNewData(sub_);
    sub_ = 0;
    if (timer_) cx_->vri->CancelEvent(timer_);
    timer_ = 0;
  }

  int64_t Metric(const std::string& name) const override {
    if (name == "suppressed") return static_cast<int64_t>(suppressed_);
    return -1;
  }

 private:
  bool Admit(const ObjectName& name) {
    uint64_t h = HashCombine(Fnv1a64(name.key), Fnv1a64(name.suffix));
    return seen_.insert(h).second;
  }

  void DeliverBatch(const std::vector<Dht::NewDataEvent>& events) {
    BatchAssembler batches;
    size_t rows = 0;
    for (const Dht::NewDataEvent& ev : events) {
      if (!Admit(ev.name)) continue;
      if (!batches.AddEncoded(ev.value).ok()) continue;
      rows++;
    }
    stats_.consumed += rows;
    for (const TupleBatch& b : batches.TakeBatches()) PushBatch(0, b);
  }

  std::string ns_;
  bool catchup_ = true;
  uint64_t sub_ = 0;
  uint64_t timer_ = 0;
  uint64_t suppressed_ = 0;
  TimeUs floor_ = 0;
  std::unordered_set<uint64_t> seen_;
};

/// put[ns=<name>, key=<attrs>, mode=put|send]: the distributed Exchange.
/// Each tuple is published into the DHT partitioned by its key attributes;
/// mode=send routes hop-by-hop (enabling upcall-based in-network processing),
/// mode=put resolves the owner (from the router's owner cache once warm) and
/// stores there with one direct message (Figure 6).
class PutOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    ns_ = spec_.GetString("ns");
    if (ns_.empty()) return Status::InvalidArgument("put needs ns");
    key_attrs_ = spec_.GetStrings("key");
    use_send_ = spec_.GetString("mode", "put") == "send";
    lifetime_ = spec_.GetInt("lifetime_ms", 0) * kMillisecond;
    if (lifetime_ <= 0) lifetime_ = cx_->query_lifetime;
    return Status::Ok();
  }

  void ProcessBatch(int, uint32_t, const TupleBatch& batch) override {
    const size_t n = batch.num_rows();
    stats_.consumed += n;
    // Rows are keyed/encoded straight off the batch cells. mode=put ships
    // them as one PutBatch, which the DHT groups into one wire frame per
    // destination; mode=send routes each object hop-by-hop on its own (the
    // upcalls along the path see every object).
    std::vector<DhtPutItem> items;
    if (!use_send_) items.reserve(n);
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
      if (use_send_) {
        cx_->dht->Send(ns_, item.key, item.suffix, std::move(item.value),
                       lifetime_);
      } else {
        items.push_back(std::move(item));
      }
    }
    if (!items.empty()) cx_->dht->PutBatch(std::move(items));
    stats_.emitted += n;
  }

 private:
  std::string ns_;
  std::vector<std::string> key_attrs_;
  bool use_send_ = false;
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
    case OpKind::kScan: return std::make_unique<ScanOp>(spec);
    case OpKind::kNewData: return std::make_unique<NewDataOp>(spec);
    case OpKind::kPut: return std::make_unique<PutOp>(spec);
    case OpKind::kResult: return std::make_unique<ResultOp>(spec);
    default: return nullptr;
  }
}

}  // namespace pier
