#include "overlay/pht.h"

#include <algorithm>

#include "util/wire.h"

namespace pier {

Pht::Pht(Dht* dht, Options options) : dht_(dht), options_(options) {}

std::string Pht::Label(uint64_t key, int len) const {
  std::string s;
  s.reserve(len);
  for (int i = 0; i < len; ++i) {
    int bit = static_cast<int>((key >> (options_.key_bits - 1 - i)) & 1);
    s.push_back(bit ? '1' : '0');
  }
  return s;
}

void Pht::LabelRange(const std::string& label, uint64_t* lo,
                     uint64_t* hi) const {
  uint64_t base = 0;
  for (char c : label) base = (base << 1) | (c == '1' ? 1 : 0);
  int rest = options_.key_bits - static_cast<int>(label.size());
  *lo = rest >= 64 ? 0 : (base << rest);
  *hi = (*lo) | (rest >= 64 ? ~0ULL : ((1ULL << rest) - 1));
}

std::string Pht::EncodeItem(uint64_t key, std::string_view value,
                            TimeUs lifetime) const {
  WireWriter w;
  w.PutU64(key);
  w.PutBytes(value);
  w.PutVarint(static_cast<uint64_t>(lifetime));
  return std::move(w).data();
}

Result<PhtItem> Pht::DecodeItem(std::string_view wire) {
  WireReader r(wire);
  PhtItem item;
  std::string_view value;
  PIER_RETURN_IF_ERROR(r.GetU64(&item.key));
  PIER_RETURN_IF_ERROR(r.GetBytes(&value));
  item.value = std::string(value);
  uint64_t lifetime = 0;
  if (r.GetVarint(&lifetime).ok())
    item.lifetime = static_cast<TimeUs>(lifetime);
  return item;
}

void Pht::Probe(const std::string& label,
                std::function<void(NodeKind, std::vector<DhtItem>)> cb) {
  dht_->Get(options_.table, label,
            [cb = std::move(cb)](const Status& s, std::vector<DhtItem> items) {
              if (!s.ok() || items.empty()) {
                cb(NodeKind::kAbsent, {});
                return;
              }
              // The interior marker dominates: once a node has split it
              // can never be a leaf again, regardless of what else a racing
              // insert wrote here.
              for (const auto& item : items) {
                if (item.suffix == kMetaInterior) {
                  cb(NodeKind::kInterior, std::move(items));
                  return;
                }
              }
              // Leaf marker, or data with no marker (split race): a leaf.
              cb(NodeKind::kLeaf, std::move(items));
            });
}

void Pht::FindLeaf(uint64_t key,
                   std::function<void(const Result<std::string>&)> cb) {
  // Binary search on prefix length: leaves are the frontier between
  // interior nodes (above) and absent nodes (below).
  struct State {
    Pht* self;
    uint64_t key;
    int lo, hi;  // candidate prefix length range
    std::function<void(const Result<std::string>&)> cb;
  };
  auto state = std::make_shared<State>();
  state->self = this;
  state->key = key;
  state->lo = 0;
  state->hi = options_.key_bits;
  state->cb = std::move(cb);

  // The closure must not hold a strong reference to its own function object
  // (that cycle leaks); the chain stays alive through the local ref below
  // and the copy inside each in-flight Probe callback.
  auto step = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_step = step;
  *step = [state, weak_step]() {
    auto step = weak_step.lock();
    if (!step) return;
    if (state->lo > state->hi) {
      // Nothing found: the trie is empty; the root is the (implicit) leaf.
      state->cb(std::string(""));
      return;
    }
    int mid = (state->lo + state->hi) / 2;
    std::string label = state->self->Label(state->key, mid);
    state->self->Probe(label, [state, step, mid, label](NodeKind kind,
                                                        std::vector<DhtItem>) {
      switch (kind) {
        case NodeKind::kLeaf:
          state->cb(label);
          return;
        case NodeKind::kInterior:
          state->lo = mid + 1;
          (*step)();
          return;
        case NodeKind::kAbsent:
          if (mid == 0) {
            // Empty trie: root acts as the leaf.
            state->cb(std::string(""));
            return;
          }
          state->hi = mid - 1;
          (*step)();
          return;
      }
    });
  };
  (*step)();
}

void Pht::Insert(uint64_t key, std::string value, DoneCallback done,
                 TimeUs lifetime) {
  if (lifetime <= 0) lifetime = options_.lifetime;
  // The suffix is minted exactly once per logical item; every re-insertion
  // (split redistribution, interior-rescue) reuses it, so copies of the same
  // item replace each other at whatever label they land on.
  FindLeafAndInsert(key, std::move(value), dht_->NextSuffix(), std::move(done),
                    lifetime);
}

void Pht::FindLeafAndInsert(uint64_t key, std::string value,
                            std::string suffix, DoneCallback done,
                            TimeUs lifetime) {
  FindLeaf(key, [this, key, value = std::move(value),
                 suffix = std::move(suffix), done = std::move(done),
                 lifetime](const Result<std::string>& leaf) mutable {
    if (!leaf.ok()) {
      if (done) done(leaf.status());
      return;
    }
    InsertAtLeaf(leaf.value(), key, std::move(value), std::move(suffix),
                 std::move(done), lifetime);
  });
}

void Pht::InsertAtLeaf(const std::string& label, uint64_t key,
                       std::string value, std::string suffix,
                       DoneCallback done, TimeUs lifetime) {
  // Write the item, ensure the leaf's meta marker exists, then check for
  // overflow. The structural marker must not expire before the item.
  TimeUs marker_lifetime = std::max(options_.lifetime, lifetime);
  dht_->Put(options_.table, label, suffix, EncodeItem(key, value, lifetime),
            lifetime,
            [this, label, key, value, suffix, done = std::move(done),
             lifetime, marker_lifetime](const Status& s) mutable {
              if (!s.ok()) {
                if (done) done(s);
                return;
              }
              dht_->Put(options_.table, label, kMetaLeaf, "L",
                        marker_lifetime, nullptr);
              // Overflow check.
              Probe(label, [this, label, key, value = std::move(value),
                            suffix = std::move(suffix), done = std::move(done),
                            lifetime](NodeKind kind,
                                      std::vector<DhtItem> items) mutable {
                if (kind == NodeKind::kInterior) {
                  // The leaf split under us; our copy sits on an interior node
                  // where lookups cannot see it. Re-insert at the current leaf
                  // with the same suffix — idempotent against the splitter's
                  // own redistribution of the copy it may have seen.
                  FindLeafAndInsert(key, std::move(value), std::move(suffix),
                                    std::move(done), lifetime);
                  return;
                }
                size_t data_count = 0;
                for (const auto& item : items)
                  if (!IsMetaSuffix(item.suffix)) data_count++;
                if (kind == NodeKind::kLeaf &&
                    data_count > static_cast<size_t>(options_.bucket_size) &&
                    static_cast<int>(label.size()) < options_.key_bits &&
                    !splitting_.count(label)) {
                  splitting_.insert(label);
                  SplitLeaf(label, std::move(items),
                            [this, label, done = std::move(done)](
                                const Status& s) {
                              splitting_.erase(label);
                              if (done) done(s);
                            });
                } else {
                  if (done) done(Status::Ok());
                }
              });
            });
}

void Pht::SplitLeaf(const std::string& label, std::vector<DhtItem> items,
                    DoneCallback done) {
  // Mark this node interior, create the two children as leaves, and
  // redistribute the items. The parent's stale data objects age out via soft
  // state (the DHT has no remote delete, by design).
  dht_->Put(options_.table, label, kMetaInterior, "I", options_.lifetime,
            nullptr);
  dht_->Put(options_.table, label + "0", kMetaLeaf, "L", options_.lifetime,
            nullptr);
  dht_->Put(options_.table, label + "1", kMetaLeaf, "L", options_.lifetime,
            nullptr);
  auto remaining = std::make_shared<int>(0);
  auto finished = std::make_shared<bool>(false);
  auto finish = [done = std::move(done), finished](const Status& s) {
    if (*finished) return;
    *finished = true;
    if (done) done(s);
  };
  struct Redistributed {
    PhtItem item;
    std::string suffix;  // preserved so re-insertion replaces, not duplicates
  };
  std::vector<Redistributed> data;
  for (auto& item : items) {
    if (IsMetaSuffix(item.suffix)) continue;
    auto decoded = DecodeItem(item.value);
    if (decoded.ok())
      data.push_back({std::move(decoded).value(), std::move(item.suffix)});
  }
  if (data.empty()) {
    finish(Status::Ok());
    return;
  }
  *remaining = static_cast<int>(data.size());
  for (auto& d : data) {
    // Re-insert one level deeper (handles recursive splits), keeping the
    // item's original suffix and its publisher-requested lease (a split
    // renews the lease for that original duration — soft-state republish).
    TimeUs item_lifetime =
        d.item.lifetime > 0 ? d.item.lifetime : options_.lifetime;
    InsertAtLeaf(Label(d.item.key, static_cast<int>(label.size()) + 1),
                 d.item.key, std::move(d.item.value), std::move(d.suffix),
                 [remaining, finish](const Status& s) {
                   (void)s;
                   if (--*remaining == 0) finish(Status::Ok());
                 },
                 item_lifetime);
  }
}

void Pht::LookupKey(uint64_t key, ItemsCallback cb) {
  FindLeaf(key, [this, key, cb = std::move(cb)](
                    const Result<std::string>& leaf) {
    if (!leaf.ok()) {
      cb(leaf.status(), {});
      return;
    }
    dht_->Get(options_.table, leaf.value(),
              [key, cb](const Status& s, std::vector<DhtItem> items) {
                if (!s.ok()) {
                  cb(s, {});
                  return;
                }
                std::vector<PhtItem> out;
                for (const auto& item : items) {
                  if (IsMetaSuffix(item.suffix)) continue;
                  auto decoded = DecodeItem(item.value);
                  if (decoded.ok() && decoded->key == key)
                    out.push_back(std::move(decoded).value());
                }
                cb(Status::Ok(), std::move(out));
              });
  });
}

void Pht::RangeQuery(uint64_t lo, uint64_t hi, ItemsCallback cb) {
  auto acc = std::make_shared<std::vector<PhtItem>>();
  auto outstanding = std::make_shared<int>(1);
  auto shared_cb = std::make_shared<ItemsCallback>(std::move(cb));
  CollectRange("", lo, hi, acc, outstanding, shared_cb);
}

void Pht::CollectRange(const std::string& label, uint64_t lo, uint64_t hi,
                       std::shared_ptr<std::vector<PhtItem>> acc,
                       std::shared_ptr<int> outstanding,
                       std::shared_ptr<ItemsCallback> cb) {
  // The last step of the walk to finish sorts and answers.
  auto finish_step = [acc, outstanding, cb]() {
    if (--*outstanding != 0) return;
    std::sort(acc->begin(), acc->end(),
              [](const PhtItem& a, const PhtItem& b) { return a.key < b.key; });
    (*cb)(Status::Ok(), std::move(*acc));
  };
  uint64_t node_lo, node_hi;
  LabelRange(label, &node_lo, &node_hi);
  if (node_hi < lo || node_lo > hi) {
    finish_step();
    return;
  }
  Probe(label, [this, label, lo, hi, acc, outstanding, cb, finish_step](
                   NodeKind kind, std::vector<DhtItem> items) {
    if (kind == NodeKind::kInterior &&
        static_cast<int>(label.size()) < options_.key_bits) {
      *outstanding += 2;
      CollectRange(label + "0", lo, hi, acc, outstanding, cb);
      CollectRange(label + "1", lo, hi, acc, outstanding, cb);
    } else if (kind == NodeKind::kLeaf) {
      for (const auto& item : items) {
        if (IsMetaSuffix(item.suffix)) continue;
        auto decoded = DecodeItem(item.value);
        if (decoded.ok() && decoded->key >= lo && decoded->key <= hi) {
          acc->push_back(std::move(decoded).value());
        }
      }
    }
    finish_step();
  });
}

}  // namespace pier
