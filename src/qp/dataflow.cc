#include "qp/dataflow.h"

#include <unordered_set>

#include "util/hash.h"

namespace pier {

void QueryMeter::EncodeTo(WireWriter* w) const {
  w->PutU8(1);  // cost-block marker
  w->PutVarint(costs_.size());
  for (const auto& [key, cost] : costs_) {
    w->PutVarint(key.first);
    w->PutVarint(key.second);
    w->PutVarint(cost.tuples_in);
    w->PutVarint(cost.tuples_out);
    w->PutVarint(cost.msgs);
    w->PutVarint(cost.bytes);
  }
}

bool QueryMeter::DecodeSnapshot(WireReader* r, std::map<Key, OpCost>* out) {
  uint8_t marker = 0;
  if (r->AtEnd() || !r->GetU8(&marker).ok() || marker != 1) return false;
  uint64_t n = 0;
  if (!r->GetVarint(&n).ok() || n > 4096) return false;
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t graph_id = 0, op_id = 0;
    OpCost c;
    if (!r->GetVarint32(&graph_id).ok() || !r->GetVarint32(&op_id).ok() ||
        !r->GetVarint(&c.tuples_in).ok() || !r->GetVarint(&c.tuples_out).ok() ||
        !r->GetVarint(&c.msgs).ok() || !r->GetVarint(&c.bytes).ok())
      return false;
    (*out)[{graph_id, op_id}] = c;
  }
  return true;
}

/// Everything an operator acquired through the base helpers. Close releases
/// it all; the record itself lives until the operator is destroyed, so a
/// callback already on the stack when Close runs never loses its closure.
struct Operator::Resources {
  std::vector<std::pair<uint64_t, uint64_t>> timers;  // (handle, event token)
  uint64_t last_timer = 0;
  std::vector<uint64_t> subs;        // newData subscription tokens
  std::vector<std::string> upcalls;  // intercepted namespaces
  std::shared_ptr<char> alive;       // expires the pending Get replies
  // The catch-up feed.
  FeedFn feed;
  std::unordered_set<uint64_t> seen;  // object identities delivered so far
  uint64_t suppressed = 0;

  /// True the first time an object identity is offered.
  bool Admit(const ObjectName& name) {
    return seen.insert(HashCombine(Fnv1a64(name.key), Fnv1a64(name.suffix)))
        .second;
  }
};

Operator::Operator(const OpSpec& spec) : spec_(spec) {}

Operator::~Operator() { Release(); }

Operator::Resources& Operator::res() {
  if (!res_) res_ = std::make_unique<Resources>();
  return *res_;
}

void Operator::Open() {
  if (opened_) return;
  opened_ = true;
  for (Operator* c : children_) c->Open();
  OnOpen();
}

void Operator::Close() {
  if (closed_) return;
  closed_ = true;
  Release();
  OnClose();
}

void Operator::Release() {
  if (!res_) return;
  for (const auto& [handle, token] : res_->timers) cx_->vri->CancelEvent(token);
  res_->timers.clear();
  for (uint64_t sub : res_->subs) cx_->dht->CancelNewData(sub);
  res_->subs.clear();
  for (const std::string& ns : res_->upcalls) cx_->dht->UnregisterUpcall(ns);
  res_->upcalls.clear();
  res_->alive.reset();
}

int64_t Operator::Metric(const std::string& name) const {
  if (name == "suppressed" && res_ && res_->feed)
    return static_cast<int64_t>(res_->suppressed);
  return -1;
}

void Operator::PushBatch(uint32_t tag, const TupleBatch& batch) {
  const uint64_t n = batch.num_rows();
  if (n == 0) return;
  if (cost_ != nullptr) cost_->tuples_out += n;
  if (outputs_.size() == 1) {
    Operator* out = outputs_[0].first;
    if (out->cost_ != nullptr) out->cost_->tuples_in += n;
    out->ProcessBatch(outputs_[0].second, tag, batch);
    return;
  }
  for (auto& [op, port] : outputs_) {
    if (op->cost_ != nullptr) op->cost_->tuples_in += n;
    op->ProcessBatch(port, tag, batch);  // shares cells: Tee semantics
  }
}

void Operator::Put(std::vector<DhtPutItem> items) {
  if (items.empty()) return;
  if (cost_ != nullptr) {
    cost_->msgs += items.size();
    for (const DhtPutItem& item : items) cost_->bytes += item.value.size();
  }
  cx_->dht->PutBatch(std::move(items));
}

void Operator::Send(const std::string& ns, const std::string& key,
                    std::string value) {
  if (cost_ != nullptr) {
    cost_->msgs++;
    cost_->bytes += value.size();
  }
  cx_->dht->Send(ns, key, cx_->dht->NextSuffix(), std::move(value),
                 cx_->query_lifetime);
}

void Operator::Get(const std::string& ns, const std::string& key,
                   Dht::GetCallback cb) {
  if (cost_ != nullptr) {
    cost_->msgs++;
    cost_->bytes += ns.size() + key.size();
  }
  Resources& r = res();
  if (!r.alive && !closed_) r.alive = std::make_shared<char>(1);
  cx_->dht->Get(ns, key,
                [alive = std::weak_ptr<char>(r.alive), cb = std::move(cb)](
                    const Status& s, std::vector<DhtItem> items) {
                  if (!alive.expired()) cb(s, std::move(items));
                });
}

uint64_t Operator::After(TimeUs delay, std::function<void()> cb) {
  if (closed_) return 0;
  Resources& r = res();
  const uint64_t handle = ++r.last_timer;
  uint64_t token = cx_->vri->ScheduleEvent(
      delay, [this, handle, cb = std::move(cb)]() {
        auto& timers = res_->timers;
        for (size_t i = 0; i < timers.size(); ++i) {
          if (timers[i].first != handle) continue;
          timers[i] = timers.back();
          timers.pop_back();
          break;
        }
        cb();
      });
  r.timers.emplace_back(handle, token);
  return handle;
}

void Operator::CancelTimer(uint64_t handle) {
  if (!res_ || handle == 0) return;
  auto& timers = res_->timers;
  for (size_t i = 0; i < timers.size(); ++i) {
    if (timers[i].first != handle) continue;
    cx_->vri->CancelEvent(timers[i].second);
    timers[i] = timers.back();
    timers.pop_back();
    return;
  }
}

void Operator::Subscribe(const std::string& ns, Dht::NewDataHandler handler) {
  res().subs.push_back(cx_->dht->OnNewData(ns, std::move(handler)));
}

void Operator::Intercept(const std::string& ns,
                         OverlayRouter::UpcallHandler handler) {
  cx_->dht->RegisterUpcall(ns, std::move(handler));
  res().upcalls.push_back(ns);
}

void Operator::CatchUp(const std::string& ns, TimeUs floor, FeedFn fn) {
  Resources& r = res();
  r.feed = std::move(fn);
  r.subs.push_back(cx_->dht->OnNewDataBatch(
      ns, [this](const std::vector<Dht::NewDataEvent>& events) {
        std::vector<FeedItem> group;
        group.reserve(events.size());
        for (const Dht::NewDataEvent& ev : events) {
          if (res_->Admit(ev.name)) group.push_back({&ev.name, ev.value});
        }
        if (!group.empty()) res_->feed(group);
      }));
  After(0, [this, ns, floor]() {
    std::vector<FeedItem> group;
    cx_->dht->LocalScan(ns, [this, floor, &group](const ObjectName& name,
                                                  std::string_view value,
                                                  TimeUs stored_at) {
      if (floor > 0 && stored_at < floor) {
        res_->suppressed++;
        return;
      }
      if (res_->Admit(name)) group.push_back({&name, value});
    });
    if (!group.empty()) res_->feed(group);
  });
}

}  // namespace pier
