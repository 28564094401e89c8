#include "overlay/dht.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/wire.h"

namespace pier {

Dht::Dht(Vri* vri, Options options) : vri_(vri), options_(options) {
  router_ = std::make_unique<OverlayRouter>(vri_, options_.router);
  objects_ = std::make_unique<ObjectManager>(vri_);
  // A factor the protocol cannot place is a deployment error: fail at
  // startup, not silently at placement time.
  PIER_CHECK(options_.replication_factor >= 1);
  PIER_CHECK(options_.replication_factor <=
             router_->protocol()->MaxReplicationFactor());
  repl_ = std::make_unique<ReplicationManager>(vri_, router_.get(),
                                               objects_.get());

  router_->set_delivery_handler(
      [this](const RouteInfo& info, std::string_view payload) {
        HandleRoutedDelivery(info, payload);
      });
  router_->RegisterDirectType(
      kMsgStore,
      [this](const NetAddress& f, std::string_view b) { HandleStore(f, b); });
  router_->RegisterDirectType(kMsgRenewReq, [this](const NetAddress& f, std::string_view b) {
    HandleRenewReq(f, b);
  });
  router_->RegisterDirectType(kMsgRenewResp, [this](const NetAddress& f, std::string_view b) {
    HandleRenewResp(f, b);
  });
  router_->RegisterDirectType(kMsgGetReqEx, [this](const NetAddress& f, std::string_view b) {
    HandleGetReqEx(f, b);
  });
  router_->RegisterDirectType(kMsgGetRespEx, [this](const NetAddress& f, std::string_view b) {
    HandleGetRespEx(f, b);
  });
}

Dht::~Dht() {
  for (auto& [id, op] : pending_) {
    (void)id;
    vri_->CancelEvent(op.timer);
    vri_->CancelEvent(op.hedge_timer);
  }
}

// ---------------------------------------------------------------------------
// Wire helpers
// ---------------------------------------------------------------------------

void Dht::EncodeObjectTo(WireWriter* w, const ObjectName& name, TimeUs lifetime,
                         std::string_view value) {
  w->PutBytes(name.ns);
  w->PutBytes(name.key);
  w->PutBytes(name.suffix);
  w->PutVarint(static_cast<uint64_t>(lifetime));
  w->PutBytes(value);
}

std::string Dht::EncodeObject(const ObjectName& name, TimeUs lifetime,
                              std::string_view value) {
  WireWriter w;
  EncodeObjectTo(&w, name, lifetime, value);
  return std::move(w).data();
}

Status Dht::DecodeObjectFrom(WireReader* r, WireObjectView* out) {
  uint64_t lifetime;
  PIER_RETURN_IF_ERROR(r->GetBytes(&out->ns));
  PIER_RETURN_IF_ERROR(r->GetBytes(&out->key));
  PIER_RETURN_IF_ERROR(r->GetBytes(&out->suffix));
  PIER_RETURN_IF_ERROR(r->GetVarint(&lifetime));
  PIER_RETURN_IF_ERROR(r->GetBytes(&out->value));
  out->lifetime = static_cast<TimeUs>(lifetime);
  return Status::Ok();
}

Result<Dht::WireObject> Dht::DecodeObject(std::string_view wire) {
  WireReader r(wire);
  WireObjectView v;
  PIER_RETURN_IF_ERROR(DecodeObjectFrom(&r, &v));
  WireObject obj;
  obj.name.ns = std::string(v.ns);
  obj.name.key = std::string(v.key);
  obj.name.suffix = std::string(v.suffix);
  obj.lifetime = v.lifetime;
  obj.value = std::string(v.value);
  return obj;
}

WireWriter Dht::FrameStore(uint8_t replica_index, StoreOrigin origin,
                          size_t count) {
  WireWriter w = OverlayRouter::FrameMessage(kMsgStore);
  w.PutU8(replica_index);
  w.PutU8(static_cast<uint8_t>(origin));
  w.PutVarint(count);
  return w;
}

void Dht::EncodeStoreObject(WireWriter* w, const ObjectName& name,
                            TimeUs lifetime, TimeUs age,
                            uint8_t desired_replicas, std::string_view value) {
  EncodeObjectTo(w, name, lifetime, value);
  w->PutVarint(static_cast<uint64_t>(std::max<TimeUs>(age, 0)));
  w->PutU8(desired_replicas);
}

// ---------------------------------------------------------------------------
// Inter-node operations
// ---------------------------------------------------------------------------

int Dht::EffectiveReplicas(int replicas) const {
  int k = replicas > 0 ? replicas : options_.replication_factor;
  return std::min(k, max_replication_factor());
}

void Dht::Put(const std::string& ns, const std::string& key, const std::string& suffix,
              std::string&& value, TimeUs lifetime, DoneCallback done,
              int replicas) {
  std::vector<DhtPutItem> items;
  items.push_back(
      DhtPutItem{ns, key, suffix, std::move(value), lifetime, replicas});
  BatchCallback report = nullptr;
  if (done) {
    report = [done = std::move(done)](const Status& first,
                                      std::vector<PutGroupStatus>) {
      done(first);
    };
  }
  PutBatch(std::move(items), std::move(report));
}

void Dht::SendToOwner(Id target, std::shared_ptr<const OwnerSend> send,
                      DoneCallback done, bool may_retry) {
  router_->Lookup(
      target, [this, target, send = std::move(send), done = std::move(done),
               may_retry](const Result<OverlayRouter::Owner>& owner) mutable {
    if (!owner.ok()) {
      if (done) done(owner.status());
      return;
    }
    if (!owner->cached || !may_retry) {
      (*send)(*owner, std::move(done));
      return;
    }
    (*send)(*owner, [this, target, send,
                     done = std::move(done)](const Status& s) mutable {
      if (s.ok()) {
        if (done) done(s);
        return;
      }
      // The cached owner is unreachable. The failed delivery evicted its
      // entry, so this resolve goes over the overlay.
      SendToOwner(target, std::move(send), std::move(done), false);
    });
  });
}

void Dht::PutBatch(std::vector<DhtPutItem> items, BatchCallback done) {
  if (items.empty()) {
    if (done) done(Status::Ok(), {});
    return;
  }
  stats_.puts += items.size();
  ShipBatch(std::make_shared<std::vector<DhtPutItem>>(std::move(items)),
            std::move(done), /*may_retry=*/true);
}

void Dht::ShipBatch(std::shared_ptr<std::vector<DhtPutItem>> batch,
                    BatchCallback done, bool may_retry) {
  // Group the batch by routing id first — entries sharing a (ns, key) share
  // an owner and need only one Lookup between them; order inside each group
  // follows batch order.
  std::map<Id, std::vector<size_t>> by_id;
  for (size_t i = 0; i < batch->size(); ++i)
    by_id[RoutingId((*batch)[i].ns, (*batch)[i].key)].push_back(i);

  // Shared completion state: the owners arrive asynchronously, one Lookup
  // per distinct id; once all resolved, one wire message goes to each
  // distinct destination. Every group's outcome is kept — a partial failure
  // (one dead owner in a multi-owner batch) reports exactly which items
  // were dropped rather than only the first error.
  struct OwnerGroup {
    std::vector<size_t> indices;
    bool cached = false;  // resolved from the owner cache
  };
  struct BatchState {
    std::map<NetAddress, OwnerGroup> by_owner;
    std::vector<PutGroupStatus> groups;
    size_t pending_lookups = 0;
    size_t pending_sends = 0;
    Status first_error = Status::Ok();
    BatchCallback done;

    void NoteError(const Status& s) {
      if (!s.ok() && first_error.ok()) first_error = s;
    }
    void FinishIfIdle() {
      if (pending_lookups > 0 || pending_sends > 0) return;
      if (done) {
        BatchCallback cb = std::move(done);
        done = nullptr;
        cb(first_error, std::move(groups));
      }
    }
  };
  auto st = std::make_shared<BatchState>();
  st->pending_lookups = by_id.size();
  st->done = std::move(done);

  auto ship = [this, st, batch, may_retry]() {
    // All lookups resolved: one message per destination (chunked at the
    // frame cap the receiver enforces). All sends are registered before the
    // first one goes out, so a synchronously-failing send cannot complete
    // the batch while later chunks are still unsent.
    std::map<NetAddress, OwnerGroup> owners;
    owners.swap(st->by_owner);
    struct Frame {
      size_t group;  // index into st->groups
      NetAddress dest;
      std::string wire;
      bool retry = false;  // a failed delivery is retried once
    };
    std::vector<Frame> frames;
    for (auto& [owner, og] : owners) {
      const std::vector<size_t>& indices = og.indices;
      for (size_t start = 0; start < indices.size();
           start += kMaxStoreObjectsPerFrame) {
        size_t n = std::min(kMaxStoreObjectsPerFrame, indices.size() - start);
        // One status group PER WIRE FRAME (an oversized destination chunks
        // into several), so a lost chunk reports exactly its own items as
        // dropped, never its sibling chunks' delivered ones.
        size_t group = st->groups.size();
        st->groups.push_back(PutGroupStatus{
            owner,
            std::vector<size_t>(indices.begin() + start,
                                indices.begin() + start + n),
            Status::Ok()});
        // The owner takes the chunk in one store frame (index 0: stored and
        // announced as newData, each with its desired factor, which the
        // owner places at its successors).
        WireWriter w = FrameStore(0, StoreOrigin::kWrite, n);
        for (size_t j = start; j < start + n; ++j) {
          const DhtPutItem& it = (*batch)[indices[j]];
          EncodeStoreObject(
              &w, ObjectName{it.ns, it.key, it.suffix},
              EffectiveLifetime(it.lifetime), 0,
              static_cast<uint8_t>(EffectiveReplicas(it.replicas)), it.value);
        }
        if (n > 1) {
          stats_.batched_puts += n;
          stats_.batch_msgs++;
        }
        frames.push_back(
            Frame{group, owner, std::move(w).data(), may_retry && og.cached});
      }
    }
    st->pending_sends = frames.size();
    for (Frame& f : frames) {
      size_t group = f.group;
      std::shared_ptr<std::vector<DhtPutItem>> retry_items =
          f.retry ? batch : nullptr;
      router_->SendFramed(f.dest, std::move(f.wire),
                          [this, st, group, retry_items](const Status& s) {
        if (!s.ok() && retry_items) {
          // The owner came from the owner cache and is gone (the failure
          // evicted it): send this group's items again once, resolved over
          // the overlay, and report their outcome as this group's.
          auto again = std::make_shared<std::vector<DhtPutItem>>();
          for (size_t idx : st->groups[group].indices)
            again->push_back((*retry_items)[idx]);
          ShipBatch(std::move(again),
                    [st, group](const Status& first,
                                std::vector<PutGroupStatus> sub) {
                      PutGroupStatus& g = st->groups[group];
                      g.status = first;
                      if (!sub.empty()) g.owner = sub.front().owner;
                      st->NoteError(first);
                      st->pending_sends--;
                      st->FinishIfIdle();
                    },
                    /*may_retry=*/false);
          return;
        }
        st->NoteError(s);
        if (!s.ok()) st->groups[group].status = s;
        st->pending_sends--;
        st->FinishIfIdle();
      });
    }
    st->FinishIfIdle();
  };

  for (auto& [id, indices] : by_id) {
    router_->Lookup(
        id, [st, ship, indices = std::move(indices)](
                const Result<OverlayRouter::Owner>& owner) {
          if (owner.ok()) {
            OwnerGroup& g = st->by_owner[owner->address];
            g.indices.insert(g.indices.end(), indices.begin(), indices.end());
            g.cached = g.cached || owner->cached;
          } else {
            // The whole group is undeliverable: no owner could be resolved.
            st->NoteError(owner.status());
            st->groups.push_back(
                PutGroupStatus{NetAddress{}, indices, owner.status()});
          }
          if (--st->pending_lookups == 0) ship();
        });
  }
}

void Dht::Send(const std::string& ns, const std::string& key,
               const std::string& suffix, std::string value, TimeUs lifetime) {
  stats_.sends++;
  ObjectName name{ns, key, suffix};
  router_->Route(ns, name.routing_id(), EncodeObject(name, lifetime, value));
}

void Dht::SendToId(Id target, const std::string& ns, const std::string& key,
                   const std::string& suffix, std::string value,
                   TimeUs lifetime) {
  stats_.sends++;
  ObjectName name{ns, key, suffix};
  router_->Route(ns, target, EncodeObject(name, lifetime, value));
}

void Dht::Get(const std::string& ns, const std::string& key, GetCallback cb) {
  Get(ns, key, std::move(cb), 0);
}

void Dht::Get(const std::string& ns, const std::string& key, GetCallback cb,
              int replicas) {
  stats_.gets++;
  Id target = RoutingId(ns, key);
  int k = EffectiveReplicas(replicas);
  uint64_t op_id = next_op_id_++;
  PendingOp op;
  op.get_cb = std::move(cb);
  op.ns = ns;
  op.key = key;
  op.replicas = k;
  op.timer = vri_->ScheduleEvent(kOpTimeout, [this, op_id]() {
    FinishOp(op_id, Status::TimedOut("dht get timed out"));
  });
  pending_[op_id] = std::move(op);

  // Read-any: ask the owner, then walk on to the next holder until one
  // answers with data. The owner is asked through SendToOwner, so a dead
  // cached owner is re-resolved once before the walk moves on.
  SendToOwner(
      target,
      std::make_shared<const OwnerSend>(
          [this, op_id](const OverlayRouter::Owner& owner,
                        DoneCallback report) {
            auto it = pending_.find(op_id);
            // Finished, or an owner that answered let the walk move on.
            if (it == pending_.end() || it->second.attempt > 0) return;
            PendingOp& op = it->second;
            op.candidates.assign(1, owner);
            // A cached owner may have died before any failure showed; UdpCC
            // would only give up on it after its full retry schedule.
            if (owner.cached && op.hedge_timer == 0) {
              op.hedge_timer =
                  vri_->ScheduleEvent(kOpTimeout / 4,
                                      [this, op_id]() { HedgeGet(op_id); });
            }
            SendGetAttempt(op_id, std::move(report));
          }),
      [this, op_id](const Status& s) {
        if (!s.ok()) AdvanceGet(op_id, 0, s);
      });
}

void Dht::HedgeGet(uint64_t op_id) {
  auto it = pending_.find(op_id);
  // The owner already answered empty or failed: the walk moved on.
  if (it == pending_.end() || it->second.attempt > 0) return;
  const OverlayRouter::Owner quiet = it->second.candidates[0];
  router_->EvictOwner(quiet.id, quiet.address);
  router_->Lookup(
      RoutingId(it->second.ns, it->second.key),
      [this, op_id, quiet](const Result<OverlayRouter::Owner>& owner) {
        auto it = pending_.find(op_id);
        if (it == pending_.end() || it->second.attempt > 0) return;
        if (!owner.ok()) {
          // The lookup was lost in the same hole (a ring still routing
          // through the dead owner): resolve again.
          it->second.hedge_timer =
              vri_->ScheduleEvent(0, [this, op_id]() { HedgeGet(op_id); });
          return;
        }
        if (owner->address == quiet.address) return;  // alive, only slow
        // Ask the resolved owner as attempt 0; whichever copy answers with
        // data first finishes the get.
        it->second.candidates.assign(1, *owner);
        SendGetAttempt(op_id, [this, op_id](const Status& s) {
          if (!s.ok()) AdvanceGet(op_id, 0, s);
        });
      });
}

void Dht::FinishOp(uint64_t op_id, const Status& status,
                   std::vector<DhtItem> items) {
  auto it = pending_.find(op_id);
  if (it == pending_.end()) return;
  PendingOp op = std::move(it->second);
  pending_.erase(it);
  vri_->CancelEvent(op.timer);
  vri_->CancelEvent(op.hedge_timer);
  if (op.get_cb) op.get_cb(status, std::move(items));
  if (op.done_cb) op.done_cb(status);
}

void Dht::SendGetAttempt(uint64_t op_id, DoneCallback report) {
  auto it = pending_.find(op_id);
  if (it == pending_.end()) return;
  PendingOp& op = it->second;
  size_t attempt = op.attempt;
  WireWriter w = OverlayRouter::FrameMessage(kMsgGetReqEx);
  w.PutVarint(op_id);
  w.PutBytes(op.ns);
  w.PutBytes(op.key);
  w.PutU8(static_cast<uint8_t>(attempt));
  router_->SendFramed(op.candidates[attempt].address, std::move(w).data(),
                      std::move(report));
}

void Dht::AdvanceGet(uint64_t op_id, size_t attempt, const Status& outcome) {
  auto it = pending_.find(op_id);
  if (it == pending_.end()) return;
  PendingOp& op = it->second;
  if (op.attempt != attempt) return;  // already moved on
  op.replied = op.replied || outcome.ok();
  // Every candidate is empty or unreachable. An empty reply is an honest
  // empty result; only a get that no candidate answered fails.
  const Status result = op.replied ? Status::Ok() : outcome;
  if (op.candidates.empty() ||
      op.candidates.size() >= static_cast<size_t>(op.replicas)) {
    FinishOp(op_id, result);
    return;
  }
  // The walk moves on now, so a hedge or a late reply for `attempt` is moot
  // while the next holder resolves: the owner of the id just past the last
  // candidate's, its successor on the ring. A ring smaller than k comes
  // back around.
  const size_t next = ++op.attempt;
  router_->Lookup(
      op.candidates.back().id + 1,
      [this, op_id, next, result](const Result<OverlayRouter::Owner>& owner) {
        auto it = pending_.find(op_id);
        if (it == pending_.end() || it->second.attempt != next) return;
        PendingOp& op = it->second;
        if (!owner.ok() ||
            std::any_of(op.candidates.begin(), op.candidates.end(),
                        [&](const OverlayRouter::Owner& c) {
                          return c.address == owner->address;
                        })) {
          FinishOp(op_id, result);
          return;
        }
        op.candidates.push_back(*owner);
        stats_.read_failovers++;
        SendGetAttempt(op_id, [this, op_id, next](const Status& s) {
          if (!s.ok()) AdvanceGet(op_id, next, s);
        });
      });
}

void Dht::Renew(const std::string& ns, const std::string& key,
                const std::string& suffix, TimeUs lifetime, DoneCallback done) {
  stats_.renews++;
  ObjectName name{ns, key, suffix};
  uint64_t op_id = next_op_id_++;
  PendingOp op;
  op.done_cb = std::move(done);
  op.renew = true;
  op.timer = vri_->ScheduleEvent(kOpTimeout, [this, op_id]() {
    FinishOp(op_id, Status::TimedOut("dht renew timed out"));
  });
  pending_[op_id] = std::move(op);

  Id target = name.routing_id();
  SendToOwner(target,
              std::make_shared<const OwnerSend>(
                  [this, op_id, name = std::move(name), lifetime](
                      const OverlayRouter::Owner& owner,
                      DoneCallback report) {
                    WireWriter w = OverlayRouter::FrameMessage(kMsgRenewReq);
                    w.PutVarint(op_id);
                    w.PutBytes(name.ns);
                    w.PutBytes(name.key);
                    w.PutBytes(name.suffix);
                    w.PutVarint(
                        static_cast<uint64_t>(EffectiveLifetime(lifetime)));
                    router_->SendFramed(owner.address, std::move(w).data(),
                                        std::move(report));
                  }),
              [this, op_id](const Status& s) {
                if (!s.ok()) FinishOp(op_id, s);
              });
}

// ---------------------------------------------------------------------------
// Intra-node operations
// ---------------------------------------------------------------------------

void Dht::LocalScan(const std::string& ns, const ScanFn& fn) {
  objects_->Scan(ns, [this, &fn](const ObjectManager::Row& row) {
    // Replica merge: of an object's k copies only the owner's is visible
    // to scans, so replicated tables never double-count.
    if (!repl_->ShouldEmitInScan(row)) return;
    fn(row.first, row.second.value, row.second.stored_at);
  });
}

void Dht::StoreLocal(ObjectName name, std::string value, TimeUs lifetime) {
  // A client write stored outside a store frame is a one-element newData
  // batch; its value aliases the stored copy.
  const ObjectManager::Row* row =
      objects_->Put(std::move(name), std::move(value), lifetime);
  if (row != nullptr && subs_by_ns_.count(row->first.ns) > 0)
    DispatchNewData({NewDataEvent{row->first, row->second.value}});
}

uint64_t Dht::OnNewDataBatch(const std::string& ns,
                             BatchNewDataHandler handler) {
  uint64_t token = next_sub_id_++;
  subs_[token] = Subscription{ns, std::move(handler)};
  subs_by_ns_[ns].push_back(token);
  return token;
}

uint64_t Dht::OnNewData(const std::string& ns, NewDataHandler handler) {
  return OnNewDataBatch(
      ns, [handler = std::move(handler)](const std::vector<NewDataEvent>& evs) {
        for (const NewDataEvent& e : evs) handler(e.name, e.value);
      });
}

void Dht::CancelNewData(uint64_t token) {
  auto it = subs_.find(token);
  if (it == subs_.end()) return;
  auto& vec = subs_by_ns_[it->second.ns];
  vec.erase(std::remove(vec.begin(), vec.end(), token), vec.end());
  if (vec.empty()) subs_by_ns_.erase(it->second.ns);
  subs_.erase(it);
}

// ---------------------------------------------------------------------------
// Message handlers
// ---------------------------------------------------------------------------

void Dht::HandleRoutedDelivery(const RouteInfo& info, std::string_view payload) {
  // A routed Send reached the responsible node: store like a put.
  stats_.routed_deliveries++;
  stats_.routed_delivery_hops += info.hops;
  WireReader r(payload);
  WireObjectView v;
  if (!DecodeObjectFrom(&r, &v).ok()) return;  // malformed: drop
  stats_.store_requests++;
  StoreLocal(
      ObjectName{std::string(v.ns), std::string(v.key), std::string(v.suffix)},
      std::string(v.value), EffectiveLifetime(v.lifetime));
}

void Dht::HandleStore(const NetAddress& from, std::string_view body) {
  WireReader r(body);
  uint8_t replica_index, origin;
  uint64_t count;
  if (!r.GetU8(&replica_index).ok() || !r.GetU8(&origin).ok() ||
      !r.GetVarint(&count).ok() || count > kMaxStoreObjectsPerFrame)
    return;  // malformed: drop
  // A writer's primary copies are the frame's only client writes: only they
  // are newData, and only they should have reached the owner, so one
  // not-owner hint per frame corrects a stale owner cache at the writer.
  // The replicated ones go on to the replication manager, which places
  // their copies. Values alias the receive buffer; the only copies are the
  // ones the store must own. A malformed tail drops the rest of the frame,
  // never what already decoded (best-effort, like every other handler).
  bool put_primaries = replica_index == 0 &&
                       static_cast<StoreOrigin>(origin) == StoreOrigin::kWrite;
  bool hinted = !put_primaries;
  std::vector<NewDataEvent> events;
  std::vector<const ObjectManager::Row*> replicated;
  for (uint64_t i = 0; i < count; ++i) {
    WireObjectView v;
    uint64_t age;
    uint8_t desired;
    if (!DecodeObjectFrom(&r, &v).ok() || !r.GetVarint(&age).ok() ||
        !r.GetU8(&desired).ok())
      break;
    const ObjectManager::Row* row = objects_->Put(
        ObjectName{std::string(v.ns), std::string(v.key),
                   std::string(v.suffix)},
        std::string(v.value), v.lifetime, static_cast<TimeUs>(age), desired);
    // The name is copied only when a subscriber will see it.
    if (row != nullptr && put_primaries &&
        subs_by_ns_.count(row->first.ns) > 0)
      events.push_back(NewDataEvent{row->first, v.value});
    repl_->NoteStore(desired);
    if (replica_index == 0) {
      stats_.store_requests++;
    } else {
      stats_.replica_stores++;
    }
    if (!hinted) hinted = router_->HintIfNotOwner(from, RoutingId(v.ns, v.key));
    if (row != nullptr && put_primaries && desired > 1)
      replicated.push_back(row);
  }
  if (!replicated.empty()) repl_->PlaceWrites(replicated);
  if (!events.empty()) DispatchNewData(events);
}

void Dht::DispatchNewData(const std::vector<NewDataEvent>& events) {
  auto deliver = [this](const std::string& ns,
                        const std::vector<NewDataEvent>& group) {
    auto it = subs_by_ns_.find(ns);
    if (it == subs_by_ns_.end()) return;
    std::vector<uint64_t> tokens = it->second;  // handlers may unsubscribe
    for (uint64_t token : tokens) {
      auto sit = subs_.find(token);
      if (sit != subs_.end()) sit->second.handler(group);
    }
  };
  const std::string& first = events.front().name.ns;
  if (std::all_of(events.begin(), events.end(), [&](const NewDataEvent& e) {
        return e.name.ns == first;
      })) {
    deliver(first, events);
    return;
  }
  // Mixed namespaces: one call per namespace in first-seen order; within a
  // namespace, store order holds (objects sharing a (ns, key) arrive in
  // batch order).
  std::vector<const std::string*> ns_order;
  for (const NewDataEvent& e : events) {
    if (std::none_of(ns_order.begin(), ns_order.end(),
                     [&](const std::string* ns) { return *ns == e.name.ns; }))
      ns_order.push_back(&e.name.ns);
  }
  for (const std::string* ns : ns_order) {
    std::vector<NewDataEvent> group;
    for (const NewDataEvent& e : events)
      if (e.name.ns == *ns) group.push_back(e);
    deliver(*ns, group);
  }
}

void Dht::HandleGetReqEx(const NetAddress& from, std::string_view body) {
  WireReader r(body);
  uint64_t op_id;
  std::string_view ns, key;
  uint8_t attempt;
  if (!r.GetVarint(&op_id).ok() || !r.GetBytes(&ns).ok() ||
      !r.GetBytes(&key).ok() || !r.GetU8(&attempt).ok())
    return;
  // Only the first attempt is aimed at the owner; later ones go to replicas.
  if (attempt == 0) (void)router_->HintIfNotOwner(from, RoutingId(ns, key));
  // Replica copies answer too — that is the read-any contract. Remaining
  // lifetimes ride along so the requester can read-repair the owner without
  // extending anything past its origin-stamped expiry.
  auto items = objects_->Get(ns, key);
  TimeUs now = vri_->Now();
  WireWriter w = OverlayRouter::FrameMessage(kMsgGetRespEx);
  w.PutVarint(op_id);
  w.PutU8(attempt);
  w.PutVarint(items.size());
  for (const ObjectManager::Row* row : items) {
    w.PutBytes(row->first.suffix);
    w.PutBytes(row->second.value);
    w.PutVarint(static_cast<uint64_t>(row->second.expires_at - now));
  }
  router_->SendFramed(from, std::move(w).data());
}

void Dht::HandleGetRespEx(const NetAddress& from, std::string_view body) {
  (void)from;
  WireReader r(body);
  uint64_t op_id;
  uint8_t attempt;
  uint32_t count;
  if (!r.GetVarint(&op_id).ok() || !r.GetU8(&attempt).ok() ||
      !r.GetVarint32(&count).ok())
    return;
  auto it = pending_.find(op_id);
  if (it == pending_.end() || it->second.renew) return;
  std::vector<DhtItem> items;
  std::vector<TimeUs> remaining;
  items.reserve(std::min<size_t>(count, r.remaining()));
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view suffix, value;
    uint64_t rem;
    if (!r.GetBytes(&suffix).ok() || !r.GetBytes(&value).ok() ||
        !r.GetVarint(&rem).ok()) {
      // A cut answer is this candidate's failure, never a shorter answer.
      AdvanceGet(op_id, attempt, Status::Corruption("cut get response"));
      return;
    }
    items.push_back(DhtItem{std::string(suffix), std::string(value)});
    remaining.push_back(static_cast<TimeUs>(rem));
  }
  if (items.empty()) {
    // This candidate holds nothing: try the next one (a stale response for
    // an attempt we already left is ignored).
    AdvanceGet(op_id, attempt, Status::Ok());
    return;
  }
  // Data found — even a late answer from a slower candidate is accepted
  // (read-any). A replica answering while the owner came up empty or dead
  // also repairs the owner copy.
  if (attempt > 0) ReadRepair(op_id, items, remaining);
  FinishOp(op_id, Status::Ok(), std::move(items));
}

void Dht::ReadRepair(uint64_t op_id, const std::vector<DhtItem>& items,
                     const std::vector<TimeUs>& remaining) {
  auto it = pending_.find(op_id);
  if (it == pending_.end()) return;
  PendingOp& op = it->second;
  stats_.read_repairs++;
  WireWriter w = FrameStore(0, StoreOrigin::kReadRepair, items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    EncodeStoreObject(&w, ObjectName{op.ns, op.key, items[i].suffix},
                      remaining[i], 0, static_cast<uint8_t>(op.replicas),
                      items[i].value);
  }
  router_->SendFramed(op.candidates[0].address, std::move(w).data(), nullptr);
}

void Dht::HandleRenewReq(const NetAddress& from, std::string_view body) {
  WireReader r(body);
  uint64_t op_id;
  std::string_view ns, key, suffix;
  uint64_t lifetime;
  if (!r.GetVarint(&op_id).ok() || !r.GetBytes(&ns).ok() ||
      !r.GetBytes(&key).ok() || !r.GetBytes(&suffix).ok() ||
      !r.GetVarint(&lifetime).ok())
    return;
  ObjectName name{std::string(ns), std::string(key), std::string(suffix)};
  Status s = objects_->Renew(name, static_cast<TimeUs>(lifetime));
  if (s.ok()) {
    // A renewed replicated object has drifted from its replica copies'
    // lifetimes: re-propagate it on the next repair tick (if this node
    // still owns it then).
    const ObjectManager::Object* o = objects_->Find(name);
    if (o != nullptr && o->desired_replicas > 1) repl_->RefreshReplicas(name);
  }
  WireWriter w = OverlayRouter::FrameMessage(kMsgRenewResp);
  w.PutVarint(op_id);
  w.PutU8(s.ok() ? 1 : 0);
  router_->SendFramed(from, std::move(w).data());
}

void Dht::HandleRenewResp(const NetAddress& from, std::string_view body) {
  (void)from;
  WireReader r(body);
  uint64_t op_id;
  uint8_t ok;
  if (!r.GetVarint(&op_id).ok() || !r.GetU8(&ok).ok()) return;
  auto it = pending_.find(op_id);
  if (it == pending_.end() || !it->second.renew) return;
  FinishOp(op_id,
           ok ? Status::Ok() : Status::NotFound("renew: object not present"));
}

}  // namespace pier
