#include "overlay/replication.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/wire.h"

namespace pier {

ReplicationManager::ReplicationManager(Vri* vri, OverlayRouter* router,
                                       ObjectManager* objects, Options options)
    : vri_(vri), router_(router), objects_(objects), options_(options) {
  router_->RegisterDirectType(
      kMsgReplicate,
      [this](const NetAddress& f, std::string_view b) { HandleReplicate(f, b); });
  router_->RegisterDirectType(
      kMsgReplPull,
      [this](const NetAddress& f, std::string_view b) { HandlePull(f, b); });

  // The tick lives in repair_tick_; scheduled events copy it so the closure
  // never strongly captures its own function object. RepairTick adjusts
  // current_repair_period_ (idle-ring backoff) before we reschedule.
  current_repair_period_ = options_.repair_period;
  repair_tick_ = [this]() {
    RepairTick();
    repair_timer_ = vri_->ScheduleEvent(current_repair_period_, repair_tick_);
  };
  repair_timer_ = vri_->ScheduleEvent(current_repair_period_, repair_tick_);
}

ReplicationManager::~ReplicationManager() { vri_->CancelEvent(repair_timer_); }

// ---------------------------------------------------------------------------
// Wire helpers
// ---------------------------------------------------------------------------

WireWriter ReplicationManager::FrameReplicate(uint8_t replica_index,
                                              Origin origin, uint64_t owner_id,
                                              size_t count) {
  WireWriter w = OverlayRouter::FrameMessage(kMsgReplicate);
  w.PutU8(replica_index);
  w.PutU8(static_cast<uint8_t>(origin));
  w.PutU64(owner_id);
  w.PutVarint(count);
  return w;
}

void ReplicationManager::EncodeReplicaObject(WireWriter* w,
                                             const ObjectName& name,
                                             TimeUs remaining, TimeUs age,
                                             uint8_t desired_replicas,
                                             std::string_view value) {
  w->PutBytes(name.ns);
  w->PutBytes(name.key);
  w->PutBytes(name.suffix);
  w->PutU64(static_cast<uint64_t>(remaining));
  w->PutU64(static_cast<uint64_t>(age < 0 ? 0 : age));
  w->PutU8(desired_replicas);
  w->PutBytes(value);
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

void ReplicationManager::HandleReplicate(const NetAddress& from,
                                         std::string_view body) {
  WireReader r(body);
  uint8_t replica_index, origin;
  uint64_t owner_id, count;
  if (!r.GetU8(&replica_index).ok() || !r.GetU8(&origin).ok() ||
      !r.GetU64(&owner_id).ok() || !r.GetVarint(&count).ok())
    return;
  if (count > options_.max_objects_per_frame) return;  // malformed: drop
  // A writer's primary copy is the frame's only client write: only it fires
  // newData, and only it should reach the owner, so one not-owner hint per
  // frame corrects a stale owner cache at the writer.
  bool client_write =
      replica_index == 0 && static_cast<Origin>(origin) == Origin::kWrite;
  bool hinted = !client_write;
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view ns, key, suffix, value;
    uint64_t remaining, age;
    uint8_t desired;
    if (!r.GetBytes(&ns).ok() || !r.GetBytes(&key).ok() ||
        !r.GetBytes(&suffix).ok() || !r.GetU64(&remaining).ok() ||
        !r.GetU64(&age).ok() || !r.GetU8(&desired).ok() ||
        !r.GetBytes(&value).ok())
      return;  // best-effort: keep what already decoded
    objects_->PutReplica(
        ObjectName{std::string(ns), std::string(key), std::string(suffix)},
        std::string(value), static_cast<TimeUs>(remaining),
        static_cast<TimeUs>(age), replica_index, desired, owner_id,
        client_write);
    if (desired > 1) seen_replicated_ = true;
    if (replica_index == 0) {
      if (primary_store_hook_) primary_store_hook_();
    } else {
      stats_.replica_stores++;
    }
    if (static_cast<Origin>(origin) == Origin::kHandoffPull)
      stats_.handoff_pulls++;
    if (!hinted) hinted = router_->HintIfNotOwner(from, RoutingId(ns, key));
  }
}

void ReplicationManager::HandlePull(const NetAddress& from,
                                    std::string_view body) {
  (void)from;
  WireReader r(body);
  uint64_t lo, hi, requester_id;
  uint32_t host;
  uint16_t port;
  if (!r.GetU64(&lo).ok() || !r.GetU64(&hi).ok() ||
      !r.GetU64(&requester_id).ok() || !r.GetU32(&host).ok() ||
      !r.GetU16(&port).ok())
    return;
  NetAddress requester{host, port};
  if (requester == router_->local_address()) return;

  // Everything replicated in the requested range — whether we hold it as
  // primary or replica, the new owner should have a primary copy.
  std::vector<const ObjectManager::Object*> matches;
  objects_->ScanAll([&](const ObjectManager::Object& o) {
    if (o.name.key.empty() || o.desired_replicas <= 1) return;
    if (InOpenClosed(lo, hi, o.name.routing_id()))
      matches.push_back(&o);
  });
  TimeUs now = vri_->Now();
  for (size_t start = 0; start < matches.size();
       start += options_.max_objects_per_frame) {
    size_t n = std::min(options_.max_objects_per_frame, matches.size() - start);
    WireWriter w = FrameReplicate(0, Origin::kHandoffPull, requester_id, n);
    for (size_t j = start; j < start + n; ++j) {
      const ObjectManager::Object* o = matches[j];
      EncodeReplicaObject(&w, o->name, o->expires_at - now, now - o->stored_at,
                          o->desired_replicas, o->value);
    }
    stats_.replica_copies_sent += n;
    router_->SendFramed(requester, std::move(w).data(), nullptr);
  }
}

// ---------------------------------------------------------------------------
// Repair
// ---------------------------------------------------------------------------

void ReplicationManager::RepairTick() {
  RoutingProtocol* proto = router_->protocol();
  size_t window =
      static_cast<size_t>(std::max(0, proto->MaxReplicationFactor() - 1));
  std::vector<NetAddress> succs = proto->SuccessorSet(window);
  Id pred = 0;
  bool have_pred = proto->PredecessorId(&pred);
  // The first sight of a populated ring is a baseline for the promotion /
  // demotion sweep (a freshly seeded node holds nothing mis-tagged), but a
  // valid trigger for the range pull — that IS the new-node handoff.
  bool first_observation = last_succs_.empty() && !have_pred_;
  bool succ_changed = !first_observation && succs != last_succs_;
  bool pred_changed = (have_pred != have_pred_) || (have_pred && pred != last_pred_);

  // Promotion / demotion / re-propagation sweep. Runs only when the ring
  // moved AND replicated state has ever passed through this node: an
  // unreplicated deployment does no sweeps and sends no repair traffic.
  if (seen_replicated_ && (succ_changed || pred_changed)) {
    std::vector<ObjectName> to_promote, to_demote;
    objects_->ScanAll([&](const ObjectManager::Object& o) {
      if (o.name.key.empty()) return;  // in-situ local state: never replicated
      if (!o.is_replica() && o.desired_replicas <= 1) return;
      bool own = proto->IsOwner(o.name.routing_id());
      if (o.is_replica() && own) {
        to_promote.push_back(o.name);
      } else if (!o.is_replica() && !own) {
        to_demote.push_back(o.name);
      } else if (!o.is_replica() && own && succ_changed) {
        EnqueuePush(o.name);
      }
    });
    // Mutations happen after the scan (iterator safety).
    for (const ObjectName& n : to_promote) {
      if (objects_->Promote(n)) {
        stats_.promotions++;
        EnqueuePush(n);  // the departing range's copies re-propagate
      }
    }
    for (const ObjectName& n : to_demote) {
      if (objects_->Demote(n)) stats_.demotions++;
    }
  }

  // A predecessor change grew this node's owned range: pull the replicated
  // objects of (pred, self] from the successor, who held them as the old
  // owner or as a fellow replica holder.
  bool replication_live = seen_replicated_ || options_.replication_factor > 1;
  if (replication_live && pred_changed && have_pred && !succs.empty()) {
    WireWriter w;
    w.PutU64(pred);
    w.PutU64(router_->local_id());
    w.PutU64(router_->local_id());
    w.PutU32(router_->local_address().host);
    w.PutU16(router_->local_address().port);
    router_->SendDirect(succs.front(), kMsgReplPull, std::move(w).data(),
                        nullptr);
  }

  last_succs_ = std::move(succs);
  last_pred_ = pred;
  have_pred_ = have_pred;

  // Idle-ring backoff: a pass with no ring movement and nothing queued means
  // the next one is unlikely to find work either; stretch the cadence
  // geometrically up to the cap. Any activity snaps back to the base period
  // so repair reacts at full speed once churn resumes.
  stats_.repair_ticks++;
  bool idle = !first_observation && !succ_changed && !pred_changed &&
              push_queue_.empty();
  if (idle) {
    stats_.idle_repair_ticks++;
    if (options_.repair_backoff_max > options_.repair_period) {
      current_repair_period_ = std::min(options_.repair_backoff_max,
                                        current_repair_period_ * 2);
    }
  } else {
    current_repair_period_ = options_.repair_period;
  }

  DrainPushQueue();
}

void ReplicationManager::EnqueuePush(const ObjectName& name) {
  // The queue is swept per tick; duplicates would only resend the same
  // frame, so a linear dedup against recent entries is enough.
  for (const ObjectName& q : push_queue_) {
    if (q.ns == name.ns && q.key == name.key && q.suffix == name.suffix)
      return;
  }
  push_queue_.push_back(name);
}

void ReplicationManager::DrainPushQueue() {
  if (push_queue_.empty()) return;
  RoutingProtocol* proto = router_->protocol();
  size_t window =
      static_cast<size_t>(std::max(0, proto->MaxReplicationFactor() - 1));
  std::vector<NetAddress> succs = proto->SuccessorSet(window);

  struct DestBatch {
    uint8_t replica_index = 1;
    std::vector<const ObjectManager::Object*> objs;
  };
  std::map<NetAddress, DestBatch> by_dest;
  size_t processed = 0;
  while (!push_queue_.empty() &&
         processed < options_.max_push_objects_per_tick) {
    ObjectName name = std::move(push_queue_.front());
    push_queue_.pop_front();
    processed++;
    const ObjectManager::Object* obj = nullptr;
    for (const ObjectManager::Object* o : objects_->Get(name.ns, name.key)) {
      if (o->name.suffix == name.suffix) obj = o;
    }
    // Only live primaries we still own re-propagate; everything else left
    // the queue's jurisdiction while it waited.
    if (obj == nullptr || obj->is_replica() || obj->desired_replicas <= 1 ||
        !proto->IsOwner(obj->name.routing_id()))
      continue;
    for (size_t j = 0; j + 1 < obj->desired_replicas && j < succs.size(); ++j) {
      DestBatch& batch = by_dest[succs[j]];
      batch.replica_index = static_cast<uint8_t>(j + 1);
      batch.objs.push_back(obj);
    }
  }

  TimeUs now = vri_->Now();
  for (auto& [dest, batch] : by_dest) {
    for (size_t start = 0; start < batch.objs.size();
         start += options_.max_objects_per_frame) {
      size_t n =
          std::min(options_.max_objects_per_frame, batch.objs.size() - start);
      WireWriter w = FrameReplicate(batch.replica_index, Origin::kHandoffPush,
                                    router_->local_id(), n);
      for (size_t j = start; j < start + n; ++j) {
        const ObjectManager::Object* o = batch.objs[j];
        EncodeReplicaObject(&w, o->name, o->expires_at - now,
                            now - o->stored_at, o->desired_replicas, o->value);
      }
      stats_.handoff_pushes += n;
      stats_.replica_copies_sent += n;
      router_->SendFramed(dest, std::move(w).data(), nullptr);
    }
  }
}

// ---------------------------------------------------------------------------
// Scan-time replica merge
// ---------------------------------------------------------------------------

bool ReplicationManager::ShouldEmitInScan(const ObjectManager::Object& obj) {
  if (!obj.is_replica() || obj.name.key.empty()) return true;
  // The owner is gone and ownership of this id moved here: the replica now
  // speaks for the object. Until then exactly one copy (the primary at the
  // owner) is visible to scans, so k copies never double-count.
  if (router_->protocol()->IsOwner(obj.name.routing_id())) return true;
  stats_.suppressed_scan_rows++;
  return false;
}

}  // namespace pier
