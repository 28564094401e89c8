#include "overlay/replication.h"

#include <algorithm>
#include <map>
#include <utility>

#include "overlay/dht.h"
#include "util/wire.h"

namespace pier {

namespace {

/// Objects drained from the write-behind push queue per repair tick.
constexpr size_t kMaxPushObjectsPerTick = 256;
constexpr size_t kMaxPerFrame = Dht::kMaxStoreObjectsPerFrame;

/// Ship `rows` (live objects of this node) to `dest` as store frames of
/// at most kMaxPerFrame objects each, with their origin-stamped lifetimes.
void ShipCopies(OverlayRouter* router, const NetAddress& dest, TimeUs now,
                uint8_t replica_index, Dht::StoreOrigin origin,
                const std::vector<const ObjectManager::Row*>& rows) {
  for (size_t start = 0; start < rows.size(); start += kMaxPerFrame) {
    size_t n = std::min(kMaxPerFrame, rows.size() - start);
    WireWriter w = Dht::FrameStore(replica_index, origin, n);
    for (size_t j = start; j < start + n; ++j) {
      const auto& [name, o] = *rows[j];
      Dht::EncodeStoreObject(&w, name, o.expires_at - now, now - o.stored_at,
                             o.desired_replicas, o.value);
    }
    router->SendFramed(dest, std::move(w).data(), nullptr);
  }
}

}  // namespace

ReplicationManager::ReplicationManager(Vri* vri, OverlayRouter* router,
                                       ObjectManager* objects,
                                       int replication_factor)
    : vri_(vri),
      router_(router),
      objects_(objects),
      replication_factor_(replication_factor) {
  router_->RegisterDirectType(
      kMsgReplPull,
      [this](const NetAddress& f, std::string_view b) { HandlePull(f, b); });

  // The tick lives in repair_tick_; scheduled events copy it so the closure
  // never strongly captures its own function object.
  repair_tick_ = [this]() {
    RepairTick();
    repair_timer_ = vri_->ScheduleEvent(kRepairPeriod, repair_tick_);
  };
  repair_timer_ = vri_->ScheduleEvent(kRepairPeriod, repair_tick_);
}

ReplicationManager::~ReplicationManager() { vri_->CancelEvent(repair_timer_); }

// ---------------------------------------------------------------------------
// Handoff pull
// ---------------------------------------------------------------------------

void ReplicationManager::HandlePull(const NetAddress& from,
                                    std::string_view body) {
  WireReader r(body);
  uint64_t lo, hi;
  if (!r.GetU64(&lo).ok() || !r.GetU64(&hi).ok() ||
      from == router_->local_address())
    return;

  // Everything replicated in the requested range — whether we hold it as
  // primary or replica, the new owner should have a primary copy.
  std::vector<const ObjectManager::Row*> matches;
  objects_->ScanAll([&](const ObjectManager::Row& row) {
    const auto& [name, o] = row;
    if (name.key.empty() || o.desired_replicas <= 1) return;
    if (InOpenClosed(lo, hi, name.routing_id())) matches.push_back(&row);
  });
  stats_.replica_copies_sent += matches.size();
  ShipCopies(router_, from, vri_->Now(), 0, Dht::StoreOrigin::kHandoffPull,
             matches);
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
    objects_->ScanAll([&](const ObjectManager::Row& row) {
      const auto& [name, o] = row;
      if (name.key.empty()) return;  // in-situ local state: never replicated
      if (!o.is_replica() && o.desired_replicas <= 1) return;
      bool own = proto->IsOwner(name.routing_id());
      if (o.is_replica() && own) {
        to_promote.push_back(name);
      } else if (!o.is_replica() && !own) {
        to_demote.push_back(name);
      } else if (!o.is_replica() && own && succ_changed) {
        EnqueuePush(name);
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
  bool replication_live = seen_replicated_ || replication_factor_ > 1;
  if (replication_live && pred_changed && have_pred && !succs.empty()) {
    WireWriter w;
    w.PutU64(pred);
    w.PutU64(router_->local_id());
    router_->SendDirect(succs.front(), kMsgReplPull, std::move(w).data(),
                        nullptr);
  }

  last_succs_ = std::move(succs);
  last_pred_ = pred;
  have_pred_ = have_pred;

  // A pass with no ring movement and nothing queued did no work.
  stats_.repair_ticks++;
  if (!first_observation && !succ_changed && !pred_changed &&
      push_queue_.empty()) {
    stats_.idle_repair_ticks++;
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
    std::vector<const ObjectManager::Row*> rows;
  };
  std::map<NetAddress, DestBatch> by_dest;
  size_t processed = 0;
  while (!push_queue_.empty() && processed < kMaxPushObjectsPerTick) {
    ObjectName name = std::move(push_queue_.front());
    push_queue_.pop_front();
    processed++;
    const ObjectManager::Row* row = objects_->FindRow(name);
    // Only live primaries we still own re-propagate; everything else left
    // the queue's jurisdiction while it waited.
    if (row == nullptr || row->second.is_replica() ||
        row->second.desired_replicas <= 1 ||
        !proto->IsOwner(name.routing_id()))
      continue;
    for (size_t j = 0; j + 1 < row->second.desired_replicas && j < succs.size();
         ++j) {
      DestBatch& batch = by_dest[succs[j]];
      batch.replica_index = static_cast<uint8_t>(j + 1);
      batch.rows.push_back(row);
    }
  }

  TimeUs now = vri_->Now();
  for (auto& [dest, batch] : by_dest) {
    stats_.handoff_pushes += batch.rows.size();
    stats_.replica_copies_sent += batch.rows.size();
    ShipCopies(router_, dest, now, batch.replica_index,
               Dht::StoreOrigin::kHandoffPush, batch.rows);
  }
}

// ---------------------------------------------------------------------------
// Scan-time replica merge
// ---------------------------------------------------------------------------

bool ReplicationManager::ShouldEmitInScan(const ObjectManager::Row& row) {
  const auto& [name, obj] = row;
  if (!obj.is_replica() || name.key.empty()) return true;
  // The owner is gone and ownership of this id moved here: the replica now
  // speaks for the object. Until then exactly one copy (the primary at the
  // owner) is visible to scans, so k copies never double-count.
  if (router_->protocol()->IsOwner(name.routing_id())) return true;
  stats_.suppressed_scan_rows++;
  return false;
}

}  // namespace pier
