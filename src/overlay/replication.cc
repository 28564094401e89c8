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

}  // namespace

ReplicationManager::ReplicationManager(Vri* vri, OverlayRouter* router,
                                       ObjectManager* objects)
    : vri_(vri), router_(router), objects_(objects) {
  // The tick lives in repair_tick_; scheduled events copy it so the closure
  // never strongly captures its own function object.
  repair_tick_ = [this]() {
    RepairTick();
    repair_timer_ = vri_->ScheduleEvent(kRepairPeriod, repair_tick_);
  };
  repair_timer_ = vri_->ScheduleEvent(kRepairPeriod, repair_tick_);
}

ReplicationManager::~ReplicationManager() { vri_->CancelEvent(repair_timer_); }

bool ReplicationManager::Owns(Id id) const {
  RoutingProtocol* proto = router_->protocol();
  if (proto->IsOwner(id)) return true;
  RingPeer pred;
  return !proto->Predecessor(&pred) && last_pred_.valid() &&
         InOpenClosed(last_pred_.id, router_->local_id(), id);
}

// ---------------------------------------------------------------------------
// Repair
// ---------------------------------------------------------------------------

void ReplicationManager::RepairTick() {
  RoutingProtocol* proto = router_->protocol();
  std::vector<RingPeer> succs = proto->SuccessorSet(window_);
  // Only the successors both windows cover are compared: a window that
  // widened is a new baseline, since this node placed the copies that
  // widened it when they were written, and its new successors are owed
  // nothing.
  size_t common = std::min(window_, last_window_);
  bool succ_changed = !std::equal(
      succs.begin(), succs.begin() + std::min(common, succs.size()),
      last_succs_.begin(),
      last_succs_.begin() + std::min(common, last_succs_.size()),
      [](const RingPeer& a, const RingPeer& b) { return a.addr == b.addr; });
  // A predecessor change moves the lower end of the owned range.
  RingPeer pred;
  bool pred_moved = proto->Predecessor(&pred) && last_pred_.valid() &&
                    pred.id != last_pred_.id;
  Id self = router_->local_id();

  // Runs only when the ring moved AND replicated state has ever been stored
  // here: an unreplicated deployment does no sweeps and sends no repair
  // traffic.
  std::vector<const ObjectManager::Row*> handoff, copies;
  if (window_ > 0 && (succ_changed || pred_moved)) {
    objects_->ScanAll([&](const ObjectManager::Row& row) {
      const auto& [name, o] = row;
      if (name.key.empty() || o.desired_replicas <= 1) return;
      Id id = name.routing_id();
      bool served = !pred_moved || InOpenClosed(last_pred_.id, self, id);
      if (pred_moved && !InOpenClosed(pred.id, self, id)) {
        (served ? handoff : copies).push_back(&row);
      } else if (!served || (succ_changed && Owns(id))) {
        EnqueuePush(name);  // newly owned, or its successors changed
      }
    });
  }
  // The new predecessor gets, silently (every copy fired newData where it
  // was first written), the part of this node's range it took as its own,
  // and this node's copies of the ranges behind it as replicas. The latter
  // are the only copies that can reach it of what a node that left owned:
  // a node that joined where a dead one was owns some of them.
  Ship(pred.addr, 0, StoreOrigin::kHandoffPush, handoff);
  Ship(pred.addr, 1, StoreOrigin::kHandoffPush, copies);

  // A pass with no ring movement and nothing queued did no work.
  stats_.repair_ticks++;
  if (!succ_changed && !pred_moved && push_queue_.empty())
    stats_.idle_repair_ticks++;

  last_succs_ = std::move(succs);
  last_window_ = window_;
  if (pred.valid()) last_pred_ = pred;
  DrainPushQueue();
}

void ReplicationManager::PlaceWrites(
    const std::vector<const ObjectManager::Row*>& rows) {
  std::vector<const ObjectManager::Row*> owned, misplaced;
  for (const ObjectManager::Row* row : rows)
    (Owns(row->first.routing_id()) ? owned : misplaced).push_back(row);
  ShipToSuccessors(owned, 1, StoreOrigin::kWrite);
  // The forward is silent: newData fired here, where the write landed.
  RingPeer pred;
  if (misplaced.empty() || !router_->protocol()->Predecessor(&pred)) return;
  Ship(pred.addr, 0, StoreOrigin::kHandoffPush, misplaced);
  ShipToSuccessors(misplaced, 2, StoreOrigin::kWrite);
}

void ReplicationManager::Ship(
    const NetAddress& dest, uint8_t replica_index, StoreOrigin origin,
    const std::vector<const ObjectManager::Row*>& rows) {
  if (origin == StoreOrigin::kHandoffPush) stats_.handoff_pushes += rows.size();
  stats_.replica_copies_sent += rows.size();
  TimeUs now = vri_->Now();
  for (size_t start = 0; start < rows.size(); start += kMaxPerFrame) {
    size_t n = std::min(kMaxPerFrame, rows.size() - start);
    WireWriter w = Dht::FrameStore(replica_index, origin, n);
    for (size_t j = start; j < start + n; ++j) {
      const auto& [name, o] = *rows[j];
      Dht::EncodeStoreObject(&w, name, o.expires_at - now, now - o.stored_at,
                             o.desired_replicas, o.value);
    }
    router_->SendFramed(dest, std::move(w).data(), nullptr);
  }
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
  std::vector<const ObjectManager::Row*> rows;
  for (size_t processed = 0;
       !push_queue_.empty() && processed < kMaxPushObjectsPerTick;
       ++processed) {
    ObjectName name = std::move(push_queue_.front());
    push_queue_.pop_front();
    const ObjectManager::Row* row = objects_->FindRow(name);
    // Only live objects this node still owns re-propagate; everything else
    // left the queue's jurisdiction while it waited.
    if (row != nullptr && row->second.desired_replicas > 1 &&
        Owns(name.routing_id()))
      rows.push_back(row);
  }
  ShipToSuccessors(rows, 1, StoreOrigin::kHandoffPush);
}

void ReplicationManager::ShipToSuccessors(
    const std::vector<const ObjectManager::Row*>& rows, size_t first_index,
    StoreOrigin origin) {
  if (rows.empty()) return;
  std::vector<RingPeer> succs = router_->protocol()->SuccessorSet(window_);
  struct DestBatch {
    uint8_t replica_index = 1;
    std::vector<const ObjectManager::Row*> rows;
  };
  std::map<NetAddress, DestBatch> by_dest;
  for (const ObjectManager::Row* row : rows) {
    for (size_t j = 0;
         first_index + j < row->second.desired_replicas && j < succs.size();
         ++j) {
      DestBatch& batch = by_dest[succs[j].addr];
      batch.replica_index = static_cast<uint8_t>(first_index + j);
      batch.rows.push_back(row);
    }
  }
  for (auto& [dest, batch] : by_dest)
    Ship(dest, batch.replica_index, origin, batch.rows);
}

// ---------------------------------------------------------------------------
// Scan-time replica merge
// ---------------------------------------------------------------------------

bool ReplicationManager::ShouldEmitInScan(const ObjectManager::Row& row) {
  const auto& [name, obj] = row;
  // Of a replicated object's k copies, the one at the owner speaks for it:
  // when the owner leaves, its successor owns the id and its copy speaks
  // from then on, so k copies never double-count.
  if (obj.desired_replicas <= 1 || name.key.empty() ||
      Owns(name.routing_id()))
    return true;
  stats_.suppressed_scan_rows++;
  return false;
}

}  // namespace pier
