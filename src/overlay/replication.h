// k-way successor-set replication for PIER's soft state (§3.2 relaxed
// consistency, PIQL-style predictable answers under churn).
//
// Placement invariant: an object written with replication factor k lives at
// the node that owns its routing id and at that node's first k-1 live
// successors. The writer sends one copy, to the owner (Dht::PutBatch); the
// owner's store-frame handler hands the replicated client writes it stores
// to this manager, which places the other k-1 copies at the owner's own
// successors. No copy is tagged primary: the ring decides, and the copy at
// the owner speaks for the object in scans. Every copy is therefore sent by
// a node that holds the object, from its own view of the ring. The manager
// also repairs, keeping the invariant alive against ring changes:
//
//   * push     — an owner whose successor window changed re-propagates its
//     replicated objects through a bounded write-behind queue, and a node
//     whose range grew (its predecessor left) re-propagates the objects it
//     newly owns;
//   * handoff  — a node whose predecessor changed ships it the part of its
//     range the predecessor took (a node joined just before it) and its
//     copies of the ranges behind it, so a node that joined where a dead
//     node was gets that node's objects. A client write that reaches it
//     through a stale owner cache after that is forwarded the same way, and
//     its copies are placed from there.
//
// Both ship their objects as store frames, like every other copy.
//
// Consistency model: soft-state read-any, no quorum. Every copy carries the
// origin-stamped remaining lifetime, so replicas expire with the owner copy
// rather than outliving it. Nothing here runs — and nothing extra touches the
// wire — while every stored object has desired_replicas == 1: an
// unreplicated deployment sends no replica frames and no repair traffic.

#ifndef PIER_OVERLAY_REPLICATION_H_
#define PIER_OVERLAY_REPLICATION_H_

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "overlay/object_manager.h"
#include "overlay/router.h"
#include "runtime/vri.h"

namespace pier {

/// Why a store frame was sent. Only a frame at index 0 with kWrite holds
/// client writes: its objects are announced as newData and placed.
enum class StoreOrigin : uint8_t {
  kWrite = 0,        // a put (Put / PutBatch) and the copies its owner places
  kHandoffPush = 1,  // repair: re-propagation, or a range handed to a joiner
  kReadRepair = 3,   // Get refreshed a stale/missing owner copy
};

class ReplicationManager {
 public:
  /// Period of the repair tick that polls the ring view.
  static constexpr TimeUs kRepairPeriod = 1 * kSecond;

  struct Stats {
    uint64_t replica_copies_sent = 0;  // replica objects shipped by this node
    uint64_t handoff_pushes = 0;  // objects re-propagated or handed off
    uint64_t suppressed_scan_rows = 0;  // copies hidden from LocalScan
    uint64_t repair_ticks = 0;       // repair passes executed
    uint64_t idle_repair_ticks = 0;  // passes that saw no ring/queue activity
  };

  ReplicationManager(Vri* vri, OverlayRouter* router, ObjectManager* objects);
  ~ReplicationManager();

  ReplicationManager(const ReplicationManager&) = delete;
  ReplicationManager& operator=(const ReplicationManager&) = delete;

  /// A copy asking for `desired` copies was stored here: from now on ring
  /// changes among the first desired-1 successors have state to repair.
  void NoteStore(uint8_t desired) {
    if (desired > window_ + 1) window_ = desired - 1u;
  }

  /// Queue an owned replicated object for re-propagation (e.g. after a
  /// Renew drifted its lifetime away from the replica copies').
  void RefreshReplicas(const ObjectName& name) { EnqueuePush(name); }

  /// Client writes of replicated objects just stored here (a store frame at
  /// index 0 with origin kWrite). Those this node owns go to its first
  /// desired-1 successors. One whose id left this node's range (a writer's
  /// owner cache predates a join just before this node, and the range was
  /// already handed off) goes on to the predecessor, which owns it now; its
  /// replica set is the predecessor, this node, which keeps its copy, and
  /// this node's successors, which get copies 2..desired-1.
  void PlaceWrites(const std::vector<const ObjectManager::Row*>& rows);

  // --- Scan-time replica merge --------------------------------------------

  /// Should a LocalScan at this node emit `row`? Unreplicated and in-situ
  /// local objects (empty key) always pass; a replicated copy passes only
  /// where this node owns its routing id, so exactly one of its k copies
  /// speaks for it. Suppressions are counted.
  bool ShouldEmitInScan(const ObjectManager::Row& row);

  const Stats& stats() const { return stats_; }

 private:
  /// Does this node speak for `id`? Where it owns it, and while the
  /// predecessor is unknown (it left and the next one has not notified
  /// yet), in the last known range (last pred, self].
  bool Owns(Id id) const;
  void RepairTick();
  /// Ship `rows` (live objects of this node) to `dest` as store frames of
  /// at most kMaxStoreObjectsPerFrame objects each, with their
  /// origin-stamped lifetimes.
  void Ship(const NetAddress& dest, uint8_t replica_index, StoreOrigin origin,
            const std::vector<const ObjectManager::Row*>& rows);
  /// Ship each of `rows` to this node's successors as copies first_index up
  /// to its desired-1: successor j gets copy first_index + j. One frame set
  /// per successor.
  void ShipToSuccessors(const std::vector<const ObjectManager::Row*>& rows,
                        size_t first_index, StoreOrigin origin);
  /// Queue `name` for (re-)propagation to the first desired-1 successors.
  void EnqueuePush(const ObjectName& name);
  void DrainPushQueue();

  Vri* vri_;
  OverlayRouter* router_;
  ObjectManager* objects_;

  /// The widest desired-1 stored here: the successors repair watches. 0
  /// until a replicated copy arrives, so the k = 1 path sends nothing.
  size_t window_ = 0;
  /// Last observed ring view; repair work runs only when it moves.
  std::vector<NetAddress> last_succs_;
  size_t last_window_ = 0;
  RingPeer last_pred_;

  /// Write-behind queue of owned objects awaiting re-propagation.
  std::deque<ObjectName> push_queue_;

  /// Leak-free repeating timer (events hold copies of this function).
  std::function<void()> repair_tick_;
  uint64_t repair_timer_ = 0;

  Stats stats_;
};

}  // namespace pier

#endif  // PIER_OVERLAY_REPLICATION_H_
