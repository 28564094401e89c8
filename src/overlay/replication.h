// k-way successor-set replication for PIER's soft state (§3.2 relaxed
// consistency, PIQL-style predictable answers under churn).
//
// Placement invariant: an object written with replication factor k lives as a
// PRIMARY copy at the responsible node and as replica copies at that node's
// first k-1 live successors. The WRITER places all k copies (Dht::PutBatch
// sends them as store frames riding the same per-destination grouping as any
// put, and the Dht's store-frame handler stores every copy that arrives);
// this manager only repairs, keeping the invariant alive against ring
// changes:
//
//   * promotion  — a replica whose routing id this node now owns (the owner
//     left) is retagged primary, silently: the dead owner already fired
//     newData for it, and scans see it from then on;
//   * demotion   — a primary whose range moved away is retagged replica, so
//     scans stop double-counting it against the new owner's copy;
//   * push       — an owner whose successor window changed re-propagates its
//     replicated primaries through a bounded write-behind queue;
//   * pull       — a node whose predecessor changed (it now owns a bigger
//     range) asks its successor for the replicated objects of that range.
//
// Push and pull ship their objects as store frames, like every other copy.
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

class ReplicationManager {
 public:
  /// Period of the repair tick that polls the ring view.
  static constexpr TimeUs kRepairPeriod = 1 * kSecond;

  struct Stats {
    uint64_t replica_copies_sent = 0;  // replica objects shipped by this node
    uint64_t promotions = 0;
    uint64_t demotions = 0;
    uint64_t handoff_pushes = 0;  // objects re-propagated to successors
    uint64_t suppressed_scan_rows = 0;  // replica rows hidden from LocalScan
    uint64_t repair_ticks = 0;       // repair passes executed
    uint64_t idle_repair_ticks = 0;  // passes that saw no ring/queue activity
  };

  /// Direct message type (every layer's are tabled in src/overlay/README.md).
  static constexpr uint8_t kMsgReplPull = 23;

  /// `replication_factor` is the Dht's default copies per object (1 = no
  /// replication); per-put overrides ride DhtPutItem / TableSpec.
  ReplicationManager(Vri* vri, OverlayRouter* router, ObjectManager* objects,
                     int replication_factor);
  ~ReplicationManager();

  ReplicationManager(const ReplicationManager&) = delete;
  ReplicationManager& operator=(const ReplicationManager&) = delete;

  /// Bookkeeping for replica copies this node shipped outside the manager
  /// (the write path lives in Dht).
  void NoteReplicaCopiesSent(uint64_t n) { stats_.replica_copies_sent += n; }
  /// A copy with desired_replicas > 1 was stored here: from now on ring
  /// changes have replicated state to repair.
  void NoteReplicatedStore() { seen_replicated_ = true; }

  /// Queue an owned replicated primary for re-propagation (e.g. after a
  /// Renew drifted its lifetime away from the replica copies').
  void RefreshReplicas(const ObjectName& name) { EnqueuePush(name); }

  // --- Scan-time replica merge --------------------------------------------

  /// Should a LocalScan at this node emit `obj`? Primaries and in-situ local
  /// objects (empty key) always pass; replica copies pass only once this
  /// node owns their routing id (i.e. the owner is gone and this copy now
  /// speaks for the object). Suppressions are counted.
  bool ShouldEmitInScan(const ObjectManager::Object& obj);

  const Stats& stats() const { return stats_; }

 private:
  void HandlePull(const NetAddress& from, std::string_view body);
  void RepairTick();
  /// Queue `name` for (re-)propagation to the first desired-1 successors.
  void EnqueuePush(const ObjectName& name);
  void DrainPushQueue();

  Vri* vri_;
  OverlayRouter* router_;
  ObjectManager* objects_;
  int replication_factor_;

  /// Last observed ring view; repair work runs only when it moves.
  std::vector<NetAddress> last_succs_;
  Id last_pred_ = 0;
  bool have_pred_ = false;
  /// True once any replicated object passed through this node: before that,
  /// repair has nothing to do and sends nothing (the k = 1 fast path).
  bool seen_replicated_ = false;

  /// Write-behind queue of primaries awaiting re-propagation.
  std::deque<ObjectName> push_queue_;

  /// Leak-free repeating timer (events hold copies of this function).
  std::function<void()> repair_tick_;
  uint64_t repair_timer_ = 0;

  Stats stats_;
};

}  // namespace pier

#endif  // PIER_OVERLAY_REPLICATION_H_
