// k-way successor-set replication for PIER's soft state (§3.2 relaxed
// consistency, PIQL-style predictable answers under churn).
//
// Placement invariant: an object written with replication factor k lives as a
// PRIMARY copy at the responsible node and as replica copies at that node's
// first k-1 live successors. The WRITER places all k copies (riding the same
// per-destination grouping as batched puts); afterwards this manager keeps
// the invariant alive against ring changes:
//
//   * promotion  — a replica whose routing id this node now owns (the owner
//     left) is retagged primary, firing newData so running queries see it;
//   * demotion   — a primary whose range moved away is retagged replica, so
//     scans stop double-counting it against the new owner's copy;
//   * push       — an owner whose successor window changed re-propagates its
//     replicated primaries through a bounded write-behind queue;
//   * pull       — a node whose predecessor changed (it now owns a bigger
//     range) asks its successor for the replicated objects of that range.
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
#include <map>
#include <string>
#include <vector>

#include "overlay/object_manager.h"
#include "overlay/router.h"
#include "runtime/vri.h"

namespace pier {

class ReplicationManager {
 public:
  /// Why a replicate frame was sent; receivers bucket their stats by it.
  enum class Origin : uint8_t {
    kWrite = 0,       // writer-side placement (Put / PutBatch)
    kHandoffPush = 1,  // owner re-propagating after a successor-set change
    kHandoffPull = 2,  // response to a range pull from a new owner
    kReadRepair = 3,   // Get refreshed a stale/missing owner copy
  };

  struct Options {
    /// Default copies per object (1 = no replication). Per-put overrides
    /// ride DhtPutItem / TableSpec.
    int replication_factor = 1;
    /// Ring-view poll period for replica repair (base cadence).
    TimeUs repair_period = 1 * kSecond;
    /// Upper bound for exponential backoff of the repair tick while the ring
    /// is quiet (no successor/predecessor movement, empty push queue). Each
    /// idle tick doubles the effective period up to this cap; any activity
    /// snaps it back to repair_period. 0 disables backoff (fixed cadence).
    TimeUs repair_backoff_max = 0;
    /// Objects drained from the write-behind push queue per repair tick.
    size_t max_push_objects_per_tick = 256;
    /// Objects per replicate frame (mirrors the put-batch frame cap).
    size_t max_objects_per_frame = 4096;
  };

  struct Stats {
    uint64_t replica_copies_sent = 0;  // replica objects shipped by this node
    uint64_t replica_stores = 0;       // replica objects stored at this node
    uint64_t promotions = 0;
    uint64_t demotions = 0;
    uint64_t handoff_pushes = 0;  // objects re-propagated to successors
    uint64_t handoff_pulls = 0;   // objects received answering a range pull
    uint64_t suppressed_scan_rows = 0;  // replica rows hidden from LocalScan
    uint64_t repair_ticks = 0;       // repair passes executed
    uint64_t idle_repair_ticks = 0;  // passes that saw no ring/queue activity
  };

  /// Direct message types (registered with the router; the Dht owns 16..21).
  static constexpr uint8_t kMsgReplicate = 22;
  static constexpr uint8_t kMsgReplPull = 23;

  ReplicationManager(Vri* vri, OverlayRouter* router, ObjectManager* objects,
                     Options options);
  ~ReplicationManager();

  ReplicationManager(const ReplicationManager&) = delete;
  ReplicationManager& operator=(const ReplicationManager&) = delete;

  /// Hook fired whenever a PRIMARY copy is stored through a replicate frame
  /// (the Dht counts these alongside its other store requests).
  void set_primary_store_hook(std::function<void()> hook) {
    primary_store_hook_ = std::move(hook);
  }

  // --- Writer-side helpers (used by Dht::Put / PutBatch / read repair) -----

  /// Seed a replicate frame: type byte + header. Append objects with
  /// EncodeReplicaObject, then hand to OverlayRouter::SendFramed.
  static WireWriter FrameReplicate(uint8_t replica_index, Origin origin,
                                   uint64_t owner_id, size_t count);
  static void EncodeReplicaObject(WireWriter* w, const ObjectName& name,
                                  TimeUs remaining, TimeUs age,
                                  uint8_t desired_replicas,
                                  std::string_view value);

  /// Bookkeeping for replica copies this node shipped outside the manager
  /// (the write path lives in Dht).
  void NoteReplicaCopiesSent(uint64_t n) { stats_.replica_copies_sent += n; }

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
  int replication_factor() const { return options_.replication_factor; }
  /// Effective delay until the next repair pass (== repair_period unless
  /// idle-ring backoff has stretched it).
  TimeUs current_repair_period() const { return current_repair_period_; }
  bool repair_backed_off() const {
    return current_repair_period_ > options_.repair_period;
  }

 private:
  void HandleReplicate(const NetAddress& from, std::string_view body);
  void HandlePull(const NetAddress& from, std::string_view body);
  void RepairTick();
  /// Queue `name` for (re-)propagation to the first desired-1 successors.
  void EnqueuePush(const ObjectName& name);
  void DrainPushQueue();

  Vri* vri_;
  OverlayRouter* router_;
  ObjectManager* objects_;
  Options options_;
  std::function<void()> primary_store_hook_;

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
  TimeUs current_repair_period_ = 0;

  Stats stats_;
};

}  // namespace pier

#endif  // PIER_OVERLAY_REPLICATION_H_
