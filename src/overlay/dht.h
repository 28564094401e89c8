// The overlay wrapper: PIER's DHT API (Table 2, Figures 5-6).
//
// The query processor interacts only with this class, which choreographs the
// router and object manager:
//
//   inter-node:  Get / Put / Send / Renew  (+ handleGet callback)
//   intra-node:  LocalScan (handleLScan), OnNewData (newData/handleNewData),
//                RegisterUpcall (upcall/handleUpcall)
//
// get, put and renew resolve the identifier-to-address mapping, then a direct
// point-to-point message performs the operation (Figure 6). A cold resolve is
// a routed lookup; once the router's owner cache covers the id, it costs no
// message, so a warm put is one direct send. send routes the object through
// the overlay in a single call, giving every node on the path an upcall.

#ifndef PIER_OVERLAY_DHT_H_
#define PIER_OVERLAY_DHT_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "overlay/object_id.h"
#include "overlay/object_manager.h"
#include "overlay/replication.h"
#include "overlay/router.h"
#include "runtime/vri.h"

namespace pier {

/// One stored object returned by Get.
struct DhtItem {
  std::string suffix;
  std::string value;
};

/// One entry of a PutBatch: the same fields a Put call takes.
struct DhtPutItem {
  std::string ns;
  std::string key;
  std::string suffix;
  std::string value;
  TimeUs lifetime = 0;
  /// Copies to place (owner + replicas - 1 successors). 0 = the Dht's
  /// configured default replication factor.
  int replicas = 0;
};

class Dht {
 public:
  struct Options {
    OverlayRouter::Options router;
    ObjectManager::Options objects;
    TimeUs op_timeout = 10 * kSecond;
    /// Default soft-state lifetime used when callers pass lifetime = 0.
    TimeUs default_lifetime = 2LL * 60 * kSecond;
    /// Default copies per stored object: the owner plus replication_factor-1
    /// of its successors (k-way successor-set replication). 1 = the classic
    /// owner-only placement. Validated against the routing protocol's
    /// successor capacity at construction, so a misconfigured k fails loudly
    /// at startup instead of silently at placement time.
    int replication_factor = 1;
    /// Base cadence of the replica repair tick.
    TimeUs repl_repair_period = 1 * kSecond;
    /// Cap for exponential repair-tick backoff while the ring is quiet
    /// (0 = fixed cadence; see ReplicationManager::Options).
    TimeUs repl_repair_backoff_max = 0;
  };

  Dht(Vri* vri, Options options);
  Dht(Vri* vri) : Dht(vri, Options{}) {}  // NOLINT
  ~Dht();

  Dht(const Dht&) = delete;
  Dht& operator=(const Dht&) = delete;

  /// Join the overlay (null bootstrap = first node).
  void Join(const NetAddress& bootstrap) { router_->Join(bootstrap); }
  bool IsReady() const { return router_->IsReady(); }

  // --- Inter-node operations (Table 2) ---------------------------------------

  using DoneCallback = std::function<void(const Status&)>;
  using GetCallback =
      std::function<void(const Status&, std::vector<DhtItem> items)>;

  /// get(namespace, key): fetch all objects stored under (ns, key) from the
  /// responsible node; `cb` is the handleGet callback. Every get is
  /// READ-ANY over the owner and its first k-1 successors (k = `replicas`,
  /// 0 = the configured default): the owner is tried first, then each
  /// successor in turn, and a copy found at a replica read-repairs the
  /// missing/stale owner copy. With k = 1 the owner is the only candidate.
  /// The get fails with the delivery error only when no candidate replied;
  /// an empty reply from every candidate is Ok with no items.
  void Get(const std::string& ns, const std::string& key, GetCallback cb);
  void Get(const std::string& ns, const std::string& key, GetCallback cb,
           int replicas);

  /// put(namespace, key, suffix, object, lifetime): store at the responsible
  /// node (resolve, then one direct message). A put is a one-item PutBatch:
  /// the payload is moved into the batch, so pass an rvalue (std::move an
  /// owned buffer or hand over a temporary). `replicas` > 1 additionally
  /// places copies at the owner's first replicas-1 successors (0 = the
  /// configured default factor). `done` reports the OWNER delivery; replica
  /// copies are best-effort.
  void Put(const std::string& ns, const std::string& key, const std::string& suffix,
           std::string&& value, TimeUs lifetime, DoneCallback done = nullptr,
           int replicas = 0);

  /// One delivery group's outcome in a PutBatch: the items (by position in
  /// the submitted vector) that rode one wire frame to a responsible node,
  /// and how that delivery went. An oversized destination chunks into
  /// several groups with the same owner, so a lost chunk names exactly its
  /// own items. A failed lookup yields a group with a null owner.
  struct PutGroupStatus {
    NetAddress owner;
    std::vector<size_t> indices;
    Status status;
    /// Replica frames attempted / lost for this group. A group whose owner
    /// delivery succeeded but which lost replica copies is DEGRADED — the
    /// data is live but under-replicated — which is a different report than
    /// dropped.
    size_t replica_frames = 0;
    size_t replica_failures = 0;
    bool degraded() const { return status.ok() && replica_failures > 0; }
  };
  /// Per-group completion report: `first_error` keeps the old single-status
  /// contract (Ok iff every group delivered); `groups` says exactly which
  /// items were dropped and why, so callers can surface partial failures
  /// instead of collapsing them into one error.
  using BatchCallback = std::function<void(const Status& first_error,
                                           std::vector<PutGroupStatus> groups)>;

  /// Batched put: the batch is grouped by responsible node (one Lookup per
  /// distinct routing id, one wire message per destination — a kMsgPutBatch
  /// frame, or a kMsgReplicate frame when the group is replicated, whatever
  /// the object count). Entry order is preserved within each destination, so
  /// objects sharing a (ns, key) arrive in batch order. `done` (may be null)
  /// fires once after every group's delivery resolved, with the first error
  /// if any failed.
  void PutBatch(std::vector<DhtPutItem> items, DoneCallback done = nullptr);

  /// PutBatch with per-group status: a batch whose destinations PARTIALLY
  /// fail (one owner dead, the rest fine) reports every group's outcome
  /// rather than the first error only.
  void PutBatch(std::vector<DhtPutItem> items, BatchCallback done);

  /// send(...): like put, but routed hop-by-hop through the overlay so
  /// intermediate nodes receive upcalls (§3.2.4, Figure 6). The payload is
  /// copied once into the routed frame (upcall handlers may mutate it en
  /// route, so hop framing cannot alias the caller's buffer).
  void Send(const std::string& ns, const std::string& key, const std::string& suffix,
            std::string value, TimeUs lifetime);

  /// send variant with an explicit routing target: the object is stored (and
  /// newData fires) at the owner of `target` rather than of RoutingId(ns,key).
  /// The query processor uses this to route opgraphs to the node that owns a
  /// table partition (equality-predicate dissemination, §3.3.3).
  void SendToId(Id target, const std::string& ns, const std::string& key,
                const std::string& suffix, std::string value, TimeUs lifetime);

  /// renew(...): extend an object's lifetime; fails with NotFound if the
  /// responsible node no longer holds it (publisher must re-put).
  void Renew(const std::string& ns, const std::string& key, const std::string& suffix,
             TimeUs lifetime, DoneCallback done);

  // --- Intra-node operations (Table 2) ----------------------------------------

  /// localScan: visit all objects of `ns` stored at this node (handleLScan).
  void LocalScan(const std::string& ns,
                 const std::function<void(const ObjectName&, std::string_view)>& fn);

  /// localScan variant that also reports each object's local store time, so
  /// catch-up consumers (a swapped-in Scan honoring a catch-up high-water
  /// mark) can skip history without a second metadata lookup.
  using TimedScanFn =
      std::function<void(const ObjectName&, std::string_view value,
                         TimeUs stored_at)>;
  void LocalScan(const std::string& ns, const TimedScanFn& fn);

  /// newData: subscribe to objects newly stored at this node in `ns`
  /// (handleNewData). Returns a subscription token.
  using NewDataHandler =
      std::function<void(const ObjectName&, std::string_view value)>;
  uint64_t OnNewData(const std::string& ns, NewDataHandler handler);
  void CancelNewData(uint64_t token);

  /// One newly stored object in a batch newData delivery. `value` aliases
  /// the receive frame (or the stored copy for single inserts) and is valid
  /// only for the duration of the handler call.
  struct NewDataEvent {
    ObjectName name;
    std::string_view value;
  };
  /// Batch-capable newData subscription: a kMsgPutBatch frame is delivered
  /// as ONE call with every stored object of `ns`, in store order, without
  /// re-materializing per-object copies (a one-object frame, e.g. a plain
  /// put, is a one-element batch). Other single inserts (Send delivery,
  /// replicate frames, local store) arrive as one-element batches too.
  /// Cancel with CancelNewData.
  using BatchNewDataHandler =
      std::function<void(const std::vector<NewDataEvent>&)>;
  uint64_t OnNewDataBatch(const std::string& ns, BatchNewDataHandler handler);

  /// upcall: intercept in-transit Send objects in `ns` (handleUpcall). The
  /// handler may decode the object with DecodeObject, mutate it, and return
  /// kDrop to consume it.
  void RegisterUpcall(const std::string& ns, OverlayRouter::UpcallHandler handler) {
    router_->RegisterUpcall(ns, std::move(handler));
  }
  void UnregisterUpcall(const std::string& ns) { router_->UnregisterUpcall(ns); }

  // --- Object wire helpers (used by upcall handlers) ---------------------------

  struct WireObject {
    ObjectName name;
    TimeUs lifetime = 0;
    std::string value;
  };
  static std::string EncodeObject(const ObjectName& name, TimeUs lifetime,
                                  std::string_view value);
  /// Append the object encoding to an existing writer (copy-free framing:
  /// the caller seeds the writer with its message type byte and the payload
  /// is written exactly once).
  static void EncodeObjectTo(WireWriter* w, const ObjectName& name,
                             TimeUs lifetime, std::string_view value);
  static Result<WireObject> DecodeObject(std::string_view wire);

  // --- Introspection ------------------------------------------------------------

  OverlayRouter* router() { return router_.get(); }
  ObjectManager* objects() { return objects_.get(); }
  ReplicationManager* replication() { return repl_.get(); }
  Id local_id() const { return router_->local_id(); }
  NetAddress local_address() const { return router_->local_address(); }
  Vri* vri() { return vri_; }
  int replication_factor() const { return options_.replication_factor; }
  /// Largest factor the routing protocol can place (chord: its successor
  /// list length).
  int max_replication_factor() const {
    return router_->protocol()->MaxReplicationFactor();
  }

  struct Stats {
    uint64_t puts = 0;
    uint64_t gets = 0;
    uint64_t sends = 0;
    uint64_t renews = 0;
    uint64_t store_requests = 0;  // objects stored on behalf of others
    uint64_t routed_deliveries = 0;  // Send objects that reached this owner
    uint64_t routed_delivery_hops = 0;  // cumulative hop count of the above
    uint64_t batched_puts = 0;  // objects that rode a multi-object PutBatch frame
    uint64_t batch_msgs = 0;    // multi-object put frames sent
    uint64_t coalesced_msgs = 0;  // mirror of the router's bundle-rider count
    // Replication health (merged from the replication manager at read).
    uint64_t replica_puts = 0;       // replica copies shipped by this node
    uint64_t replica_stores = 0;     // replica copies stored at this node
    uint64_t promotions = 0;         // replicas retagged primary (owner died)
    uint64_t handoff_pushes = 0;     // objects re-propagated to successors
    uint64_t handoff_pulls = 0;      // objects received via range pull
    uint64_t read_failovers = 0;     // gets answered by a replica, not the owner
    uint64_t read_repairs = 0;       // owner copies refreshed from a replica
    uint64_t suppressed_scan_rows = 0;  // replica rows hidden from LocalScan
  };
  Stats stats() const {
    Stats s = stats_;
    s.coalesced_msgs = router_->stats().coalesced_msgs;
    const ReplicationManager::Stats& r = repl_->stats();
    s.replica_puts = r.replica_copies_sent;
    s.replica_stores = r.replica_stores;
    s.promotions = r.promotions;
    s.handoff_pushes = r.handoff_pushes;
    s.handoff_pulls = r.handoff_pulls;
    s.suppressed_scan_rows = r.suppressed_scan_rows;
    return s;
  }

 private:
  // Direct message types (>= 16; below that is the router's).
  static constexpr uint8_t kMsgRenewReq = 19;
  static constexpr uint8_t kMsgRenewResp = 20;
  static constexpr uint8_t kMsgPutBatch = 21;
  // 22 (replicate) and 23 (pull) belong to the replication manager.
  static constexpr uint8_t kMsgGetReqEx = 24;   // read-any get (echoes attempt)
  static constexpr uint8_t kMsgGetRespEx = 25;  // carries remaining lifetimes
  /// Largest entry count either side of the wire accepts in one
  /// kMsgPutBatch frame: the sender chunks bigger groups, the receiver
  /// drops frames past it as malformed.
  static constexpr size_t kMaxBatchEntriesPerFrame = 4096;

  /// A decoded object whose fields alias the receive buffer (no copies until
  /// the store itself). Used by the put-batch and routed-delivery handlers.
  struct WireObjectView {
    std::string_view ns;
    std::string_view key;
    std::string_view suffix;
    std::string_view value;
    TimeUs lifetime = 0;
  };
  static Status DecodeObjectFrom(WireReader* r, WireObjectView* out);

  void HandlePutBatch(const NetAddress& from, std::string_view body);
  void HandleGetReqEx(const NetAddress& from, std::string_view body);
  void HandleGetRespEx(const NetAddress& from, std::string_view body);
  void HandleRenewReq(const NetAddress& from, std::string_view body);
  void HandleRenewResp(const NetAddress& from, std::string_view body);
  void HandleRoutedDelivery(const RouteInfo& info, std::string_view payload);
  void StoreObject(ObjectName name, std::string value, TimeUs lifetime);
  /// Copy a decoded view's fields out of the receive buffer into the store
  /// (the one unavoidable copy of the receive path).
  void StoreFromView(const WireObjectView& v);
  TimeUs EffectiveLifetime(TimeUs lifetime) const {
    return lifetime > 0 ? lifetime : options_.default_lifetime;
  }
  /// Resolve a per-call replica count (0 = default) against the configured
  /// factor and the protocol's capacity.
  int EffectiveReplicas(int replicas) const;
  /// Group, resolve and send a batch. `may_retry`: a group whose cached
  /// owner is unreachable is retried once (as a batch of its own that may
  /// not retry again).
  void ShipBatch(std::shared_ptr<std::vector<DhtPutItem>> batch,
                 BatchCallback done, bool may_retry);
  /// Sends one operation's message to a resolved owner, handing `report` to
  /// the router as the delivery callback. May run twice (see SendToOwner).
  using OwnerSend = std::function<void(const OverlayRouter::Owner& owner,
                                       DoneCallback report)>;
  /// Resolve `target` with `want_succs` successors and run `send` against
  /// the owner. If the owner came from the owner cache and the delivery
  /// fails, the failure has evicted the entry, and the step runs once more
  /// through a routed lookup. `done` gets the lookup failure or the final
  /// delivery report.
  void SendToOwner(Id target, size_t want_succs,
                   std::shared_ptr<const OwnerSend> send, DoneCallback done,
                   bool may_retry = true);
  /// Finish a pending get or renew with `status`.
  void FinishOp(uint64_t op_id, const Status& status);
  /// Send the read-any get to the current candidate; `report` is the
  /// delivery callback.
  void SendGetAttempt(uint64_t op_id, DoneCallback report);
  /// Candidate `attempt` came back empty (`outcome` Ok) or could not be
  /// reached (the delivery error): ask the next one, or finish.
  void AdvanceGet(uint64_t op_id, size_t attempt, const Status& outcome);
  /// Push `items` back at the owner as a fresh primary copy (read repair).
  void ReadRepair(uint64_t op_id, const std::vector<DhtItem>& items,
                  const std::vector<TimeUs>& remaining);

  Vri* vri_;
  Options options_;
  std::unique_ptr<OverlayRouter> router_;
  std::unique_ptr<ObjectManager> objects_;
  std::unique_ptr<ReplicationManager> repl_;

  struct PendingOp {
    GetCallback get_cb;
    DoneCallback done_cb;
    uint64_t timer = 0;
    // Read-any state (gets only).
    std::string ns;
    std::string key;
    std::vector<NetAddress> candidates;  // owner first, then its successors
    size_t attempt = 0;
    bool replied = false;  // some candidate answered (possibly empty)
    Id owner_id = 0;
    int replicas = 0;
  };
  std::unordered_map<uint64_t, PendingOp> pending_;
  uint64_t next_op_id_ = 1;

  struct Subscription {
    std::string ns;
    NewDataHandler handler;              // exactly one of the two is set
    BatchNewDataHandler batch_handler;
  };
  std::unordered_map<uint64_t, Subscription> subs_;
  std::unordered_map<std::string, std::vector<uint64_t>> subs_by_ns_;
  uint64_t next_sub_id_ = 1;

  /// Deliver a put-batch's stored objects to batch subscriptions, grouped by
  /// namespace in store order. Views alias the receive frame.
  void DispatchBatchNewData(const std::vector<WireObjectView>& stored);
  /// True while HandlePutBatch is storing a frame's objects: the insert hook
  /// skips batch subscriptions (they get the grouped dispatch afterwards).
  bool collecting_batch_ = false;

  Stats stats_;
};

}  // namespace pier

#endif  // PIER_OVERLAY_DHT_H_
