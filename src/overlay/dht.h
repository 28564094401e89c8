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
//
// Every object that travels to be stored rides one store frame (kMsgStore):
// a put's copy for its owner, the copies the owner places at its successors,
// the replication manager's handoff pushes, and read repair. One handler
// stores each object and announces the client writes among them (the copies
// a put sent its owner) as one grouped newData dispatch per frame. The Dht
// is the only writer of its ObjectManager: every other client write (a Send
// delivery, local-only tables, operator state) enters through StoreLocal,
// which announces it the same way.

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
    /// Default copies per stored object: the owner plus replication_factor-1
    /// of its successors (k-way successor-set replication). 1 = the classic
    /// owner-only placement. Validated against the routing protocol's
    /// successor capacity at construction, so a misconfigured k fails loudly
    /// at startup instead of silently at placement time.
    int replication_factor = 1;
  };

  /// A get or renew with no answer by then fails.
  static constexpr TimeUs kOpTimeout = 10 * kSecond;
  /// Soft-state lifetime used when callers pass lifetime = 0.
  static constexpr TimeUs kDefaultLifetime = 2LL * 60 * kSecond;

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
  /// READ-ANY over up to k candidates (k = `replicas`, 0 = the configured
  /// default): the owner first, then each next one the owner of the id just
  /// past the previous candidate's (its successor), resolved only when the
  /// previous one came back empty or unreachable. The walk stops early on a
  /// ring smaller than k. A copy found past the owner read-repairs the
  /// missing/stale owner copy. With k = 1 the owner is the only candidate.
  /// The get fails with the delivery error only when no candidate replied;
  /// an empty reply from every candidate is Ok with no items. An owner taken
  /// from the owner cache that has not answered within kOpTimeout / 4 may
  /// have died unnoticed: its cache entry is evicted and the get re-resolves
  /// the owner over the overlay in parallel (reads are idempotent; the first
  /// answer wins).
  void Get(const std::string& ns, const std::string& key, GetCallback cb);
  void Get(const std::string& ns, const std::string& key, GetCallback cb,
           int replicas);

  /// put(namespace, key, suffix, object, lifetime): store at the responsible
  /// node (resolve, then one direct message). A put is a one-item PutBatch:
  /// the payload is moved into the batch, so pass an rvalue (std::move an
  /// owned buffer or hand over a temporary). `replicas` > 1 asks the owner
  /// to place copies at its first replicas-1 successors (0 = the configured
  /// default factor). `done` reports the OWNER delivery; replica copies are
  /// best-effort.
  void Put(const std::string& ns, const std::string& key, const std::string& suffix,
           std::string&& value, TimeUs lifetime, DoneCallback done = nullptr,
           int replicas = 0);

  /// One delivery group's outcome in a PutBatch: the items (by position in
  /// the submitted vector) that rode one wire frame to a responsible node,
  /// and how that delivery went. An oversized destination chunks into
  /// several groups with the same owner, so a lost chunk names exactly its
  /// own items. A failed lookup yields a group with a null owner. The
  /// owner places replicated items' copies itself, so a group reports only
  /// its owner delivery.
  struct PutGroupStatus {
    NetAddress owner;
    std::vector<size_t> indices;
    Status status;
  };
  /// Per-group completion report: `first_error` is Ok iff every group
  /// delivered; `groups` says exactly which items were dropped and why, so
  /// callers can surface partial failures instead of collapsing them into
  /// one error.
  using BatchCallback = std::function<void(const Status& first_error,
                                           std::vector<PutGroupStatus> groups)>;

  /// Batched put: the batch is grouped by responsible node (one Lookup per
  /// distinct routing id, one store frame per owner whatever the object
  /// count). Each owner places the copies of its replicated items at its
  /// own successors. Entry order is preserved within each destination, so
  /// objects sharing a (ns, key) arrive in batch order. `done` (may be null)
  /// fires once after every owner frame's delivery resolved, with every
  /// group's outcome: a batch whose destinations PARTIALLY fail (one owner
  /// dead, the rest fine) names exactly the dropped items.
  void PutBatch(std::vector<DhtPutItem> items, BatchCallback done = nullptr);

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

  /// localScan: visit all objects of `ns` stored at this node (handleLScan),
  /// with each object's local store time, so catch-up consumers (a
  /// swapped-in Scan honoring a catch-up high-water mark) can skip history
  /// without a second metadata lookup.
  using ScanFn = std::function<void(const ObjectName&, std::string_view value,
                                    TimeUs stored_at)>;
  void LocalScan(const std::string& ns, const ScanFn& fn);

  /// Store a client write at this node, whoever owns its id, and announce it
  /// to `name.ns`'s newData subscribers as a one-element batch. `lifetime`
  /// is clamped to ObjectManager::kMaxLifetime; one <= 0 stores nothing.
  void StoreLocal(ObjectName name, std::string value, TimeUs lifetime);

  /// One newly stored object in a newData delivery. `value` aliases the
  /// receive frame (or the stored copy for single inserts) and is valid only
  /// for the duration of the handler call.
  struct NewDataEvent {
    ObjectName name;
    std::string_view value;
  };
  /// newData: subscribe to client writes stored at this node in `ns`
  /// (handleNewData): put primaries, Send deliveries and local stores.
  /// Replication maintenance (replica copies, handoff, read repair) moves
  /// existing objects and stays silent. A store frame is delivered as ONE
  /// call with every stored client write of `ns`, in store order, without
  /// re-materializing per-object copies; a Send delivery or a local store is
  /// a one-element batch. Returns a token for CancelNewData.
  using BatchNewDataHandler =
      std::function<void(const std::vector<NewDataEvent>&)>;
  uint64_t OnNewDataBatch(const std::string& ns, BatchNewDataHandler handler);
  /// Per-object adapter over OnNewDataBatch.
  using NewDataHandler =
      std::function<void(const ObjectName&, std::string_view value)>;
  uint64_t OnNewData(const std::string& ns, NewDataHandler handler);
  void CancelNewData(uint64_t token);

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

  /// Largest object count either side of the wire accepts in one store
  /// frame: senders chunk bigger groups, the receiver drops frames past it
  /// as malformed.
  static constexpr size_t kMaxStoreObjectsPerFrame = 4096;
  /// The store frame encoder. FrameStore seeds the frame (type byte, then
  /// `replica_index u8, origin u8, count varint`; the origin is a
  /// StoreOrigin, declared beside the replication manager that sends store
  /// frames too); append exactly `count`
  /// objects with EncodeStoreObject (the routed-object codec, then
  /// `age varint, desired u8`) and hand the frame to
  /// OverlayRouter::SendFramed. `lifetime` is the copy's remaining lifetime
  /// (never 0 = default: senders resolve it) and `age` how long the origin
  /// copy has lived.
  static WireWriter FrameStore(uint8_t replica_index, StoreOrigin origin,
                               size_t count);
  static void EncodeStoreObject(WireWriter* w, const ObjectName& name,
                                TimeUs lifetime, TimeUs age,
                                uint8_t desired_replicas,
                                std::string_view value);

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
    uint64_t store_requests = 0;  // primary copies stored for others
    uint64_t routed_deliveries = 0;  // Send objects that reached this owner
    uint64_t routed_delivery_hops = 0;  // cumulative hop count of the above
    uint64_t batched_puts = 0;  // objects that rode a multi-object put frame
    uint64_t batch_msgs = 0;    // multi-object put frames sent
    uint64_t coalesced_msgs = 0;  // always 0; benchmark/pier_bench.cc reads it
    // Replication health (the rest merged from the replication manager).
    uint64_t replica_puts = 0;       // replica copies shipped by this node
    uint64_t replica_stores = 0;     // replica copies stored at this node
    uint64_t handoff_pushes = 0;     // objects re-propagated or handed off
    uint64_t read_failovers = 0;     // gets answered by a replica, not the owner
    uint64_t read_repairs = 0;       // owner copies refreshed from a replica
    uint64_t suppressed_scan_rows = 0;  // replica rows hidden from LocalScan
  };
  Stats stats() const {
    Stats s = stats_;
    const ReplicationManager::Stats& r = repl_->stats();
    s.replica_puts = r.replica_copies_sent;
    s.handoff_pushes = r.handoff_pushes;
    s.suppressed_scan_rows = r.suppressed_scan_rows;
    return s;
  }

  // Direct message types (every layer's are tabled in src/overlay/README.md;
  // public so tests can build frames).
  static constexpr uint8_t kMsgRenewReq = 19;
  static constexpr uint8_t kMsgRenewResp = 20;
  static constexpr uint8_t kMsgStore = 22;  // every object sent to be stored
  static constexpr uint8_t kMsgGetReqEx = 24;   // read-any get (echoes attempt)
  static constexpr uint8_t kMsgGetRespEx = 25;  // carries remaining lifetimes

 private:

  /// A decoded object whose fields alias the receive buffer (no copies until
  /// the store itself). Used by the store-frame and routed-delivery handlers.
  struct WireObjectView {
    std::string_view ns;
    std::string_view key;
    std::string_view suffix;
    std::string_view value;
    TimeUs lifetime = 0;
  };
  static Status DecodeObjectFrom(WireReader* r, WireObjectView* out);

  void HandleStore(const NetAddress& from, std::string_view body);
  void HandleGetReqEx(const NetAddress& from, std::string_view body);
  void HandleGetRespEx(const NetAddress& from, std::string_view body);
  void HandleRenewReq(const NetAddress& from, std::string_view body);
  void HandleRenewResp(const NetAddress& from, std::string_view body);
  void HandleRoutedDelivery(const RouteInfo& info, std::string_view payload);
  TimeUs EffectiveLifetime(TimeUs lifetime) const {
    return lifetime > 0 ? lifetime : kDefaultLifetime;
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
  /// Resolve `target` and run `send` against the owner. If the owner came
  /// from the owner cache and the delivery fails, the failure has evicted
  /// the entry, and the step runs once more through a routed lookup. `done`
  /// gets the lookup failure or the final delivery report.
  void SendToOwner(Id target, std::shared_ptr<const OwnerSend> send,
                   DoneCallback done, bool may_retry = true);
  /// Finish a pending get or renew with `status` (and a get's `items`).
  void FinishOp(uint64_t op_id, const Status& status,
                std::vector<DhtItem> items = {});
  /// The hedged read: the get's cached owner has been quiet for
  /// kOpTimeout / 4; evict it and ask the owner the overlay resolves.
  void HedgeGet(uint64_t op_id);
  /// Send the read-any get to the current candidate; `report` is the
  /// delivery callback.
  void SendGetAttempt(uint64_t op_id, DoneCallback report);
  /// Candidate `attempt` came back empty (`outcome` Ok) or could not be
  /// reached (the delivery error): resolve and ask the next one, or finish.
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
    uint64_t hedge_timer = 0;  // the hedged read, when the owner was cached
    bool renew = false;  // a renew; otherwise a get
    // Read-any state (gets only).
    std::string ns;
    std::string key;
    /// The owner first, then each owner of the id just past the previous.
    std::vector<OverlayRouter::Owner> candidates;
    size_t attempt = 0;
    bool replied = false;  // some candidate answered (possibly empty)
    int replicas = 0;
  };
  std::unordered_map<uint64_t, PendingOp> pending_;
  uint64_t next_op_id_ = 1;

  struct Subscription {
    std::string ns;
    BatchNewDataHandler handler;
  };
  std::unordered_map<uint64_t, Subscription> subs_;
  std::unordered_map<std::string, std::vector<uint64_t>> subs_by_ns_;
  uint64_t next_sub_id_ = 1;

  /// Deliver newly stored client writes (at least one) to their namespaces'
  /// subscriptions, one call per namespace in first-seen order, store order
  /// within it.
  void DispatchNewData(const std::vector<NewDataEvent>& events);

  Stats stats_;
};

}  // namespace pier

#endif  // PIER_OVERLAY_DHT_H_
