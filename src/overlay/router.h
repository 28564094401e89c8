// The overlay router (§3.2.4, Figure 5): multi-hop forwarding with upcalls.
//
// The router owns the node's UdpCc transport on the DHT port, hosts the
// Chord routing protocol, and implements:
//   * Route(): greedy multi-hop delivery of a message toward the owner of an
//     identifier, invoking per-namespace upcall handlers at each intermediate
//     node (the mechanism behind PIER's distribution trees, hierarchical
//     aggregation, and hierarchical joins, §3.3.6);
//   * Lookup(): resolve an identifier to its owner's address. The owner
//     answers a routed lookup with its range and its successors' ranges,
//     which the requester keeps in a bounded owner cache; a warm lookup is
//     answered from that cache, so the DHT's put/get becomes one direct
//     message instead of the two phases of Figure 6 (see README.md, "Owner
//     cache");
//   * Broadcast(): deliver a payload to every node once, each node covering
//     a ring interval split along its own routing contacts and cached owners
//     (see README.md, "Broadcast");
//   * a direct-message extension point used by the object-storage layer.
//
// Every frame leaves through SendFramed, the router's one call into UdpCc's
// acknowledged Send: a frame is built once, type byte first, and a reply
// sent from inside its request's handler carries that request's ACK
// (runtime/udpcc.h). The protocol's own RPC replies are the exception:
// ReplyProtocolMessage sends them as unacknowledged UdpCC replies.

#ifndef PIER_OVERLAY_ROUTER_H_
#define PIER_OVERLAY_ROUTER_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "overlay/object_id.h"
#include "overlay/routing_protocol.h"
#include "runtime/udpcc.h"
#include "runtime/vri.h"
#include "util/wire.h"

namespace pier {

/// Default UDP port for overlay traffic.
constexpr uint16_t kDhtPort = 5000;

/// What an upcall handler tells the router to do with an in-transit message.
enum class UpcallAction {
  kContinue,  // forward toward the destination (payload may be modified)
  kDrop,      // consume the message here
};

/// Metadata accompanying a routed message.
struct RouteInfo {
  Id target = 0;
  std::string ns;
  uint8_t hops = 0;  // network hops taken so far (1 at the first receiver)
  bool shortcut = false;  // jumped to a cached owner (bit 7 of `hops`)
  bool hinted = false;    // the jump's landing node hinted (bit 6)
};

class OverlayRouter : public ProtocolHost {
 public:
  struct Options {
    uint16_t port = kDhtPort;
  };

  /// A routed message past this many hops is delivered where it stands. The
  /// count fits in the six low bits of the `hops` byte.
  static constexpr uint8_t kMaxHops = 63;
  /// A lookup with no reply by then fails.
  static constexpr TimeUs kLookupTimeout = 5 * kSecond;
  /// Next hops a routed message tries before it is dropped.
  static constexpr int kRouteRetryLimit = 3;

  OverlayRouter(Vri* vri, Options options);
  ~OverlayRouter() override;

  OverlayRouter(const OverlayRouter&) = delete;
  OverlayRouter& operator=(const OverlayRouter&) = delete;

  /// Join the overlay; a null bootstrap means "first node".
  void Join(const NetAddress& bootstrap);

  bool IsReady() const { return protocol_->IsReady(); }

  // --- Routed messaging ----------------------------------------------------

  /// Handler invoked at *intermediate* nodes for messages in namespace `ns`.
  /// May mutate the payload before returning kContinue.
  using UpcallHandler =
      std::function<UpcallAction(const RouteInfo& info, std::string* payload)>;

  void RegisterUpcall(const std::string& ns, UpcallHandler handler);
  void UnregisterUpcall(const std::string& ns);

  /// Handler invoked at the node that owns the message's target id.
  using DeliveryHandler =
      std::function<void(const RouteInfo& info, std::string_view payload)>;

  void set_delivery_handler(DeliveryHandler handler) {
    delivery_handler_ = std::move(handler);
  }

  /// Route `payload` toward the owner of `target` with upcalls en route. A
  /// node with no upcall for `ns` sends it once straight to a cached owner.
  void Route(const std::string& ns, Id target, std::string payload);

  // --- Owner lookup ----------------------------------------------------------

  /// A resolved owner.
  struct Owner {
    NetAddress address;
    Id id = 0;
    /// Answered from the owner cache rather than by the overlay. A cached
    /// owner may have died since; callers re-resolve once if it is
    /// unreachable (the failed delivery has already evicted the entry).
    bool cached = false;
  };
  using LookupCallback = std::function<void(const Result<Owner>& owner)>;

  /// Resolve `target` to its owner. Answered synchronously when this node
  /// owns `target` or the owner cache covers it; otherwise a lookup is
  /// routed to the owner, which replies directly. A reply to any lookup
  /// that caches a range holding `target` answers it first, as a cached
  /// owner.
  void Lookup(Id target, LookupCallback cb);

  /// Drop the cached range owned by `owner_id` if it still names `address`:
  /// that owner has gone quiet (Dht::Get's hedged read).
  void EvictOwner(Id owner_id, const NetAddress& address);

  /// Most owner ranges a node caches.
  static constexpr size_t kOwnerCacheCapacity = 1024;
  size_t owner_cache_size() const { return owner_cache_.size(); }

  /// Called by the storage layer when `from` sent this node a primary write
  /// or a get for `target`. If this node does not own `target`, `from`'s
  /// owner cache is stale: send it a not-owner hint carrying this node's
  /// current range. Returns true if a hint was sent.
  bool HintIfNotOwner(const NetAddress& from, Id target);

  // --- Broadcast -------------------------------------------------------------

  /// Direct message type of broadcast fan-out: `bcast_id u64, limit u64,
  /// payload` (tabled in README.md).
  static constexpr uint8_t kMsgBroadcast = 215;
  /// Broadcast ids a node remembers, to drop a second copy.
  static constexpr size_t kBroadcastDedupWindow = 1024;

  /// Invoked once per broadcast payload on every node. The originator's own
  /// copy runs from a zero-delay event, never inside Broadcast().
  using BroadcastHandler = std::function<void(std::string_view payload)>;
  void set_broadcast_handler(BroadcastHandler handler) {
    broadcast_handler_ = std::move(handler);
  }

  /// Deliver `payload` to every node in the overlay, with no root: this node
  /// covers the whole ring, split along its contacts and the owners in its
  /// cache. It sends at most min(N - 1, contacts + kOwnerCacheCapacity)
  /// frames itself; a warm cache reaches every node in about one hop, a cold
  /// one in about log2 N.
  void Broadcast(std::string payload);

  // --- Direct typed messages (object-layer extension point) -----------------

  // The router's own type bytes (every layer's are tabled in
  // src/overlay/README.md). A lookup request rides a routed frame.
  static constexpr uint8_t kMsgProto = 1;
  static constexpr uint8_t kMsgRoute = 2;
  static constexpr uint8_t kMsgLookupReq = 3;
  static constexpr uint8_t kMsgLookupResp = 4;
  static constexpr uint8_t kMsgNotOwner = 6;

  using DirectHandler =
      std::function<void(const NetAddress& from, std::string_view payload)>;

  /// Register a handler for a message type byte. Types below 16 are reserved
  /// for the router itself.
  void RegisterDirectType(uint8_t type, DirectHandler handler);

  /// Reliable direct message; `on_delivery` may be null. `framed` is the
  /// complete wire message, type byte first (start from FrameMessage and
  /// append the body); the buffer moves straight down to the transport.
  void SendFramed(const NetAddress& to, std::string framed,
                  std::function<void(const Status&)> on_delivery = nullptr);

  /// A writer pre-seeded with the message type byte, for SendFramed.
  static WireWriter FrameMessage(uint8_t type) {
    WireWriter w;
    w.PutU8(type);
    return w;
  }

  // --- Introspection ---------------------------------------------------------

  RoutingProtocol* protocol() { return protocol_.get(); }

  struct Stats {
    uint64_t routed_originated = 0;
    uint64_t routed_forwarded = 0;
    uint64_t routed_delivered = 0;
    uint64_t upcall_drops = 0;
    uint64_t lookups_started = 0;  // every resolve, cached or not
    uint64_t lookups_ok = 0;
    uint64_t lookups_failed = 0;
    uint64_t lookup_cache_hits = 0;       // resolves served from the cache
    uint64_t lookup_cache_evictions = 0;  // cache entries dropped
    uint64_t lookups_covered = 0;  // pending lookups another reply answered
    uint64_t not_owner_hints_sent = 0;
    uint64_t route_dead_ends = 0;
    uint64_t broadcast_frames = 0;  // broadcast frames this node sent
    uint64_t broadcast_dups = 0;    // broadcast copies dropped as seen
  };
  const Stats& stats() const { return stats_; }
  UdpCc* transport() { return transport_.get(); }

  // --- ProtocolHost ----------------------------------------------------------
  void SendProtocolMessage(
      const NetAddress& to, std::string payload,
      std::function<void(const Status&)> on_delivery) override;
  void ReplyProtocolMessage(const NetAddress& to,
                            std::string_view payload) override;
  Vri* vri() override { return vri_; }
  Id local_id() const override { return local_id_; }
  NetAddress local_address() const override { return local_address_; }

 private:
  void HandleMessage(const NetAddress& from, std::string_view payload);
  void HandleRoute(const NetAddress& from, std::string_view body);
  void HandleLookupReq(Id target, std::string_view body);
  void HandleLookupResp(std::string_view body);
  void HandleNotOwner(const NetAddress& from, std::string_view body);
  void ForwardRoute(RouteInfo info, std::string payload, int attempts);
  void Deliver(const RouteInfo& info, std::string_view payload);
  std::string EncodeRoute(const RouteInfo& info, std::string_view payload);
  /// A broadcast frame (or a routed re-cover) naming `limit` arrived.
  void HandleBroadcast(std::string_view body, Id lo);
  /// Send the broadcast to each contact and cached owner in the ring
  /// interval (lo, limit), each to cover up to the next one's id (the last
  /// up to `limit`).
  void CoverInterval(uint64_t bcast_id, std::string_view payload, Id lo,
                     Id limit);
  /// A re-cover's routed body starts with the dead contact's address: drop
  /// that contact here, and return the broadcast body after it.
  std::string_view DropDeadContact(std::string_view recover);
  /// Records `bcast_id`; false if it was already seen.
  bool FirstBroadcastCopy(uint64_t bcast_id);

  Vri* vri_;
  Options options_;
  NetAddress local_address_;
  Id local_id_;
  std::unique_ptr<UdpCc> transport_;
  std::unique_ptr<RoutingProtocol> protocol_;
  DeliveryHandler delivery_handler_;
  std::unordered_map<std::string, UpcallHandler> upcalls_;
  std::map<uint8_t, DirectHandler> direct_handlers_;

  struct PendingLookup {
    Id target = 0;
    LookupCallback cb;
    uint64_t timer = 0;
  };
  std::unordered_map<uint64_t, PendingLookup> pending_lookups_;
  /// The pending lookups by (target, lookup id), so a reply finds the ones
  /// its ranges cover without visiting the rest.
  std::set<std::pair<Id, uint64_t>> pending_targets_;
  uint64_t next_lookup_id_ = 1;
  /// Removes pending lookup `lookup_id` and cancels its timer; returns its
  /// callback, or null if it is no longer pending.
  LookupCallback TakePendingLookup(uint64_t lookup_id);

  /// Owner cache: the owner of the ids in (lower, owner id], keyed by owner
  /// id, so the entry covering a target is the first at or after it.
  struct CachedOwner {
    Id lower = 0;
    NetAddress address;
  };
  std::map<Id, CachedOwner> owner_cache_;
  /// The entry whose range holds `target`, or end().
  std::map<Id, CachedOwner>::iterator FindCachedOwner(Id target);
  void CacheOwner(Id owner_id, Id lower, const NetAddress& address);
  /// Completes, as cached resolves, the pending lookups whose targets lie
  /// in (lower, upper] and in a cached range.
  void CompleteCoveredLookups(Id lower, Id upper);
  /// A delivery to `peer` failed: drop every entry naming it.
  void EvictPeer(const NetAddress& peer);

  BroadcastHandler broadcast_handler_;
  std::unordered_set<uint64_t> seen_bcasts_;
  std::deque<uint64_t> seen_order_;  // oldest first, for the dedup window
  uint64_t next_bcast_salt_ = 1;
  /// The originator's own copies, waiting for the zero-delay event.
  std::vector<std::string> local_copies_;
  uint64_t local_copy_timer_ = 0;

  Stats stats_;
};

}  // namespace pier

#endif  // PIER_OVERLAY_ROUTER_H_
