// The pluggable overlay routing protocol (§3.2.2, §3.2.4).
//
// The paper: "We currently use Bamboo, although PIER is agnostic to the
// actual algorithm, and has used other DHTs in the past." This interface is
// that seam. One implementation sits behind it: ChordProtocol (successor
// lists + finger tables). PIER ran on Bamboo, a prefix-routing DHT; this
// tree routes on a Chord ring instead. The router owns greedy multi-hop
// forwarding; the protocol answers next-hop / ownership queries and runs its
// own maintenance traffic.

#ifndef PIER_OVERLAY_ROUTING_PROTOCOL_H_
#define PIER_OVERLAY_ROUTING_PROTOCOL_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "overlay/object_id.h"
#include "runtime/vri.h"
#include "util/wire.h"

namespace pier {

/// A node on the identifier ring.
struct RingPeer {
  Id id = 0;
  NetAddress addr;
  bool valid() const { return !addr.IsNull(); }
};

/// A peer on the wire: `id u64, host u32, port u16`.
inline void PutPeer(WireWriter* w, const RingPeer& p) {
  w->PutU64(p.id);
  w->PutU32(p.addr.host);
  w->PutU16(p.addr.port);
}

inline Status GetPeer(WireReader* r, RingPeer* p) {
  PIER_RETURN_IF_ERROR(r->GetU64(&p->id));
  PIER_RETURN_IF_ERROR(r->GetU32(&p->addr.host));
  return r->GetU16(&p->addr.port);
}

/// Appends `p` to `out` unless it is empty, `self`, or already listed.
inline void AddContact(const RingPeer& p, const NetAddress& self,
                       std::vector<RingPeer>* out) {
  if (!p.valid() || p.addr == self) return;
  for (const RingPeer& q : *out)
    if (q.addr == p.addr) return;
  out->push_back(p);
}

/// Services the router exposes to its protocol.
class ProtocolHost {
 public:
  virtual ~ProtocolHost() = default;

  /// Reliable direct message to a peer's protocol instance. `on_delivery`
  /// (optional) reports Unavailable if the peer cannot be reached — protocols
  /// use this as their failure detector.
  virtual void SendProtocolMessage(
      const NetAddress& to, std::string payload,
      std::function<void(const Status&)> on_delivery) = 0;

  /// One unacknowledged datagram to a peer's protocol instance (a UdpCC
  /// reply, runtime/udpcc.h). Called while `to`'s request is being handled,
  /// it carries that request's ACK, so the exchange costs two datagrams.
  /// Nothing retransmits a lost reply: the requester's own timeout must
  /// re-send the request.
  virtual void ReplyProtocolMessage(const NetAddress& to,
                                    std::string_view payload) = 0;

  virtual Vri* vri() = 0;
  virtual Id local_id() const = 0;
  virtual NetAddress local_address() const = 0;
};

class RoutingProtocol {
 public:
  virtual ~RoutingProtocol() = default;

  /// Begin operation. A null bootstrap address means "I am the first node".
  virtual void Start(const NetAddress& bootstrap) = 0;

  /// True once the node has integrated into the overlay (first node: true
  /// immediately; others: after the join handshake).
  virtual bool IsReady() const = 0;

  /// Is this node currently responsible for `target`?
  virtual bool IsOwner(Id target) const = 0;

  /// Best next hop toward `target`, or the null address if none is known
  /// (caller should treat self as owner). Never returns the local address.
  virtual NetAddress NextHop(Id target) const = 0;

  /// Protocol maintenance traffic from a peer.
  virtual void HandleProtocolMessage(const NetAddress& from,
                                     std::string_view payload) = 0;

  /// The router observed that `peer` is unreachable; drop it from tables.
  virtual void OnPeerUnreachable(const NetAddress& peer) = 0;

  /// Opportunistic learning: the router observed live traffic from a peer
  /// with the given id (Bamboo-style lazy table fill).
  virtual void ObserveContact(Id id, const NetAddress& addr) = 0;

  /// Instant warm start from global knowledge: install the routing state a
  /// converged overlay would hold. `ring` must be every live node sorted by
  /// id. SimPier's seeded boot uses it, so large static simulations skip
  /// their join and stabilize traffic.
  virtual void SeedRoutingState(const std::vector<RingPeer>& ring) = 0;

  /// Every distinct live peer in the routing state, never the local node.
  /// The one invariant the router's broadcast relies on: the list holds the
  /// node's clockwise ring neighbour.
  virtual std::vector<RingPeer> Contacts() const = 0;

  /// Longest successor list a protocol keeps. A lookup reply carries at most
  /// this many of the owner's successors.
  static constexpr int kMaxSuccessors = 8;

  /// The first `n` nodes that would inherit this node's range if it left —
  /// the replica targets of k-way successor-set replication, and the arc a
  /// lookup reply teaches its requester. Ordered by ring distance, never
  /// containing the local node.
  virtual std::vector<RingPeer> SuccessorSet(size_t n) const = 0;

  /// This node's predecessor, whose id is the lower bound of the owned range.
  /// Replica repair ships a range a joiner took over to its address. Returns
  /// false while unknown.
  virtual bool Predecessor(RingPeer* out) const = 0;
};

}  // namespace pier

#endif  // PIER_OVERLAY_ROUTING_PROTOCOL_H_
