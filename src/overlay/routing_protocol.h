// The pluggable overlay routing protocol (§3.2.2, §3.2.4).
//
// The paper: "We currently use Bamboo, although PIER is agnostic to the
// actual algorithm, and has used other DHTs in the past." This interface is
// that seam. Two implementations ship: ChordProtocol (successor lists +
// finger tables) and PrefixProtocol (Pastry/Bamboo-style prefix routing with
// leaf sets). The router owns greedy multi-hop forwarding; the protocol
// answers next-hop / ownership queries and runs its own maintenance traffic.

#ifndef PIER_OVERLAY_ROUTING_PROTOCOL_H_
#define PIER_OVERLAY_ROUTING_PROTOCOL_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "overlay/object_id.h"
#include "runtime/vri.h"

namespace pier {

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

  /// The first `n` nodes that would inherit this node's range if it left —
  /// the replica targets of k-way successor-set replication. Ordered by ring
  /// distance, never containing the local node. Protocols without an ordered
  /// successor structure return empty (replication degenerates to k = 1).
  virtual std::vector<NetAddress> SuccessorSet(size_t n) const {
    (void)n;
    return {};
  }

  /// Largest replication factor this protocol can place (owner + that many
  /// minus one successors). 1 = owner-only storage.
  virtual int MaxReplicationFactor() const { return 1; }

  /// Lower bound of this node's owned range (its predecessor's id), when the
  /// protocol tracks one. Replica repair pulls the range (pred, self] after a
  /// predecessor change. Returns false while unknown.
  virtual bool PredecessorId(Id* out) const {
    (void)out;
    return false;
  }

  virtual std::string name() const = 0;
};

enum class ProtocolKind { kChord, kPrefix };

}  // namespace pier

#endif  // PIER_OVERLAY_ROUTING_PROTOCOL_H_
