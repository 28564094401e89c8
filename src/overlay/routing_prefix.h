// Prefix routing protocol in the Pastry/Bamboo family, behind PIER's
// RoutingProtocol seam.
//
// Identifiers are read as 16 hexadecimal digits (most significant first).
// Each node keeps a 16x16 routing table (row = shared prefix length, column
// = next digit) plus a leaf set of the closest nodes on either side of its
// identifier. Routing greedily extends the shared prefix; within leaf-set
// range the numerically closest node is the owner (Pastry's rule). Like
// Bamboo, table entries are learned lazily from observed traffic, and leaf
// sets are maintained by periodic gossip — the churn-resilient "periodic
// recovery" style of Rhea et al. [60].

#ifndef PIER_OVERLAY_ROUTING_PREFIX_H_
#define PIER_OVERLAY_ROUTING_PREFIX_H_

#include <array>
#include <functional>
#include <unordered_map>
#include <vector>

#include "overlay/routing_protocol.h"
#include "util/status.h"

namespace pier {

class PrefixProtocol : public RoutingProtocol {
 public:
  struct Peer {
    Id id = 0;
    NetAddress addr;
    bool valid() const { return !addr.IsNull(); }
  };

  struct Options {
    int leaf_per_side = 4;
    TimeUs gossip_period = 750 * kMillisecond;
    TimeUs rpc_timeout = 2 * kSecond;
    TimeUs join_retry_delay = 1 * kSecond;
    int max_join_iterations = 48;
  };

  explicit PrefixProtocol(ProtocolHost* host) : PrefixProtocol(host, Options{}) {}
  PrefixProtocol(ProtocolHost* host, Options options);
  ~PrefixProtocol() override;

  // RoutingProtocol:
  void Start(const NetAddress& bootstrap) override;
  bool IsReady() const override { return ready_; }
  bool IsOwner(Id target) const override;
  NetAddress NextHop(Id target) const override;
  void HandleProtocolMessage(const NetAddress& from,
                             std::string_view payload) override;
  void OnPeerUnreachable(const NetAddress& peer) override;
  void ObserveContact(Id id, const NetAddress& addr) override;
  std::string name() const override { return "prefix"; }

  /// Warm start from global knowledge (see ChordProtocol::SeedRoutingState).
  void SeedRoutingState(const std::vector<Peer>& ring);

  const std::vector<Peer>& leaves_cw() const { return leaves_cw_; }
  const std::vector<Peer>& leaves_ccw() const { return leaves_ccw_; }

 private:
  static constexpr uint8_t kJoinFind = 1;
  static constexpr uint8_t kJoinFindResp = 2;
  static constexpr uint8_t kGossip = 3;

  static int SharedPrefixNibbles(Id a, Id b);
  static int NibbleAt(Id id, int pos);

  Peer Self() const { return Peer{host_->local_id(), host_->local_address()}; }
  /// Closest node to `target` among self + leaves (+ optionally table).
  Peer ClosestKnown(Id target, bool include_table) const;
  bool LeafSetCovers(Id target) const;
  void InsertLeaf(const Peer& p);
  void RemoveEverywhere(const NetAddress& addr);
  void Gossip();
  void SendGossipTo(const NetAddress& addr);
  void DoJoin(const NetAddress& bootstrap);

  ProtocolHost* host_;
  Options options_;
  bool ready_ = false;
  bool started_ = false;
  bool maintenance_scheduled_ = false;
  // Leaf sets ordered by increasing ring distance from self.
  std::vector<Peer> leaves_cw_;
  std::vector<Peer> leaves_ccw_;
  std::array<std::array<Peer, 16>, 16> table_{};
  /// Repeating gossip tick; scheduled events copy from here so the closure
  /// never strongly captures its own function object.
  std::function<void()> gossip_tick_;
  uint64_t gossip_timer_ = 0;
  uint64_t join_timer_ = 0;
  uint64_t next_nonce_ = 1;
  struct PendingJoin {
    std::function<void(const Status&, std::string_view)> cb;
    uint64_t timer = 0;
  };
  std::unordered_map<uint64_t, PendingJoin> pending_;
};

}  // namespace pier

#endif  // PIER_OVERLAY_ROUTING_PREFIX_H_
