// Query-dissemination distribution trees (§3.3.3).
//
// PIER maintains a tree over all nodes for broadcasting opgraphs. Each node
// periodically routes a JOIN message containing its address toward a
// well-known root identifier; the node at the *first hop* intercepts the
// message via an upcall, records the sender as a child, and drops the
// message. A node's depth is thus the hop count its message would have taken
// to the root, and the tree's shape (fanout, height, imbalance) is inherited
// from the DHT's routing algorithm — Chord yields roughly binomial trees
// (footnote 6). Child records are soft state refreshed on a timer. There is
// one tree per overlay.

#ifndef PIER_OVERLAY_DISTRIBUTION_TREE_H_
#define PIER_OVERLAY_DISTRIBUTION_TREE_H_

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <unordered_set>

#include "overlay/dht.h"

namespace pier {

class DistributionTree {
 public:
  /// Direct message type of broadcast fan-out (tabled in README.md).
  static constexpr uint8_t kMsgBroadcast = 215;
  static constexpr TimeUs kJoinRefreshPeriod = 2 * kSecond;
  /// Soft-state expiry of child records.
  static constexpr TimeUs kChildLifetime = 6 * kSecond;

  explicit DistributionTree(Dht* dht);
  ~DistributionTree();

  /// Handler invoked exactly once per broadcast payload on every node
  /// (including the broadcast's originator).
  using BroadcastHandler = std::function<void(std::string_view payload)>;
  void set_broadcast_handler(BroadcastHandler handler) {
    handler_ = std::move(handler);
  }

  /// Deliver `payload` to every node in the overlay via the tree.
  void Broadcast(std::string payload);

  /// Current child count (diagnostics / tree-shape experiments).
  size_t num_children() const { return children_.size(); }

  const std::string& join_ns() const { return join_ns_; }

 private:
  void SendJoin();
  void RecordChild(const NetAddress& child);
  void HandleBroadcastMsg(const NetAddress& from, std::string_view body);
  void FanOut(uint64_t bcast_id, std::string_view payload,
              const NetAddress& skip);

  Dht* dht_;
  const std::string join_ns_ = "!tree:tree0:join";
  const std::string bcast_ns_ = "!tree:tree0:bc";
  Id root_id_;
  std::map<NetAddress, TimeUs> children_;  // child -> expiry
  std::unordered_set<uint64_t> seen_bcasts_;
  std::deque<uint64_t> seen_order_;
  BroadcastHandler handler_;
  /// Repeating join-refresh tick; scheduled events copy from here so the
  /// closure never strongly captures its own function object.
  std::function<void()> join_tick_;
  uint64_t join_timer_ = 0;
  uint64_t next_bcast_salt_ = 1;
  uint64_t join_sub_ = 0;
  uint64_t bcast_sub_ = 0;
};

}  // namespace pier

#endif  // PIER_OVERLAY_DISTRIBUTION_TREE_H_
