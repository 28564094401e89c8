// Chord routing protocol (Stoica et al., SIGCOMM 2001) behind PIER's
// RoutingProtocol seam.
//
// Successor-list + finger-table routing on the 2^64 ring. Maintenance follows
// the Chord paper: periodic stabilize (reconcile successor/predecessor),
// round-robin finger repair, and predecessor liveness checks. Joins resolve
// the newcomer's successor iteratively through any bootstrap node.
//
// Distribution trees built over Chord routing are (roughly) binomial — the
// shape claim of the paper's footnote 6, reproduced by bench_dissemination.

#ifndef PIER_OVERLAY_ROUTING_CHORD_H_
#define PIER_OVERLAY_ROUTING_CHORD_H_

#include <array>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "overlay/routing_protocol.h"
#include "util/status.h"

namespace pier {

class ChordProtocol : public RoutingProtocol {
 public:
  struct Peer {
    Id id = 0;
    NetAddress addr;
    bool valid() const { return !addr.IsNull(); }
  };

  struct Options {
    TimeUs stabilize_period = 500 * kMillisecond;
    TimeUs fix_finger_period = 250 * kMillisecond;
    TimeUs check_pred_period = 1 * kSecond;
    TimeUs rpc_timeout = 2 * kSecond;
    TimeUs join_retry_delay = 1 * kSecond;
    int successor_list_len = 8;
    int max_resolve_iterations = 48;
  };

  explicit ChordProtocol(ProtocolHost* host) : ChordProtocol(host, Options{}) {}
  ChordProtocol(ProtocolHost* host, Options options);
  ~ChordProtocol() override;

  // RoutingProtocol:
  void Start(const NetAddress& bootstrap) override;
  bool IsReady() const override { return ready_; }
  bool IsOwner(Id target) const override;
  NetAddress NextHop(Id target) const override;
  void HandleProtocolMessage(const NetAddress& from,
                             std::string_view payload) override;
  void OnPeerUnreachable(const NetAddress& peer) override;
  void ObserveContact(Id id, const NetAddress& addr) override;
  std::vector<NetAddress> SuccessorSet(size_t n) const override;
  int MaxReplicationFactor() const override {
    return options_.successor_list_len;
  }
  bool PredecessorId(Id* out) const override {
    if (!pred_.valid()) return false;
    *out = pred_.id;
    return true;
  }
  std::string name() const override { return "chord"; }

  /// Instant warm start for large static simulations: install the correct
  /// successor list, predecessor and fingers from global knowledge. `ring`
  /// must be every live node sorted by id. Used by benches that would
  /// otherwise spend most of their time in join/stabilize traffic.
  void SeedRoutingState(const std::vector<Peer>& ring);

  /// Find the owner (successor) of `target` iteratively. Exposed for tests.
  using ResolveCallback = std::function<void(const Result<Peer>&)>;
  void ResolveSuccessor(Id target, const NetAddress& via, ResolveCallback cb);

  const Peer& predecessor() const { return pred_; }
  const std::vector<Peer>& successors() const { return succs_; }

 private:
  // Sub-message types.
  static constexpr uint8_t kFindSucc = 1;
  static constexpr uint8_t kFindSuccResp = 2;
  static constexpr uint8_t kGetNbrs = 3;
  static constexpr uint8_t kGetNbrsResp = 4;
  static constexpr uint8_t kNotify = 5;
  static constexpr uint8_t kPing = 6;

  struct PendingRpc {
    std::function<void(const Status&, std::string_view)> cb;
    uint64_t timer = 0;
  };

  Peer Self() const { return Peer{host_->local_id(), host_->local_address()}; }
  Peer ClosestPreceding(Id target) const;
  void Stabilize();
  void FixNextFinger();
  void CheckPredecessor();
  void Notify(const Peer& peer);
  void AdoptSuccessor(const Peer& peer);
  void RemovePeer(const NetAddress& addr);
  void SendRpc(const NetAddress& to, std::string payload,
               std::function<void(const Status&, std::string_view)> cb);
  void CompleteRpc(uint64_t nonce, const Status& status, std::string_view body);
  void ScheduleMaintenance();
  std::string EncodeHeader(uint8_t subtype) const;

  ProtocolHost* host_;
  Options options_;
  bool ready_ = false;
  bool started_ = false;
  Peer pred_;
  std::vector<Peer> succs_;
  std::array<Peer, 64> fingers_;
  int next_finger_ = 0;
  uint64_t next_nonce_ = 1;
  bool maintenance_scheduled_ = false;
  std::unordered_map<uint64_t, PendingRpc> pending_;
  std::vector<uint64_t> timers_;
  /// Repeating maintenance ticks; scheduled events copy from here so the
  /// closures never strongly capture their own function objects.
  std::vector<std::function<void()>> maintenance_;
};

}  // namespace pier

#endif  // PIER_OVERLAY_ROUTING_CHORD_H_
