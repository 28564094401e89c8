// Chord routing protocol (Stoica et al., SIGCOMM 2001) behind PIER's
// RoutingProtocol seam.
//
// Successor-list + finger-table routing on the 2^64 ring. Joins resolve the
// newcomer's successor iteratively through any bootstrap node; a node that
// is ready (joined, or warm-started by SeedRoutingState) never joins again.
//
// Maintenance costs what the ring changes, not a fixed rate per loop
// (README.md, "Maintenance"):
//   * stabilize (every stabilize_period) asks the successor for its
//     neighbours, rebuilds the successor list from the reply (so a dead
//     node ages out of every list), and sends Notify only when the reply
//     does not already name this node as the successor's predecessor. The
//     request carries a digest of the last full reply, and a successor whose
//     own reply would hash the same answers in one byte;
//   * check-predecessor (every check_pred_period) counts any frame from the
//     predecessor within the last period as liveness — its own stabilize
//     arrives every stabilize_period — and otherwise pings it, dropping it
//     when the ping gets no pong within rpc_timeout;
//   * fix-finger repairs one finger per tick; the tick's period doubles
//     while resolves return the finger already held, up to
//     kFingerBackoffCap x fix_finger_period, and snaps back to
//     fix_finger_period on any local ring change.
//
// A broadcast split along Chord's fingers forms a (roughly) binomial tree —
// the shape claim of the paper's footnote 6, reproduced by
// bench_dissemination.

#ifndef PIER_OVERLAY_ROUTING_CHORD_H_
#define PIER_OVERLAY_ROUTING_CHORD_H_

#include <array>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "overlay/routing_protocol.h"
#include "util/status.h"
#include "util/wire.h"

namespace pier {

class ChordProtocol : public RoutingProtocol {
 public:
  using Peer = RingPeer;

  struct Options {
    TimeUs stabilize_period = 500 * kMillisecond;
    TimeUs fix_finger_period = 250 * kMillisecond;
    TimeUs check_pred_period = 1 * kSecond;
    TimeUs rpc_timeout = 2 * kSecond;
  };

  static constexpr TimeUs kJoinRetryDelay = 1 * kSecond;
  static constexpr int kSuccessorListLen = kMaxSuccessors;
  /// Hops a successor resolve takes before it fails.
  static constexpr int kMaxResolveIterations = 48;

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
  std::vector<RingPeer> Contacts() const override;
  std::vector<RingPeer> SuccessorSet(size_t n) const override;
  bool Predecessor(RingPeer* out) const override {
    *out = pred_;
    return pred_.valid();
  }

  /// Installs the correct successor list, predecessor and fingers.
  void SeedRoutingState(const std::vector<Peer>& ring) override;

  /// Find the owner (successor) of `target` iteratively. Exposed for tests.
  using ResolveCallback = std::function<void(const Result<Peer>&)>;
  void ResolveSuccessor(Id target, const NetAddress& via, ResolveCallback cb);

  const Peer& predecessor() const { return pred_; }
  const std::vector<Peer>& successors() const { return succs_; }

  /// Largest multiple of fix_finger_period the finger loop backs off to.
  static constexpr int kFingerBackoffCap = 32;
  /// The fix-finger loop's current period.
  TimeUs finger_period() const { return finger_period_; }

  /// What this node's maintenance has sent and heard back (tests read
  /// these; they are not exported as metrics).
  struct Counters {
    uint64_t frames_sent = 0;    // every Chord frame, requests and replies
    uint64_t bytes_sent = 0;     // their bytes, from the header on
    uint64_t join_resolves = 0;  // join attempts through the bootstrap
    uint64_t notifies_sent = 0;
    uint64_t pings_sent = 0;
    uint64_t finger_ticks = 0;  // fix-finger loop runs
    uint64_t nbrs_full = 0;       // GetNbrs replies applied in the full form
    uint64_t nbrs_unchanged = 0;  // ... and in the one-byte unchanged form
  };
  const Counters& counters() const { return counters_; }

  // Sub-message types. Every frame starts `sender id u64, subtype u8,
  // nonce varint` (0 outside an RPC); the body follows.
  static constexpr uint8_t kFindSucc = 1;
  static constexpr uint8_t kFindSuccResp = 2;
  static constexpr uint8_t kGetNbrs = 3;      // digest u64
  static constexpr uint8_t kGetNbrsResp = 4;  // a full body, or kNbrsUnchanged
  static constexpr uint8_t kNotify = 5;
  static constexpr uint8_t kPing = 6;
  static constexpr uint8_t kPong = 7;
  /// The whole body of a GetNbrs reply whose full body would hash to the
  /// request's digest. A full body starts with `has_pred u8`, 0 or 1.
  static constexpr uint8_t kNbrsUnchanged = 2;

 private:
  // Slots of timers_.
  static constexpr size_t kStabilizeTimer = 0;
  static constexpr size_t kFingerTimer = 1;
  static constexpr size_t kCheckPredTimer = 2;
  static constexpr size_t kJoinRetryTimer = 3;

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
  /// Rebuild the successor list from a full GetNbrs reply body from
  /// `succ0`, and Notify it if it does not name this node. A malformed body
  /// changes nothing and returns false.
  bool ApplyNbrs(const Peer& succ0, std::string_view body);
  void AdoptSuccessor(const Peer& peer);
  /// Replace the successor list with `list`, ordered by ring distance,
  /// without self or duplicates, cut to kSuccessorListLen.
  void SetSuccessors(std::vector<Peer> list);
  void RemovePeer(const NetAddress& addr);
  /// The local view of the ring moved: the finger loop returns to its base
  /// period at once.
  void NoteRingChange();
  /// `period` ± 25%, uniformly: ticks of many nodes do not align.
  TimeUs Jittered(TimeUs period) const;
  /// Every Chord frame leaves through here (counted in frames_sent).
  void Send(const NetAddress& to, std::string payload,
            std::function<void(const Status&)> on_delivery);
  /// An RPC reply, sent unacknowledged (ProtocolHost::ReplyProtocolMessage)
  /// and counted in frames_sent.
  void Reply(const NetAddress& to, const WireWriter& frame);
  /// A writer holding the frame header; the caller appends the body.
  WireWriter Frame(uint8_t subtype, uint64_t nonce) const;
  /// Send `subtype` and `body` under a fresh nonce; `cb` gets the reply's
  /// body, or the failure. A request still unanswered at rpc_timeout / 2 is
  /// sent once more under its nonce; the RPC fails at rpc_timeout.
  void SendRpc(const NetAddress& to, uint8_t subtype, std::string_view body,
               std::function<void(const Status&, std::string_view)> cb);
  void CompleteRpc(uint64_t nonce, const Status& status, std::string_view body);
  void ScheduleMaintenance();

  ProtocolHost* host_;
  Options options_;
  bool ready_ = false;
  bool started_ = false;
  Peer pred_;
  /// Last time any frame from pred_ arrived (or pred_ was set).
  TimeUs pred_heard_ = 0;
  std::vector<Peer> succs_;
  std::array<Peer, 64> fingers_;
  int next_finger_ = 0;
  uint64_t next_nonce_ = 1;
  bool maintenance_scheduled_ = false;
  TimeUs finger_period_;
  std::unordered_map<uint64_t, PendingRpc> pending_;
  std::array<uint64_t, 4> timers_{};
  /// Repeating maintenance ticks; scheduled events copy from here so the
  /// closures never strongly capture their own function objects.
  std::array<std::function<void()>, 3> maintenance_;
  /// The last full GetNbrs reply body and its digest (0 before the first).
  std::string nbrs_body_;
  uint64_t nbrs_digest_ = 0;
  Counters counters_;
};

}  // namespace pier

#endif  // PIER_OVERLAY_ROUTING_CHORD_H_
