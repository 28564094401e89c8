// UdpCC (§3.1.3): acknowledged UDP with TCP-style congestion control.
//
// UDP is PIER's primary transport; UdpCC layers per-destination reliability
// on top of the VRI's raw datagrams. Per the paper's contract it provides:
//   * delivery acknowledgments with sender notification on failure
//     (Table 1's handleUDPAck semantics),
//   * TCP-style congestion control (slow start / AIMD window, exponential
//     backoff on timeout),
//   * NO in-order delivery guarantee — receivers deduplicate but do not
//     resequence, and PIER's operators are written to tolerate reordering.
//
// The window and timeout parameters are constants of the class, the same in
// simulation and deployment. A message to a dead peer is retransmitted
// kMaxRetries (4) times. With no RTT sample on the node at all it is
// reported failed 23 s after it was sent: timeouts of 1, 2, 4, 8 and 8 s
// (kMaxRto). A peer with no sample of its own starts from the node-wide
// estimate instead, so a node that has heard any ACK gives up sooner.
//
// Frames start `type u8`. Type 0 is data: `seq varint` (per peer), then the
// payload to the end of the datagram. Type 1 is an ACK: `seq varint`. Type 2
// is data that also carries an `ack varint` after its seq. Type 3 is a
// reply: `ack varint` (0 = none), then the payload. A reply has no seq: it
// is never acknowledged, retransmitted or queued behind the window, and it
// is dispatched without dedup. Its sender's caller recovers a lost reply.
//
// ACKs ride the reply. While the handler for a new data frame runs, the ACK
// for it is owed to the source. The first frame sent back to that source in
// the handler carries it, as type 2 from Send or type 3 from Reply; if none
// goes out, a standalone ACK follows when the handler returns. A request
// answered by Reply in its handler costs two datagrams (request, reply +
// ACK); answered by Send, three (request, reply + ACK, the reply's ACK). A
// duplicate is acknowledged at once and not dispatched.

#ifndef PIER_RUNTIME_UDPCC_H_
#define PIER_RUNTIME_UDPCC_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "runtime/vri.h"
#include "util/status.h"

namespace pier {

class UdpCc : public UdpHandler {
 public:
  /// Congestion window bounds, in messages.
  static constexpr double kInitialCwnd = 4.0;
  static constexpr double kMaxCwnd = 64.0;
  /// Retransmission timeout: srtt + 4 rttvar of the peer's samples, or of
  /// the node's when the peer has none, clamped to [kMinRto, kMaxRto];
  /// kInitialRto before the node's first sample. Each retry doubles it up to
  /// kMaxRto.
  static constexpr TimeUs kInitialRto = 1 * kSecond;
  static constexpr TimeUs kMinRto = 200 * kMillisecond;
  static constexpr TimeUs kMaxRto = 8 * kSecond;
  /// Retransmissions before a message is given up.
  static constexpr int kMaxRetries = 4;

  struct Stats {
    uint64_t msgs_sent = 0;        // data frames and replies
    uint64_t msgs_delivered = 0;   // acked
    uint64_t msgs_failed = 0;      // gave up after retries
    uint64_t retransmits = 0;
    uint64_t msgs_received = 0;
    uint64_t duplicates_dropped = 0;
    uint64_t bytes_sent = 0;       // first-transmission payload bytes
    uint64_t bytes_received = 0;   // deduplicated inbound payload bytes
    uint64_t acks_sent = 0;        // standalone ACK datagrams
    uint64_t acks_piggybacked = 0; // ACKs carried by a data frame or reply
  };

  /// Called for each (deduplicated) inbound message.
  using MessageHandler =
      std::function<void(const NetAddress& source, std::string_view payload)>;

  /// Delivery report for one Send: Ok once acked, Unavailable on give-up.
  using DeliveryCallback = std::function<void(const Status&)>;

  /// Binds `port` on `vri`. The port is released on destruction.
  UdpCc(Vri* vri, uint16_t port);
  ~UdpCc() override;

  UdpCc(const UdpCc&) = delete;
  UdpCc& operator=(const UdpCc&) = delete;

  void set_message_handler(MessageHandler handler) {
    handler_ = std::move(handler);
  }

  /// Called with the destination whenever messages to it are given up
  /// (retries exhausted, a send error), before their own
  /// delivery reports run.
  using FailureHandler = std::function<void(const NetAddress& destination)>;
  void set_failure_handler(FailureHandler handler) {
    failure_handler_ = std::move(handler);
  }

  /// Reliably send `payload` to `destination` (a UdpCc on the same port
  /// number scheme). `on_delivery` may be null.
  void Send(const NetAddress& destination, std::string payload,
            DeliveryCallback on_delivery = nullptr);

  /// Send `payload` once, unacknowledged, carrying the ACK owed to
  /// `destination` when called inside its data frame's handler.
  void Reply(const NetAddress& destination, std::string_view payload);

  uint16_t port() const { return port_; }
  const Stats& stats() const { return stats_; }

  // UdpHandler:
  void HandleUdp(const NetAddress& source, std::string_view payload) override;

 private:
  struct Pending {
    uint64_t seq;
    std::string payload;
    DeliveryCallback on_delivery;
    int retries = 0;
    uint64_t timer_token = 0;
    TimeUs first_sent = 0;
    TimeUs last_sent = 0;
  };

  struct RttEstimate {
    TimeUs srtt = 0;  // 0 = no sample yet
    TimeUs rttvar = 0;
    void Add(TimeUs sample);
    TimeUs Rto() const;
  };

  struct PeerState {
    // Sender side.
    uint64_t next_seq = 1;
    double cwnd;
    double ssthresh;
    RttEstimate rtt;
    std::map<uint64_t, Pending> inflight;
    // A list, not a deque: an empty std::list allocates nothing, while
    // libstdc++'s std::deque allocates ~500 B on construction, and almost
    // every peer's send queue is empty.
    std::list<Pending> queued;
    // Receiver side dedup: all seqs <= contiguous_seen delivered, plus the
    // sparse set of higher seqs seen out of order.
    uint64_t contiguous_seen = 0;
    std::set<uint64_t> seen_above;
  };

  PeerState& Peer(const NetAddress& addr);
  void Transmit(const NetAddress& dst, PeerState& peer, Pending msg);
  void SendAck(const NetAddress& dst, uint64_t seq);
  /// The seq whose ACK is owed to `dst`, which is then no longer owed; 0 if
  /// none is.
  uint64_t TakeOwedAck(const NetAddress& dst);
  void OnAck(const NetAddress& src, uint64_t seq);
  void OnTimeout(NetAddress dst, uint64_t seq);
  void MaybeDrainQueue(const NetAddress& dst, PeerState& peer);
  bool AlreadySeen(PeerState& peer, uint64_t seq);

  Vri* vri_;
  uint16_t port_;
  MessageHandler handler_;
  FailureHandler failure_handler_;
  Stats stats_;
  /// Every sample the node has taken, whichever peer it came from.
  RttEstimate node_rtt_;
  std::unordered_map<NetAddress, PeerState, NetAddressHash> peers_;
  /// The ACK owed while a data frame's handler runs; seq 0 = none (sequence
  /// numbers start at 1).
  NetAddress owed_ack_to_;
  uint64_t owed_ack_seq_ = 0;
};

}  // namespace pier

#endif  // PIER_RUNTIME_UDPCC_H_
