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
  struct Options {
    double initial_cwnd = 4.0;     // messages
    double max_cwnd = 64.0;
    TimeUs initial_rto = 1 * kSecond;
    TimeUs min_rto = 200 * kMillisecond;
    TimeUs max_rto = 8 * kSecond;
    int max_retries = 4;
  };

  struct Stats {
    uint64_t msgs_sent = 0;
    uint64_t msgs_delivered = 0;   // acked
    uint64_t msgs_failed = 0;      // gave up after retries
    uint64_t retransmits = 0;
    uint64_t msgs_received = 0;
    uint64_t duplicates_dropped = 0;
    uint64_t bytes_sent = 0;       // first-transmission payload bytes
    uint64_t bytes_received = 0;   // deduplicated inbound payload bytes
  };

  /// Called for each (deduplicated) inbound message.
  using MessageHandler =
      std::function<void(const NetAddress& source, std::string_view payload)>;

  /// Delivery report for one Send: Ok once acked, Unavailable on give-up.
  using DeliveryCallback = std::function<void(const Status&)>;

  /// Binds `port` on `vri`. The port is released on destruction.
  UdpCc(Vri* vri, uint16_t port) : UdpCc(vri, port, Options{}) {}
  UdpCc(Vri* vri, uint16_t port, Options options);
  ~UdpCc() override;

  UdpCc(const UdpCc&) = delete;
  UdpCc& operator=(const UdpCc&) = delete;

  void set_message_handler(MessageHandler handler) { handler_ = std::move(handler); }

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

  struct PeerState {
    // Sender side.
    uint64_t next_seq = 1;
    double cwnd;
    double ssthresh;
    TimeUs srtt = 0;      // 0 = no sample yet
    TimeUs rttvar = 0;
    TimeUs rto;
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
  void OnAck(const NetAddress& src, uint64_t seq);
  void OnTimeout(NetAddress dst, uint64_t seq);
  void MaybeDrainQueue(const NetAddress& dst, PeerState& peer);
  bool AlreadySeen(PeerState& peer, uint64_t seq);

  Vri* vri_;
  uint16_t port_;
  Options options_;
  MessageHandler handler_;
  FailureHandler failure_handler_;
  Stats stats_;
  std::unordered_map<NetAddress, PeerState, NetAddressHash> peers_;
};

}  // namespace pier

#endif  // PIER_RUNTIME_UDPCC_H_
