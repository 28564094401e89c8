// The Virtual Runtime Interface (VRI), §3.1.1 / Table 1 of the paper.
//
// The VRI is the narrow waist between PIER's node program and its execution
// platform. It exposes the clock and timers, UDP datagrams and a framed TCP
// channel, and is bound either to the Simulation Environment (sim_runtime.h)
// or to the Physical Runtime Environment (physical_runtime.h). All node-side
// code is written against this interface only, which is what makes "native
// simulation" possible: the same program bytes run in both environments.
//
// Threading contract: every callback is invoked on the node's single event
// thread (the Main Scheduler). Handlers must not block; long computations
// must yield by scheduling continuation timers (§3.1.2).

#ifndef PIER_RUNTIME_VRI_H_
#define PIER_RUNTIME_VRI_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "util/random.h"
#include "util/status.h"

namespace pier {

/// Simulation and physical time, in microseconds.
using TimeUs = int64_t;

constexpr TimeUs kMicrosecond = 1;
constexpr TimeUs kMillisecond = 1000;
constexpr TimeUs kSecond = 1000 * kMillisecond;

/// A transport endpoint. In the Simulation Environment `host` is the virtual
/// node index; in the Physical Runtime it is an IPv4 address in host order.
struct NetAddress {
  uint32_t host = 0;
  uint16_t port = 0;

  bool operator==(const NetAddress& o) const {
    return host == o.host && port == o.port;
  }
  bool operator!=(const NetAddress& o) const { return !(*this == o); }
  bool operator<(const NetAddress& o) const {
    return host != o.host ? host < o.host : port < o.port;
  }
  bool IsNull() const { return host == 0 && port == 0; }

  std::string ToString() const;
};

struct NetAddressHash {
  size_t operator()(const NetAddress& a) const {
    return (static_cast<size_t>(a.host) << 16) ^ a.port;
  }
};

/// Receiver interface for raw datagrams (Table 1: handleUDP).
class UdpHandler {
 public:
  virtual ~UdpHandler() = default;
  virtual void HandleUdp(const NetAddress& source,
                         std::string_view payload) = 0;
};

/// Receiver interface for the framed TCP channel (Table 1: handleTCPNew /
/// handleTCPData / handleTCPError). The channel is message-framed: each
/// TcpWrite on one side surfaces as exactly one HandleTcpData on the other.
class TcpHandler {
 public:
  virtual ~TcpHandler() = default;
  virtual void HandleTcpNew(uint64_t conn_id, const NetAddress& peer) = 0;
  virtual void HandleTcpData(uint64_t conn_id, std::string_view data) = 0;
  virtual void HandleTcpError(uint64_t conn_id) = 0;
};

/// The Virtual Runtime Interface proper (Table 1).
class Vri {
 public:
  virtual ~Vri() = default;

  // --- Clock and Main Scheduler ---------------------------------------------

  /// Current time (getCurrentTime). In simulation this is the node's logical
  /// clock, which may include a per-node skew offset.
  virtual TimeUs Now() const = 0;

  /// Schedule `cb` to run after `delay` (scheduleEvent / handleTimer).
  /// Returns a token usable with CancelEvent.
  virtual uint64_t ScheduleEvent(TimeUs delay, std::function<void()> cb) = 0;

  /// Best-effort cancellation of a scheduled event.
  virtual void CancelEvent(uint64_t token) = 0;

  // --- UDP -------------------------------------------------------------------

  /// Bind a handler to a local UDP port (listen).
  virtual Status UdpListen(uint16_t port, UdpHandler* handler) = 0;

  /// Unbind a local UDP port (release).
  virtual void UdpRelease(uint16_t port) = 0;

  /// Fire-and-forget datagram (send). Reliability, acknowledgment and
  /// congestion control are layered above by UdpCc (udpcc.h), which provides
  /// Table 1's handleUDPAck semantics.
  virtual Status UdpSend(uint16_t source_port, const NetAddress& destination,
                         std::string payload) = 0;

  // --- TCP -------------------------------------------------------------------

  /// Accept framed-TCP connections on a local port (listen).
  virtual Status TcpListen(uint16_t port, TcpHandler* handler) = 0;

  /// Stop accepting on a port (release).
  virtual void TcpRelease(uint16_t port) = 0;

  /// Open a connection (connect); HandleTcpNew fires on success,
  /// HandleTcpError on failure. Returns the connection id.
  virtual Result<uint64_t> TcpConnect(const NetAddress& destination,
                                      TcpHandler* handler) = 0;

  /// Write one framed message (write).
  virtual Status TcpWrite(uint64_t conn_id, std::string data) = 0;

  /// Close a connection (disconnect).
  virtual void TcpClose(uint64_t conn_id) = 0;

  // --- Identity and utilities ------------------------------------------------

  /// The address other nodes should use to reach this node.
  virtual NetAddress LocalAddress() const = 0;

  /// Deterministic per-node randomness.
  virtual Rng* rng() = 0;
};

}  // namespace pier

#endif  // PIER_RUNTIME_VRI_H_
