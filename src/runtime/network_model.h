// Network models for the Simulation Environment (§3.1.4, Figure 4).
//
// The simulator models the network at message-level granularity: each
// simulated "packet" is an entire application message. A Topology supplies
// pairwise propagation latency and per-node access bandwidth; a
// CongestionModel turns (sender, receiver, size, now) into a delivery time.
// The paper's simulator also offers a star topology and fair queuing; no
// caller here selected them, so the transit-stub topology and two congestion
// models (none, FIFO queuing) are provided. Loss is not modeled (the paper's
// simulator delivers all messages); node failure is modeled by the harness
// dropping deliveries to/from dead nodes.

#ifndef PIER_RUNTIME_NETWORK_MODEL_H_
#define PIER_RUNTIME_NETWORK_MODEL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "runtime/vri.h"
#include "util/random.h"

namespace pier {

/// Pairwise latency and per-node uplink bandwidth.
class Topology {
 public:
  virtual ~Topology() = default;

  /// One-way propagation latency between two virtual nodes.
  virtual TimeUs Latency(uint32_t a, uint32_t b) const = 0;

  /// Uplink (access link) bandwidth of a node in bytes per second. PIER
  /// assumes the "last mile" is the bottleneck (§2.1.1), so congestion is
  /// modeled on the sender's access link.
  virtual double UplinkBytesPerSec(uint32_t node) const = 0;

  /// Grow the topology to cover at least `n` nodes (assigns new nodes to
  /// stubs / spokes deterministically from the topology's RNG).
  virtual void EnsureNodes(uint32_t n) = 0;
};

/// GT-ITM-style transit-stub topology: a small mesh of transit routers, each
/// with several stub networks; end hosts attach to stubs. Latency is
/// host->stub + stub->transit + shortest transit path + transit->stub +
/// stub->host.
class TransitStubTopology : public Topology {
 public:
  static constexpr int kNumTransit = 8;        // transit routers
  static constexpr int kStubsPerTransit = 4;   // stub networks per router
  static constexpr double kExtraTransitEdgeProb = 0.3;
  static constexpr TimeUs kTransitEdgeLatency = 20 * kMillisecond;
  static constexpr TimeUs kTransitStubLatency = 8 * kMillisecond;
  static constexpr TimeUs kHostStubLatencyMin = 1 * kMillisecond;
  static constexpr TimeUs kHostStubLatencyMax = 10 * kMillisecond;
  static constexpr double kUplinkBytesPerSec = 1.25e6;

  explicit TransitStubTopology(uint64_t seed);

  TimeUs Latency(uint32_t a, uint32_t b) const override;
  double UplinkBytesPerSec(uint32_t) const override {
    return kUplinkBytesPerSec;
  }
  void EnsureNodes(uint32_t n) override;

  int num_stubs() const { return static_cast<int>(stub_transit_.size()); }

 private:
  Rng rng_;
  // transit_dist_[i][j]: shortest-path latency between transit routers.
  std::vector<std::vector<TimeUs>> transit_dist_;
  std::vector<int> stub_transit_;    // stub -> transit router
  std::vector<int> host_stub_;       // host -> stub
  std::vector<TimeUs> host_access_;  // host -> stub link latency
};

/// Maps a send request to a delivery time (and implicitly a queueing policy).
class CongestionModel {
 public:
  virtual ~CongestionModel() = default;

  /// Time at which a message of `bytes` sent now from `src` arrives at `dst`.
  virtual TimeUs DeliveryTime(uint32_t src, uint32_t dst, size_t bytes,
                              TimeUs now) = 0;
};

/// No congestion: delivery = now + latency (infinite bandwidth).
class NoCongestionModel : public CongestionModel {
 public:
  explicit NoCongestionModel(Topology* topology) : topology_(topology) {}
  TimeUs DeliveryTime(uint32_t src, uint32_t dst, size_t bytes,
                      TimeUs now) override;

 private:
  Topology* topology_;
};

/// FIFO queuing on the sender's uplink: messages serialize through the access
/// link in send order; delivery = queue drain + transmission + latency.
class FifoQueueModel : public CongestionModel {
 public:
  explicit FifoQueueModel(Topology* topology) : topology_(topology) {}
  TimeUs DeliveryTime(uint32_t src, uint32_t dst, size_t bytes,
                      TimeUs now) override;

 private:
  Topology* topology_;
  std::map<uint32_t, TimeUs> uplink_busy_until_;
};

enum class TopologyKind { kTransitStub };
enum class CongestionKind { kNone, kFifo };

/// Factory helper used by SimHarness.
std::unique_ptr<CongestionModel> MakeCongestionModel(CongestionKind kind,
                                                     Topology* topology);

}  // namespace pier

#endif  // PIER_RUNTIME_NETWORK_MODEL_H_
