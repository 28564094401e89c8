// The Simulation Environment (§3.1.4, Figure 4).
//
// A SimHarness multiplexes thousands of virtual nodes over one EventLoop.
// Each virtual node gets its own Vri binding (logical clock with optional
// skew, network endpoints, RNG stream); outbound messages pass through the
// pluggable Topology + CongestionModel to compute delivery times. Node
// programs are written against Vri only, so the identical program code runs
// under the Physical Runtime — the paper's "native simulation" property.
//
// The simulator delivers all messages (no loss model, matching the paper) but
// supports complete node failures: timers of dead nodes never fire and
// messages to/from them are dropped.

#ifndef PIER_RUNTIME_SIM_RUNTIME_H_
#define PIER_RUNTIME_SIM_RUNTIME_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "runtime/event_loop.h"
#include "runtime/network_model.h"
#include "runtime/vri.h"
#include "util/random.h"

namespace pier {

/// A node application. The harness instantiates one per virtual node via the
/// program factory and calls Start() when the node boots.
class SimProgram {
 public:
  virtual ~SimProgram() = default;
  virtual void Start() = 0;
  /// Called when the harness kills this node. The object stays allocated (the
  /// simulator may still hold references) but receives no further events.
  virtual void Stop() {}
};

struct SimOptions {
  uint64_t seed = 1;
  /// Transit-stub is the only topology, so nothing reads this; it stays
  /// because benchmark/pier_bench.cc sets it.
  TopologyKind topology = TopologyKind::kTransitStub;
  CongestionKind congestion = CongestionKind::kNone;
  /// Max absolute per-node clock skew; each node's Now() is offset by a value
  /// uniform in [-max_clock_skew, +max_clock_skew]. Models the paper's
  /// "loosely synchronized" nodes (§3.3.4).
  TimeUs max_clock_skew = 0;
};

class SimHarness {
 public:
  using ProgramFactory =
      std::function<std::unique_ptr<SimProgram>(Vri* vri, uint32_t index)>;

  explicit SimHarness(SimOptions options);
  ~SimHarness();

  SimHarness(const SimHarness&) = delete;
  SimHarness& operator=(const SimHarness&) = delete;

  /// Factory for node programs; may be null for tests that drive Vri directly.
  void set_program_factory(ProgramFactory factory) {
    factory_ = std::move(factory);
  }

  /// Boot a new virtual node; Start() runs as a scheduled event.
  uint32_t AddNode();
  std::vector<uint32_t> AddNodes(uint32_t n);

  /// Complete node failure (§3.1.4): the node's program stops receiving
  /// events; in-flight messages to it are dropped at delivery time.
  void FailNode(uint32_t index);

  bool IsAlive(uint32_t index) const {
    return index < nodes_.size() && nodes_[index]->alive;
  }
  size_t num_nodes() const { return nodes_.size(); }
  size_t num_alive() const;

  Vri* vri(uint32_t index) {
    return reinterpret_cast<Vri*>(nodes_[index]->vri.get());
  }
  SimProgram* program(uint32_t index) { return nodes_[index]->program.get(); }

  /// Address mapping: virtual node index <-> NetAddress.host (index + 1;
  /// host 0 is the null address).
  NetAddress AddressOf(uint32_t index, uint16_t port) const {
    return NetAddress{index + 1, port};
  }
  static uint32_t IndexOf(const NetAddress& addr) { return addr.host - 1; }

  EventLoop* loop() { return &loop_; }
  Topology* topology() { return topology_.get(); }
  Rng* rng() { return &rng_; }

  /// Convenience: run the simulation for `duration` of virtual time.
  void RunFor(TimeUs duration) { loop_.RunUntil(loop_.now() + duration); }

  // --- Traffic accounting (used by the bandwidth experiments) --------------
  struct NodeStats {
    uint64_t msgs_sent = 0;
    uint64_t bytes_sent = 0;
    uint64_t msgs_recv = 0;
    uint64_t bytes_recv = 0;
  };
  const NodeStats& node_stats(uint32_t index) const {
    return nodes_[index]->stats;
  }
  uint64_t total_msgs() const { return total_msgs_; }
  uint64_t total_bytes() const { return total_bytes_; }
  void ResetStats();

 private:
  class SimVri;
  friend class SimVri;

  struct Node {
    std::unique_ptr<SimVri> vri;
    std::unique_ptr<SimProgram> program;
    bool alive = true;
    NodeStats stats;
  };

  struct TcpConn {
    uint32_t a_node;       // connector
    uint32_t b_node;       // acceptor
    TcpHandler* a_handler;
    TcpHandler* b_handler;
    bool open = false;
    TimeUs a_to_b_clear = 0;  // FIFO ordering horizon per direction
    TimeUs b_to_a_clear = 0;
  };

  void DeliverUdp(uint32_t src, uint16_t src_port, const NetAddress& dst,
                  std::string payload);
  Result<uint64_t> TcpConnect(uint32_t src, const NetAddress& dst,
                              TcpHandler* h);
  Status TcpWrite(uint32_t src, uint64_t conn_id, std::string data);
  void TcpClose(uint32_t src, uint64_t conn_id);
  void AbortTcpConnsOf(uint32_t node);

  SimOptions options_;
  EventLoop loop_;
  Rng rng_;
  std::unique_ptr<Topology> topology_;
  std::unique_ptr<CongestionModel> congestion_;
  ProgramFactory factory_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unordered_map<uint64_t, TcpConn> tcp_conns_;
  uint64_t next_tcp_conn_id_ = 1;
  uint64_t total_msgs_ = 0;
  uint64_t total_bytes_ = 0;
};

}  // namespace pier

#endif  // PIER_RUNTIME_SIM_RUNTIME_H_
