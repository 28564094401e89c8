#include "runtime/sim_runtime.h"

#include <cassert>
#include <utility>

#include "util/logging.h"

namespace pier {

// ---------------------------------------------------------------------------
// SimVri: the per-virtual-node binding of the VRI.
// ---------------------------------------------------------------------------

class SimHarness::SimVri : public Vri {
 public:
  SimVri(SimHarness* harness, uint32_t index, TimeUs skew, uint64_t rng_seed)
      : harness_(harness), index_(index), skew_(skew), rng_(rng_seed) {}

  TimeUs Now() const override { return harness_->loop_.now() + skew_; }

  uint64_t ScheduleEvent(TimeUs delay, std::function<void()> cb) override {
    uint32_t index = index_;
    SimHarness* h = harness_;
    return harness_->loop_.ScheduleAfter(
        delay, [h, index, cb = std::move(cb)]() {
          if (h->IsAlive(index)) cb();
        });
  }

  void CancelEvent(uint64_t token) override { harness_->loop_.Cancel(token); }

  Status UdpListen(uint16_t port, UdpHandler* handler) override {
    auto [it, inserted] = udp_handlers_.emplace(port, handler);
    (void)it;
    if (!inserted) return Status::AlreadyExists("udp port in use");
    return Status::Ok();
  }

  void UdpRelease(uint16_t port) override { udp_handlers_.erase(port); }

  Status UdpSend(uint16_t source_port, const NetAddress& destination,
                 std::string payload) override {
    if (destination.IsNull()) return Status::InvalidArgument("null destination");
    harness_->DeliverUdp(index_, source_port, destination, std::move(payload));
    return Status::Ok();
  }

  Status TcpListen(uint16_t port, TcpHandler* handler) override {
    auto [it, inserted] = tcp_listeners_.emplace(port, handler);
    (void)it;
    if (!inserted) return Status::AlreadyExists("tcp port in use");
    return Status::Ok();
  }

  void TcpRelease(uint16_t port) override { tcp_listeners_.erase(port); }

  Result<uint64_t> TcpConnect(const NetAddress& destination,
                              TcpHandler* handler) override {
    return harness_->TcpConnect(index_, destination, handler);
  }

  Status TcpWrite(uint64_t conn_id, std::string data) override {
    return harness_->TcpWrite(index_, conn_id, std::move(data));
  }

  void TcpClose(uint64_t conn_id) override { harness_->TcpClose(index_, conn_id); }

  NetAddress LocalAddress() const override {
    return NetAddress{index_ + 1, 0};
  }

  Rng* rng() override { return &rng_; }

  UdpHandler* udp_handler(uint16_t port) {
    auto it = udp_handlers_.find(port);
    return it == udp_handlers_.end() ? nullptr : it->second;
  }
  TcpHandler* tcp_listener(uint16_t port) {
    auto it = tcp_listeners_.find(port);
    return it == tcp_listeners_.end() ? nullptr : it->second;
  }

 private:
  SimHarness* harness_;
  uint32_t index_;
  TimeUs skew_;
  Rng rng_;
  std::unordered_map<uint16_t, UdpHandler*> udp_handlers_;
  std::unordered_map<uint16_t, TcpHandler*> tcp_listeners_;
};

// ---------------------------------------------------------------------------
// SimHarness
// ---------------------------------------------------------------------------

SimHarness::SimHarness(SimOptions options)
    : options_(options), rng_(options.seed) {
  topology_ = std::make_unique<TransitStubTopology>(rng_.Next());
  congestion_ = MakeCongestionModel(options_.congestion, topology_.get());
}

SimHarness::~SimHarness() = default;

uint32_t SimHarness::AddNode() {
  uint32_t index = static_cast<uint32_t>(nodes_.size());
  topology_->EnsureNodes(index + 1);
  TimeUs skew = 0;
  if (options_.max_clock_skew > 0) {
    skew = rng_.UniformRange(-options_.max_clock_skew, options_.max_clock_skew);
  }
  auto node = std::make_unique<Node>();
  node->vri = std::make_unique<SimVri>(this, index, skew, rng_.Next());
  nodes_.push_back(std::move(node));
  if (factory_) {
    nodes_[index]->program = factory_(nodes_[index]->vri.get(), index);
    if (nodes_[index]->program) {
      SimProgram* prog = nodes_[index]->program.get();
      loop_.ScheduleAfter(0, [this, index, prog]() {
        if (IsAlive(index)) prog->Start();
      });
    }
  }
  return index;
}

std::vector<uint32_t> SimHarness::AddNodes(uint32_t n) {
  std::vector<uint32_t> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) out.push_back(AddNode());
  return out;
}

void SimHarness::FailNode(uint32_t index) {
  if (index >= nodes_.size() || !nodes_[index]->alive) return;
  nodes_[index]->alive = false;
  if (nodes_[index]->program) nodes_[index]->program->Stop();
  AbortTcpConnsOf(index);
}

size_t SimHarness::num_alive() const {
  size_t n = 0;
  for (const auto& node : nodes_)
    if (node->alive) ++n;
  return n;
}

void SimHarness::ResetStats() {
  for (auto& node : nodes_) node->stats = NodeStats{};
  total_msgs_ = 0;
  total_bytes_ = 0;
}

void SimHarness::DeliverUdp(uint32_t src, uint16_t src_port, const NetAddress& dst,
                            std::string payload) {
  uint32_t dst_index = IndexOf(dst);
  if (dst_index >= nodes_.size()) return;  // dropped: no such host
  NodeStats& s = nodes_[src]->stats;
  s.msgs_sent++;
  s.bytes_sent += payload.size();
  total_msgs_++;
  total_bytes_ += payload.size();
  TimeUs deliver_at =
      congestion_->DeliveryTime(src, dst_index, payload.size(), loop_.now());
  NetAddress src_addr = AddressOf(src, src_port);
  uint16_t dst_port = dst.port;
  loop_.ScheduleAt(deliver_at, [this, src_addr, dst_index, dst_port,
                                payload = std::move(payload)]() {
    if (!IsAlive(dst_index)) return;  // message lost to node failure
    UdpHandler* h = nodes_[dst_index]->vri->udp_handler(dst_port);
    if (h == nullptr) return;  // no listener: datagram dropped
    nodes_[dst_index]->stats.msgs_recv++;
    nodes_[dst_index]->stats.bytes_recv += payload.size();
    h->HandleUdp(src_addr, payload);
  });
}

Result<uint64_t> SimHarness::TcpConnect(uint32_t src, const NetAddress& dst,
                                        TcpHandler* handler) {
  uint64_t conn_id = next_tcp_conn_id_++;
  uint32_t dst_index = IndexOf(dst);
  uint16_t dst_port = dst.port;
  TcpConn conn;
  conn.a_node = src;
  conn.b_node = dst_index;
  conn.a_handler = handler;
  conn.b_handler = nullptr;
  tcp_conns_[conn_id] = conn;

  TimeUs rtt = (dst_index < nodes_.size())
                   ? 2 * topology_->Latency(src, dst_index)
                   : 10 * kMillisecond;
  loop_.ScheduleAfter(rtt, [this, conn_id, src, dst_index, dst_port]() {
    auto it = tcp_conns_.find(conn_id);
    if (it == tcp_conns_.end()) return;
    TcpConn& c = it->second;
    TcpHandler* listener = nullptr;
    if (dst_index < nodes_.size() && IsAlive(dst_index)) {
      listener = nodes_[dst_index]->vri->tcp_listener(dst_port);
    }
    if (listener == nullptr || !IsAlive(src)) {
      // Connection refused or connector died mid-handshake.
      TcpHandler* a = c.a_handler;
      tcp_conns_.erase(it);
      if (a != nullptr && IsAlive(src)) a->HandleTcpError(conn_id);
      return;
    }
    c.b_handler = listener;
    c.open = true;
    NetAddress a_addr = AddressOf(src, 0);
    NetAddress b_addr = AddressOf(dst_index, dst_port);
    c.b_handler->HandleTcpNew(conn_id, a_addr);
    c.a_handler->HandleTcpNew(conn_id, b_addr);
  });
  return conn_id;
}

Status SimHarness::TcpWrite(uint32_t src, uint64_t conn_id, std::string data) {
  auto it = tcp_conns_.find(conn_id);
  if (it == tcp_conns_.end()) return Status::NotFound("no such connection");
  TcpConn& c = it->second;
  if (!c.open) return Status::Unavailable("connection not yet open");
  bool from_a = (src == c.a_node);
  if (!from_a && src != c.b_node) return Status::InvalidArgument("not an endpoint");
  uint32_t peer = from_a ? c.b_node : c.a_node;
  // FIFO: each direction's deliveries are non-decreasing in time.
  TimeUs base = loop_.now() + topology_->Latency(src, peer);
  TimeUs& clear = from_a ? c.a_to_b_clear : c.b_to_a_clear;
  TimeUs deliver_at = std::max(base, clear);
  clear = deliver_at;
  loop_.ScheduleAt(deliver_at,
                   [this, conn_id, from_a, data = std::move(data)]() {
                     auto it2 = tcp_conns_.find(conn_id);
                     if (it2 == tcp_conns_.end() || !it2->second.open) return;
                     TcpConn& c2 = it2->second;
                     uint32_t dst = from_a ? c2.b_node : c2.a_node;
                     if (!IsAlive(dst)) return;
                     TcpHandler* h = from_a ? c2.b_handler : c2.a_handler;
                     h->HandleTcpData(conn_id, data);
                   });
  return Status::Ok();
}

void SimHarness::TcpClose(uint32_t src, uint64_t conn_id) {
  auto it = tcp_conns_.find(conn_id);
  if (it == tcp_conns_.end()) return;
  TcpConn c = it->second;
  tcp_conns_.erase(it);
  if (!c.open) return;
  uint32_t peer = (src == c.a_node) ? c.b_node : c.a_node;
  TcpHandler* h = (src == c.a_node) ? c.b_handler : c.a_handler;
  TimeUs lat = topology_->Latency(src, peer);
  loop_.ScheduleAfter(lat, [this, peer, h, conn_id]() {
    if (IsAlive(peer) && h != nullptr) h->HandleTcpError(conn_id);
  });
}

void SimHarness::AbortTcpConnsOf(uint32_t node) {
  std::vector<std::pair<uint64_t, TcpConn>> affected;
  for (auto it = tcp_conns_.begin(); it != tcp_conns_.end();) {
    if (it->second.a_node == node || it->second.b_node == node) {
      affected.emplace_back(it->first, it->second);
      it = tcp_conns_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& [conn_id, c] : affected) {
    if (!c.open) continue;
    uint32_t peer = (c.a_node == node) ? c.b_node : c.a_node;
    TcpHandler* h = (c.a_node == node) ? c.b_handler : c.a_handler;
    TimeUs lat = topology_->Latency(node, peer);
    uint64_t id = conn_id;
    loop_.ScheduleAfter(lat, [this, peer, h, id]() {
      if (IsAlive(peer) && h != nullptr) h->HandleTcpError(id);
    });
  }
}

}  // namespace pier
