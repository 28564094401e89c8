#include "runtime/udpcc.h"

#include <algorithm>
#include <cassert>

#include "util/logging.h"
#include "util/wire.h"

namespace pier {

namespace {
constexpr uint8_t kData = 0;
constexpr uint8_t kAck = 1;
}  // namespace

UdpCc::UdpCc(Vri* vri, uint16_t port, Options options)
    : vri_(vri), port_(port), options_(options) {
  Status s = vri_->UdpListen(port_, this);
  PIER_CHECK(s.ok());
}

UdpCc::~UdpCc() {
  // Cancel all outstanding retransmission timers; the loop may outlive us.
  for (auto& [addr, peer] : peers_) {
    (void)addr;
    for (auto& [seq, pending] : peer.inflight) {
      (void)seq;
      if (pending.timer_token != 0) vri_->CancelEvent(pending.timer_token);
    }
  }
  vri_->UdpRelease(port_);
}

UdpCc::PeerState& UdpCc::Peer(const NetAddress& addr) {
  auto it = peers_.find(addr);
  if (it == peers_.end()) {
    PeerState st;
    st.cwnd = options_.initial_cwnd;
    st.ssthresh = options_.max_cwnd;
    st.rto = options_.initial_rto;
    it = peers_.emplace(addr, std::move(st)).first;
  }
  return it->second;
}

void UdpCc::Send(const NetAddress& destination, std::string payload,
                 DeliveryCallback on_delivery) {
  PeerState& peer = Peer(destination);
  Pending msg;
  msg.seq = peer.next_seq++;
  msg.payload = std::move(payload);
  msg.on_delivery = std::move(on_delivery);
  if (peer.inflight.size() < static_cast<size_t>(peer.cwnd)) {
    Transmit(destination, peer, std::move(msg));
  } else {
    peer.queued.push_back(std::move(msg));
  }
}

void UdpCc::Transmit(const NetAddress& dst, PeerState& peer, Pending msg) {
  WireWriter w;
  w.PutU8(kData);
  w.PutU64(msg.seq);
  w.PutRaw(msg.payload);
  TimeUs now = vri_->Now();
  if (msg.retries == 0) {
    msg.first_sent = now;
    stats_.msgs_sent++;
    stats_.bytes_sent += msg.payload.size();
  } else {
    stats_.retransmits++;
  }
  msg.last_sent = now;
  uint64_t seq = msg.seq;
  Status s = vri_->UdpSend(port_, dst, std::move(w).data());
  if (!s.ok()) {
    if (failure_handler_) failure_handler_(dst);
    if (msg.on_delivery) msg.on_delivery(s);
    stats_.msgs_failed++;
    return;
  }
  TimeUs rto = std::min(options_.max_rto,
                        static_cast<TimeUs>(peer.rto << std::min(msg.retries, 6)));
  Pending& pending =
      peer.inflight.insert_or_assign(seq, std::move(msg)).first->second;
  pending.timer_token =
      vri_->ScheduleEvent(rto, [this, dst, seq]() { OnTimeout(dst, seq); });
}

void UdpCc::HandleUdp(const NetAddress& source, std::string_view payload) {
  WireReader r(payload);
  uint8_t type;
  uint64_t seq;
  if (!r.GetU8(&type).ok() || !r.GetU64(&seq).ok()) return;  // malformed: drop

  if (type == kAck) {
    OnAck(source, seq);
    return;
  }
  if (type != kData) return;

  // Always acknowledge, even duplicates (the original ack may have been
  // processed after a retransmit was already sent).
  WireWriter ack;
  ack.PutU8(kAck);
  ack.PutU64(seq);
  (void)vri_->UdpSend(port_, source, std::move(ack).data());

  PeerState& peer = Peer(source);
  if (AlreadySeen(peer, seq)) {
    stats_.duplicates_dropped++;
    return;
  }
  stats_.msgs_received++;
  stats_.bytes_received += payload.size() - (1 + 8);
  if (handler_) {
    std::string_view body = payload.substr(1 + 8);
    handler_(source, body);
  }
}

bool UdpCc::AlreadySeen(PeerState& peer, uint64_t seq) {
  if (seq <= peer.contiguous_seen) return true;
  if (!peer.seen_above.insert(seq).second) return true;
  // Advance the contiguous horizon.
  while (!peer.seen_above.empty() &&
         *peer.seen_above.begin() == peer.contiguous_seen + 1) {
    peer.contiguous_seen++;
    peer.seen_above.erase(peer.seen_above.begin());
  }
  return false;
}

void UdpCc::OnAck(const NetAddress& src, uint64_t seq) {
  auto pit = peers_.find(src);
  if (pit == peers_.end()) return;
  PeerState& peer = pit->second;
  auto it = peer.inflight.find(seq);
  if (it == peer.inflight.end()) return;  // late/duplicate ack
  Pending pending = std::move(it->second);
  peer.inflight.erase(it);
  if (pending.timer_token != 0) vri_->CancelEvent(pending.timer_token);

  // RTT sampling (Karn's rule: only unretransmitted messages).
  if (pending.retries == 0) {
    TimeUs sample = vri_->Now() - pending.first_sent;
    if (peer.srtt == 0) {
      peer.srtt = sample;
      peer.rttvar = sample / 2;
    } else {
      TimeUs err = sample - peer.srtt;
      peer.srtt += err / 8;
      peer.rttvar += (std::abs(err) - peer.rttvar) / 4;
    }
    peer.rto = std::clamp(peer.srtt + 4 * peer.rttvar, options_.min_rto,
                          options_.max_rto);
  }

  // Window growth: slow start then additive increase.
  if (peer.cwnd < peer.ssthresh) {
    peer.cwnd += 1.0;
  } else {
    peer.cwnd += 1.0 / peer.cwnd;
  }
  peer.cwnd = std::min(peer.cwnd, options_.max_cwnd);

  stats_.msgs_delivered++;
  if (pending.on_delivery) pending.on_delivery(Status::Ok());
  // The callback may have sent more messages and rehashed `peers_`;
  // re-resolve before draining.
  auto pit2 = peers_.find(src);
  if (pit2 != peers_.end()) MaybeDrainQueue(src, pit2->second);
}

void UdpCc::OnTimeout(NetAddress dst, uint64_t seq) {
  auto pit = peers_.find(dst);
  if (pit == peers_.end()) return;
  PeerState& peer = pit->second;
  auto it = peer.inflight.find(seq);
  if (it == peer.inflight.end()) return;
  Pending pending = std::move(it->second);
  peer.inflight.erase(it);
  pending.timer_token = 0;

  // Multiplicative decrease (Tahoe-style collapse to 1).
  peer.ssthresh = std::max(2.0, peer.cwnd / 2);
  peer.cwnd = 1.0;

  pending.retries++;
  if (pending.retries > options_.max_retries) {
    stats_.msgs_failed++;
    if (failure_handler_) failure_handler_(dst);
    if (pending.on_delivery)
      pending.on_delivery(Status::Unavailable("udpcc: delivery failed"));
    auto pit2 = peers_.find(dst);
    if (pit2 != peers_.end()) MaybeDrainQueue(dst, pit2->second);
    return;
  }
  Transmit(dst, peer, std::move(pending));
}

void UdpCc::MaybeDrainQueue(const NetAddress& dst, PeerState& peer) {
  while (!peer.queued.empty() &&
         peer.inflight.size() < static_cast<size_t>(peer.cwnd)) {
    Pending msg = std::move(peer.queued.front());
    peer.queued.pop_front();
    Transmit(dst, peer, std::move(msg));
  }
}

}  // namespace pier
