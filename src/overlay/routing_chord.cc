#include "overlay/routing_chord.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/logging.h"
#include "util/wire.h"

namespace pier {

namespace {

void PutPeer(WireWriter* w, const ChordProtocol::Peer& p) {
  w->PutU64(p.id);
  w->PutU32(p.addr.host);
  w->PutU16(p.addr.port);
}

Status GetPeer(WireReader* r, ChordProtocol::Peer* p) {
  PIER_RETURN_IF_ERROR(r->GetU64(&p->id));
  PIER_RETURN_IF_ERROR(r->GetU32(&p->addr.host));
  PIER_RETURN_IF_ERROR(r->GetU16(&p->addr.port));
  return Status::Ok();
}

}  // namespace

ChordProtocol::ChordProtocol(ProtocolHost* host, Options options)
    : host_(host), options_(options) {}

ChordProtocol::~ChordProtocol() {
  for (uint64_t t : timers_) host_->vri()->CancelEvent(t);
  for (auto& [nonce, rpc] : pending_) {
    (void)nonce;
    if (rpc.timer != 0) host_->vri()->CancelEvent(rpc.timer);
  }
}

std::string ChordProtocol::EncodeHeader(uint8_t subtype) const {
  WireWriter w;
  w.PutU64(host_->local_id());
  w.PutU32(host_->local_address().host);
  w.PutU16(host_->local_address().port);
  w.PutU8(subtype);
  return std::move(w).data();
}

void ChordProtocol::Start(const NetAddress& bootstrap) {
  started_ = true;
  if (bootstrap.IsNull() || bootstrap == host_->local_address()) {
    ready_ = true;  // first node: owns the whole ring
  } else {
    // Resolve our successor through the bootstrap node, then integrate.
    ResolveSuccessor(host_->local_id(), bootstrap,
                     [this, bootstrap](const Result<Peer>& result) {
                       if (!result.ok() || !result.value().valid() ||
                           result.value().addr == host_->local_address()) {
                         // Retry the join later.
                         if (timers_.size() < 4) timers_.assign(4, 0);
                         timers_[3] = host_->vri()->ScheduleEvent(
                             options_.join_retry_delay,
                             [this, bootstrap]() { Start(bootstrap); });
                         return;
                       }
                       AdoptSuccessor(result.value());
                       ready_ = true;
                       Notify(succs_.front());
                       Stabilize();
                     });
  }
  ScheduleMaintenance();
}

void ChordProtocol::ScheduleMaintenance() {
  if (maintenance_scheduled_) return;
  maintenance_scheduled_ = true;
  timers_.assign(4, 0);
  Rng* rng = host_->vri()->rng();
  auto jittered = [rng](TimeUs period) {
    return period + static_cast<TimeUs>(rng->Uniform(period / 2)) - period / 4;
  };
  struct Loop {
    size_t slot;
    TimeUs period;
    void (ChordProtocol::*fn)();
  };
  // The ticks live in maintenance_ (not in self-capturing shared_ptrs, which
  // would cycle and leak): each scheduled event holds a plain copy that
  // reschedules from the stored member.
  maintenance_.assign(3, nullptr);
  for (Loop loop : {Loop{0, options_.stabilize_period, &ChordProtocol::Stabilize},
                    Loop{1, options_.fix_finger_period, &ChordProtocol::FixNextFinger},
                    Loop{2, options_.check_pred_period, &ChordProtocol::CheckPredecessor}}) {
    maintenance_[loop.slot] = [this, loop, jittered]() {
      (this->*(loop.fn))();
      timers_[loop.slot] = host_->vri()->ScheduleEvent(
          jittered(loop.period), maintenance_[loop.slot]);
    };
    timers_[loop.slot] =
        host_->vri()->ScheduleEvent(jittered(loop.period), maintenance_[loop.slot]);
  }
}

bool ChordProtocol::IsOwner(Id target) const {
  if (!started_) return false;
  if (succs_.empty()) return true;  // alone on the ring
  if (pred_.valid()) return InOpenClosed(pred_.id, host_->local_id(), target);
  return false;
}

ChordProtocol::Peer ChordProtocol::ClosestPreceding(Id target) const {
  Id me = host_->local_id();
  Peer best;
  uint64_t best_dist = 0;
  auto consider = [&](const Peer& p) {
    if (!p.valid() || p.addr == host_->local_address()) return;
    if (!InOpenOpen(me, target, p.id)) return;
    uint64_t d = RingDistance(me, p.id);
    if (d > best_dist) {
      best_dist = d;
      best = p;
    }
  };
  for (const Peer& f : fingers_) consider(f);
  for (const Peer& s : succs_) consider(s);
  return best;
}

NetAddress ChordProtocol::NextHop(Id target) const {
  if (succs_.empty()) return NetAddress{};
  Id me = host_->local_id();
  if (InOpenClosed(me, succs_.front().id, target)) return succs_.front().addr;
  Peer cp = ClosestPreceding(target);
  if (cp.valid()) return cp.addr;
  return succs_.front().addr;
}

void ChordProtocol::AdoptSuccessor(const Peer& peer) {
  if (!peer.valid() || peer.addr == host_->local_address()) return;
  for (auto& s : succs_) {
    if (s.addr == peer.addr) {
      s.id = peer.id;
      return;
    }
  }
  succs_.push_back(peer);
  Id me = host_->local_id();
  std::sort(succs_.begin(), succs_.end(), [me](const Peer& a, const Peer& b) {
    return RingDistance(me, a.id) < RingDistance(me, b.id);
  });
  if (succs_.size() > static_cast<size_t>(options_.successor_list_len)) {
    succs_.resize(options_.successor_list_len);
  }
}

void ChordProtocol::RemovePeer(const NetAddress& addr) {
  succs_.erase(std::remove_if(succs_.begin(), succs_.end(),
                              [&](const Peer& p) { return p.addr == addr; }),
               succs_.end());
  for (auto& f : fingers_) {
    if (f.addr == addr) f = Peer{};
  }
  if (pred_.addr == addr) pred_ = Peer{};
}

void ChordProtocol::OnPeerUnreachable(const NetAddress& peer) { RemovePeer(peer); }

void ChordProtocol::ObserveContact(Id id, const NetAddress& addr) {
  if (addr == host_->local_address() || addr.IsNull()) return;
  // Opportunistically tighten the finger whose interval covers this id.
  Id me = host_->local_id();
  uint64_t dist = RingDistance(me, id);
  if (dist == 0) return;
  // Find k = floor(log2(dist)); the contact can serve finger k if it is
  // closer to me+2^k than the current entry.
  int k = 63 - __builtin_clzll(dist);
  Peer p{id, addr};
  Peer& f = fingers_[k];
  Id start = me + (k == 63 ? (1ULL << 63) : (1ULL << k));
  if (!f.valid() || RingDistance(start, id) < RingDistance(start, f.id)) {
    // Only adopt if the contact's id is actually past the finger start.
    if (InOpenClosed(me, id, start) || id == start) f = p;
  }
  if (succs_.empty()) AdoptSuccessor(p);
}

std::vector<NetAddress> ChordProtocol::SuccessorSet(size_t n) const {
  std::vector<NetAddress> out;
  for (const Peer& s : succs_) {
    if (out.size() >= n) break;
    if (!s.valid() || s.addr == host_->local_address()) continue;
    bool dup = false;
    for (const NetAddress& a : out) dup |= (a == s.addr);
    if (!dup) out.push_back(s.addr);
  }
  return out;
}

void ChordProtocol::SeedRoutingState(const std::vector<Peer>& ring) {
  started_ = true;
  ready_ = true;
  pred_ = Peer{};
  succs_.clear();
  for (auto& f : fingers_) f = Peer{};
  if (ring.empty()) return;
  Id me = host_->local_id();
  // Locate self (or insertion point) in the sorted ring.
  size_t n = ring.size();
  size_t self_pos = n;
  for (size_t i = 0; i < n; ++i) {
    if (ring[i].addr == host_->local_address()) {
      self_pos = i;
      break;
    }
  }
  PIER_CHECK(self_pos < n);
  if (n == 1) return;  // alone
  pred_ = ring[(self_pos + n - 1) % n];
  for (size_t i = 1; i <= std::min<size_t>(options_.successor_list_len, n - 1); ++i) {
    succs_.push_back(ring[(self_pos + i) % n]);
  }
  // fingers[k] = successor(me + 2^k), found by scanning the sorted ring.
  auto successor_of = [&](Id t) -> Peer {
    // First node with id >= t (clockwise), wrapping.
    size_t lo = 0, hi = n;
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (ring[mid].id < t) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return ring[lo % n];
  };
  for (int k = 0; k < 64; ++k) {
    Id start = me + (k == 63 ? (1ULL << 63) : (1ULL << k));
    Peer p = successor_of(start);
    if (p.addr != host_->local_address()) fingers_[k] = p;
  }
}

// ---------------------------------------------------------------------------
// RPC plumbing
// ---------------------------------------------------------------------------

void ChordProtocol::SendRpc(
    const NetAddress& to, std::string payload,
    std::function<void(const Status&, std::string_view)> cb) {
  uint64_t nonce = next_nonce_++;
  // payload already contains header+subtype; append nonce then body was
  // handled by callers — here we just wrap registration.
  PendingRpc rpc;
  rpc.cb = std::move(cb);
  rpc.timer = host_->vri()->ScheduleEvent(options_.rpc_timeout, [this, nonce]() {
    CompleteRpc(nonce, Status::TimedOut("chord rpc timeout"), {});
  });
  pending_[nonce] = std::move(rpc);
  // Splice the nonce into the payload: callers leave an 8-byte placeholder
  // immediately after the 15-byte header (id + host + port + subtype).
  PIER_CHECK(payload.size() >= 23);
  for (int i = 0; i < 8; ++i) {
    payload[15 + i] = static_cast<char>((nonce >> (8 * i)) & 0xff);
  }
  host_->SendProtocolMessage(to, std::move(payload), [this, nonce](const Status& s) {
    if (!s.ok()) CompleteRpc(nonce, s, {});
  });
}

void ChordProtocol::CompleteRpc(uint64_t nonce, const Status& status,
                                std::string_view body) {
  auto it = pending_.find(nonce);
  if (it == pending_.end()) return;
  auto cb = std::move(it->second.cb);
  if (it->second.timer != 0) host_->vri()->CancelEvent(it->second.timer);
  pending_.erase(it);
  cb(status, body);
}

void ChordProtocol::HandleProtocolMessage(const NetAddress& from,
                                          std::string_view payload) {
  WireReader r(payload);
  Peer sender;
  uint8_t subtype;
  if (!GetPeer(&r, &sender).ok() || !r.GetU8(&subtype).ok()) return;
  sender.addr = from;  // trust the transport's source address
  ObserveContact(sender.id, sender.addr);

  uint64_t nonce = 0;
  if (!r.GetU64(&nonce).ok()) return;

  switch (subtype) {
    case kFindSucc: {
      uint64_t target;
      if (!r.GetU64(&target).ok()) return;
      Peer answer;
      bool done = false;
      Id me = host_->local_id();
      if (IsOwner(target)) {
        answer = Self();
        done = true;
      } else if (!succs_.empty() && InOpenClosed(me, succs_.front().id, target)) {
        answer = succs_.front();
        done = true;
      } else {
        answer = ClosestPreceding(target);
        if (!answer.valid()) {
          answer = succs_.empty() ? Self() : succs_.front();
          done = true;
        }
      }
      WireWriter w;
      w.PutRaw(EncodeHeader(kFindSuccResp));
      w.PutU64(nonce);
      w.PutU8(done ? 1 : 0);
      PutPeer(&w, answer);
      host_->SendProtocolMessage(from, std::move(w).data(), nullptr);
      return;
    }
    case kFindSuccResp:
    case kGetNbrsResp:
      CompleteRpc(nonce, Status::Ok(), payload.substr(15 + 8));
      return;
    case kGetNbrs: {
      WireWriter w;
      w.PutRaw(EncodeHeader(kGetNbrsResp));
      w.PutU64(nonce);
      w.PutU8(pred_.valid() ? 1 : 0);
      PutPeer(&w, pred_);
      w.PutU8(static_cast<uint8_t>(succs_.size()));
      for (const Peer& s : succs_) PutPeer(&w, s);
      host_->SendProtocolMessage(from, std::move(w).data(), nullptr);
      return;
    }
    case kNotify: {
      if (!pred_.valid() || InOpenOpen(pred_.id, host_->local_id(), sender.id)) {
        pred_ = sender;
      }
      if (succs_.empty()) AdoptSuccessor(sender);  // two-node bootstrap
      return;
    }
    case kPing:
      return;  // the transport-level ack is the answer
    default:
      return;
  }
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

void ChordProtocol::Stabilize() {
  if (succs_.empty()) return;
  Peer succ0 = succs_.front();
  WireWriter w;
  w.PutRaw(EncodeHeader(kGetNbrs));
  w.PutU64(0);  // nonce placeholder
  SendRpc(succ0.addr, std::move(w).data(),
          [this, succ0](const Status& s, std::string_view body) {
            if (!s.ok()) {
              RemovePeer(succ0.addr);
              return;
            }
            WireReader r(body);
            uint8_t has_pred = 0, count = 0;
            Peer pred;
            if (!r.GetU8(&has_pred).ok() || !GetPeer(&r, &pred).ok() ||
                !r.GetU8(&count).ok())
              return;
            Id me = host_->local_id();
            if (has_pred && pred.valid() && pred.addr != host_->local_address() &&
                InOpenOpen(me, succ0.id, pred.id)) {
              AdoptSuccessor(pred);
            }
            for (int i = 0; i < count; ++i) {
              Peer p;
              if (!GetPeer(&r, &p).ok()) break;
              if (p.valid() && p.addr != host_->local_address()) AdoptSuccessor(p);
            }
            if (!succs_.empty()) Notify(succs_.front());
          });
}

void ChordProtocol::Notify(const Peer& peer) {
  WireWriter w;
  w.PutRaw(EncodeHeader(kNotify));
  w.PutU64(0);  // unused nonce slot keeps the frame layout uniform
  host_->SendProtocolMessage(peer.addr, std::move(w).data(), nullptr);
}

void ChordProtocol::CheckPredecessor() {
  if (!pred_.valid()) return;
  NetAddress addr = pred_.addr;
  WireWriter w;
  w.PutRaw(EncodeHeader(kPing));
  w.PutU64(0);
  host_->SendProtocolMessage(addr, std::move(w).data(), [this, addr](const Status& s) {
    if (!s.ok() && pred_.addr == addr) pred_ = Peer{};
  });
}

void ChordProtocol::FixNextFinger() {
  if (succs_.empty()) return;
  int k = next_finger_;
  next_finger_ = (next_finger_ + 1) % 64;
  Id start = host_->local_id() + (k == 63 ? (1ULL << 63) : (1ULL << k));
  ResolveSuccessor(start, NetAddress{}, [this, k](const Result<Peer>& result) {
    if (result.ok() && result.value().valid() &&
        result.value().addr != host_->local_address()) {
      fingers_[k] = result.value();
    }
  });
}

void ChordProtocol::ResolveSuccessor(Id target, const NetAddress& via,
                                     ResolveCallback cb) {
  struct State {
    ChordProtocol* self;
    Id target;
    int iter = 0;
    ResolveCallback cb;
  };
  auto state = std::make_shared<State>();
  state->self = this;
  state->target = target;
  state->cb = std::move(cb);

  // step(peer_addr): ask that peer; a null address means "start locally".
  // The closure must not hold a strong reference to its own function object
  // (that cycle leaked one State per resolve); the chain stays alive through
  // the local ref below and the copy inside each in-flight RPC callback.
  auto step = std::make_shared<std::function<void(const NetAddress&)>>();
  std::weak_ptr<std::function<void(const NetAddress&)>> weak_step = step;
  *step = [state, weak_step](const NetAddress& ask) {
    auto step = weak_step.lock();
    if (!step) return;
    ChordProtocol* self = state->self;
    if (state->iter++ > self->options_.max_resolve_iterations) {
      state->cb(Status::Unavailable("chord: resolve iteration limit"));
      return;
    }
    if (ask.IsNull() || ask == self->host_->local_address()) {
      // Answer locally.
      Id me = self->host_->local_id();
      if (self->IsOwner(state->target)) {
        state->cb(self->Self());
        return;
      }
      if (!self->succs_.empty() &&
          InOpenClosed(me, self->succs_.front().id, state->target)) {
        state->cb(self->succs_.front());
        return;
      }
      Peer cp = self->ClosestPreceding(state->target);
      if (!cp.valid()) {
        state->cb(self->succs_.empty() ? self->Self() : self->succs_.front());
        return;
      }
      (*step)(cp.addr);
      return;
    }
    WireWriter w;
    w.PutRaw(self->EncodeHeader(kFindSucc));
    w.PutU64(0);  // nonce placeholder
    w.PutU64(state->target);
    self->SendRpc(ask, std::move(w).data(),
                  [state, step, ask](const Status& s, std::string_view body) {
                    ChordProtocol* self = state->self;
                    if (!s.ok()) {
                      self->OnPeerUnreachable(ask);
                      state->cb(s);
                      return;
                    }
                    WireReader r(body);
                    uint8_t done;
                    Peer peer;
                    if (!r.GetU8(&done).ok() || !GetPeer(&r, &peer).ok()) {
                      state->cb(Status::Corruption("chord: bad find-succ resp"));
                      return;
                    }
                    self->ObserveContact(peer.id, peer.addr);
                    if (done) {
                      state->cb(peer);
                    } else if (peer.addr == ask) {
                      state->cb(peer);  // no progress possible; accept
                    } else {
                      (*step)(peer.addr);
                    }
                  });
  };
  (*step)(via);
}

}  // namespace pier
