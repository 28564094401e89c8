#include "overlay/routing_prefix.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/logging.h"
#include "util/wire.h"

namespace pier {

namespace {

void PutPeer(WireWriter* w, const PrefixProtocol::Peer& p) {
  w->PutU64(p.id);
  w->PutU32(p.addr.host);
  w->PutU16(p.addr.port);
}

Status GetPeer(WireReader* r, PrefixProtocol::Peer* p) {
  PIER_RETURN_IF_ERROR(r->GetU64(&p->id));
  PIER_RETURN_IF_ERROR(r->GetU32(&p->addr.host));
  PIER_RETURN_IF_ERROR(r->GetU16(&p->addr.port));
  return Status::Ok();
}

}  // namespace

PrefixProtocol::PrefixProtocol(ProtocolHost* host, Options options)
    : host_(host), options_(options) {}

PrefixProtocol::~PrefixProtocol() {
  host_->vri()->CancelEvent(gossip_timer_);
  host_->vri()->CancelEvent(join_timer_);
  for (auto& [nonce, p] : pending_) {
    (void)nonce;
    if (p.timer != 0) host_->vri()->CancelEvent(p.timer);
  }
}

int PrefixProtocol::SharedPrefixNibbles(Id a, Id b) {
  uint64_t diff = a ^ b;
  if (diff == 0) return 16;
  return __builtin_clzll(diff) / 4;
}

int PrefixProtocol::NibbleAt(Id id, int pos) {
  return static_cast<int>((id >> (60 - 4 * pos)) & 0xf);
}

void PrefixProtocol::Start(const NetAddress& bootstrap) {
  started_ = true;
  if (bootstrap.IsNull() || bootstrap == host_->local_address()) {
    ready_ = true;
  } else {
    DoJoin(bootstrap);
  }
  if (!maintenance_scheduled_) {
    maintenance_scheduled_ = true;
    Rng* rng = host_->vri()->rng();
    // The tick lives in gossip_tick_, not a self-capturing shared_ptr
    // (which would cycle and leak); scheduled events hold plain copies.
    gossip_tick_ = [this, rng]() {
      Gossip();
      TimeUs period = options_.gossip_period;
      TimeUs jitter = static_cast<TimeUs>(rng->Uniform(period / 2)) - period / 4;
      gossip_timer_ = host_->vri()->ScheduleEvent(period + jitter, gossip_tick_);
    };
    gossip_timer_ =
        host_->vri()->ScheduleEvent(options_.gossip_period, gossip_tick_);
  }
}

void PrefixProtocol::DoJoin(const NetAddress& bootstrap) {
  // Iteratively walk toward the owner of our own id, learning contacts from
  // every hop (classic Pastry join, executed iteratively like Bamboo).
  struct State {
    PrefixProtocol* self;
    int iter = 0;
    NetAddress bootstrap;
  };
  auto state = std::make_shared<State>();
  state->self = this;
  state->bootstrap = bootstrap;

  // The closure must not hold a strong reference to its own function object
  // (that cycle leaks); the chain stays alive through the local ref below
  // and the copy inside each pending join callback.
  auto step = std::make_shared<std::function<void(const NetAddress&)>>();
  std::weak_ptr<std::function<void(const NetAddress&)>> weak_step = step;
  *step = [state, weak_step](const NetAddress& ask) {
    auto step = weak_step.lock();
    if (!step) return;
    PrefixProtocol* self = state->self;
    if (state->iter++ > self->options_.max_join_iterations) {
      self->join_timer_ = self->host_->vri()->ScheduleEvent(
          self->options_.join_retry_delay,
          [self, state]() { self->DoJoin(state->bootstrap); });
      return;
    }
    uint64_t nonce = self->next_nonce_++;
    WireWriter w;
    PutPeer(&w, self->Self());
    w.PutU8(kJoinFind);
    w.PutU64(nonce);
    w.PutU64(self->host_->local_id());  // target: our own id

    PendingJoin pending;
    pending.cb = [state, step, ask](const Status& s, std::string_view body) {
      PrefixProtocol* self = state->self;
      if (!s.ok()) {
        self->RemoveEverywhere(ask);
        self->join_timer_ = self->host_->vri()->ScheduleEvent(
            self->options_.join_retry_delay,
            [self, state]() { self->DoJoin(state->bootstrap); });
        return;
      }
      WireReader r(body);
      uint8_t done;
      Peer next;
      uint8_t count;
      if (!r.GetU8(&done).ok() || !GetPeer(&r, &next).ok() || !r.GetU8(&count).ok())
        return;
      for (int i = 0; i < count; ++i) {
        Peer p;
        if (!GetPeer(&r, &p).ok()) break;
        self->ObserveContact(p.id, p.addr);
      }
      self->ObserveContact(next.id, next.addr);
      if (done || next.addr == ask || next.addr == self->host_->local_address()) {
        self->ready_ = true;
        // Announce ourselves to everything we learned so their leaf sets
        // adopt us promptly.
        for (const Peer& p : self->leaves_cw_) self->SendGossipTo(p.addr);
        for (const Peer& p : self->leaves_ccw_) self->SendGossipTo(p.addr);
        return;
      }
      (*step)(next.addr);
    };
    pending.timer = self->host_->vri()->ScheduleEvent(
        self->options_.rpc_timeout, [self, nonce]() {
          auto it = self->pending_.find(nonce);
          if (it == self->pending_.end()) return;
          auto cb = std::move(it->second.cb);
          self->pending_.erase(it);
          cb(Status::TimedOut("prefix join rpc timeout"), {});
        });
    self->pending_[nonce] = std::move(pending);
    self->host_->SendProtocolMessage(ask, std::move(w).data(),
                                     [self, nonce](const Status& s) {
                                       if (s.ok()) return;
                                       auto it = self->pending_.find(nonce);
                                       if (it == self->pending_.end()) return;
                                       auto cb = std::move(it->second.cb);
                                       self->host_->vri()->CancelEvent(it->second.timer);
                                       self->pending_.erase(it);
                                       cb(s, {});
                                     });
  };
  (*step)(bootstrap);
}

bool PrefixProtocol::LeafSetCovers(Id target) const {
  if (leaves_cw_.empty() && leaves_ccw_.empty()) return true;
  Id me = host_->local_id();
  uint64_t span_cw = leaves_cw_.empty() ? 0 : RingDistance(me, leaves_cw_.back().id);
  uint64_t span_ccw = leaves_ccw_.empty() ? 0 : RingDistance(leaves_ccw_.back().id, me);
  uint64_t d_cw = RingDistance(me, target);
  uint64_t d_ccw = RingDistance(target, me);
  return d_cw <= span_cw || d_ccw <= span_ccw;
}

PrefixProtocol::Peer PrefixProtocol::ClosestKnown(Id target, bool include_table) const {
  Peer best = Self();
  uint64_t best_dist = RingAbsDistance(host_->local_id(), target);
  auto consider = [&](const Peer& p) {
    if (!p.valid()) return;
    uint64_t d = RingAbsDistance(p.id, target);
    if (d < best_dist || (d == best_dist && p.id < best.id)) {
      best_dist = d;
      best = p;
    }
  };
  for (const Peer& p : leaves_cw_) consider(p);
  for (const Peer& p : leaves_ccw_) consider(p);
  if (include_table) {
    for (const auto& row : table_)
      for (const Peer& p : row) consider(p);
  }
  return best;
}

bool PrefixProtocol::IsOwner(Id target) const {
  if (!started_) return false;
  if (!ready_ && !(leaves_cw_.empty() && leaves_ccw_.empty())) {
    // While joining we never claim ownership.
    return false;
  }
  Peer closest = ClosestKnown(target, /*include_table=*/false);
  return closest.addr == host_->local_address();
}

NetAddress PrefixProtocol::NextHop(Id target) const {
  if (leaves_cw_.empty() && leaves_ccw_.empty()) return NetAddress{};
  Id me = host_->local_id();
  if (LeafSetCovers(target)) {
    Peer closest = ClosestKnown(target, /*include_table=*/false);
    if (closest.addr == host_->local_address()) return NetAddress{};
    return closest.addr;
  }
  // Prefix rule: try the routing table cell that extends the shared prefix.
  int row = SharedPrefixNibbles(me, target);
  if (row < 16) {
    const Peer& cell = table_[row][NibbleAt(target, row)];
    if (cell.valid()) return cell.addr;
  }
  // Fallback: any known node strictly closer than us (guarantees progress).
  Peer closest = ClosestKnown(target, /*include_table=*/true);
  if (closest.addr == host_->local_address()) return NetAddress{};
  return closest.addr;
}

void PrefixProtocol::InsertLeaf(const Peer& p) {
  Id me = host_->local_id();
  auto insert_into = [&](std::vector<Peer>* side, uint64_t dist) {
    for (auto& existing : *side) {
      if (existing.addr == p.addr) {
        existing.id = p.id;
        return;
      }
    }
    side->push_back(p);
    std::sort(side->begin(), side->end(), [&](const Peer& a, const Peer& b) {
      uint64_t da = (side == &leaves_cw_) ? RingDistance(me, a.id)
                                          : RingDistance(a.id, me);
      uint64_t db = (side == &leaves_cw_) ? RingDistance(me, b.id)
                                          : RingDistance(b.id, me);
      return da < db;
    });
    if (side->size() > static_cast<size_t>(options_.leaf_per_side)) {
      side->resize(options_.leaf_per_side);
    }
    (void)dist;
  };
  insert_into(&leaves_cw_, RingDistance(me, p.id));
  insert_into(&leaves_ccw_, RingDistance(p.id, me));
}

void PrefixProtocol::ObserveContact(Id id, const NetAddress& addr) {
  if (addr.IsNull() || addr == host_->local_address()) return;
  Peer p{id, addr};
  InsertLeaf(p);
  Id me = host_->local_id();
  int row = SharedPrefixNibbles(me, id);
  if (row < 16) {
    Peer& cell = table_[row][NibbleAt(id, row)];
    if (!cell.valid()) cell = p;
  }
}

void PrefixProtocol::RemoveEverywhere(const NetAddress& addr) {
  auto strip = [&](std::vector<Peer>* v) {
    v->erase(std::remove_if(v->begin(), v->end(),
                            [&](const Peer& p) { return p.addr == addr; }),
             v->end());
  };
  strip(&leaves_cw_);
  strip(&leaves_ccw_);
  for (auto& row : table_)
    for (Peer& p : row)
      if (p.addr == addr) p = Peer{};
}

void PrefixProtocol::OnPeerUnreachable(const NetAddress& peer) {
  RemoveEverywhere(peer);
}

void PrefixProtocol::SeedRoutingState(const std::vector<Peer>& ring) {
  started_ = true;
  ready_ = true;
  leaves_cw_.clear();
  leaves_ccw_.clear();
  for (auto& row : table_)
    for (Peer& p : row) p = Peer{};
  for (const Peer& p : ring) {
    if (p.addr != host_->local_address()) ObserveContact(p.id, p.addr);
  }
}

void PrefixProtocol::Gossip() {
  if (leaves_cw_.empty() && leaves_ccw_.empty()) return;
  // Pick one leaf (round robin via RNG) and push our leaf view to it; the
  // transport-level delivery failure doubles as the liveness probe.
  std::vector<Peer> all;
  all.insert(all.end(), leaves_cw_.begin(), leaves_cw_.end());
  all.insert(all.end(), leaves_ccw_.begin(), leaves_ccw_.end());
  const Peer& target = all[host_->vri()->rng()->Uniform(all.size())];
  SendGossipTo(target.addr);
}

void PrefixProtocol::SendGossipTo(const NetAddress& addr) {
  WireWriter w;
  PutPeer(&w, Self());
  w.PutU8(kGossip);
  std::vector<Peer> all;
  all.insert(all.end(), leaves_cw_.begin(), leaves_cw_.end());
  all.insert(all.end(), leaves_ccw_.begin(), leaves_ccw_.end());
  w.PutU8(static_cast<uint8_t>(all.size()));
  for (const Peer& p : all) PutPeer(&w, p);
  host_->SendProtocolMessage(addr, std::move(w).data(),
                             [this, addr](const Status& s) {
                               if (!s.ok()) RemoveEverywhere(addr);
                             });
}

void PrefixProtocol::HandleProtocolMessage(const NetAddress& from,
                                           std::string_view payload) {
  WireReader r(payload);
  Peer sender;
  uint8_t subtype;
  if (!GetPeer(&r, &sender).ok() || !r.GetU8(&subtype).ok()) return;
  sender.addr = from;
  ObserveContact(sender.id, sender.addr);

  switch (subtype) {
    case kJoinFind: {
      uint64_t nonce, target;
      if (!r.GetU64(&nonce).ok() || !r.GetU64(&target).ok()) return;
      NetAddress hop = NextHop(target);
      bool done = hop.IsNull();
      Peer next = done ? Self() : Peer{0, hop};
      // Fill in the id for the next hop if we know it.
      if (!done) {
        for (const Peer& p : leaves_cw_)
          if (p.addr == hop) next.id = p.id;
        for (const Peer& p : leaves_ccw_)
          if (p.addr == hop) next.id = p.id;
        for (const auto& row : table_)
          for (const Peer& p : row)
            if (p.valid() && p.addr == hop) next.id = p.id;
      }
      WireWriter w;
      PutPeer(&w, Self());
      w.PutU8(kJoinFindResp);
      w.PutU64(nonce);
      w.PutU8(done ? 1 : 0);
      PutPeer(&w, next);
      // Contact sample: our leaf set plus the routing row the joiner needs.
      std::vector<Peer> sample;
      sample.insert(sample.end(), leaves_cw_.begin(), leaves_cw_.end());
      sample.insert(sample.end(), leaves_ccw_.begin(), leaves_ccw_.end());
      int row = SharedPrefixNibbles(host_->local_id(), target);
      if (row < 16) {
        for (const Peer& p : table_[row])
          if (p.valid()) sample.push_back(p);
      }
      if (sample.size() > 32) sample.resize(32);
      w.PutU8(static_cast<uint8_t>(sample.size()));
      for (const Peer& p : sample) PutPeer(&w, p);
      host_->SendProtocolMessage(from, std::move(w).data(), nullptr);
      return;
    }
    case kJoinFindResp: {
      uint64_t nonce;
      if (!r.GetU64(&nonce).ok()) return;
      auto it = pending_.find(nonce);
      if (it == pending_.end()) return;
      auto cb = std::move(it->second.cb);
      host_->vri()->CancelEvent(it->second.timer);
      pending_.erase(it);
      // Body after the nonce: done flag onward.
      size_t consumed = payload.size() - r.remaining();
      cb(Status::Ok(), payload.substr(consumed));
      return;
    }
    case kGossip: {
      uint8_t count;
      if (!r.GetU8(&count).ok()) return;
      for (int i = 0; i < count; ++i) {
        Peer p;
        if (!GetPeer(&r, &p).ok()) break;
        ObserveContact(p.id, p.addr);
      }
      return;
    }
    default:
      return;
  }
}

}  // namespace pier
