#include "overlay/routing_chord.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/hash.h"
#include "util/logging.h"
#include "util/wire.h"

namespace pier {

namespace {

/// Never 0, which a GetNbrs request sends when it holds no reply.
uint64_t NbrsDigest(std::string_view body) { return Fnv1a64(body) | 1; }

}  // namespace

ChordProtocol::ChordProtocol(ProtocolHost* host, Options options)
    : host_(host),
      options_(options),
      finger_period_(options.fix_finger_period) {}

ChordProtocol::~ChordProtocol() {
  for (uint64_t t : timers_) host_->vri()->CancelEvent(t);
  for (auto& [nonce, rpc] : pending_) {
    (void)nonce;
    if (rpc.timer != 0) host_->vri()->CancelEvent(rpc.timer);
  }
}

WireWriter ChordProtocol::Frame(uint8_t subtype, uint64_t nonce) const {
  WireWriter w;
  w.PutU64(host_->local_id());
  w.PutU8(subtype);
  w.PutVarint(nonce);
  return w;
}

void ChordProtocol::Send(const NetAddress& to, std::string payload,
                         std::function<void(const Status&)> on_delivery) {
  counters_.frames_sent++;
  counters_.bytes_sent += payload.size();
  host_->SendProtocolMessage(to, std::move(payload), std::move(on_delivery));
}

void ChordProtocol::Reply(const NetAddress& to, const WireWriter& frame) {
  counters_.frames_sent++;
  counters_.bytes_sent += frame.data().size();
  host_->ReplyProtocolMessage(to, frame.data());
}

void ChordProtocol::Start(const NetAddress& bootstrap) {
  started_ = true;
  if (bootstrap.IsNull() || bootstrap == host_->local_address()) {
    ready_ = true;  // first node: owns the whole ring
  } else {
    // Resolve our successor through the bootstrap node, then integrate.
    counters_.join_resolves++;
    ResolveSuccessor(host_->local_id(), bootstrap,
                     [this, bootstrap](const Result<Peer>& result) {
                       // Seeded (or joined) while the resolve was in flight:
                       // on a seeded ring it names this node itself, which is
                       // not a failed join.
                       if (ready_) return;
                       Peer succ = result.ok() ? result.value() : Peer{};
                       // A node the resolve asked learned of this one from
                       // the join itself and names it as its own id's owner
                       // (a lone bootstrap takes the first node it hears
                       // from as its successor). Asking again would get the
                       // same answer, so the successor this node has heard
                       // of stands in; stabilize corrects it.
                       if (succ.addr == host_->local_address() &&
                           !succs_.empty())
                         succ = succs_.front();
                       if (!succ.valid() ||
                           succ.addr == host_->local_address()) {
                         // Retry the join later.
                         timers_[kJoinRetryTimer] = host_->vri()->ScheduleEvent(
                             kJoinRetryDelay,
                             [this, bootstrap]() { Start(bootstrap); });
                         return;
                       }
                       AdoptSuccessor(succ);
                       ready_ = true;
                       Notify(succs_.front());
                       Stabilize();
                     });
  }
  ScheduleMaintenance();
}

TimeUs ChordProtocol::Jittered(TimeUs period) const {
  Rng* rng = host_->vri()->rng();
  return period + static_cast<TimeUs>(rng->Uniform(period / 2)) - period / 4;
}

void ChordProtocol::ScheduleMaintenance() {
  if (maintenance_scheduled_) return;
  maintenance_scheduled_ = true;
  struct Loop {
    size_t slot;
    const TimeUs* period;  // read at every reschedule: the finger loop's moves
    void (ChordProtocol::*fn)();
  };
  // The ticks live in maintenance_ (not in self-capturing shared_ptrs, which
  // would cycle and leak): each scheduled event holds a plain copy that
  // reschedules from the stored member.
  for (Loop loop : {Loop{kStabilizeTimer, &options_.stabilize_period,
                         &ChordProtocol::Stabilize},
                    Loop{kFingerTimer, &finger_period_,
                         &ChordProtocol::FixNextFinger},
                    Loop{kCheckPredTimer, &options_.check_pred_period,
                         &ChordProtocol::CheckPredecessor}}) {
    maintenance_[loop.slot] = [this, loop]() {
      (this->*(loop.fn))();
      // One chain per slot: a ring change inside the tick (a resolve that
      // answers locally) may already have scheduled the next one.
      host_->vri()->CancelEvent(timers_[loop.slot]);
      timers_[loop.slot] = host_->vri()->ScheduleEvent(Jittered(*loop.period),
                                                       maintenance_[loop.slot]);
    };
    timers_[loop.slot] = host_->vri()->ScheduleEvent(Jittered(*loop.period),
                                                     maintenance_[loop.slot]);
  }
}

void ChordProtocol::NoteRingChange() {
  if (finger_period_ == options_.fix_finger_period) return;
  finger_period_ = options_.fix_finger_period;
  if (!maintenance_scheduled_) return;
  // The pending tick may be up to the capped period away: bring it in.
  host_->vri()->CancelEvent(timers_[kFingerTimer]);
  timers_[kFingerTimer] = host_->vri()->ScheduleEvent(
      Jittered(finger_period_), maintenance_[kFingerTimer]);
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
  std::vector<Peer> list = succs_;
  list.push_back(peer);
  SetSuccessors(std::move(list));
}

void ChordProtocol::SetSuccessors(std::vector<Peer> list) {
  Id me = host_->local_id();
  NetAddress self = host_->local_address();
  std::stable_sort(list.begin(), list.end(),
                   [me](const Peer& a, const Peer& b) {
                     return RingDistance(me, a.id) < RingDistance(me, b.id);
                   });
  std::vector<Peer> next;
  for (const Peer& p : list) {
    if (next.size() >= static_cast<size_t>(kSuccessorListLen)) break;
    if (!p.valid() || p.addr == self) continue;
    bool dup = false;
    for (const Peer& q : next) dup = dup || q.addr == p.addr;
    if (!dup) next.push_back(p);
  }
  bool same = next.size() == succs_.size();
  for (size_t i = 0; same && i < next.size(); ++i)
    same = next[i].addr == succs_[i].addr && next[i].id == succs_[i].id;
  if (same) return;
  succs_ = std::move(next);
  NoteRingChange();
}

void ChordProtocol::RemovePeer(const NetAddress& addr) {
  auto gone = std::remove_if(succs_.begin(), succs_.end(),
                             [&](const Peer& p) { return p.addr == addr; });
  bool removed = gone != succs_.end();
  succs_.erase(gone, succs_.end());
  for (auto& f : fingers_) {
    if (f.addr != addr) continue;
    f = Peer{};
    removed = true;
  }
  if (pred_.addr == addr) {
    pred_ = Peer{};
    removed = true;
  }
  if (removed) NoteRingChange();
}

void ChordProtocol::OnPeerUnreachable(const NetAddress& peer) {
  RemovePeer(peer);
}

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
    if (InOpenClosed(me, id, start) || id == start) {
      f = p;
      NoteRingChange();
    }
  }
  if (succs_.empty()) AdoptSuccessor(p);
}

std::vector<RingPeer> ChordProtocol::Contacts() const {
  std::vector<RingPeer> out;
  for (const Peer& s : succs_) AddContact(s, host_->local_address(), &out);
  for (const Peer& f : fingers_) AddContact(f, host_->local_address(), &out);
  AddContact(pred_, host_->local_address(), &out);
  return out;
}

std::vector<RingPeer> ChordProtocol::SuccessorSet(size_t n) const {
  std::vector<RingPeer> out;
  for (const Peer& s : succs_) {
    if (out.size() >= n) break;
    AddContact(s, host_->local_address(), &out);
  }
  return out;
}

void ChordProtocol::SeedRoutingState(const std::vector<Peer>& ring) {
  started_ = true;
  ready_ = true;
  host_->vri()->CancelEvent(timers_[kJoinRetryTimer]);
  timers_[kJoinRetryTimer] = 0;
  NoteRingChange();
  pred_ = Peer{};
  pred_heard_ = host_->vri()->Now();
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
  for (size_t i = 1; i <= std::min<size_t>(kSuccessorListLen, n - 1); ++i) {
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
    const NetAddress& to, uint8_t subtype, std::string_view body,
    std::function<void(const Status&, std::string_view)> cb) {
  uint64_t nonce = next_nonce_++;
  WireWriter w = Frame(subtype, nonce);
  w.PutRaw(body);
  auto send = [this, to, nonce, frame = std::move(w).data()]() {
    Send(to, frame, [this, nonce](const Status& s) {
      if (!s.ok()) CompleteRpc(nonce, s, {});
    });
  };
  PendingRpc& rpc = pending_[nonce];
  rpc.cb = std::move(cb);
  // UdpCC retransmits no reply: the request goes once more at half time.
  const TimeUs half = options_.rpc_timeout / 2;
  rpc.timer = host_->vri()->ScheduleEvent(half, [this, nonce, half, send]() {
    pending_.at(nonce).timer = host_->vri()->ScheduleEvent(
        options_.rpc_timeout - half, [this, nonce]() {
          CompleteRpc(nonce, Status::TimedOut("chord rpc timeout"), {});
        });
    send();
  });
  send();
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
  uint64_t nonce;
  if (!r.GetU64(&sender.id).ok() || !r.GetU8(&subtype).ok() ||
      !r.GetVarint(&nonce).ok())
    return;
  sender.addr = from;  // the header carries no address: the transport's source
  if (pred_.valid() && from == pred_.addr) pred_heard_ = host_->vri()->Now();
  ObserveContact(sender.id, sender.addr);

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
      } else if (!succs_.empty() &&
                 InOpenClosed(me, succs_.front().id, target)) {
        answer = succs_.front();
        done = true;
      } else {
        answer = ClosestPreceding(target);
        if (!answer.valid()) {
          answer = succs_.empty() ? Self() : succs_.front();
          done = true;
        }
      }
      WireWriter w = Frame(kFindSuccResp, nonce);
      w.PutU8(done ? 1 : 0);
      PutPeer(&w, answer);
      Reply(from, w);
      return;
    }
    case kFindSuccResp:
    case kGetNbrsResp:
    case kPong:
      CompleteRpc(nonce, Status::Ok(),
                  payload.substr(payload.size() - r.remaining()));
      return;
    case kGetNbrs: {
      uint64_t digest;
      if (!r.GetU64(&digest).ok()) return;
      WireWriter body;
      body.PutU8(pred_.valid() ? 1 : 0);
      PutPeer(&body, pred_);
      body.PutU8(static_cast<uint8_t>(succs_.size()));
      for (const Peer& s : succs_) PutPeer(&body, s);
      WireWriter w = Frame(kGetNbrsResp, nonce);
      // The requester already holds this very body: say so in one byte.
      if (digest == NbrsDigest(body.data())) {
        w.PutU8(kNbrsUnchanged);
      } else {
        w.PutRaw(body.data());
      }
      Reply(from, w);
      return;
    }
    case kNotify: {
      if (!pred_.valid() ||
          InOpenOpen(pred_.id, host_->local_id(), sender.id)) {
        pred_ = sender;
        pred_heard_ = host_->vri()->Now();
        NoteRingChange();
      }
      if (succs_.empty()) AdoptSuccessor(sender);  // two-node bootstrap
      return;
    }
    case kPing:
      Reply(from, Frame(kPong, nonce));
      return;
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
  // The digest of the last full reply lets the successor answer "unchanged"
  // in one byte on a quiet ring. It names content, so a new successor
  // (whose body differs) simply answers in full.
  const uint64_t digest = nbrs_digest_;
  WireWriter w;
  w.PutU64(digest);
  SendRpc(succ0.addr, kGetNbrs, w.data(),
          [this, succ0, digest](const Status& s, std::string_view body) {
            if (!s.ok()) {
              RemovePeer(succ0.addr);
              return;
            }
            // A failure since the request moved the list on: stale reply.
            if (succs_.empty() || succs_.front().addr != succ0.addr) return;
            bool unchanged = body.size() == 1 &&
                             static_cast<uint8_t>(body[0]) == kNbrsUnchanged;
            // "Unchanged" stands for the body the request sent the digest
            // of, unless a later full reply has replaced it since.
            if (unchanged && digest != nbrs_digest_) return;
            if (!ApplyNbrs(succ0, unchanged ? nbrs_body_ : body)) return;
            if (unchanged) {
              counters_.nbrs_unchanged++;
              return;
            }
            counters_.nbrs_full++;
            nbrs_body_ = std::string(body);
            nbrs_digest_ = NbrsDigest(body);
          });
}

bool ChordProtocol::ApplyNbrs(const Peer& succ0, std::string_view body) {
  WireReader r(body);
  uint8_t has_pred = 0, count = 0;
  Peer pred;
  if (!r.GetU8(&has_pred).ok() || has_pred > 1 || !GetPeer(&r, &pred).ok() ||
      !r.GetU8(&count).ok())
    return false;
  std::vector<Peer> listed(count);
  for (Peer& p : listed)
    if (!GetPeer(&r, &p).ok()) return false;
  if (!r.AtEnd()) return false;

  Id me = host_->local_id();
  bool names_me = has_pred && pred.addr == host_->local_address();
  // Chord's successor-list rule: the list is rebuilt from succ0 and what
  // succ0 lists, so an entry no successor vouches for any more ages out
  // instead of lingering. Only succ0's predecessor may sit between us and
  // succ0; a listed node there has wrapped the whole ring (or is a dead
  // node's last trace).
  std::vector<Peer> list{succ0};
  if (has_pred && pred.valid() && !names_me &&
      InOpenOpen(me, succ0.id, pred.id)) {
    list.push_back(pred);
  }
  for (const Peer& p : listed)
    if (!InOpenOpen(me, succ0.id, p.id)) list.push_back(p);
  SetSuccessors(std::move(list));
  // A successor that already names us as its predecessor needs no Notify; a
  // new successor, or one that lost us, does.
  if (!succs_.empty() && !(names_me && succs_.front().addr == succ0.addr)) {
    Notify(succs_.front());
  }
  return true;
}

void ChordProtocol::Notify(const Peer& peer) {
  counters_.notifies_sent++;
  Send(peer.addr, Frame(kNotify, 0).data(), nullptr);
}

void ChordProtocol::CheckPredecessor() {
  if (!pred_.valid()) return;
  // The predecessor's own stabilize reaches us every stabilize_period, so
  // any frame from it within the last period is proof of life.
  if (host_->vri()->Now() - pred_heard_ < options_.check_pred_period) return;
  NetAddress addr = pred_.addr;
  counters_.pings_sent++;
  SendRpc(addr, kPing, {}, [this, addr](const Status& s, std::string_view) {
    if (pred_.addr != addr) return;
    if (s.ok()) {
      pred_heard_ = host_->vri()->Now();
      return;
    }
    // No pong within rpc_timeout (or the frame was undeliverable).
    pred_ = Peer{};
    NoteRingChange();
  });
}

void ChordProtocol::FixNextFinger() {
  counters_.finger_ticks++;
  if (succs_.empty()) return;
  int k = next_finger_;
  next_finger_ = (next_finger_ + 1) % 64;
  Id start = host_->local_id() + (k == 63 ? (1ULL << 63) : (1ULL << k));
  ResolveSuccessor(start, NetAddress{}, [this, k](const Result<Peer>& result) {
    if (!result.ok() || !result.value().valid()) return;
    // A finger that resolves to this node is empty, as when seeded.
    Peer found = result.value().addr == host_->local_address() ? Peer{}
                                                               : result.value();
    if (found.addr == fingers_[k].addr) {
      // The table held still: back off, up to the cap.
      finger_period_ = std::min(finger_period_ * 2,
                                kFingerBackoffCap * options_.fix_finger_period);
      return;
    }
    fingers_[k] = found;
    NoteRingChange();
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
    if (state->iter++ > kMaxResolveIterations) {
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
    w.PutU64(state->target);
    self->SendRpc(ask, kFindSucc, w.data(),
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
                      state->cb(
                          Status::Corruption("chord: bad find-succ resp"));
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
