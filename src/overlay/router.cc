#include "overlay/router.h"

#include <algorithm>
#include <utility>

#include "overlay/routing_chord.h"
#include "util/logging.h"
#include "util/wire.h"

namespace pier {

namespace {

/// Routed namespace of a dead contact's broadcast interval, re-covered by
/// the owner of the id just past the contact.
constexpr char kRecoverNs[] = "\x01" "bcast";

/// True if x lies in the open clockwise interval (lo, limit); limit == lo
/// means the whole ring but lo.
bool InCover(Id lo, Id limit, Id x) {
  return RingDistance(lo, x) - 1 < RingDistance(lo, limit) - 1;
}

}  // namespace

OverlayRouter::OverlayRouter(Vri* vri, Options options)
    : vri_(vri), options_(options) {
  local_address_ = vri_->LocalAddress();
  local_address_.port = options_.port;
  local_id_ = NodeIdFromAddress(local_address_.host, local_address_.port);
  transport_ = std::make_unique<UdpCc>(vri_, options_.port);
  transport_->set_message_handler(
      [this](const NetAddress& from, std::string_view payload) {
        HandleMessage(from, payload);
      });
  // Every failed delivery through this router (direct, framed, routed or
  // protocol traffic) drops the cache entries that name the peer.
  transport_->set_failure_handler(
      [this](const NetAddress& peer) { EvictPeer(peer); });
  protocol_ = std::make_unique<ChordProtocol>(this);
  RegisterDirectType(kMsgBroadcast,
                     [this](const NetAddress&, std::string_view body) {
                       HandleBroadcast(body, local_id_);
                     });
  // Each hop of a re-cover drops the dead contact before it picks its next
  // hop, so the route does not run into that contact again.
  RegisterUpcall(kRecoverNs, [this](const RouteInfo&, std::string* payload) {
    DropDeadContact(*payload);
    return UpcallAction::kContinue;
  });
}

OverlayRouter::~OverlayRouter() { vri_->CancelEvent(local_copy_timer_); }

void OverlayRouter::Join(const NetAddress& bootstrap) {
  protocol_->Start(bootstrap);
}

void OverlayRouter::RegisterUpcall(const std::string& ns,
                                   UpcallHandler handler) {
  upcalls_[ns] = std::move(handler);
}

void OverlayRouter::UnregisterUpcall(const std::string& ns) {
  upcalls_.erase(ns);
}

void OverlayRouter::RegisterDirectType(uint8_t type, DirectHandler handler) {
  PIER_CHECK(type >= 16);
  direct_handlers_[type] = std::move(handler);
}

void OverlayRouter::SendFramed(const NetAddress& to, std::string framed,
                               std::function<void(const Status&)> on_delivery) {
  transport_->Send(to, std::move(framed), std::move(on_delivery));
}

void OverlayRouter::SendProtocolMessage(
    const NetAddress& to, std::string payload,
    std::function<void(const Status&)> on_delivery) {
  WireWriter w = FrameMessage(kMsgProto);
  w.PutRaw(payload);
  SendFramed(to, std::move(w).data(), std::move(on_delivery));
}

void OverlayRouter::ReplyProtocolMessage(const NetAddress& to,
                                         std::string_view payload) {
  WireWriter w = FrameMessage(kMsgProto);
  w.PutRaw(payload);
  transport_->Reply(to, w.data());
}

std::string OverlayRouter::EncodeRoute(const RouteInfo& info,
                                       std::string_view payload) {
  WireWriter w = FrameMessage(kMsgRoute);
  w.PutU64(info.target);
  w.PutU8(info.hops | (info.hinted ? 0x40 : 0) | (info.shortcut ? 0x80 : 0));
  w.PutBytes(info.ns);
  w.PutBytes(payload);
  return std::move(w).data();
}

void OverlayRouter::Route(const std::string& ns, Id target,
                          std::string payload) {
  stats_.routed_originated++;
  RouteInfo info;
  info.target = target;
  info.ns = ns;
  ForwardRoute(std::move(info), std::move(payload), 0);
}

void OverlayRouter::ForwardRoute(RouteInfo info, std::string payload,
                                 int attempts) {
  if (protocol_->IsOwner(info.target)) {
    Deliver(info, payload);
    return;
  }
  NetAddress next = protocol_->NextHop(info.target);
  if (next.IsNull() || next == local_address_ || info.hops >= kMaxHops) {
    // No better hop known: we are the de-facto root for this id.
    if (info.hops >= kMaxHops) stats_.route_dead_ends++;
    Deliver(info, payload);
    return;
  }
  // An application frame with no upcall here jumps, once, to the cached
  // owner. A receiver that no longer owns the id routes on by the ring, and
  // so does this node if the jump fails.
  auto hit = owner_cache_.end();
  if (!info.shortcut && info.ns[0] != '\x01' && !upcalls_.count(info.ns))
    hit = FindCachedOwner(info.target);
  const bool jump = hit != owner_cache_.end();
  if (jump) next = hit->second.address;
  info.shortcut |= jump;
  std::string wire = EncodeRoute(info, payload);
  SendFramed(next, std::move(wire),
             [this, next, info = std::move(info), payload = std::move(payload),
              attempts = attempts + !jump](const Status& s) mutable {
               if (s.ok()) return;
               protocol_->OnPeerUnreachable(next);
               if (attempts >= kRouteRetryLimit) {
                 stats_.route_dead_ends++;
                 return;
               }
               ForwardRoute(std::move(info), std::move(payload), attempts);
             });
}

void OverlayRouter::Deliver(const RouteInfo& info, std::string_view payload) {
  stats_.routed_delivered++;
  // Lookup requests ride the routed channel in a reserved namespace; answer
  // them here instead of surfacing them to the query processor.
  if (info.ns == "\x01lookup") {
    if (!payload.empty() && static_cast<uint8_t>(payload[0]) == kMsgLookupReq) {
      HandleLookupReq(info.target, payload.substr(1));
    }
    return;
  }
  if (info.ns == kRecoverNs) {
    HandleBroadcast(DropDeadContact(payload), info.target - 1);
    return;
  }
  if (delivery_handler_) delivery_handler_(info, payload);
}

void OverlayRouter::HandleMessage(const NetAddress& from,
                                  std::string_view payload) {
  WireReader r(payload);
  uint8_t type;
  if (!r.GetU8(&type).ok()) return;
  std::string_view body = payload.substr(1);
  switch (type) {
    case kMsgProto:
      protocol_->HandleProtocolMessage(from, body);
      return;
    case kMsgRoute:
      HandleRoute(from, body);
      return;
    case kMsgLookupResp:
      HandleLookupResp(body);
      return;
    case kMsgNotOwner:
      HandleNotOwner(from, body);
      return;
    default: {
      auto it = direct_handlers_.find(type);
      if (it != direct_handlers_.end()) it->second(from, body);
      return;
    }
  }
}

void OverlayRouter::HandleRoute(const NetAddress& from,
                                std::string_view body) {
  WireReader r(body);
  RouteInfo info;
  std::string_view ns, payload_view;
  uint8_t hops;
  if (!r.GetU64(&info.target).ok() || !r.GetU8(&hops).ok() ||
      !r.GetBytes(&ns).ok() || !r.GetBytes(&payload_view).ok()) {
    return;  // malformed: drop (best-effort policy)
  }
  info.ns = std::string(ns);
  info.hops = static_cast<uint8_t>((hops & 0x3f) + 1);
  info.shortcut = hops & 0x80;
  info.hinted = hops & 0x40;
  std::string payload(payload_view);

  if (protocol_->IsOwner(info.target)) {
    Deliver(info, payload);
    return;
  }
  // A shortcut that missed narrows its sender's stale entry. Only the
  // jump's landing node hints: the later ring hops see bit 6.
  if (info.shortcut && !info.hinted) {
    HintIfNotOwner(from, info.target);
    info.hinted = true;
  }

  // Intermediate node: give the query processor a chance to inspect, modify
  // or drop the message (§3.2.2).
  auto it = upcalls_.find(info.ns);
  if (it != upcalls_.end()) {
    UpcallAction action = it->second(info, &payload);
    if (action == UpcallAction::kDrop) {
      stats_.upcall_drops++;
      return;
    }
  }
  stats_.routed_forwarded++;
  ForwardRoute(std::move(info), std::move(payload), 0);
}

void OverlayRouter::Lookup(Id target, LookupCallback cb) {
  stats_.lookups_started++;
  // Local short-circuit: we may already be the owner.
  if (protocol_->IsOwner(target) || protocol_->NextHop(target).IsNull()) {
    stats_.lookups_ok++;
    cb(Owner{local_address_, local_id_, false});
    return;
  }
  auto hit = FindCachedOwner(target);
  if (hit != owner_cache_.end()) {
    stats_.lookups_ok++;
    stats_.lookup_cache_hits++;
    cb(Owner{hit->second.address, hit->first, true});
    return;
  }

  uint64_t lookup_id = next_lookup_id_++;
  PendingLookup pending;
  pending.target = target;
  pending.cb = std::move(cb);
  pending.timer = vri_->ScheduleEvent(kLookupTimeout, [this, lookup_id]() {
    LookupCallback cb = TakePendingLookup(lookup_id);
    if (!cb) return;
    stats_.lookups_failed++;
    cb(Status::TimedOut("lookup timed out"));
  });
  pending_lookups_[lookup_id] = std::move(pending);
  pending_targets_.emplace(target, lookup_id);

  // Lookups ride the routed channel in a reserved namespace with no upcalls;
  // Deliver intercepts the request at the owner, which answers directly.
  WireWriter w = FrameMessage(kMsgLookupReq);
  w.PutVarint(lookup_id);
  w.PutU32(local_address_.host);
  w.PutU16(local_address_.port);
  RouteInfo info;
  info.target = target;
  info.ns = "\x01lookup";
  ForwardRoute(std::move(info), std::move(w).data(), 0);
}

void OverlayRouter::HandleLookupReq(Id target, std::string_view body) {
  WireReader r(body);
  uint64_t lookup_id;
  uint32_t host;
  uint16_t port;
  if (!r.GetVarint(&lookup_id).ok() || !r.GetU32(&host).ok() ||
      !r.GetU16(&port).ok())
    return;
  WireWriter w = FrameMessage(kMsgLookupResp);
  w.PutVarint(lookup_id);
  w.PutU64(local_id_);
  w.PutU32(local_address_.host);
  w.PutU16(local_address_.port);
  // The range (lower, self] goes along only when it is known and holds the
  // target: a de-facto root answering for an id it does not own must not be
  // cached as that id's owner. So does the arc of ranges that follows it,
  // one per successor, each from the previous one's id up to its own.
  RingPeer pred;
  bool has_range =
      protocol_->IsOwner(target) && protocol_->Predecessor(&pred);
  w.PutU8(has_range ? 1 : 0);
  w.PutU64(has_range ? pred.id : 0);
  std::vector<RingPeer> arc;
  if (has_range)
    arc = protocol_->SuccessorSet(RoutingProtocol::kMaxSuccessors);
  w.PutVarint(arc.size());
  for (const RingPeer& p : arc) PutPeer(&w, p);
  SendFramed(NetAddress{host, port}, std::move(w).data());
}

void OverlayRouter::HandleLookupResp(std::string_view body) {
  WireReader r(body);
  uint64_t lookup_id;
  Owner owner;
  uint8_t has_range;
  Id lower;
  if (!r.GetVarint(&lookup_id).ok() || !r.GetU64(&owner.id).ok() ||
      !r.GetU32(&owner.address.host).ok() ||
      !r.GetU16(&owner.address.port).ok() || !r.GetU8(&has_range).ok() ||
      !r.GetU64(&lower).ok())
    return;
  Id upper = owner.id;
  if (has_range) {
    CacheOwner(owner.id, lower, owner.address);
    // The arc: each successor owns the ids from the previous one's id up to
    // its own. Only peers that decoded whole, in ring order, are cached; a
    // count longer than any successor list caches nothing past the owner.
    uint64_t count;
    if (r.GetVarint(&count).ok() &&
        count <= RoutingProtocol::kMaxSuccessors) {
      RingPeer p;
      for (; count > 0 && GetPeer(&r, &p).ok(); --count) {
        uint64_t d = RingDistance(owner.id, p.id);
        if (d <= RingDistance(owner.id, upper) ||
            d > RingDistance(owner.id, lower))
          break;
        CacheOwner(p.id, upper, p.addr);
        upper = p.id;
      }
    }
  }
  LookupCallback cb = TakePendingLookup(lookup_id);
  if (has_range) CompleteCoveredLookups(lower, upper);
  if (!cb) return;  // timed out already, or covered by an earlier reply
  stats_.lookups_ok++;
  cb(std::move(owner));
}

OverlayRouter::LookupCallback OverlayRouter::TakePendingLookup(
    uint64_t lookup_id) {
  auto it = pending_lookups_.find(lookup_id);
  if (it == pending_lookups_.end()) return nullptr;
  LookupCallback cb = std::move(it->second.cb);
  vri_->CancelEvent(it->second.timer);
  pending_targets_.erase({it->second.target, lookup_id});
  pending_lookups_.erase(it);
  return cb;
}

void OverlayRouter::CompleteCoveredLookups(Id lower, Id upper) {
  // An arc that reaches back to `lower` covers the whole ring. Collect
  // first: a callback may start lookups of its own.
  std::vector<std::pair<LookupCallback, Owner>> covered;
  auto it = pending_targets_.upper_bound({lower, ~0ULL});
  for (size_t n = pending_targets_.size(); n > 0; --n) {
    if (it == pending_targets_.end()) it = pending_targets_.begin();
    const auto [target, lookup_id] = *it++;
    if (lower != upper && !InOpenClosed(lower, upper, target)) break;
    auto hit = FindCachedOwner(target);
    if (hit == owner_cache_.end()) continue;  // this node's own range
    covered.emplace_back(TakePendingLookup(lookup_id),
                         Owner{hit->second.address, hit->first, true});
  }
  for (auto& [cb, owner] : covered) {
    stats_.lookups_ok++;
    stats_.lookups_covered++;
    cb(owner);
  }
}

// ---------------------------------------------------------------------------
// Broadcast
// ---------------------------------------------------------------------------

void OverlayRouter::Broadcast(std::string payload) {
  uint64_t bcast_id = HashCombine(local_id_, next_bcast_salt_++);
  FirstBroadcastCopy(bcast_id);
  CoverInterval(bcast_id, payload, local_id_, local_id_);
  local_copies_.push_back(std::move(payload));
  if (local_copy_timer_ != 0) return;
  local_copy_timer_ = vri_->ScheduleEvent(0, [this]() {
    local_copy_timer_ = 0;
    std::vector<std::string> copies;
    copies.swap(local_copies_);
    for (const std::string& p : copies)
      if (broadcast_handler_) broadcast_handler_(p);
  });
}

bool OverlayRouter::FirstBroadcastCopy(uint64_t bcast_id) {
  if (!seen_bcasts_.insert(bcast_id).second) return false;
  seen_order_.push_back(bcast_id);
  if (seen_order_.size() > kBroadcastDedupWindow) {
    seen_bcasts_.erase(seen_order_.front());
    seen_order_.pop_front();
  }
  return true;
}

void OverlayRouter::HandleBroadcast(std::string_view body, Id lo) {
  WireReader r(body);
  uint64_t bcast_id;
  Id limit;
  if (!r.GetU64(&bcast_id).ok() || !r.GetU64(&limit).ok()) return;
  std::string_view payload = body.substr(body.size() - r.remaining());
  // A re-cover lands on the owner of the id just past the dead contact.
  // When no live node lies in the dead contact's interval, that owner is at
  // or past `limit`, outside the interval: it takes no copy and only
  // forwards to the contacts it knows inside.
  if (lo == local_id_ || InCover(lo, limit, local_id_)) {
    if (!FirstBroadcastCopy(bcast_id)) {
      stats_.broadcast_dups++;
      return;
    }
    if (broadcast_handler_) broadcast_handler_(payload);
    lo = local_id_;
  }
  CoverInterval(bcast_id, payload, lo, limit);
}

void OverlayRouter::CoverInterval(uint64_t bcast_id, std::string_view payload,
                                  Id lo, Id limit) {
  std::vector<RingPeer> targets = protocol_->Contacts();
  targets.erase(std::remove_if(targets.begin(), targets.end(),
                               [&](const RingPeer& p) {
                                 return !InCover(lo, limit, p.id);
                               }),
                targets.end());
  // The cached owners inside the interval split it too. The contacts alone
  // keep coverage, since they hold the clockwise neighbour; on a warm cache
  // each target's share holds about one node, so the depth is about 1.
  const size_t contacts = targets.size();
  auto it = owner_cache_.upper_bound(lo);
  for (size_t n = owner_cache_.size(); n > 0; --n, ++it) {
    if (it == owner_cache_.end()) it = owner_cache_.begin();  // past id 0
    if (!InCover(lo, limit, it->first)) break;
    const NetAddress& addr = it->second.address;
    if (std::none_of(targets.begin(), targets.begin() + contacts,
                     [&](const RingPeer& p) { return p.addr == addr; }))
      targets.push_back(RingPeer{it->first, addr});
  }
  if (targets.empty()) return;
  std::sort(targets.begin(), targets.end(),
            [lo](const RingPeer& a, const RingPeer& b) {
              return RingDistance(lo, a.id) < RingDistance(lo, b.id);
            });
  auto shared = std::make_shared<const std::string>(payload);
  auto encode = [bcast_id, shared](WireWriter w, Id next) {
    w.PutU64(bcast_id);
    w.PutU64(next);
    w.PutRaw(*shared);
    return std::move(w).data();
  };
  for (size_t i = 0; i < targets.size(); ++i) {
    const RingPeer to = targets[i];
    const Id next = i + 1 < targets.size() ? targets[i + 1].id : limit;
    stats_.broadcast_frames++;
    SendFramed(to.addr, encode(FrameMessage(kMsgBroadcast), next),
               [this, to, next, encode](const Status& s) {
                 if (s.ok()) return;
                 // The target (a contact or a cached owner) is gone, and
                 // this node may not know who follows it: the owner of the
                 // id just past it does.
                 protocol_->OnPeerUnreachable(to.addr);
                 WireWriter dead;
                 dead.PutU32(to.addr.host);
                 dead.PutU16(to.addr.port);
                 Route(kRecoverNs, to.id + 1, encode(std::move(dead), next));
               });
  }
}

std::string_view OverlayRouter::DropDeadContact(std::string_view recover) {
  WireReader r(recover);
  NetAddress dead;
  if (!r.GetU32(&dead.host).ok() || !r.GetU16(&dead.port).ok()) return {};
  if (dead != local_address_) protocol_->OnPeerUnreachable(dead);
  return recover.substr(recover.size() - r.remaining());
}

// ---------------------------------------------------------------------------
// Owner cache
// ---------------------------------------------------------------------------

std::map<Id, OverlayRouter::CachedOwner>::iterator
OverlayRouter::FindCachedOwner(Id target) {
  if (owner_cache_.empty()) return owner_cache_.end();
  auto it = owner_cache_.lower_bound(target);
  if (it == owner_cache_.end()) it = owner_cache_.begin();  // wrap past id 0
  return InOpenClosed(it->second.lower, it->first, target) ? it
                                                           : owner_cache_.end();
}

void OverlayRouter::CacheOwner(Id owner_id, Id lower,
                               const NetAddress& address) {
  if (address == local_address_) return;
  // An entry whose owner id lies inside the new range is stale: that node no
  // longer owns the ids up to its own.
  for (auto it = owner_cache_.upper_bound(lower); !owner_cache_.empty();) {
    if (it == owner_cache_.end()) it = owner_cache_.begin();
    if (!InOpenOpen(lower, owner_id, it->first)) break;
    it = owner_cache_.erase(it);
    stats_.lookup_cache_evictions++;
  }
  auto it = owner_cache_.insert_or_assign(
      owner_id, CachedOwner{lower, address}).first;
  if (owner_cache_.size() > kOwnerCacheCapacity) {
    // Drop the new entry's ring neighbour: owner ids are uniform hashes, so
    // this is random replacement without a random source.
    auto victim = std::next(it);
    if (victim == owner_cache_.end()) victim = owner_cache_.begin();
    owner_cache_.erase(victim);
    stats_.lookup_cache_evictions++;
  }
}

void OverlayRouter::EvictPeer(const NetAddress& peer) {
  for (auto it = owner_cache_.begin(); it != owner_cache_.end();) {
    if (it->second.address == peer) {
      it = owner_cache_.erase(it);
      stats_.lookup_cache_evictions++;
    } else {
      ++it;
    }
  }
}

void OverlayRouter::EvictOwner(Id owner_id, const NetAddress& address) {
  auto it = owner_cache_.find(owner_id);
  if (it == owner_cache_.end() || it->second.address != address) return;
  owner_cache_.erase(it);
  stats_.lookup_cache_evictions++;
}

bool OverlayRouter::HintIfNotOwner(const NetAddress& from, Id target) {
  if (from == local_address_ || protocol_->IsOwner(target)) return false;
  RingPeer pred;
  bool has_range = protocol_->Predecessor(&pred);
  WireWriter w = FrameMessage(kMsgNotOwner);
  w.PutU64(local_id_);
  w.PutU8(has_range ? 1 : 0);
  w.PutU64(has_range ? pred.id : 0);
  SendFramed(from, std::move(w).data());
  stats_.not_owner_hints_sent++;
  return true;
}

void OverlayRouter::HandleNotOwner(const NetAddress& from,
                                   std::string_view body) {
  WireReader r(body);
  Id owner_id, lower;
  uint8_t has_range;
  if (!r.GetU64(&owner_id).ok() || !r.GetU8(&has_range).ok() ||
      !r.GetU64(&lower).ok())
    return;
  auto it = owner_cache_.find(owner_id);
  if (it == owner_cache_.end() || it->second.address != from) return;
  if (has_range) {
    it->second.lower = lower;  // the sender's range shrank: a node joined
  } else {
    owner_cache_.erase(it);
    stats_.lookup_cache_evictions++;
  }
}

}  // namespace pier
