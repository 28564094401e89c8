#include "overlay/distribution_tree.h"

#include <memory>

#include "util/hash.h"
#include "util/wire.h"

namespace pier {

DistributionTree::DistributionTree(Dht* dht)
    : dht_(dht), root_id_(RoutingId(join_ns_, "root")) {
  // First hop of a JOIN message: record the child, drop the message.
  dht_->RegisterUpcall(join_ns_, [this](const RouteInfo& info, std::string*) {
    if (info.hops == 1) {
      RecordChild(info.origin);
      return UpcallAction::kDrop;
    }
    return UpcallAction::kContinue;  // defensive; should not happen
  });

  // JOIN messages whose first hop is the root itself arrive via delivery.
  // The DHT's routed-delivery handler stores objects, so we use the upcall
  // namespace only for joins; deliveries land in HandleRoutedDelivery and
  // store a (harmless, soft-state) object — additionally record the child
  // here via newData.
  join_sub_ = dht_->OnNewData(join_ns_, [this](const ObjectName& name, std::string_view) {
    WireReader r(name.suffix);
    uint32_t host;
    uint16_t port;
    if (r.GetU32(&host).ok() && r.GetU16(&port).ok()) {
      NetAddress child{host, port};
      if (child != dht_->local_address()) RecordChild(child);
    }
  });

  // Broadcast fan-out messages travel point-to-point.
  dht_->router()->RegisterDirectType(
      kMsgBroadcast, [this](const NetAddress& from, std::string_view body) {
        HandleBroadcastMsg(from, body);
      });

  // Broadcast payloads reaching the root via routing get fanned out from it.
  dht_->RegisterUpcall(bcast_ns_, [](const RouteInfo&, std::string*) {
    return UpcallAction::kContinue;  // ride through to the root
  });
  bcast_sub_ = dht_->OnNewData(bcast_ns_, [this](const ObjectName& name, std::string_view value) {
    WireReader r(name.suffix);
    uint64_t bcast_id;
    if (!r.GetU64(&bcast_id).ok()) return;
    if (seen_bcasts_.count(bcast_id)) return;
    HandleBroadcastMsg(dht_->local_address(), [&] {
      WireWriter w;
      w.PutU64(bcast_id);
      w.PutBytes(value);
      return std::move(w).data();
    }());
  });

  // Periodic soft-state JOIN refresh. The tick lives in join_tick_, not a
  // self-capturing shared_ptr (which would cycle and leak).
  join_tick_ = [this]() {
    SendJoin();
    // Expire stale children.
    TimeUs now = dht_->vri()->Now();
    for (auto it = children_.begin(); it != children_.end();) {
      if (it->second <= now) {
        it = children_.erase(it);
      } else {
        ++it;
      }
    }
    join_timer_ = dht_->vri()->ScheduleEvent(kJoinRefreshPeriod, join_tick_);
  };
  join_timer_ = dht_->vri()->ScheduleEvent(
      static_cast<TimeUs>(dht_->vri()->rng()->Uniform(kJoinRefreshPeriod)),
      join_tick_);
}

DistributionTree::~DistributionTree() {
  dht_->vri()->CancelEvent(join_timer_);
  dht_->CancelNewData(join_sub_);
  dht_->CancelNewData(bcast_sub_);
  dht_->UnregisterUpcall(join_ns_);
  dht_->UnregisterUpcall(bcast_ns_);
}

void DistributionTree::SendJoin() {
  if (!dht_->IsReady()) return;
  // Suffix encodes our address so the recorder can parse it from the name.
  WireWriter suffix;
  suffix.PutU32(dht_->local_address().host);
  suffix.PutU16(dht_->local_address().port);
  // Route toward the root; first hop intercepts.
  dht_->router()->Route(
      join_ns_, root_id_,
      Dht::EncodeObject(ObjectName{join_ns_, "root", std::move(suffix).data()},
                        kChildLifetime, ""));
}

void DistributionTree::RecordChild(const NetAddress& child) {
  children_[child] = dht_->vri()->Now() + kChildLifetime;
}

void DistributionTree::Broadcast(std::string payload) {
  uint64_t bcast_id =
      HashCombine(NodeIdFromAddress(dht_->local_address().host,
                                    dht_->local_address().port),
                  next_bcast_salt_++);
  // Ship the payload to the root as a routed object whose suffix carries the
  // broadcast id; the root (via newData) fans it out down the tree.
  WireWriter suffix;
  suffix.PutU64(bcast_id);
  dht_->router()->Route(
      bcast_ns_, root_id_,
      Dht::EncodeObject(ObjectName{bcast_ns_, "root", std::move(suffix).data()},
                        10 * kSecond, payload));
}

void DistributionTree::HandleBroadcastMsg(const NetAddress& from,
                                          std::string_view body) {
  WireReader r(body);
  uint64_t bcast_id;
  std::string_view payload;
  if (!r.GetU64(&bcast_id).ok() || !r.GetBytes(&payload).ok()) return;
  if (!seen_bcasts_.insert(bcast_id).second) return;
  seen_order_.push_back(bcast_id);
  while (seen_order_.size() > 1024) {
    seen_bcasts_.erase(seen_order_.front());
    seen_order_.pop_front();
  }
  if (handler_) handler_(payload);
  FanOut(bcast_id, payload, from);
}

void DistributionTree::FanOut(uint64_t bcast_id, std::string_view payload,
                              const NetAddress& skip) {
  WireWriter w;
  w.PutU64(bcast_id);
  w.PutBytes(payload);
  std::string wire = std::move(w).data();
  TimeUs now = dht_->vri()->Now();
  for (const auto& [child, expiry] : children_) {
    if (expiry <= now || child == skip || child == dht_->local_address()) continue;
    dht_->router()->SendDirect(child, kMsgBroadcast, wire, nullptr);
  }
}

}  // namespace pier
