#include "overlay/object_manager.h"

#include <algorithm>
#include <iterator>

namespace pier {

bool ObjectManager::NameOrder::operator()(const ObjectName& a,
                                          const ObjectName& b) const {
  if (int c = a.ns.compare(b.ns)) return c < 0;
  if (int c = a.key.compare(b.key)) return c < 0;
  return a.suffix < b.suffix;
}

int ObjectManager::NameOrder::Compare(const ObjectName& a,
                                      const NamePrefix& p) {
  int c = std::string_view(a.ns).compare(p.ns);
  if (c != 0 || p.whole_ns) return c;
  return std::string_view(a.key).compare(p.key);
}

ObjectManager::ObjectManager(Vri* vri) : vri_(vri) {
  // The tick lives in gc_tick_, not a self-capturing shared_ptr (which would
  // cycle and leak); scheduled events hold plain copies.
  gc_tick_ = [this]() {
    DropExpired();
    gc_timer_ = vri_->ScheduleEvent(kGcPeriod, gc_tick_);
  };
  gc_timer_ = vri_->ScheduleEvent(kGcPeriod, gc_tick_);
}

ObjectManager::~ObjectManager() { vri_->CancelEvent(gc_timer_); }

const ObjectManager::Row* ObjectManager::Put(ObjectName name,
                                             std::string value,
                                             TimeUs lifetime, TimeUs age,
                                             uint8_t desired_replicas) {
  if (lifetime > kMaxLifetime) lifetime = kMaxLifetime;
  if (lifetime <= 0) return nullptr;  // the origin copy already expired
  TimeUs now = vri_->Now();
  auto it = index_.insert_or_assign(
      std::move(name),
      Object{std::move(value), now + lifetime, now - std::max<TimeUs>(age, 0),
             std::max<uint8_t>(desired_replicas, 1)});
  return &*it.first;
}

ObjectManager::Object* ObjectManager::FindLive(const ObjectName& name) {
  auto it = index_.find(name);
  if (it == index_.end() || Expired(it->second, vri_->Now())) return nullptr;
  return &it->second;
}

const ObjectManager::Row* ObjectManager::FindRow(const ObjectName& name) const {
  auto it = index_.find(name);
  if (it == index_.end() || Expired(it->second, vri_->Now())) return nullptr;
  return &*it;
}

Status ObjectManager::Renew(const ObjectName& name, TimeUs lifetime) {
  Object* obj = FindLive(name);
  if (obj == nullptr) return Status::NotFound("no such object");
  obj->expires_at = vri_->Now() + std::min(lifetime, kMaxLifetime);
  return Status::Ok();
}

void ObjectManager::VisitLive(Index::const_iterator first,
                              Index::const_iterator last,
                              const std::function<void(const Row&)>& fn) const {
  TimeUs now = vri_->Now();
  for (; first != last; ++first) {
    if (!Expired(first->second, now)) fn(*first);
  }
}

std::vector<const ObjectManager::Row*> ObjectManager::Get(
    std::string_view ns, std::string_view key) const {
  std::vector<const Row*> out;
  auto [first, last] = index_.equal_range(NamePrefix{ns, key, false});
  VisitLive(first, last, [&out](const Row& row) { out.push_back(&row); });
  return out;
}

void ObjectManager::Scan(std::string_view ns,
                         const std::function<void(const Row&)>& fn) const {
  auto [first, last] = index_.equal_range(NamePrefix{ns, {}, true});
  VisitLive(first, last, fn);
}

void ObjectManager::ScanAll(const std::function<void(const Row&)>& fn) const {
  VisitLive(index_.begin(), index_.end(), fn);
}

void ObjectManager::DropNamespace(std::string_view ns) {
  auto [first, last] = index_.equal_range(NamePrefix{ns, {}, true});
  index_.erase(first, last);
}

size_t ObjectManager::NamespaceObjects(std::string_view ns) const {
  auto [first, last] = index_.equal_range(NamePrefix{ns, {}, true});
  return static_cast<size_t>(std::distance(first, last));
}

void ObjectManager::DropExpired() {
  TimeUs now = vri_->Now();
  for (auto it = index_.begin(); it != index_.end();) {
    it = Expired(it->second, now) ? index_.erase(it) : std::next(it);
  }
}

}  // namespace pier
