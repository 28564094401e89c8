#include "overlay/object_manager.h"

#include <algorithm>
#include <memory>

namespace pier {

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

bool ObjectManager::Put(ObjectName name, std::string value, TimeUs lifetime,
                        TimeUs age, uint8_t replica_index,
                        uint8_t desired_replicas, bool client_write) {
  if (lifetime > kMaxLifetime) lifetime = kMaxLifetime;
  if (lifetime <= 0) return false;  // the origin copy already expired
  TimeUs now = vri_->Now();
  Object& slot = store_[name.ns][name.key][name.suffix];
  slot.name = std::move(name);
  slot.value = std::move(value);
  slot.expires_at = now + lifetime;
  slot.stored_at = now - std::max<TimeUs>(age, 0);
  slot.replica_index = replica_index;
  slot.desired_replicas = std::max<uint8_t>(desired_replicas, 1);
  if (client_write && insert_hook_) insert_hook_(slot);
  return true;
}

ObjectManager::Object* ObjectManager::FindLive(const ObjectName& name) {
  auto ns_it = store_.find(name.ns);
  if (ns_it == store_.end()) return nullptr;
  auto key_it = ns_it->second.find(name.key);
  if (key_it == ns_it->second.end()) return nullptr;
  auto sfx_it = key_it->second.find(name.suffix);
  if (sfx_it == key_it->second.end()) return nullptr;
  if (sfx_it->second.expires_at > vri_->Now()) return &sfx_it->second;
  key_it->second.erase(sfx_it);
  return nullptr;
}

bool ObjectManager::Promote(const ObjectName& name) {
  Object* obj = FindLive(name);
  if (obj == nullptr || obj->replica_index == 0) return false;
  obj->replica_index = 0;
  return true;
}

bool ObjectManager::Demote(const ObjectName& name) {
  Object* obj = FindLive(name);
  if (obj == nullptr || obj->replica_index != 0) return false;
  obj->replica_index = 1;
  return true;
}

Status ObjectManager::Renew(const ObjectName& name, TimeUs lifetime) {
  Object* obj = FindLive(name);
  if (obj == nullptr) return Status::NotFound("no such object");
  obj->expires_at = vri_->Now() + std::min(lifetime, kMaxLifetime);
  return Status::Ok();
}

std::vector<const ObjectManager::Object*> ObjectManager::Get(std::string_view ns,
                                                             std::string_view key) {
  std::vector<const Object*> out;
  auto ns_it = store_.find(std::string(ns));
  if (ns_it == store_.end()) return out;
  auto key_it = ns_it->second.find(std::string(key));
  if (key_it == ns_it->second.end()) return out;
  TimeUs now = vri_->Now();
  for (auto it = key_it->second.begin(); it != key_it->second.end();) {
    if (it->second.expires_at <= now) {
      it = key_it->second.erase(it);
    } else {
      out.push_back(&it->second);
      ++it;
    }
  }
  return out;
}

void ObjectManager::Scan(std::string_view ns,
                         const std::function<void(const Object&)>& fn) {
  auto ns_it = store_.find(std::string(ns));
  if (ns_it == store_.end()) return;
  TimeUs now = vri_->Now();
  for (auto& [key, suffixes] : ns_it->second) {
    (void)key;
    for (auto it = suffixes.begin(); it != suffixes.end();) {
      if (it->second.expires_at <= now) {
        it = suffixes.erase(it);
      } else {
        fn(it->second);
        ++it;
      }
    }
  }
}

void ObjectManager::ScanAll(const std::function<void(const Object&)>& fn) {
  TimeUs now = vri_->Now();
  for (auto& [ns, keys] : store_) {
    (void)ns;
    for (auto& [key, suffixes] : keys) {
      (void)key;
      for (auto it = suffixes.begin(); it != suffixes.end();) {
        if (it->second.expires_at <= now) {
          it = suffixes.erase(it);
        } else {
          fn(it->second);
          ++it;
        }
      }
    }
  }
}

void ObjectManager::Remove(const ObjectName& name) {
  if (FindLive(name) != nullptr) store_[name.ns][name.key].erase(name.suffix);
}

void ObjectManager::DropNamespace(std::string_view ns) {
  auto it = store_.find(std::string(ns));
  if (it != store_.end()) store_.erase(it);
}

size_t ObjectManager::TotalObjects() const {
  size_t n = 0;
  for (const auto& [ns, keys] : store_) {
    (void)ns;
    for (const auto& [key, suffixes] : keys) {
      (void)key;
      n += suffixes.size();
    }
  }
  return n;
}

size_t ObjectManager::NamespaceObjects(std::string_view ns) const {
  auto it = store_.find(std::string(ns));
  if (it == store_.end()) return 0;
  size_t n = 0;
  for (const auto& [key, suffixes] : it->second) {
    (void)key;
    n += suffixes.size();
  }
  return n;
}

void ObjectManager::DropExpired() {
  TimeUs now = vri_->Now();
  for (auto ns_it = store_.begin(); ns_it != store_.end();) {
    for (auto key_it = ns_it->second.begin(); key_it != ns_it->second.end();) {
      for (auto sfx_it = key_it->second.begin(); sfx_it != key_it->second.end();) {
        if (sfx_it->second.expires_at <= now) {
          sfx_it = key_it->second.erase(sfx_it);
        } else {
          ++sfx_it;
        }
      }
      if (key_it->second.empty()) {
        key_it = ns_it->second.erase(key_it);
      } else {
        ++key_it;
      }
    }
    if (ns_it->second.empty()) {
      ns_it = store_.erase(ns_it);
    } else {
      ++ns_it;
    }
  }
}

}  // namespace pier
