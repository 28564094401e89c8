#include "overlay/object_manager.h"

#include <memory>

namespace pier {

ObjectManager::ObjectManager(Vri* vri, Options options)
    : vri_(vri), options_(options) {
  // The tick lives in gc_tick_, not a self-capturing shared_ptr (which would
  // cycle and leak); scheduled events hold plain copies.
  gc_tick_ = [this]() {
    DropExpired();
    gc_timer_ = vri_->ScheduleEvent(options_.gc_period, gc_tick_);
  };
  gc_timer_ = vri_->ScheduleEvent(options_.gc_period, gc_tick_);
}

ObjectManager::~ObjectManager() { vri_->CancelEvent(gc_timer_); }

void ObjectManager::Put(ObjectName name, std::string value, TimeUs lifetime) {
  if (lifetime > options_.max_lifetime) lifetime = options_.max_lifetime;
  if (lifetime <= 0) return;  // instantly expired
  Object obj;
  obj.name = name;
  obj.value = std::move(value);
  obj.expires_at = vri_->Now() + lifetime;
  obj.stored_at = vri_->Now();
  Object& slot = store_[name.ns][name.key][name.suffix];
  slot = std::move(obj);
  if (insert_hook_) insert_hook_(slot);
}

void ObjectManager::PutReplica(ObjectName name, std::string value,
                               TimeUs remaining, TimeUs age,
                               uint8_t replica_index, uint8_t desired_replicas,
                               uint64_t owner_id, bool client_write) {
  if (remaining > options_.max_lifetime) remaining = options_.max_lifetime;
  if (remaining <= 0) return;  // origin copy already expired
  if (age < 0) age = 0;
  Object obj;
  obj.name = name;
  obj.value = std::move(value);
  obj.expires_at = vri_->Now() + remaining;
  obj.stored_at = vri_->Now() - age;
  obj.replica_index = replica_index;
  obj.desired_replicas = desired_replicas > 0 ? desired_replicas : 1;
  obj.owner_id = owner_id;
  Object& slot = store_[name.ns][name.key][name.suffix];
  slot = std::move(obj);
  if (client_write && insert_hook_) insert_hook_(slot);
}

bool ObjectManager::Promote(const ObjectName& name) {
  auto ns_it = store_.find(name.ns);
  if (ns_it == store_.end()) return false;
  auto key_it = ns_it->second.find(name.key);
  if (key_it == ns_it->second.end()) return false;
  auto sfx_it = key_it->second.find(name.suffix);
  if (sfx_it == key_it->second.end()) return false;
  Object& obj = sfx_it->second;
  if (obj.expires_at <= vri_->Now()) {
    key_it->second.erase(sfx_it);
    return false;
  }
  if (obj.replica_index == 0) return false;
  obj.replica_index = 0;
  return true;
}

bool ObjectManager::Demote(const ObjectName& name) {
  auto ns_it = store_.find(name.ns);
  if (ns_it == store_.end()) return false;
  auto key_it = ns_it->second.find(name.key);
  if (key_it == ns_it->second.end()) return false;
  auto sfx_it = key_it->second.find(name.suffix);
  if (sfx_it == key_it->second.end()) return false;
  Object& obj = sfx_it->second;
  if (obj.replica_index != 0) return false;
  obj.replica_index = 1;
  return true;
}

Status ObjectManager::Renew(const ObjectName& name, TimeUs lifetime) {
  if (lifetime > options_.max_lifetime) lifetime = options_.max_lifetime;
  auto ns_it = store_.find(name.ns);
  if (ns_it == store_.end()) return Status::NotFound("no such namespace");
  auto key_it = ns_it->second.find(name.key);
  if (key_it == ns_it->second.end()) return Status::NotFound("no such key");
  auto sfx_it = key_it->second.find(name.suffix);
  if (sfx_it == key_it->second.end()) return Status::NotFound("no such object");
  TimeUs now = vri_->Now();
  if (sfx_it->second.expires_at <= now) {
    key_it->second.erase(sfx_it);
    return Status::NotFound("object expired");
  }
  sfx_it->second.expires_at = now + lifetime;
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
  auto ns_it = store_.find(name.ns);
  if (ns_it == store_.end()) return;
  auto key_it = ns_it->second.find(name.key);
  if (key_it == ns_it->second.end()) return;
  key_it->second.erase(name.suffix);
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
