// The soft-state object manager (§3.2.3, Figure 5).
//
// PIER has no persistent storage: every stored object carries a lifetime and
// is discarded when it expires. Publishers that want persistence must renew;
// a renew succeeds only if the object is still present at this node (if the
// responsible node changed, the renew fails and the publisher must re-put).
// The system clamps lifetimes to a maximum so objects whose publisher died
// are eventually garbage collected.
//
// Every copy enters through one call, Put: a local store passes the default
// placement tags, and the Dht's store frame passes the tags and the origin-
// stamped lifetime of a replicated or handed-off copy.

#ifndef PIER_OVERLAY_OBJECT_MANAGER_H_
#define PIER_OVERLAY_OBJECT_MANAGER_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "overlay/object_id.h"
#include "runtime/vri.h"
#include "util/status.h"

namespace pier {

class ObjectManager {
 public:
  /// The system-enforced lifetime cap.
  static constexpr TimeUs kMaxLifetime = 30LL * 60 * kSecond;
  /// Period of the sweep that drops expired objects.
  static constexpr TimeUs kGcPeriod = 2 * kSecond;

  struct Object {
    ObjectName name;
    std::string value;
    TimeUs expires_at = 0;
    /// When this node stored the object (local clock). Lets catch-up scans
    /// skip history older than a swapped-in plan's high-water mark. Replica
    /// copies back-date this by the origin copy's age so the mark stays
    /// meaningful across handoffs.
    TimeUs stored_at = 0;
    /// Replica placement tags (k-way successor-set replication). Index 0 is
    /// the primary copy at the responsible node; 1..k-1 are the copies at its
    /// successors. Scans suppress replica copies unless ownership has moved
    /// here.
    uint8_t replica_index = 0;
    /// How many live copies the writer asked for (1 = unreplicated).
    uint8_t desired_replicas = 1;

    bool is_replica() const { return replica_index != 0; }
  };

  explicit ObjectManager(Vri* vri);
  ~ObjectManager();

  /// Store (or overwrite) an object; false if it arrived already expired.
  /// `lifetime` is clamped to kMaxLifetime. A copy placed from elsewhere
  /// keeps the ORIGIN-STAMPED lifetime: `lifetime` is the origin's time left
  /// at send time and `age` how long the origin had already lived (it
  /// back-dates stored_at, so catch-up marks treat the copy like the
  /// original and all copies expire together). `replica_index` and
  /// `desired_replicas` are the placement tags. Fires the insert hook only
  /// when `client_write`; the Dht stores frames silently and announces the
  /// client writes among them itself, once per frame.
  bool Put(ObjectName name, std::string value, TimeUs lifetime, TimeUs age = 0,
           uint8_t replica_index = 0, uint8_t desired_replicas = 1,
           bool client_write = true);

  /// Retag a replica copy as the primary (ownership moved here after the
  /// owner left). Silent: the object is not new data, and a scan still
  /// subscribed would count it twice. Scans see it through LocalScan from
  /// now on. No-op (false) if absent, expired, or already primary.
  bool Promote(const ObjectName& name);

  /// Retag a primary as a replica copy (ownership moved away): the copy
  /// stays readable but stops counting as this node's data in scans.
  bool Demote(const ObjectName& name);

  /// Extend the lifetime of an existing object. NotFound if absent/expired —
  /// this is the signal that tells a publisher its object moved or died.
  Status Renew(const ObjectName& name, TimeUs lifetime);

  /// The live object with this full name, or null (an expired one is
  /// dropped on the way).
  const Object* Find(const ObjectName& name) { return FindLive(name); }

  /// All live objects with the given namespace and key (any suffix).
  std::vector<const Object*> Get(std::string_view ns, std::string_view key);

  /// Visit all live objects in a namespace (localScan).
  void Scan(std::string_view ns, const std::function<void(const Object&)>& fn);

  /// Visit every live object in every namespace (replica repair sweeps).
  void ScanAll(const std::function<void(const Object&)>& fn);

  /// Remove one object (used by operators that consume state).
  void Remove(const ObjectName& name);

  /// Remove every object in a namespace (query teardown).
  void DropNamespace(std::string_view ns);

  /// Called whenever a Put marked `client_write` stores (the wrapper turns
  /// this into per-namespace newData callbacks).
  using InsertHook = std::function<void(const Object&)>;
  void set_insert_hook(InsertHook hook) { insert_hook_ = std::move(hook); }

  size_t TotalObjects() const;
  size_t NamespaceObjects(std::string_view ns) const;

  /// Drop everything past its lifetime (also runs periodically).
  void DropExpired();

 private:
  Object* FindLive(const ObjectName& name);

  // ns -> key -> suffix -> Object. Ordered maps keep Scan deterministic.
  using SuffixMap = std::map<std::string, Object>;
  using KeyMap = std::map<std::string, SuffixMap>;
  std::map<std::string, KeyMap, std::less<>> store_;

  Vri* vri_;
  InsertHook insert_hook_;
  /// Repeating GC tick; scheduled events copy from here so the closure never
  /// strongly captures its own function object (that cycle leaks).
  std::function<void()> gc_tick_;
  uint64_t gc_timer_ = 0;
};

}  // namespace pier

#endif  // PIER_OVERLAY_OBJECT_MANAGER_H_
