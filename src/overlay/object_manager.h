// The soft-state object manager (§3.2.3, Figure 5).
//
// PIER has no persistent storage: every stored object carries a lifetime and
// is discarded when it expires. Publishers that want persistence must renew;
// a renew succeeds only if the object is still present at this node (if the
// responsible node changed, the renew fails and the publisher must re-put).
// The system clamps lifetimes to a maximum so objects whose publisher died
// are eventually garbage collected.
//
// The store is one table: a single index ordered by (namespace, key,
// suffix), where each object's name is its index key. A namespace scan and a
// get are ranges of that index. A copy whose lifetime has run out is
// invisible to every read but stays in the table, and counted, until the
// periodic sweep removes it; no read erases.
//
// Only the Dht writes copies (Put is private): it announces the client
// writes among them as newData, so no store path can skip that by mistake.

#ifndef PIER_OVERLAY_OBJECT_MANAGER_H_
#define PIER_OVERLAY_OBJECT_MANAGER_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
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

  /// A stored copy. Its name is the index key (Row::first).
  struct Object {
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
  /// One row of the table: the object's name and the object.
  using Row = std::pair<const ObjectName, Object>;

  explicit ObjectManager(Vri* vri);
  ~ObjectManager();

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

  /// The live row with this full name, or null.
  const Row* FindRow(const ObjectName& name) const;
  /// The live object with this full name, or null.
  const Object* Find(const ObjectName& name) const {
    const Row* row = FindRow(name);
    return row == nullptr ? nullptr : &row->second;
  }

  /// All live rows with the given namespace and key, in suffix order.
  std::vector<const Row*> Get(std::string_view ns, std::string_view key) const;

  /// Visit all live rows of a namespace in (key, suffix) order (localScan).
  void Scan(std::string_view ns,
            const std::function<void(const Row&)>& fn) const;

  /// Visit every live row of every namespace (replica repair sweeps).
  void ScanAll(const std::function<void(const Row&)>& fn) const;

  /// Remove one object (used by operators that consume state).
  void Remove(const ObjectName& name) { index_.erase(name); }

  /// Remove every object in a namespace (query teardown).
  void DropNamespace(std::string_view ns);

  /// Stored copies, expired ones not yet swept included.
  size_t TotalObjects() const { return index_.size(); }
  size_t NamespaceObjects(std::string_view ns) const;

  /// Drop everything past its lifetime (also runs periodically).
  void DropExpired();

 private:
  friend class Dht;
  // The unit test of the lifetime cap and the sweep writes to a standalone
  // store. This is gtest's FRIEND_TEST spelled out, so the library does not
  // include gtest.
  friend class ObjectStore_CapsALongLifetimeAndTheSweepDropsItAfterExpiry_Test;

  /// Store (or overwrite) an object; null if it arrived already expired,
  /// else its row. `lifetime` is clamped to kMaxLifetime. A copy placed from
  /// elsewhere keeps the ORIGIN-STAMPED lifetime: `lifetime` is the origin's
  /// time left at send time and `age` how long the origin had already lived
  /// (it back-dates stored_at, so catch-up marks treat the copy like the
  /// original and all copies expire together). `replica_index` and
  /// `desired_replicas` are the placement tags.
  const Row* Put(ObjectName name, std::string value, TimeUs lifetime,
                 TimeUs age = 0, uint8_t replica_index = 0,
                 uint8_t desired_replicas = 1);

  /// The one liveness rule: a copy is dead from its expiry instant on.
  static bool Expired(const Object& obj, TimeUs now) {
    return obj.expires_at <= now;
  }
  Object* FindLive(const ObjectName& name);

  /// Orders names as (ns, key, suffix). It also compares a name with a
  /// NamePrefix, so a namespace or a (namespace, key) is one index range.
  struct NamePrefix {
    std::string_view ns;
    std::string_view key;
    bool whole_ns = false;  // true: every key of `ns`
  };
  struct NameOrder {
    using is_transparent = void;
    bool operator()(const ObjectName& a, const ObjectName& b) const;
    bool operator()(const ObjectName& a, const NamePrefix& p) const {
      return Compare(a, p) < 0;
    }
    bool operator()(const NamePrefix& p, const ObjectName& a) const {
      return Compare(a, p) > 0;
    }
    /// Three-way comparison of a name's (ns, key) with a prefix.
    static int Compare(const ObjectName& a, const NamePrefix& p);
  };
  using Index = std::map<ObjectName, Object, NameOrder>;
  /// Call `fn` on each live row of [first, last).
  void VisitLive(Index::const_iterator first, Index::const_iterator last,
                 const std::function<void(const Row&)>& fn) const;

  Index index_;

  Vri* vri_;
  /// Repeating GC tick; scheduled events copy from here so the closure never
  /// strongly captures its own function object (that cycle leaks).
  std::function<void()> gc_tick_;
  uint64_t gc_timer_ = 0;
};

}  // namespace pier

#endif  // PIER_OVERLAY_OBJECT_MANAGER_H_
