// DHT identifiers and object naming (§3.2.1).
//
// PIER names each object with a three-part name: a namespace (table name or
// partial-result name), a partitioning key (derived from the hashing
// attributes), and a suffix ("tuple uniquifier" chosen at random). The
// routing identifier is computed from namespace + key only, so all objects
// of a (table, key) pair land on the same node; the suffix distinguishes
// co-located objects.
//
// Identifiers live on a 2^64 ring. Unsigned wraparound arithmetic gives
// clockwise distances for free.

#ifndef PIER_OVERLAY_OBJECT_ID_H_
#define PIER_OVERLAY_OBJECT_ID_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/hash.h"

namespace pier {

/// A point on the identifier ring.
using Id = uint64_t;

/// Clockwise distance from `a` to `b` on the ring.
inline uint64_t RingDistance(Id a, Id b) { return b - a; }

/// Minimum (bidirectional) ring distance between `a` and `b`.
inline uint64_t RingAbsDistance(Id a, Id b) {
  uint64_t d = b - a;
  uint64_t e = a - b;
  return d < e ? d : e;
}

/// True if x lies in the half-open clockwise interval (a, b].
inline bool InOpenClosed(Id a, Id b, Id x) {
  return RingDistance(a, x) != 0 && RingDistance(a, x) <= RingDistance(a, b);
}

/// True if x lies in the open clockwise interval (a, b).
inline bool InOpenOpen(Id a, Id b, Id x) {
  return RingDistance(a, x) != 0 && RingDistance(a, x) < RingDistance(a, b);
}

/// Routing identifier for a (namespace, partitioning key) pair.
inline Id RoutingId(std::string_view ns, std::string_view key) {
  return HashNamespaceKey(ns, key);
}

/// Identifier for a node, derived from its network address plus a salt so
/// simulations can spawn multiple logical identities per host if needed.
inline Id NodeIdFromAddress(uint32_t host, uint16_t port) {
  return Mix64((static_cast<uint64_t>(host) << 16) ^ port);
}

/// The full three-part object name (§3.2.1).
struct ObjectName {
  std::string ns;       // namespace
  std::string key;      // partitioning key
  std::string suffix;   // uniquifier

  Id routing_id() const { return RoutingId(ns, key); }

  bool operator==(const ObjectName& o) const {
    return ns == o.ns && key == o.key && suffix == o.suffix;
  }
};

struct ObjectNameHash {
  size_t operator()(const ObjectName& n) const {
    return HashCombine(HashNamespaceKey(n.ns, n.key), Fnv1a64(n.suffix));
  }
};

}  // namespace pier

#endif  // PIER_OVERLAY_OBJECT_ID_H_
