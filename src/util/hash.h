// Hashing utilities. PIER derives DHT routing identifiers by hashing
// (namespace, partitioning key) pairs; the hash must be stable across nodes
// and platforms, so we use our own FNV-1a/mix implementations rather than
// std::hash (whose value is unspecified).

#ifndef PIER_UTIL_HASH_H_
#define PIER_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace pier {

/// 64-bit FNV-1a over an arbitrary byte range. Stable across platforms.
uint64_t Fnv1a64(const void* data, size_t len);

inline uint64_t Fnv1a64(std::string_view s) {
  return Fnv1a64(s.data(), s.size());
}

/// Stafford mix13 finalizer: diffuses a 64-bit value. Used to stretch hashes
/// into independent-looking streams (Bloom filters, Chord finger probes).
uint64_t Mix64(uint64_t x);

/// Combine two 64-bit hashes (order dependent).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// Hash of a (namespace, key) pair; this is the DHT routing-identifier hash.
inline uint64_t HashNamespaceKey(std::string_view ns, std::string_view key) {
  return HashCombine(Fnv1a64(ns), Fnv1a64(key));
}

}  // namespace pier

#endif  // PIER_UTIL_HASH_H_
