// Serializable Bloom filter.
//
// PIER uses Bloom joins (§2.1.1, §3.3.4) as a bandwidth-reducing rewrite: a
// Bloom filter summarizing one join input is shipped to the other input's
// partitions, which forward only probably-matching tuples. The filter must
// therefore serialize compactly and hash identically on every node.

#ifndef PIER_UTIL_BLOOM_H_
#define PIER_UTIL_BLOOM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace pier {

class BloomFilter {
 public:
  /// An empty filter with explicit geometry, clamped to at least 64 bits
  /// and 1 to 16 hashes.
  BloomFilter(size_t num_bits, int num_hashes);

  void Add(std::string_view key);
  bool MayContain(std::string_view key) const;

  /// Union with another filter of identical geometry.
  Status Merge(const BloomFilter& other);

  size_t num_bits() const { return num_bits_; }
  int num_hashes() const { return num_hashes_; }

  std::string Serialize() const;
  static Result<BloomFilter> Deserialize(std::string_view data);

 private:
  size_t num_bits_;
  int num_hashes_;
  std::vector<uint64_t> bits_;
};

}  // namespace pier

#endif  // PIER_UTIL_BLOOM_H_
