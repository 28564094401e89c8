#include "util/bloom.h"

#include <algorithm>

#include "util/hash.h"
#include "util/wire.h"

namespace pier {

namespace {
constexpr size_t kMinBits = 64;
constexpr int kMaxHashes = 16;
}  // namespace

BloomFilter::BloomFilter(size_t num_bits, int num_hashes)
    : num_bits_(std::max(kMinBits, num_bits)),
      num_hashes_(std::max(1, std::min(kMaxHashes, num_hashes))) {
  bits_.assign((num_bits_ + 63) / 64, 0);
}

void BloomFilter::Add(std::string_view key) {
  // Kirsch-Mitzenmacher double hashing.
  uint64_t h1 = Fnv1a64(key);
  uint64_t h2 = Mix64(h1);
  for (int i = 0; i < num_hashes_; ++i) {
    uint64_t bit = (h1 + static_cast<uint64_t>(i) * h2) % num_bits_;
    bits_[bit >> 6] |= (1ULL << (bit & 63));
  }
}

bool BloomFilter::MayContain(std::string_view key) const {
  uint64_t h1 = Fnv1a64(key);
  uint64_t h2 = Mix64(h1);
  for (int i = 0; i < num_hashes_; ++i) {
    uint64_t bit = (h1 + static_cast<uint64_t>(i) * h2) % num_bits_;
    if ((bits_[bit >> 6] & (1ULL << (bit & 63))) == 0) return false;
  }
  return true;
}

Status BloomFilter::Merge(const BloomFilter& other) {
  if (other.num_bits_ != num_bits_ || other.num_hashes_ != num_hashes_) {
    return Status::InvalidArgument("bloom filter geometry mismatch");
  }
  for (size_t i = 0; i < bits_.size(); ++i) bits_[i] |= other.bits_[i];
  return Status::Ok();
}

std::string BloomFilter::Serialize() const {
  WireWriter w;
  w.PutVarint(num_bits_);
  w.PutVarint(static_cast<uint64_t>(num_hashes_));
  for (uint64_t word : bits_) w.PutU64(word);
  return std::move(w).data();
}

Result<BloomFilter> BloomFilter::Deserialize(std::string_view data) {
  WireReader r(data);
  uint64_t num_bits = 0, num_hashes = 0;
  PIER_RETURN_IF_ERROR(r.GetVarint(&num_bits));
  PIER_RETURN_IF_ERROR(r.GetVarint(&num_hashes));
  // Checked before allocating: a hostile header cannot demand a huge filter.
  if (num_bits < kMinBits || num_hashes < 1 || num_hashes > kMaxHashes ||
      r.remaining() != ((num_bits - 1) / 64 + 1) * 8)
    return Status::Corruption("bloom: bad geometry");
  BloomFilter f(num_bits, static_cast<int>(num_hashes));
  for (uint64_t& word : f.bits_) PIER_RETURN_IF_ERROR(r.GetU64(&word));
  return f;
}

}  // namespace pier
