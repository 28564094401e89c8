// Wire-format encoding.
//
// PIER nodes exchange self-describing messages over UDP (§3.1.3); tuples
// carry their own schema (§3.3.1). `WireWriter`/`WireReader` provide a
// compact, platform-stable little-endian encoding. Counters, ids, lengths and
// durations travel as varints (signed ones zigzagged); only hash-derived ids,
// IPv4 hosts and doubles keep a fixed width (src/data/README.md).
// Readers are defensive: malformed input yields Corruption, never UB — a
// requirement for a system that expects malformed data in the wild (§3.3.4).

#ifndef PIER_UTIL_WIRE_H_
#define PIER_UTIL_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace pier {

class WireWriter {
 public:
  WireWriter() = default;

  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutDouble(double v);
  void PutVarint(uint64_t v);
  /// Zigzag varint: small magnitudes of either sign take few bytes.
  void PutSVarint(int64_t v) {
    uint64_t u = static_cast<uint64_t>(v);
    PutVarint((u << 1) ^ (0 - (u >> 63)));
  }
  /// Length-prefixed bytes (varint length + raw bytes).
  void PutBytes(std::string_view s);
  /// Raw bytes with no length prefix (caller knows the framing).
  void PutRaw(std::string_view s) { buf_.append(s.data(), s.size()); }

  const std::string& data() const& { return buf_; }
  std::string&& data() && { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  Status GetU8(uint8_t* v);
  Status GetU16(uint16_t* v);
  Status GetU32(uint32_t* v);
  Status GetU64(uint64_t* v);
  Status GetDouble(double* v);
  Status GetVarint(uint64_t* v);
  /// A varint that must fit 32 bits.
  Status GetVarint32(uint32_t* v);
  Status GetSVarint(int64_t* v);
  /// Reads a length-prefixed byte string. The view aliases the input buffer.
  Status GetBytes(std::string_view* s);
  Status GetBytes(std::string* s);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace pier

#endif  // PIER_UTIL_WIRE_H_
