#include "util/wire.h"

#include <cstring>

namespace pier {

void WireWriter::PutU16(uint16_t v) {
  for (int i = 0; i < 2; ++i)
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void WireWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void WireWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void WireWriter::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void WireWriter::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  buf_.push_back(static_cast<char>(v));
}

void WireWriter::PutBytes(std::string_view s) {
  PutVarint(s.size());
  buf_.append(s.data(), s.size());
}

Status WireReader::GetU8(uint8_t* v) {
  if (remaining() < 1) return Status::Corruption("wire: short u8");
  *v = static_cast<uint8_t>(data_[pos_++]);
  return Status::Ok();
}

Status WireReader::GetU16(uint16_t* v) {
  if (remaining() < 2) return Status::Corruption("wire: short u16");
  uint16_t r = 0;
  for (int i = 0; i < 2; ++i)
    r |= static_cast<uint16_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  pos_ += 2;
  *v = r;
  return Status::Ok();
}

Status WireReader::GetU32(uint32_t* v) {
  if (remaining() < 4) return Status::Corruption("wire: short u32");
  uint32_t r = 0;
  for (int i = 0; i < 4; ++i)
    r |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  pos_ += 4;
  *v = r;
  return Status::Ok();
}

Status WireReader::GetU64(uint64_t* v) {
  if (remaining() < 8) return Status::Corruption("wire: short u64");
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i)
    r |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  pos_ += 8;
  *v = r;
  return Status::Ok();
}

Status WireReader::GetDouble(double* v) {
  uint64_t bits;
  PIER_RETURN_IF_ERROR(GetU64(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::Ok();
}

Status WireReader::GetVarint(uint64_t* v) {
  uint64_t r = 0;
  int shift = 0;
  while (true) {
    if (remaining() < 1) return Status::Corruption("wire: short varint");
    uint8_t b = static_cast<uint8_t>(data_[pos_++]);
    // The 10th byte holds bit 63 only: anything more would not fit.
    if (shift == 63 && b > 1)
      return Status::Corruption("wire: varint overflow");
    r |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  *v = r;
  return Status::Ok();
}

Status WireReader::GetVarint32(uint32_t* v) {
  uint64_t u;
  PIER_RETURN_IF_ERROR(GetVarint(&u));
  if (u > UINT32_MAX) return Status::Corruption("wire: varint32 overflow");
  *v = static_cast<uint32_t>(u);
  return Status::Ok();
}

Status WireReader::GetSVarint(int64_t* v) {
  uint64_t u;
  PIER_RETURN_IF_ERROR(GetVarint(&u));
  *v = static_cast<int64_t>(u >> 1) ^ -static_cast<int64_t>(u & 1);
  return Status::Ok();
}

Status WireReader::GetBytes(std::string_view* s) {
  uint64_t len;
  PIER_RETURN_IF_ERROR(GetVarint(&len));
  if (len > remaining()) return Status::Corruption("wire: short bytes");
  *s = data_.substr(pos_, len);
  pos_ += len;
  return Status::Ok();
}

Status WireReader::GetBytes(std::string* s) {
  std::string_view view;
  PIER_RETURN_IF_ERROR(GetBytes(&view));
  s->assign(view.data(), view.size());
  return Status::Ok();
}

}  // namespace pier
