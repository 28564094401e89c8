#include "data/value.h"

#include <cmath>
#include <cstdio>

#include "util/hash.h"

namespace pier {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull: return "null";
    case ValueType::kBool: return "bool";
    case ValueType::kInt64: return "int64";
    case ValueType::kDouble: return "double";
    case ValueType::kString: return "string";
    case ValueType::kBytes: return "bytes";
  }
  return "?";
}

Result<bool> Value::AsBool() const {
  if (type_ != ValueType::kBool)
    return Status::Corruption(std::string("not a bool: ") +
                              ValueTypeName(type_));
  return std::get<bool>(v_);
}

Result<int64_t> Value::AsInt64() const {
  if (type_ != ValueType::kInt64)
    return Status::Corruption(std::string("not an int64: ") +
                              ValueTypeName(type_));
  return std::get<int64_t>(v_);
}

Result<double> Value::AsDouble() const {
  if (type_ == ValueType::kDouble) return std::get<double>(v_);
  if (type_ == ValueType::kInt64)
    return static_cast<double>(std::get<int64_t>(v_));
  return Status::Corruption(std::string("not numeric: ") +
                            ValueTypeName(type_));
}

Result<std::string_view> Value::AsString() const {
  if (type_ != ValueType::kString)
    return Status::Corruption(std::string("not a string: ") +
                              ValueTypeName(type_));
  return std::string_view(std::get<std::string>(v_));
}

Result<std::string_view> Value::AsBytes() const {
  if (type_ != ValueType::kBytes)
    return Status::Corruption(std::string("not bytes: ") +
                              ValueTypeName(type_));
  return std::string_view(std::get<std::string>(v_));
}

Result<int> Value::Compare(const Value& a, const Value& b) {
  // Numeric family compares across int64/double.
  if (a.is_numeric() && b.is_numeric()) {
    if (a.type_ == ValueType::kInt64 && b.type_ == ValueType::kInt64) {
      int64_t x = a.int64_unchecked(), y = b.int64_unchecked();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    double x = *a.AsDouble(), y = *b.AsDouble();
    if (std::isnan(x) || std::isnan(y))
      return Status::Corruption("NaN in comparison");
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a.type_ != b.type_)
    return Status::Corruption(std::string("type mismatch: ") +
                              ValueTypeName(a.type_) + " vs " +
                              ValueTypeName(b.type_));
  switch (a.type_) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool: {
      int x = a.bool_unchecked() ? 1 : 0, y = b.bool_unchecked() ? 1 : 0;
      return x - y;
    }
    case ValueType::kString:
    case ValueType::kBytes: {
      int c = a.str_unchecked().compare(b.str_unchecked());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return Status::Internal("unreachable compare");
  }
}

bool Value::LooseEquals(const Value& other) const {
  Result<int> c = Compare(*this, other);
  return c.ok() && *c == 0;
}

uint64_t Value::Hash() const {
  switch (type_) {
    case ValueType::kNull:
      return 0x9ae16a3b2f90404fULL;
    case ValueType::kBool:
      return Mix64(bool_unchecked() ? 0xb1 : 0xb0);
    case ValueType::kInt64:
      return Mix64(0x11 ^ static_cast<uint64_t>(int64_unchecked()));
    case ValueType::kDouble: {
      double d = double_unchecked();
      // Integral doubles hash like the equal int64 so numeric keys co-locate.
      if (d >= -9.2e18 && d <= 9.2e18 && d == std::floor(d)) {
        return Mix64(0x11 ^ static_cast<uint64_t>(static_cast<int64_t>(d)));
      }
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return Mix64(0x12 ^ bits);
    }
    case ValueType::kString:
      return HashCombine(0x51, Fnv1a64(str_unchecked()));
    case ValueType::kBytes:
      return HashCombine(0x52, Fnv1a64(str_unchecked()));
  }
  return 0;
}

std::string Value::CanonicalString() const {
  // One-character type prefix keeps values of different families distinct
  // ("I3" vs "S3") while letting equal numerics collide ("I3" for both the
  // int64 3 and the double 3.0).
  switch (type_) {
    case ValueType::kNull:
      return "N";
    case ValueType::kBool:
      return bool_unchecked() ? "Bt" : "Bf";
    case ValueType::kInt64:
      return "I" + std::to_string(int64_unchecked());
    case ValueType::kDouble: {
      double d = double_unchecked();
      if (d >= -9.2e18 && d <= 9.2e18 && d == std::floor(d)) {
        return "I" + std::to_string(static_cast<int64_t>(d));
      }
      char buf[40];
      std::snprintf(buf, sizeof(buf), "D%.17g", d);
      return buf;
    }
    case ValueType::kString:
      return "S" + str_unchecked();
    case ValueType::kBytes:
      return "Y" + str_unchecked();
  }
  return "";
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return bool_unchecked() ? "true" : "false";
    case ValueType::kInt64:
      return std::to_string(int64_unchecked());
    case ValueType::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%g", double_unchecked());
      return buf;
    }
    case ValueType::kString:
      return "'" + str_unchecked() + "'";
    case ValueType::kBytes:
      return "b'" + str_unchecked() + "'";
  }
  return "?";
}

void Value::EncodeTo(WireWriter* w) const {
  w->PutU8(static_cast<uint8_t>(type_));
  switch (type_) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      w->PutU8(bool_unchecked() ? 1 : 0);
      break;
    case ValueType::kInt64:
      w->PutSVarint(int64_unchecked());
      break;
    case ValueType::kDouble:
      w->PutDouble(double_unchecked());
      break;
    case ValueType::kString:
    case ValueType::kBytes:
      w->PutBytes(str_unchecked());
      break;
  }
}

Result<Value> Value::DecodeFrom(WireReader* r) {
  uint8_t tag;
  PIER_RETURN_IF_ERROR(r->GetU8(&tag));
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool: {
      uint8_t b;
      PIER_RETURN_IF_ERROR(r->GetU8(&b));
      return Value::Bool(b != 0);
    }
    case ValueType::kInt64: {
      int64_t v;
      PIER_RETURN_IF_ERROR(r->GetSVarint(&v));
      return Value::Int64(v);
    }
    case ValueType::kDouble: {
      double v;
      PIER_RETURN_IF_ERROR(r->GetDouble(&v));
      return Value::Double(v);
    }
    case ValueType::kString: {
      std::string s;
      PIER_RETURN_IF_ERROR(r->GetBytes(&s));
      return Value::String(std::move(s));
    }
    case ValueType::kBytes: {
      std::string s;
      PIER_RETURN_IF_ERROR(r->GetBytes(&s));
      return Value::Bytes(std::move(s));
    }
    default:
      return Status::Corruption("bad value type tag " + std::to_string(tag));
  }
}

}  // namespace pier
