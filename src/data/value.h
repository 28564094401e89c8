// Column values (§3.3.1).
//
// PIER stores column values as native objects and defers type checking to
// the operators that touch them (there is no catalog to check against). The
// C++ rendering is a small tagged variant: null, bool, int64, double, string
// and bytes. Operators that hit a type mismatch follow the paper's
// "best-effort" policy: the comparison fails and the tuple is discarded
// (§3.3.4, Malformed Tuples) — so every fallible accessor here returns a
// Result instead of asserting.

#ifndef PIER_DATA_VALUE_H_
#define PIER_DATA_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "util/status.h"
#include "util/wire.h"

namespace pier {

/// Wire-stable type tags. kBytes shares storage with kString but is a
/// distinct type for comparisons.
enum class ValueType : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt64 = 2,
  kDouble = 3,
  kString = 4,
  kBytes = 5,
};

/// Human-readable type name ("null", "int64", ...).
const char* ValueTypeName(ValueType t);

/// One column value: a type tag plus storage.
class Value {
 public:
  /// The null value.
  Value() : type_(ValueType::kNull) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(ValueType::kBool, b); }
  static Value Int64(int64_t v) { return Value(ValueType::kInt64, v); }
  static Value Double(double v) { return Value(ValueType::kDouble, v); }
  static Value String(std::string s) {
    return Value(ValueType::kString, std::move(s));
  }
  static Value Bytes(std::string s) {
    return Value(ValueType::kBytes, std::move(s));
  }

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }
  bool is_numeric() const {
    return type_ == ValueType::kInt64 || type_ == ValueType::kDouble;
  }

  // --- Checked accessors (Corruption on type mismatch) -----------------------

  Result<bool> AsBool() const;
  Result<int64_t> AsInt64() const;
  /// Numeric widening: int64 values convert; others fail.
  Result<double> AsDouble() const;
  Result<std::string_view> AsString() const;
  Result<std::string_view> AsBytes() const;

  // --- Unchecked accessors (caller has verified type()) ----------------------

  bool bool_unchecked() const { return std::get<bool>(v_); }
  int64_t int64_unchecked() const { return std::get<int64_t>(v_); }
  double double_unchecked() const { return std::get<double>(v_); }
  const std::string& str_unchecked() const { return std::get<std::string>(v_); }

  /// Three-way comparison. Numeric types compare across int64/double; any
  /// other cross-type comparison (including null) is a type error, which
  /// callers treat per the best-effort policy. Nulls compare equal to nulls.
  static Result<int> Compare(const Value& a, const Value& b);

  /// Equality that treats type errors as "not equal" (best-effort policy).
  bool LooseEquals(const Value& other) const;

  /// Strict equality: same type and same contents.
  bool operator==(const Value& other) const {
    return type_ == other.type_ && v_ == other.v_;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Stable 64-bit hash: equal values (including int64/double with the same
  /// integral magnitude) hash equally so cross-typed numeric keys partition
  /// consistently.
  uint64_t Hash() const;

  /// Canonical text used for DHT partitioning keys and GROUP BY keys: equal
  /// values produce identical strings.
  std::string CanonicalString() const;

  /// Display form ("'abc'", "42", "null", ...).
  std::string ToString() const;

  // --- Wire format -----------------------------------------------------------

  void EncodeTo(WireWriter* w) const;
  static Result<Value> DecodeFrom(WireReader* r);

 private:
  template <typename T>
  Value(ValueType type, T v) : type_(type), v_(std::move(v)) {}

  ValueType type_;
  std::variant<std::monostate, bool, int64_t, double, std::string> v_;
};

}  // namespace pier

#endif  // PIER_DATA_VALUE_H_
