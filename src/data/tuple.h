// Self-describing tuples (§3.3.1).
//
// PIER keeps no metadata catalog, so every tuple carries its own table name,
// column names and column types. Operators look columns up by name at
// runtime; a missing column or a type mismatch does not abort the query — the
// tuple is simply discarded (the "best effort" policy of §3.3.4).

#ifndef PIER_DATA_TUPLE_H_
#define PIER_DATA_TUPLE_H_

#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "data/value.h"
#include "util/status.h"
#include "util/wire.h"

namespace pier {

/// One named column of a tuple.
struct Column {
  std::string name;
  Value value;

  bool operator==(const Column& o) const {
    return name == o.name && value == o.value;
  }
};

/// A self-describing relational tuple.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::string table) : table_(std::move(table)) {}
  Tuple(std::string table, std::initializer_list<Column> cols)
      : table_(std::move(table)), cols_(cols) {}

  const std::string& table() const { return table_; }
  void set_table(std::string table) { table_ = std::move(table); }

  size_t num_columns() const { return cols_.size(); }
  const std::vector<Column>& columns() const { return cols_; }
  const Column& column(size_t i) const { return cols_[i]; }

  /// Append a column (duplicate names are allowed; Get finds the first).
  void Append(std::string name, Value value) {
    cols_.push_back(Column{std::move(name), std::move(value)});
  }

  /// First value under `name`, or null if the tuple has no such column —
  /// the caller distinguishes "absent" from a stored null via Has().
  const Value* Get(std::string_view name) const;
  bool Has(std::string_view name) const { return Get(name) != nullptr; }

  /// A new tuple keeping only `names`, in the given order; columns the tuple
  /// lacks are skipped (best-effort).
  Tuple Project(const std::vector<std::string>& names) const;

  /// DHT partitioning key derived from the hashing attributes (§3.2.1): the
  /// concatenated canonical strings of the named columns. Missing columns
  /// contribute a null marker so the key is still well defined.
  std::string PartitionKey(const std::vector<std::string>& attrs) const;

  /// Equality on table name and exact column sequence.
  bool operator==(const Tuple& o) const {
    return table_ == o.table_ && cols_ == o.cols_;
  }

  /// Stable content hash (used by duplicate elimination).
  uint64_t Hash() const;

  /// "t(a=1, b='x')".
  std::string ToString() const;

  // --- Wire format -----------------------------------------------------------

  void EncodeTo(WireWriter* w) const;
  std::string Encode() const;
  static Result<Tuple> DecodeFrom(WireReader* r);
  static Result<Tuple> Decode(std::string_view wire);

 private:
  std::string table_;
  std::vector<Column> cols_;
};

}  // namespace pier

#endif  // PIER_DATA_TUPLE_H_
