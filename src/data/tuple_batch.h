// Batch-at-a-time tuples.
//
// A TupleBatch is the unit of execution in the dataflow layer: N rows that
// share one self-describing schema (table name + column names, §3.3.1),
// stored as a flat row-major vector of POD cells. Variable-length payloads
// (strings/bytes) live in a single backing buffer — either an owned arena or
// a borrowed network frame — and cells reference them by offset, so decoding
// an answer frame materializes views, not N heap-allocated Tuple/Value
// graphs.
//
// Ownership rules (see src/data/README.md):
//   * owned batches (arena-backed) are value types: slices and selections
//     share the arena via shared_ptr and may outlive the producer.
//   * borrowed batches alias a network frame; they are valid only for the
//     duration of the synchronous ProcessBatch call that delivered them.
//     An operator that retains rows must call EnsureOwned() (or materialize
//     Tuples) first.
//
// Row accessors (RowTuple / EncodeRowTo / RowPartitionKey / RowHash) are
// byte- and hash-identical to the equivalent Tuple operations, so a batch row
// stored or hashed is indistinguishable from the Tuple it came from.

#ifndef PIER_DATA_TUPLE_BATCH_H_
#define PIER_DATA_TUPLE_BATCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "data/tuple.h"
#include "data/value.h"
#include "util/status.h"
#include "util/wire.h"

namespace pier {

/// The shared per-batch schema: every row has the same table and the same
/// column names in the same order. Duplicate names are allowed (as in Tuple);
/// lookups find the first match.
struct BatchSchema {
  std::string table;
  std::vector<std::string> columns;

  /// Index of the first column named `name`, or -1.
  int Index(std::string_view name) const;
  /// True when `t` has this exact table and column sequence.
  bool Matches(const Tuple& t) const;
  bool operator==(const BatchSchema& o) const {
    return table == o.table && columns == o.columns;
  }
};

using BatchSchemaPtr = std::shared_ptr<const BatchSchema>;

/// Schema of an existing tuple (table + column names, in order).
BatchSchemaPtr SchemaOf(const Tuple& t);

/// One cell: a type tag plus an inline scalar or an (offset, length) slice of
/// the batch's backing buffer. POD — a batch's cells are one flat allocation.
struct BatchCell {
  ValueType type = ValueType::kNull;
  union {
    bool b;
    int64_t i;
    double d;
    struct {
      uint32_t off;
      uint32_t len;
    } s;
  } u = {};
};

class TupleBatchBuilder;

class TupleBatch {
 public:
  /// An empty batch with no schema. empty() is true; row accessors are
  /// invalid.
  TupleBatch() = default;

  const BatchSchemaPtr& schema() const { return schema_; }
  size_t num_rows() const { return row_count_; }
  size_t num_columns() const { return schema_ ? schema_->columns.size() : 0; }
  bool empty() const { return row_count_ == 0; }

  /// True when the variable-length payloads are owned by this batch (arena)
  /// or there are none; false when they alias a borrowed frame.
  bool owned() const { return extern_base_ == nullptr; }

  // --- Cell access -----------------------------------------------------------

  const BatchCell& CellAt(size_t row, size_t col) const {
    return (*cells_)[(row_begin_ + row) * stride_ + col];
  }
  /// The bytes a string/bytes cell references (aliases the backing buffer).
  std::string_view CellStr(const BatchCell& c) const {
    return std::string_view(base() + c.u.s.off, c.u.s.len);
  }
  /// Materialize one cell as a Value (copies string payloads).
  Value ValueAt(size_t row, size_t col) const;
  /// First column named `name` of `row` as a Value; null Value + false when
  /// the schema lacks the column (callers distinguish via the bool).
  bool RowGet(std::string_view name, size_t row, Value* out) const;

  // --- Row operations (identical to the Tuple equivalents) -------------------

  /// Materialize one row as a Tuple (for per-row state and the client edge).
  Tuple RowTuple(size_t row) const;
  /// Byte-identical to Tuple::EncodeTo of RowTuple(row).
  void EncodeRowTo(size_t row, WireWriter* w) const;
  std::string EncodeRow(size_t row) const;
  /// Identical to Tuple::PartitionKey of RowTuple(row).
  std::string RowPartitionKey(size_t row,
                              const std::vector<std::string>& attrs) const;
  /// Identical to Tuple::Hash of RowTuple(row).
  uint64_t RowHash(size_t row) const;

  // --- Cheap restructuring ---------------------------------------------------

  /// A sub-range view [begin, begin+count): shares cells and backing buffer.
  TupleBatch Slice(size_t begin, size_t count) const;
  /// A gather of the given row indices (in order): copies cell structs,
  /// shares the backing buffer.
  TupleBatch Select(const std::vector<uint32_t>& rows) const;
  /// A batch whose payloads are owned: *this when already owned, otherwise a
  /// copy into a fresh arena. Call before retaining a borrowed batch.
  TupleBatch EnsureOwned() const;
  /// The same rows under a different table name (shares cells and payloads).
  TupleBatch WithTable(std::string table) const;

  // --- Wire format -----------------------------------------------------------

  /// table, column names once, then row-major cell values.
  void EncodeTo(WireWriter* w) const;
  /// Decode from `r`. String cells alias `base`, which MUST be the buffer
  /// `r` reads from (zero-copy); the resulting batch is borrowed. Callers
  /// that outlive the frame must EnsureOwned(). Hostile frames are refused
  /// (Corruption) before any allocation sized by their claims.
  static Result<TupleBatch> DecodeFrom(WireReader* r, std::string_view base);

  /// Build a batch from already-materialized tuples sharing one schema
  /// (REQUIRES: every tuple matches the schema of the first; returns an
  /// empty batch for empty input).
  static TupleBatch FromTuples(const std::vector<Tuple>& tuples);

 private:
  friend class TupleBatchBuilder;

  /// `zero_stride_rows` is the row count when the schema has no columns (no
  /// cells exist to derive it from); ignored otherwise.
  static TupleBatch MakeOwned(BatchSchemaPtr schema,
                              std::vector<BatchCell> cells, std::string arena,
                              size_t zero_stride_rows = 0);

  const char* base() const {
    return extern_base_ != nullptr ? extern_base_
                                   : (arena_ ? arena_->data() : "");
  }

  BatchSchemaPtr schema_;
  std::shared_ptr<const std::vector<BatchCell>> cells_;
  std::shared_ptr<const std::string> arena_;  // owned payloads (may be null)
  const char* extern_base_ = nullptr;         // borrowed frame payloads
  size_t row_begin_ = 0;
  size_t row_count_ = 0;
  size_t stride_ = 0;  // cells per row == schema columns
};

/// Row-major batch writer. Cells are appended left-to-right, row by row;
/// Finish() requires a whole number of rows.
class TupleBatchBuilder {
 public:
  explicit TupleBatchBuilder(BatchSchemaPtr schema);

  const BatchSchemaPtr& schema() const { return schema_; }
  /// Zero-column rows (a tuple with no attributes is legal) carry no cells,
  /// so they are counted explicitly by AppendTuple/AppendEncodedTuple.
  size_t num_rows() const {
    return stride() == 0 ? zero_col_rows_ : cells_.size() / stride();
  }
  bool empty() const { return num_rows() == 0; }

  void AppendBool(bool b);
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string_view s);
  void AppendBytes(std::string_view s);
  void AppendValue(const Value& v);
  /// Copy a borrowed/owned cell from another batch into this builder.
  void AppendCell(const TupleBatch& from, const BatchCell& c);

  /// Append one whole row from a tuple. REQUIRES: SchemaOf(t) matches.
  void AppendTuple(const Tuple& t);
  /// Decode one wire-encoded tuple straight into the builder (payload bytes
  /// are copied into the arena exactly once; no Tuple/Value materialization).
  /// Fails without side effects when the wire schema does not match.
  Status AppendEncodedTuple(std::string_view wire);

  /// Seal the builder into an owned batch. The builder is left empty.
  TupleBatch Finish();

 private:
  size_t stride() const { return schema_->columns.size(); }

  BatchSchemaPtr schema_;
  std::vector<BatchCell> cells_;
  std::string arena_;
  size_t zero_col_rows_ = 0;  // rows appended under a zero-column schema
};

/// Groups a heterogeneous tuple stream into maximal same-schema batches,
/// preserving order: feeding [a1 a2 b1 a3] yields [a1 a2], [b1], [a3].
class BatchAssembler {
 public:
  /// Start a new batch after `max_rows` rows even without a schema change.
  explicit BatchAssembler(size_t max_rows = 4096) : max_rows_(max_rows) {}

  void Add(const Tuple& t);
  /// Add a wire-encoded tuple without materializing it (falls back to a
  /// header parse on schema change). Corruption statuses are returned and
  /// the row is skipped (best-effort, §3.3.4).
  Status AddEncoded(std::string_view wire);

  /// Seal the current batch (if any) and take all completed batches.
  std::vector<TupleBatch> TakeBatches();

 private:
  void RollIfNeeded(const Tuple& t);

  size_t max_rows_;
  std::unique_ptr<TupleBatchBuilder> builder_;
  std::vector<TupleBatch> done_;
};

}  // namespace pier

#endif  // PIER_DATA_TUPLE_BATCH_H_
