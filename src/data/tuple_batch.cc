#include "data/tuple_batch.h"

#include <cmath>
#include <cstdio>

#include "util/hash.h"

namespace pier {
namespace {

// The cell-level operations below mirror Value::Hash / Value::CanonicalString
// / Value::EncodeTo exactly (same constants, same integral-double folding);
// the equivalence suite in tests/test_operators.cc, whose digests were
// recorded from Tuple-based operators, pins the match.

uint64_t CellHash(const BatchCell& c, const char* base) {
  switch (c.type) {
    case ValueType::kNull:
      return 0x9ae16a3b2f90404fULL;
    case ValueType::kBool:
      return Mix64(c.u.b ? 0xb1 : 0xb0);
    case ValueType::kInt64:
      return Mix64(0x11 ^ static_cast<uint64_t>(c.u.i));
    case ValueType::kDouble: {
      double d = c.u.d;
      if (d >= -9.2e18 && d <= 9.2e18 && d == std::floor(d)) {
        return Mix64(0x11 ^ static_cast<uint64_t>(static_cast<int64_t>(d)));
      }
      uint64_t bits;
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return Mix64(0x12 ^ bits);
    }
    case ValueType::kString:
      return HashCombine(0x51, Fnv1a64(base + c.u.s.off, c.u.s.len));
    case ValueType::kBytes:
      return HashCombine(0x52, Fnv1a64(base + c.u.s.off, c.u.s.len));
  }
  return 0;
}

void AppendCellCanonical(const BatchCell& c, const char* base,
                         std::string* out) {
  switch (c.type) {
    case ValueType::kNull:
      out->push_back('N');
      return;
    case ValueType::kBool:
      out->append(c.u.b ? "Bt" : "Bf");
      return;
    case ValueType::kInt64:
      out->push_back('I');
      out->append(std::to_string(c.u.i));
      return;
    case ValueType::kDouble: {
      double d = c.u.d;
      if (d >= -9.2e18 && d <= 9.2e18 && d == std::floor(d)) {
        out->push_back('I');
        out->append(std::to_string(static_cast<int64_t>(d)));
        return;
      }
      char buf[40];
      std::snprintf(buf, sizeof(buf), "D%.17g", d);
      out->append(buf);
      return;
    }
    case ValueType::kString:
      out->push_back('S');
      out->append(base + c.u.s.off, c.u.s.len);
      return;
    case ValueType::kBytes:
      out->push_back('Y');
      out->append(base + c.u.s.off, c.u.s.len);
      return;
  }
}

void EncodeCellTo(const BatchCell& c, const char* base, WireWriter* w) {
  w->PutU8(static_cast<uint8_t>(c.type));
  switch (c.type) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      w->PutU8(c.u.b ? 1 : 0);
      break;
    case ValueType::kInt64:
      w->PutSVarint(c.u.i);
      break;
    case ValueType::kDouble:
      w->PutDouble(c.u.d);
      break;
    case ValueType::kString:
    case ValueType::kBytes:
      w->PutBytes(std::string_view(base + c.u.s.off, c.u.s.len));
      break;
  }
}

/// Reads one value in EncodeCellTo's layout into `c`. A string or bytes
/// cell's payload comes back as a view into the reader's buffer, and its
/// offset is left for the caller to set.
Status DecodeCellFrom(WireReader* r, BatchCell* c, std::string_view* payload) {
  uint8_t tag;
  PIER_RETURN_IF_ERROR(r->GetU8(&tag));
  c->type = static_cast<ValueType>(tag);
  switch (c->type) {
    case ValueType::kNull:
      return Status::Ok();
    case ValueType::kBool: {
      uint8_t b;
      PIER_RETURN_IF_ERROR(r->GetU8(&b));
      c->u.b = b != 0;
      return Status::Ok();
    }
    case ValueType::kInt64:
      return r->GetSVarint(&c->u.i);
    case ValueType::kDouble:
      return r->GetDouble(&c->u.d);
    case ValueType::kString:
    case ValueType::kBytes:
      PIER_RETURN_IF_ERROR(r->GetBytes(payload));
      c->u.s.len = static_cast<uint32_t>(payload->size());
      return Status::Ok();
  }
  return Status::Corruption("bad value type tag " + std::to_string(tag));
}

bool IsStringCell(const BatchCell& c) {
  return c.type == ValueType::kString || c.type == ValueType::kBytes;
}

Value CellValue(const BatchCell& c, const char* base) {
  switch (c.type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool:
      return Value::Bool(c.u.b);
    case ValueType::kInt64:
      return Value::Int64(c.u.i);
    case ValueType::kDouble:
      return Value::Double(c.u.d);
    case ValueType::kString:
      return Value::String(std::string(base + c.u.s.off, c.u.s.len));
    case ValueType::kBytes:
      return Value::Bytes(std::string(base + c.u.s.off, c.u.s.len));
  }
  return Value::Null();
}

}  // namespace

int BatchSchema::Index(std::string_view name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return static_cast<int>(i);
  }
  return -1;
}

bool BatchSchema::Matches(const Tuple& t) const {
  if (t.table() != table || t.num_columns() != columns.size()) return false;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (t.column(i).name != columns[i]) return false;
  }
  return true;
}

BatchSchemaPtr SchemaOf(const Tuple& t) {
  auto s = std::make_shared<BatchSchema>();
  s->table = t.table();
  s->columns.reserve(t.num_columns());
  for (const Column& c : t.columns()) s->columns.push_back(c.name);
  return s;
}

Value TupleBatch::ValueAt(size_t row, size_t col) const {
  return CellValue(CellAt(row, col), base());
}

bool TupleBatch::RowGet(std::string_view name, size_t row, Value* out) const {
  int idx = schema_->Index(name);
  if (idx < 0) return false;
  *out = ValueAt(row, static_cast<size_t>(idx));
  return true;
}

Tuple TupleBatch::RowTuple(size_t row) const {
  Tuple t(schema_->table);
  for (size_t c = 0; c < stride_; ++c) {
    t.Append(schema_->columns[c], ValueAt(row, c));
  }
  return t;
}

void TupleBatch::EncodeRowTo(size_t row, WireWriter* w) const {
  w->PutBytes(schema_->table);
  w->PutVarint(stride_);
  const char* b = base();
  for (size_t c = 0; c < stride_; ++c) {
    w->PutBytes(schema_->columns[c]);
    EncodeCellTo(CellAt(row, c), b, w);
  }
}

std::string TupleBatch::EncodeRow(size_t row) const {
  WireWriter w;
  EncodeRowTo(row, &w);
  return std::move(w).data();
}

std::string TupleBatch::RowPartitionKey(
    size_t row, const std::vector<std::string>& attrs) const {
  std::string key;
  const char* b = base();
  for (const std::string& a : attrs) {
    int idx = schema_->Index(a);
    if (idx < 0) {
      key.push_back('N');
    } else {
      AppendCellCanonical(CellAt(row, static_cast<size_t>(idx)), b, &key);
    }
    key.push_back('|');
  }
  return key;
}

uint64_t TupleBatch::RowHash(size_t row) const {
  uint64_t h = Fnv1a64(schema_->table);
  const char* b = base();
  for (size_t c = 0; c < stride_; ++c) {
    h = HashCombine(h, Fnv1a64(schema_->columns[c]));
    h = HashCombine(h, CellHash(CellAt(row, c), b));
  }
  return h;
}

TupleBatch TupleBatch::Slice(size_t begin, size_t count) const {
  TupleBatch out(*this);
  if (begin > row_count_) begin = row_count_;
  if (count > row_count_ - begin) count = row_count_ - begin;
  out.row_begin_ = row_begin_ + begin;
  out.row_count_ = count;
  return out;
}

TupleBatch TupleBatch::Select(const std::vector<uint32_t>& rows) const {
  auto cells = std::make_shared<std::vector<BatchCell>>();
  cells->reserve(rows.size() * stride_);
  for (uint32_t r : rows) {
    size_t off = (row_begin_ + r) * stride_;
    for (size_t c = 0; c < stride_; ++c) cells->push_back((*cells_)[off + c]);
  }
  TupleBatch out;
  out.schema_ = schema_;
  out.cells_ = std::move(cells);
  out.arena_ = arena_;
  out.extern_base_ = extern_base_;
  out.row_begin_ = 0;
  out.row_count_ = rows.size();
  out.stride_ = stride_;
  return out;
}

TupleBatch TupleBatch::EnsureOwned() const {
  if (owned()) return *this;
  if (stride_ == 0) return MakeOwned(schema_, {}, "", row_count_);
  TupleBatchBuilder b(schema_);
  for (size_t r = 0; r < row_count_; ++r) {
    for (size_t c = 0; c < stride_; ++c) b.AppendCell(*this, CellAt(r, c));
  }
  return b.Finish();
}

TupleBatch TupleBatch::WithTable(std::string table) const {
  if (schema_ && schema_->table == table) return *this;
  TupleBatch out(*this);
  auto s = std::make_shared<BatchSchema>();
  s->table = std::move(table);
  if (schema_) s->columns = schema_->columns;
  out.schema_ = std::move(s);
  return out;
}

void TupleBatch::EncodeTo(WireWriter* w) const {
  w->PutBytes(schema_ ? schema_->table : std::string_view());
  w->PutVarint(stride_);
  for (size_t c = 0; c < stride_; ++c) w->PutBytes(schema_->columns[c]);
  w->PutVarint(row_count_);
  const char* b = base();
  for (size_t r = 0; r < row_count_; ++r) {
    for (size_t c = 0; c < stride_; ++c) EncodeCellTo(CellAt(r, c), b, w);
  }
}

Result<TupleBatch> TupleBatch::DecodeFrom(WireReader* r,
                                          std::string_view base) {
  auto schema = std::make_shared<BatchSchema>();
  PIER_RETURN_IF_ERROR(r->GetBytes(&schema->table));
  uint64_t ncols = 0;
  PIER_RETURN_IF_ERROR(r->GetVarint(&ncols));
  if (ncols > (1u << 20)) return Status::Corruption("batch: too many columns");
  schema->columns.resize(ncols);
  for (uint64_t c = 0; c < ncols; ++c) {
    PIER_RETURN_IF_ERROR(r->GetBytes(&schema->columns[c]));
  }
  uint64_t nrows = 0;
  PIER_RETURN_IF_ERROR(r->GetVarint(&nrows));
  // The row cap holds for column-less rows too: they cost no bytes, so only
  // the cap bounds what a caller iterating num_rows() does.
  if (nrows > (1u << 24)) return Status::Corruption("batch: too many rows");
  // Every cell costs at least its tag byte, so a frame cannot hold more
  // cells than it has bytes left. Checked before reserving, so a short
  // hostile frame cannot demand a huge allocation.
  if (ncols > 0 && nrows > r->remaining() / ncols) {
    return Status::Corruption("batch: more cells than bytes");
  }
  auto cells = std::make_shared<std::vector<BatchCell>>();
  cells->reserve(nrows * ncols);
  for (uint64_t i = 0; i < nrows * ncols; ++i) {
    BatchCell cell;
    std::string_view sv;
    PIER_RETURN_IF_ERROR(DecodeCellFrom(r, &cell, &sv));
    // GetBytes views alias the reader's buffer, which the caller promises is
    // `base` — record the slice as an offset into it.
    if (IsStringCell(cell))
      cell.u.s.off = static_cast<uint32_t>(sv.data() - base.data());
    cells->push_back(cell);
  }
  TupleBatch out;
  out.schema_ = std::move(schema);
  out.cells_ = std::move(cells);
  out.extern_base_ = base.data();
  out.row_begin_ = 0;
  out.row_count_ = nrows;
  out.stride_ = ncols;
  return out;
}

TupleBatch TupleBatch::FromTuples(const std::vector<Tuple>& tuples) {
  if (tuples.empty()) return TupleBatch();
  TupleBatchBuilder b(SchemaOf(tuples[0]));
  for (const Tuple& t : tuples) b.AppendTuple(t);
  return b.Finish();
}

TupleBatchBuilder::TupleBatchBuilder(BatchSchemaPtr schema)
    : schema_(std::move(schema)) {}

void TupleBatchBuilder::AppendBool(bool b) {
  BatchCell c;
  c.type = ValueType::kBool;
  c.u.b = b;
  cells_.push_back(c);
}

void TupleBatchBuilder::AppendInt64(int64_t v) {
  BatchCell c;
  c.type = ValueType::kInt64;
  c.u.i = v;
  cells_.push_back(c);
}

void TupleBatchBuilder::AppendDouble(double v) {
  BatchCell c;
  c.type = ValueType::kDouble;
  c.u.d = v;
  cells_.push_back(c);
}

void TupleBatchBuilder::AppendString(std::string_view s) {
  BatchCell c;
  c.type = ValueType::kString;
  c.u.s.off = static_cast<uint32_t>(arena_.size());
  c.u.s.len = static_cast<uint32_t>(s.size());
  arena_.append(s.data(), s.size());
  cells_.push_back(c);
}

void TupleBatchBuilder::AppendBytes(std::string_view s) {
  BatchCell c;
  c.type = ValueType::kBytes;
  c.u.s.off = static_cast<uint32_t>(arena_.size());
  c.u.s.len = static_cast<uint32_t>(s.size());
  arena_.append(s.data(), s.size());
  cells_.push_back(c);
}

void TupleBatchBuilder::AppendValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      cells_.emplace_back();  // a default cell is null
      break;
    case ValueType::kBool:
      AppendBool(v.bool_unchecked());
      break;
    case ValueType::kInt64:
      AppendInt64(v.int64_unchecked());
      break;
    case ValueType::kDouble:
      AppendDouble(v.double_unchecked());
      break;
    case ValueType::kString:
      AppendString(v.str_unchecked());
      break;
    case ValueType::kBytes:
      AppendBytes(v.str_unchecked());
      break;
  }
}

void TupleBatchBuilder::AppendCell(const TupleBatch& from, const BatchCell& c) {
  if (c.type == ValueType::kString) {
    AppendString(from.CellStr(c));
  } else if (c.type == ValueType::kBytes) {
    AppendBytes(from.CellStr(c));
  } else {
    cells_.push_back(c);
  }
}

void TupleBatchBuilder::AppendTuple(const Tuple& t) {
  if (stride() == 0) {
    zero_col_rows_++;
    return;
  }
  for (const Column& c : t.columns()) AppendValue(c.value);
}

Status TupleBatchBuilder::AppendEncodedTuple(std::string_view wire) {
  const size_t cells_mark = cells_.size();
  const size_t arena_mark = arena_.size();
  WireReader r(wire);
  Status s = [&]() -> Status {
    std::string_view table;
    PIER_RETURN_IF_ERROR(r.GetBytes(&table));
    if (table != schema_->table) return Status::NotFound("schema mismatch");
    uint64_t ncols = 0;
    PIER_RETURN_IF_ERROR(r.GetVarint(&ncols));
    if (ncols != schema_->columns.size())
      return Status::NotFound("schema mismatch");
    for (uint64_t c = 0; c < ncols; ++c) {
      std::string_view name;
      PIER_RETURN_IF_ERROR(r.GetBytes(&name));
      if (name != schema_->columns[c])
        return Status::NotFound("schema mismatch");
      BatchCell cell;
      std::string_view sv;
      PIER_RETURN_IF_ERROR(DecodeCellFrom(&r, &cell, &sv));
      if (IsStringCell(cell)) {
        cell.u.s.off = static_cast<uint32_t>(arena_.size());
        arena_.append(sv.data(), sv.size());
      }
      cells_.push_back(cell);
    }
    if (!r.AtEnd()) return Status::Corruption("trailing bytes after tuple");
    return Status::Ok();
  }();
  if (!s.ok()) {
    cells_.resize(cells_mark);
    arena_.resize(arena_mark);
  } else if (stride() == 0) {
    zero_col_rows_++;
  }
  return s;
}

TupleBatch TupleBatch::MakeOwned(BatchSchemaPtr schema,
                                 std::vector<BatchCell> cells,
                                 std::string arena, size_t zero_stride_rows) {
  TupleBatch out;
  out.stride_ = schema->columns.size();
  out.row_count_ =
      out.stride_ == 0 ? zero_stride_rows : cells.size() / out.stride_;
  out.schema_ = std::move(schema);
  out.cells_ =
      std::make_shared<const std::vector<BatchCell>>(std::move(cells));
  out.arena_ = std::make_shared<const std::string>(std::move(arena));
  return out;
}

TupleBatch TupleBatchBuilder::Finish() {
  TupleBatch out = TupleBatch::MakeOwned(schema_, std::move(cells_),
                                         std::move(arena_), zero_col_rows_);
  cells_.clear();
  arena_.clear();
  zero_col_rows_ = 0;
  return out;
}

void BatchAssembler::RollIfNeeded(const Tuple& t) {
  if (builder_ != nullptr &&
      (builder_->num_rows() >= max_rows_ || !builder_->schema()->Matches(t))) {
    done_.push_back(builder_->Finish());
    builder_.reset();
  }
  if (builder_ == nullptr) {
    builder_ = std::make_unique<TupleBatchBuilder>(SchemaOf(t));
  }
}

void BatchAssembler::Add(const Tuple& t) {
  RollIfNeeded(t);
  builder_->AppendTuple(t);
}

Status BatchAssembler::AddEncoded(std::string_view wire) {
  if (builder_ != nullptr && builder_->num_rows() < max_rows_) {
    Status s = builder_->AppendEncodedTuple(wire);
    // NotFound marks a schema change, handled below; anything else is a
    // real decode failure or success.
    if (s.ok() || s.code() != StatusCode::kNotFound) return s;
  }
  // Schema change (or no builder yet): materialize once to learn the schema,
  // then append through the fast path next time.
  Result<Tuple> t = Tuple::Decode(wire);
  if (!t.ok()) return t.status();
  Add(*t);
  return Status::Ok();
}

std::vector<TupleBatch> BatchAssembler::TakeBatches() {
  if (builder_ != nullptr && !builder_->empty()) {
    done_.push_back(builder_->Finish());
  }
  builder_.reset();
  return std::move(done_);
}

}  // namespace pier
