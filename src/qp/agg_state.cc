#include "qp/agg_state.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

namespace pier {

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCount: return "count";
    case AggFunc::kSum: return "sum";
    case AggFunc::kMin: return "min";
    case AggFunc::kMax: return "max";
    case AggFunc::kAvg: return "avg";
  }
  return "?";
}

Result<AggFunc> ParseAggFunc(const std::string& name) {
  for (AggFunc f : {AggFunc::kCount, AggFunc::kSum, AggFunc::kMin,
                    AggFunc::kMax, AggFunc::kAvg}) {
    if (name == AggFuncName(f)) return f;
  }
  return Status::InvalidArgument("unknown aggregate '" + name + "'");
}

Result<std::vector<AggSpec>> ParseAggSpecs(const std::string& text) {
  std::vector<AggSpec> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i != text.size() && text[i] != ',') continue;
    std::string part = text.substr(start, i - start);
    start = i + 1;
    if (part.empty()) continue;
    size_t c1 = part.find(':');
    size_t c2 = c1 == std::string::npos ? std::string::npos
                                        : part.find(':', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos)
      return Status::InvalidArgument("bad agg spec '" + part + "'");
    AggSpec spec;
    std::string func = part.substr(0, c1);
    spec.col = part.substr(c1 + 1, c2 - c1 - 1);
    spec.alias = part.substr(c2 + 1);
    if (spec.alias.empty())
      return Status::InvalidArgument("agg spec needs alias: '" + part + "'");
    PIER_ASSIGN_OR_RETURN(spec.func, ParseAggFunc(func));
    if (spec.func != AggFunc::kCount && spec.col.empty())
      return Status::InvalidArgument(func + " needs a column");
    out.push_back(std::move(spec));
  }
  return out;
}

std::string FormatAggSpecs(const std::vector<AggSpec>& specs) {
  std::string s;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (i > 0) s.push_back(',');
    s += AggFuncName(specs[i].func);
    s.push_back(':');
    s += specs[i].col;
    s.push_back(':');
    s += specs[i].alias;
  }
  return s;
}

namespace {

/// Numeric add with int64 preservation: int64+int64 stays int64 unless it
/// overflows, in which case the sum continues (approximately) as a double
/// instead of wrapping.
Value AddValues(const Value& a, const Value& b) {
  if (a.is_null()) return b;
  if (b.is_null()) return a;
  if (a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64) {
    int64_t sum = 0;
    if (!__builtin_add_overflow(a.int64_unchecked(), b.int64_unchecked(),
                                &sum))
      return Value::Int64(sum);
  }
  Result<double> x = a.AsDouble(), y = b.AsDouble();
  if (!x.ok() || !y.ok()) return a;  // non-numeric: keep what we had
  return Value::Double(*x + *y);
}

void TrackMin(Value* min, const Value& v) {
  if (min->is_null()) {
    *min = v;
    return;
  }
  Result<int> c = Value::Compare(v, *min);
  if (c.ok() && *c < 0) *min = v;
}

void TrackMax(Value* max, const Value& v) {
  if (max->is_null()) {
    *max = v;
    return;
  }
  Result<int> c = Value::Compare(v, *max);
  if (c.ok() && *c > 0) *max = v;
}

/// The index of each of `names` in `in`; nullopt when one is missing.
std::optional<std::vector<size_t>> ColumnIndexes(
    const BatchSchema& in, const std::vector<std::string>& names) {
  std::vector<size_t> idx;
  for (const std::string& name : names) {
    int c = in.Index(name);
    if (c < 0) return std::nullopt;
    idx.push_back(static_cast<size_t>(c));
  }
  return idx;
}

/// The state each function's partial carries, indexed by AggFunc: only what
/// its Finalize reads.
enum : uint8_t { kN = 1, kS = 2, kMn = 4, kMx = 8 };
constexpr uint8_t kPartialFields[] = {0, kN, kS, kMn, kMx, kN | kS};

}  // namespace

void AggState::UpdateValue(const AggSpec& spec, const Value& v) {
  if (spec.col.empty()) {  // COUNT(*)
    count_++;
    return;
  }
  if (v.is_null()) return;  // best-effort skip
  count_++;
  if (v.is_numeric()) sum_ = AddValues(sum_, v);
  TrackMin(&min_, v);
  TrackMax(&max_, v);
}

void AggState::Merge(const AggState& other) {
  // Counts are never negative (FromPartial rejects one), so the only
  // overflow is upward: saturate instead of wrapping.
  if (__builtin_add_overflow(count_, other.count_, &count_))
    count_ = std::numeric_limits<int64_t>::max();
  sum_ = AddValues(sum_, other.sum_);
  if (!other.min_.is_null()) TrackMin(&min_, other.min_);
  if (!other.max_.is_null()) TrackMax(&max_, other.max_);
}

Value AggState::Finalize(AggFunc func) const {
  switch (func) {
    case AggFunc::kCount:
      return Value::Int64(count_);
    case AggFunc::kSum:
      return sum_;
    case AggFunc::kMin:
      return min_;
    case AggFunc::kMax:
      return max_;
    case AggFunc::kAvg: {
      if (count_ == 0 || sum_.is_null()) return Value::Null();
      Result<double> s = sum_.AsDouble();
      if (!s.ok()) return Value::Null();
      return Value::Double(*s / static_cast<double>(count_));
    }
  }
  return Value::Null();
}

std::vector<std::string> AggState::PartialColumns(AggFunc func,
                                                  const std::string& alias) {
  uint8_t f = kPartialFields[static_cast<int>(func)];
  std::vector<std::string> cols;
  if (f & kN) cols.push_back(alias + "#n");
  if (f & kS) cols.push_back(alias + "#s");
  if (f & kMn) cols.push_back(alias + "#mn");
  if (f & kMx) cols.push_back(alias + "#mx");
  return cols;
}

void AggState::AppendPartial(AggFunc func, TupleBatchBuilder* out) const {
  uint8_t f = kPartialFields[static_cast<int>(func)];
  if (f & kN) out->AppendInt64(count_);
  if (f & kS) out->AppendValue(sum_);
  if (f & kMn) out->AppendValue(min_);
  if (f & kMx) out->AppendValue(max_);
}

bool AggState::FromPartial(AggFunc func, const TupleBatch& b, size_t row,
                           const std::vector<size_t>& cols) {
  uint8_t f = kPartialFields[static_cast<int>(func)];
  auto next = cols.begin();
  if (f & kN) {
    Result<int64_t> c = b.ValueAt(row, *next++).AsInt64();
    if (!c.ok() || *c < 0) return false;
    count_ = *c;
  }
  if (f & kS) sum_ = b.ValueAt(row, *next++);
  if (!sum_.is_null() && !sum_.is_numeric()) return false;
  if (f & kMn) min_ = b.ValueAt(row, *next++);
  if (f & kMx) max_ = b.ValueAt(row, *next++);
  return true;
}

GroupTable::GroupTable(std::vector<std::string> keys,
                       std::vector<AggSpec> aggs)
    : keys_(std::move(keys)), aggs_(std::move(aggs)) {}

GroupTable::Group& GroupTable::GroupAt(const TupleBatch& batch, size_t row,
                                       const std::vector<size_t>& key_idx) {
  // RowPartitionKey over the (all-present) keys is the canonical group key.
  Group& g = groups_[batch.RowPartitionKey(row, keys_)];
  if (g.states.empty()) {
    for (size_t c : key_idx) g.key.push_back(batch.ValueAt(row, c));
    g.states.resize(aggs_.size());
  }
  return g;
}

void GroupTable::Fold(const TupleBatch& batch) {
  // Resolve key and aggregate columns once per batch. A key column the
  // schema lacks discards every row (they all share the schema).
  const BatchSchema& in = *batch.schema();
  std::optional<std::vector<size_t>> key_idx = ColumnIndexes(in, keys_);
  if (!key_idx) return;
  std::vector<int> agg_idx(aggs_.size());
  for (size_t i = 0; i < aggs_.size(); ++i)
    agg_idx[i] = aggs_[i].col.empty() ? -1 : in.Index(aggs_[i].col);
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    Group& g = GroupAt(batch, r, *key_idx);
    for (size_t i = 0; i < aggs_.size(); ++i) {
      g.states[i].UpdateValue(
          aggs_[i], agg_idx[i] < 0
                        ? Value::Null()
                        : batch.ValueAt(r, static_cast<size_t>(agg_idx[i])));
    }
  }
}

void GroupTable::Merge(const TupleBatch& batch) {
  const BatchSchema& in = *batch.schema();
  std::optional<std::vector<size_t>> key_idx = ColumnIndexes(in, keys_);
  if (!key_idx) return;
  // Each aggregate's partial columns; an aggregate lacking one is skipped.
  std::vector<std::optional<std::vector<size_t>>> cols;
  for (const AggSpec& a : aggs_)
    cols.push_back(
        ColumnIndexes(in, AggState::PartialColumns(a.func, a.alias)));
  // Each FromPartial overwrites every field its function reads.
  std::vector<AggState> part(aggs_.size());
  std::vector<bool> ok(aggs_.size());
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    for (size_t i = 0; i < aggs_.size(); ++i)
      ok[i] = cols[i] && part[i].FromPartial(aggs_[i].func, batch, r, *cols[i]);
    // A row none of whose aggregates decodes names no group.
    if (std::find(ok.begin(), ok.end(), true) == ok.end()) continue;
    Group& g = GroupAt(batch, r, *key_idx);
    for (size_t i = 0; i < aggs_.size(); ++i) {
      if (ok[i]) g.states[i].Merge(part[i]);
    }
  }
}

std::vector<TupleBatch> GroupTable::Emit(const std::string& table,
                                         bool partial, size_t max_rows) const {
  auto schema = std::make_shared<BatchSchema>();
  schema->table = table;
  schema->columns = keys_;
  for (const AggSpec& a : aggs_) {
    std::vector<std::string> cols =
        partial ? AggState::PartialColumns(a.func, a.alias)
                : std::vector<std::string>{a.alias};
    schema->columns.insert(schema->columns.end(), cols.begin(), cols.end());
  }
  TupleBatchBuilder rows(std::move(schema));
  std::vector<TupleBatch> out;
  for (const auto& [gk, g] : groups_) {
    (void)gk;
    for (const Value& v : g.key) rows.AppendValue(v);
    for (size_t i = 0; i < aggs_.size(); ++i) {
      if (partial) {
        g.states[i].AppendPartial(aggs_[i].func, &rows);
      } else {
        rows.AppendValue(g.states[i].Finalize(aggs_[i].func));
      }
    }
    if (rows.num_rows() == max_rows) out.push_back(rows.Finish());
  }
  if (!rows.empty()) out.push_back(rows.Finish());
  return out;
}

}  // namespace pier
