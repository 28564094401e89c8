// Mergeable aggregate state and the grouping core shared by GroupBy and the
// hierarchical aggregation operator.
//
// PIER's in-network aggregation works for distributive and algebraic
// functions, where constant-size state merges associatively (§3.3.4). The
// state here covers COUNT, SUM, MIN, MAX and AVG (algebraic: SUM + COUNT).
// Holistic aggregates are intentionally absent, as in the paper.
//
// GroupTable is the grouping core of both aggregation operators. Partials
// have one layout on every path (key columns, then AggState::PartialColumns)
// whether they are rehashed as rows (flat) or routed as TupleBatch frames.
// Each aggregate ships only the state its function finalizes from:
//   count -> <alias>#n            sum -> <alias>#s
//   min   -> <alias>#mn           max -> <alias>#mx
//   avg   -> <alias>#n, <alias>#s

#ifndef PIER_QP_AGG_STATE_H_
#define PIER_QP_AGG_STATE_H_

#include <map>
#include <string>
#include <vector>

#include "data/tuple_batch.h"
#include "data/value.h"
#include "util/status.h"

namespace pier {

enum class AggFunc : uint8_t { kCount = 1, kSum, kMin, kMax, kAvg };

const char* AggFuncName(AggFunc f);

/// The function named `name` (the inverse of AggFuncName).
Result<AggFunc> ParseAggFunc(const std::string& name);

/// One aggregate in a GROUP BY list: a function, an input column (empty for
/// COUNT(*)) and an output alias.
struct AggSpec {
  AggFunc func = AggFunc::kCount;
  std::string col;
  std::string alias;
};

/// Parse "count::cnt,sum:bytes:total,max:sev:worst" (func:col:alias, comma
/// separated; col may be empty for COUNT(*)).
Result<std::vector<AggSpec>> ParseAggSpecs(const std::string& text);

/// Render back to the ParseAggSpecs format.
std::string FormatAggSpecs(const std::vector<AggSpec>& specs);

/// Constant-size mergeable state covering all supported functions at once;
/// only its partial encoding is per function.
class AggState {
 public:
  /// Fold one input value in (null when the row lacks the column). Nulls are
  /// skipped (best-effort), except by COUNT(*).
  void UpdateValue(const AggSpec& spec, const Value& v);

  /// Merge another partial state (associative, commutative).
  void Merge(const AggState& other);

  /// The final value for a function.
  Value Finalize(AggFunc func) const;

  int64_t count() const { return count_; }

  // --- The partial layout ----------------------------------------------------

  /// The names of the partial columns `func` needs under `alias`, in layout
  /// order (the header comment's table).
  static std::vector<std::string> PartialColumns(AggFunc func,
                                                 const std::string& alias);

  /// Append the partial values `func` needs to `out`, in layout order.
  void AppendPartial(AggFunc func, TupleBatchBuilder* out) const;

  /// Rebuild `func`'s state from row `row` of `b`, whose partial columns are
  /// at `cols` (one per PartialColumns entry, in layout order); false if they
  /// are malformed (a negative or non-integer count, a sum that is neither
  /// null nor a number).
  bool FromPartial(AggFunc func, const TupleBatch& b, size_t row,
                   const std::vector<size_t>& cols);

 private:
  int64_t count_ = 0;
  Value sum_;  // null until first numeric input; int64 or double after
  Value min_;
  Value max_;
};

/// Groups keyed by the values of `keys`, each holding one AggState per
/// aggregate. Groups are kept in canonical-key order, so emission order is
/// deterministic across runs.
class GroupTable {
 public:
  GroupTable() = default;
  GroupTable(std::vector<std::string> keys, std::vector<AggSpec> aggs);

  /// Fold raw input rows. A batch lacking a key column is discarded whole.
  void Fold(const TupleBatch& batch);
  /// Merge rows in the partial layout, discarding a batch as Fold does. An
  /// aggregate whose partial columns are absent or malformed is skipped, and
  /// a row with no aggregate left names no group.
  void Merge(const TupleBatch& batch);

  /// The groups as batches of at most `max_rows` rows, under `table`: the key
  /// columns, then per aggregate either its partial columns or its final
  /// value under the alias. Empty when there are no groups.
  std::vector<TupleBatch> Emit(const std::string& table, bool partial,
                               size_t max_rows = 4096) const;

  bool empty() const { return groups_.empty(); }
  void clear() { groups_.clear(); }

 private:
  struct Group {
    std::vector<Value> key;
    std::vector<AggState> states;
  };

  Group& GroupAt(const TupleBatch& batch, size_t row,
                 const std::vector<size_t>& key_idx);

  std::vector<std::string> keys_;
  std::vector<AggSpec> aggs_;
  std::map<std::string, Group> groups_;  // RowPartitionKey -> group
};

}  // namespace pier

#endif  // PIER_QP_AGG_STATE_H_
