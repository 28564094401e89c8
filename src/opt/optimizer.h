// The cost-based plan optimizer (the seam ROADMAP reserved behind
// PierClient::Compile).
//
// PIER deliberately ships several physical implementations per logical
// operator (§3.3.4); the SQL compiler used to hard-code which one it emits.
// The Optimizer chooses instead, using StatsRegistry statistics and the
// network CostModel:
//
//   - join strategy per join: rehash-both (symmetric hash), per-probe Fetch
//     Matches (only when the inner's primary index IS the join attribute),
//     or (snapshot plans only) a Bloom semi-join prefilter in front of the
//     rehash;
//   - join order for multi-way joins (greedy, cheapest next);
//   - flat two-phase vs hierarchical (tree) aggregation.
//
// With no optimizer, or with fewer observed tuples than the model trusts
// (CostParams::min_sample_tuples), DefaultJoinSteps reproduces the
// compiler's historical choices exactly — compiled plans are byte-identical
// to the pre-optimizer ones.

#ifndef PIER_OPT_OPTIMIZER_H_
#define PIER_OPT_OPTIMIZER_H_

#include <string>
#include <utility>
#include <vector>

#include "opt/cost_model.h"
#include "opt/stats.h"
#include "qp/opgraph.h"
#include "util/status.h"

namespace pier {

/// One base relation of a join query, as the compiler describes it.
struct JoinInput {
  std::string table;
  std::vector<std::string> partition_attrs;  // primary index (may be empty)
  bool filtered = false;  // a pushed-down selection applies to this input
};

/// One equi-join predicate between two inputs (a.a_col = b.b_col).
struct JoinEdge {
  int a = 0;
  int b = 0;
  std::string a_col, b_col;
};

enum class JoinStrategy : uint8_t {
  kRehash = 0,        // ship both sides to a rendezvous namespace
  kFetchMatches = 1,  // per-probe DHT gets against the inner's primary index
  kBloom = 2,         // Bloom-prefilter the probed side, then rehash
};
const char* JoinStrategyName(JoinStrategy s);

/// One pairwise join of the chosen execution order.
struct JoinStep {
  int outer = 0;  // input index, or -1 for the running intermediate result
  int inner = 0;  // the input joined in at this step
  int edge = 0;   // index into the edge list this step consumes
  std::string outer_col, inner_col;  // bare join columns (outer/inner side)
  std::string outer_name, inner_name;  // display names for EXPLAIN
  JoinStrategy strategy = JoinStrategy::kRehash;
  bool stats_based = false;  // false: compiler-default choice
  double est_rows = 0;       // estimated output cardinality (0 = unknown)
  Cost cost;                 // estimate for the chosen strategy
  /// Every strategy considered for this step, including the chosen one.
  std::vector<std::pair<JoinStrategy, Cost>> alternatives;
};

/// The aggregation-strategy decision.
struct AggDecision {
  std::string strategy;  // "flat" | "hier"; empty = no stats, use the default
  bool stats_based = false;
  Cost cost;
  std::vector<std::pair<std::string, Cost>> alternatives;
};

/// Per-operator cost annotation of a finished physical plan.
struct ExplainOp {
  uint32_t graph_id = 0;
  uint32_t op_id = 0;
  std::string op;      // "scan[ns=t]"
  double est_rows = 0; // estimated tuples flowing OUT of this operator
  Cost cost;           // network cost attributed to this operator
};

/// Everything EXPLAIN reports about one compiled query.
struct PlanExplain {
  uint64_t query_id = 0;
  std::vector<JoinStep> joins;
  AggDecision agg;             // strategy empty when the query aggregates not
  std::vector<ExplainOp> ops;  // filled by Optimizer::CostPlan
  Cost total;

  std::string ToString() const;
};

/// The compiler's historical physical choices: syntactic join order, Fetch
/// Matches when the inner's primary index is exactly the join attribute,
/// rehash otherwise. Fails if the inputs are not connected by equi-joins.
Result<std::vector<JoinStep>> DefaultJoinSteps(
    const std::vector<JoinInput>& inputs, const std::vector<JoinEdge>& edges);

class Optimizer {
 public:
  Optimizer(const StatsRegistry* stats, CostModel model)
      : stats_(stats), model_(std::move(model)) {}

  const StatsRegistry* stats() const { return stats_; }
  const CostModel& model() const { return model_; }

  /// The instant statistics are read "as of": arrival rates decay toward
  /// zero for tables that stopped publishing before `now`
  /// (StatsRegistry::SnapshotAt), so replanning stops chasing dead traffic.
  /// 0 (the default) reads raw, undecayed statistics.
  void set_now(TimeUs now) { now_ = now; }

  /// True when `table` has enough observed tuples to trust.
  bool HasUsableStats(const std::string& table) const;

  /// Choose join order and per-step strategy. Falls back to
  /// DefaultJoinSteps when any input lacks usable statistics. The Bloom
  /// rewrite is offered to snapshot plans only: its probe fetches the filter
  /// once, so it cannot prefilter a continuous stream.
  Result<std::vector<JoinStep>> PlanJoins(const std::vector<JoinInput>& inputs,
                                          const std::vector<JoinEdge>& edges,
                                          bool continuous) const;

  /// Choose flat vs hierarchical aggregation over `table`. Returns an empty
  /// strategy when stats are missing (caller keeps its default).
  AggDecision ChooseAggStrategy(const std::string& table,
                                size_t num_group_cols,
                                bool group_is_partition_key) const;

  /// Annotate a physical plan with per-operator cost estimates (works for
  /// SQL-compiled and hand-written UFL plans alike). Appends to out->ops and
  /// accumulates out->total. Graphs are costed in plan order, so rendezvous
  /// namespaces fed by earlier graphs carry their producers' cardinalities.
  void CostPlan(const QueryPlan& plan, PlanExplain* out) const;

 private:
  TableStats StatsFor(const JoinInput& input) const;
  TableStats SnapshotFor(const std::string& table) const;

  const StatsRegistry* stats_;
  CostModel model_;
  TimeUs now_ = 0;
};

}  // namespace pier

#endif  // PIER_OPT_OPTIMIZER_H_
