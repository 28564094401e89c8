// The cost-based plan optimizer: the one place a physical plan is chosen.
//
// PIER deliberately ships several physical implementations per logical
// operator (§3.3.4). The Optimizer chooses between them, using
// StatsRegistry statistics and the network CostModel:
//
//   - join strategy per join: rehash-both (symmetric hash), per-probe Fetch
//     Matches (only when the inner's primary index IS the join attribute),
//     or (snapshot plans only) a Bloom semi-join prefilter in front of the
//     rehash;
//   - join order for multi-way joins (greedy, cheapest next);
//   - flat two-phase vs hierarchical (tree) aggregation;
//   - for a running continuous query, whether a freshly planned candidate
//     is worth swapping in (Consider).
//
// With no statistics, or fewer observed tuples than the model trusts
// (CostParams::min_sample_tuples), the same planner makes the compiler's
// historical choices: syntactic join order, Fetch Matches when the inner's
// primary index is the join attribute (rehash otherwise), flat aggregation.

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
  std::string strategy;  // "flat" | "hier"
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

  /// The strategy fingerprint: join order + per-join strategy +
  /// aggregation strategy. Cost numbers are deliberately excluded, so
  /// drifting estimates that confirm the same plan never churn a running
  /// query.
  std::string Fingerprint() const;
};

/// What one replan check concluded.
struct ReplanDecision {
  bool swap = false;              // replace the running plan now
  bool strategy_changed = false;  // fingerprints differ
  double current_total = 0;  // running plan recosted under current stats
  double fresh_total = 0;    // candidate plan under the same stats
  double ratio = 0;          // current_total / fresh_total (0 if both free)
};

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

  /// Choose join order and per-step strategy. When any input lacks usable
  /// statistics, every step is the historical default (stats_based false,
  /// no cost). The Bloom rewrite is offered to snapshot plans only: its
  /// probe fetches the filter once, so it cannot prefilter a continuous
  /// stream. Fails if the inputs are not connected by equi-joins.
  Result<std::vector<JoinStep>> PlanJoins(const std::vector<JoinInput>& inputs,
                                          const std::vector<JoinEdge>& edges,
                                          bool continuous) const;

  /// Choose flat vs hierarchical aggregation over `table`: flat, not
  /// stats-based, when stats are missing.
  AggDecision ChooseAggStrategy(const std::string& table,
                                size_t num_group_cols,
                                bool group_is_partition_key) const;

  /// Annotate a physical plan with per-operator cost estimates (works for
  /// SQL-compiled and hand-written UFL plans alike). Appends to out->ops and
  /// accumulates out->total. Graphs are costed in plan order, so rendezvous
  /// namespaces fed by earlier graphs carry their producers' cardinalities.
  void CostPlan(const QueryPlan& plan, PlanExplain* out) const;

  /// Continuous-query replanning (the CACQ/eddies idea at plan
  /// granularity): compare the running plan, identified by the fingerprint
  /// captured when it was compiled, against a freshly optimized candidate.
  /// Both are costed with CostPlan under the current statistics, and the
  /// candidate is swapped in when its strategy differs and
  /// cost(current) / cost(candidate) >= min_cost_ratio, so marginal wins do
  /// not pay the swap's re-dissemination and state rebuild.
  ReplanDecision Consider(const QueryPlan& current,
                          const std::string& current_fingerprint,
                          const QueryPlan& fresh,
                          const PlanExplain& fresh_explain,
                          double min_cost_ratio) const;

 private:
  TableStats StatsFor(const JoinInput& input) const;
  TableStats SnapshotFor(const std::string& table) const;

  const StatsRegistry* stats_;
  CostModel model_;
  TimeUs now_ = 0;
};

}  // namespace pier

#endif  // PIER_OPT_OPTIMIZER_H_
