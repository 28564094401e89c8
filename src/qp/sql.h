// The SQL-like front end (§3.3.2 footnote 5, §4.2).
//
// PIER has no system catalog, so the application "bakes in" the metadata the
// compiler needs (§4.2.1): for each table, the attributes it was partitioned
// on when published (its primary index). Selections are pushed into the scan
// graphs and equality predicates on a partition key turn broadcast
// dissemination into a targeted one.
//
// Physical choices — join strategy (rehash symmetric-hash vs Fetch Matches
// vs Bloom-prefiltered rehash), join order for multi-way joins, and flat vs
// hierarchical aggregation — are made by SqlOptions::optimizer. The default
// one has no statistics and plans the historical defaults: syntactic join
// order, Fetch Matches when the inner's primary index matches the join
// attribute (rehash otherwise), flat two-phase aggregation.
//
// Grammar (keywords case-insensitive):
//
//   SELECT item [, item]*
//   FROM table [alias] [, table [alias]]*
//   [WHERE expr]
//   [GROUP BY col [, col]*]
//   [ORDER BY col [ASC|DESC]]
//   [LIMIT n]
//   [TIMEOUT n{ms|s}] [WINDOW n{ms|s}] [CONTINUOUS]
//
//   item := * | col | agg '(' col | * ')' [AS alias]
//   agg  := COUNT | SUM | MIN | MAX | AVG

#ifndef PIER_QP_SQL_H_
#define PIER_QP_SQL_H_

#include <map>
#include <string>
#include <vector>

#include "opt/optimizer.h"
#include "qp/opgraph.h"
#include "util/status.h"

namespace pier {

/// Application-provided metadata standing in for the missing catalog.
struct TableHint {
  /// Attributes the table is partitioned on in the DHT (primary index).
  std::vector<std::string> partition_attrs;
};

struct SqlOptions {
  std::map<std::string, TableHint> tables;
  /// "hier": aggregate over the aggregation tree; "flat": two-phase
  /// partial/final rehash aggregation; "auto": let the optimizer choose
  /// (falls back to flat without usable statistics). Anything else is an
  /// InvalidArgument.
  std::string agg_strategy = "auto";
  /// Cost-based physical planning (join strategy/order, auto aggregation).
  /// The default has no statistics, so it plans the historical defaults.
  Optimizer optimizer{nullptr, CostModel()};
  /// Nonzero pins the plan's query id (tests and plan comparisons); 0 mints
  /// a fresh process-unique id.
  uint64_t query_id = 0;
};

/// Compile a SQL string into a query plan. The plan's query_id/proxy are
/// filled in by QueryProcessor::SubmitQuery. A non-null `explain` receives
/// the optimizer's decisions (join order/strategies, aggregation choice).
Result<QueryPlan> CompileSql(const std::string& sql, const SqlOptions& options,
                             PlanExplain* explain = nullptr);

}  // namespace pier

#endif  // PIER_QP_SQL_H_
