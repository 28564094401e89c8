// UFL: PIER's native dataflow language (§3.3.2).
//
// UFL queries are direct specifications of physical execution plans — "box
// and arrow" graphs in the spirit of Click configurations. The paper's
// Lighthouse GUI is out of scope; this text syntax is its equivalent:
//
//   query { timeout = 10s; window = 2s; continuous; }
//   graph g1 broadcast {
//     src:  scan      [ns=events];
//     sel:  selection [pred="sev >= 3 and contains(msg, 'deny')"];
//     agg:  groupby   [keys=src, aggs="count::cnt", mode=partial];
//     out:  put       [ns=stage1, key=src];
//     src -> sel -> agg -> out;
//   }
//   graph g2 equality(stage1, "k") { ... }
//   graph g3 local { ... }
//
// Parameter values may be bare words, numbers, or "quoted strings".
// Durations accept ms/s suffixes. Parameters named pred / key_expr /
// expr<i> / mexpr<i> are parsed as expressions and serialized; everything
// else is passed through as a string. Edges chain with "->" and an optional
// ":port" on the target (join inputs: ":0" left, ":1" right).

#ifndef PIER_QP_UFL_H_
#define PIER_QP_UFL_H_

#include <string>
#include <string_view>

#include "qp/opgraph.h"
#include "util/status.h"

namespace pier {

/// Parse a UFL program into a plan. query_id/proxy are left for SubmitQuery.
Result<QueryPlan> ParseUfl(const std::string& text);

/// A positive duration, SQL's and UFL's alike: an integer with an optional
/// unit suffix, "ms" or "s" in any case (none means milliseconds).
/// InvalidArgument for anything else, or for more than INT64_MAX
/// microseconds.
Result<TimeUs> ParseDuration(std::string_view text);

}  // namespace pier

#endif  // PIER_QP_UFL_H_
