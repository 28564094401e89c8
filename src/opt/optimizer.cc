#include "opt/optimizer.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <set>

namespace pier {

const char* JoinStrategyName(JoinStrategy s) {
  switch (s) {
    case JoinStrategy::kRehash: return "rehash";
    case JoinStrategy::kFetchMatches: return "fetch-matches";
    case JoinStrategy::kBloom: return "bloom";
  }
  return "?";
}

namespace {

bool FetchMatchesApplicable(const JoinInput& inner,
                            const std::string& inner_col) {
  return inner.partition_attrs.size() == 1 &&
         inner.partition_attrs[0] == inner_col;
}

double EstimateJoinRows(const TableStats& a, const TableStats& b) {
  double d = std::max(1.0, std::max(a.distinct, b.distinct));
  return static_cast<double>(a.tuples) * static_cast<double>(b.tuples) / d;
}

}  // namespace

Result<std::vector<JoinStep>> DefaultJoinSteps(
    const std::vector<JoinInput>& inputs, const std::vector<JoinEdge>& edges) {
  if (inputs.size() < 2)
    return Status::InvalidArgument("join planning needs at least two tables");
  std::vector<JoinStep> steps;
  std::vector<bool> joined(inputs.size(), false);
  std::vector<bool> used(edges.size(), false);
  joined[0] = true;
  for (size_t k = 1; k < inputs.size(); ++k) {
    int pick = -1;
    for (size_t e = 0; e < edges.size(); ++e) {
      if (used[e]) continue;
      if (joined[edges[e].a] == joined[edges[e].b]) continue;
      pick = static_cast<int>(e);
      break;
    }
    if (pick < 0) {
      return Status::NotSupported(
          "multi-table query needs equi-join predicates connecting every "
          "table");
    }
    const JoinEdge& e = edges[pick];
    used[pick] = true;
    JoinStep s;
    s.edge = pick;
    bool a_joined = joined[e.a];
    int outer_input = a_joined ? e.a : e.b;
    s.inner = a_joined ? e.b : e.a;
    s.outer = k == 1 ? outer_input : -1;
    s.outer_col = a_joined ? e.a_col : e.b_col;
    s.inner_col = a_joined ? e.b_col : e.a_col;
    s.outer_name = inputs[outer_input].table;
    s.inner_name = inputs[s.inner].table;
    s.strategy = FetchMatchesApplicable(inputs[s.inner], s.inner_col)
                     ? JoinStrategy::kFetchMatches
                     : JoinStrategy::kRehash;
    joined[s.inner] = true;
    steps.push_back(std::move(s));
  }
  return steps;
}

TableStats Optimizer::SnapshotFor(const std::string& table) const {
  // Read as of now_ when set: idle tables' arrival rates decay toward zero
  // instead of advertising traffic that no longer exists.
  return stats_->SnapshotAt(table, now_);
}

bool Optimizer::HasUsableStats(const std::string& table) const {
  if (stats_ == nullptr || !stats_->Has(table)) return false;
  return SnapshotFor(table).tuples >= model_.params().min_sample_tuples;
}

TableStats Optimizer::StatsFor(const JoinInput& input) const {
  TableStats st = SnapshotFor(input.table);
  if (input.filtered) {
    // A pushed-down selection of unknown selectivity shrinks the side.
    double sel = model_.params().default_selectivity;
    st.tuples = static_cast<uint64_t>(
        std::max(1.0, static_cast<double>(st.tuples) * sel));
    st.distinct = std::max(1.0, st.distinct * sel);
  }
  return st;
}

Result<std::vector<JoinStep>> Optimizer::PlanJoins(
    const std::vector<JoinInput>& inputs, const std::vector<JoinEdge>& edges,
    bool continuous) const {
  if (inputs.size() < 2)
    return Status::InvalidArgument("join planning needs at least two tables");
  for (const JoinInput& in : inputs) {
    if (!HasUsableStats(in.table)) return DefaultJoinSteps(inputs, edges);
  }

  std::vector<TableStats> st;
  st.reserve(inputs.size());
  for (const JoinInput& in : inputs) st.push_back(StatsFor(in));

  // Every strategy applicable to (outer -> inner); rehash always works,
  // Fetch Matches needs the inner published on the join attribute, the Bloom
  // rewrite (snapshot plans only) builds the filter over the inner and
  // prunes the outer.
  auto candidates = [&](const TableStats& outer_st, int inner_idx,
                        const std::string& inner_col) {
    std::vector<std::pair<JoinStrategy, Cost>> v;
    const TableStats& inner_st = st[inner_idx];
    v.emplace_back(JoinStrategy::kRehash,
                   model_.RehashJoin(outer_st, inner_st));
    if (FetchMatchesApplicable(inputs[inner_idx], inner_col)) {
      v.emplace_back(JoinStrategy::kFetchMatches,
                     model_.FetchMatchesJoin(outer_st, inner_st));
    }
    if (!continuous) {
      v.emplace_back(JoinStrategy::kBloom,
                     model_.BloomJoin(outer_st, inner_st));
    }
    return v;
  };
  auto best_of = [&](const std::vector<std::pair<JoinStrategy, Cost>>& v) {
    size_t best = 0;
    for (size_t i = 1; i < v.size(); ++i) {
      if (model_.Total(v[i].second) < model_.Total(v[best].second)) best = i;
    }
    return best;
  };

  std::vector<JoinStep> steps;
  std::vector<bool> joined(inputs.size(), false);
  std::vector<bool> used(edges.size(), false);
  TableStats cur;  // running intermediate

  // First step: every edge, both orientations.
  {
    int best_edge = -1, best_outer = 0;
    std::vector<std::pair<JoinStrategy, Cost>> best_cands;
    size_t best_choice = 0;
    double best_total = 0;
    for (size_t e = 0; e < edges.size(); ++e) {
      const JoinEdge& je = edges[e];
      for (int flip = 0; flip < 2; ++flip) {
        int o = flip ? je.b : je.a;
        int i = flip ? je.a : je.b;
        const std::string& icol = flip ? je.a_col : je.b_col;
        auto v = candidates(st[o], i, icol);
        size_t c = best_of(v);
        double total = model_.Total(v[c].second);
        if (best_edge < 0 || total < best_total) {
          best_edge = static_cast<int>(e);
          best_outer = o;
          best_cands = std::move(v);
          best_choice = c;
          best_total = total;
        }
      }
    }
    if (best_edge < 0) {
      return Status::NotSupported(
          "multi-table query needs equi-join predicates connecting every "
          "table");
    }
    const JoinEdge& je = edges[best_edge];
    bool outer_is_a = best_outer == je.a;
    JoinStep s;
    s.edge = best_edge;
    s.outer = best_outer;
    s.inner = outer_is_a ? je.b : je.a;
    s.outer_col = outer_is_a ? je.a_col : je.b_col;
    s.inner_col = outer_is_a ? je.b_col : je.a_col;
    s.outer_name = inputs[s.outer].table;
    s.inner_name = inputs[s.inner].table;
    s.strategy = best_cands[best_choice].first;
    s.cost = best_cands[best_choice].second;
    s.alternatives = std::move(best_cands);
    s.stats_based = true;
    s.est_rows = EstimateJoinRows(st[s.outer], st[s.inner]);
    used[best_edge] = true;
    joined[s.outer] = joined[s.inner] = true;
    cur.tuples = static_cast<uint64_t>(std::max(1.0, s.est_rows));
    cur.distinct = std::max(1.0, s.est_rows);
    cur.mean_bytes = st[s.outer].mean_bytes + st[s.inner].mean_bytes;
    steps.push_back(std::move(s));
  }

  // Remaining steps: cheapest connected input next; the intermediate is
  // always the probing/probed side (it is never published under an index).
  while (steps.size() + 1 < inputs.size()) {
    int best_edge = -1;
    std::vector<std::pair<JoinStrategy, Cost>> best_cands;
    size_t best_choice = 0;
    double best_total = 0;
    for (size_t e = 0; e < edges.size(); ++e) {
      if (used[e]) continue;
      const JoinEdge& je = edges[e];
      if (joined[je.a] == joined[je.b]) continue;
      int inner = joined[je.a] ? je.b : je.a;
      const std::string& icol = joined[je.a] ? je.b_col : je.a_col;
      auto v = candidates(cur, inner, icol);
      size_t c = best_of(v);
      double total = model_.Total(v[c].second);
      if (best_edge < 0 || total < best_total) {
        best_edge = static_cast<int>(e);
        best_cands = std::move(v);
        best_choice = c;
        best_total = total;
      }
    }
    if (best_edge < 0) {
      return Status::NotSupported(
          "multi-table query needs equi-join predicates connecting every "
          "table");
    }
    const JoinEdge& je = edges[best_edge];
    bool a_joined = joined[je.a];
    JoinStep s;
    s.edge = best_edge;
    s.outer = -1;
    s.inner = a_joined ? je.b : je.a;
    s.outer_col = a_joined ? je.a_col : je.b_col;
    s.inner_col = a_joined ? je.b_col : je.a_col;
    s.outer_name = "(intermediate)";
    s.inner_name = inputs[s.inner].table;
    s.strategy = best_cands[best_choice].first;
    s.cost = best_cands[best_choice].second;
    s.alternatives = std::move(best_cands);
    s.stats_based = true;
    s.est_rows = EstimateJoinRows(cur, st[s.inner]);
    used[best_edge] = true;
    joined[s.inner] = true;
    cur.mean_bytes += st[s.inner].mean_bytes;
    cur.tuples = static_cast<uint64_t>(std::max(1.0, s.est_rows));
    cur.distinct = std::max(1.0, s.est_rows);
    steps.push_back(std::move(s));
  }
  return steps;
}

AggDecision Optimizer::ChooseAggStrategy(const std::string& table,
                                         size_t num_group_cols,
                                         bool group_is_partition_key) const {
  AggDecision d;
  if (!HasUsableStats(table)) return d;
  TableStats st = SnapshotFor(table);
  double groups =
      num_group_cols == 0
          ? 1.0
          : group_is_partition_key
                ? std::max(1.0, st.distinct)
                : std::max(1.0, std::sqrt(static_cast<double>(st.tuples)));
  Cost flat = model_.FlatAgg(st, groups);
  Cost hier = model_.HierAgg(st, groups);
  d.alternatives = {{"flat", flat}, {"hier", hier}};
  d.stats_based = true;
  if (model_.Total(hier) < model_.Total(flat)) {
    d.strategy = "hier";
    d.cost = hier;
  } else {
    d.strategy = "flat";
    d.cost = flat;
  }
  return d;
}

// ---------------------------------------------------------------------------
// Per-operator plan costing
// ---------------------------------------------------------------------------

namespace {

/// Rough wire size of one opgraph (dissemination payload estimate).
double GraphWireBytes(const OpGraph& g) {
  double size = 32;
  for (const OpSpec& op : g.ops) {
    size += 16;
    for (const auto& [k, v] : op.params) size += k.size() + v.size() + 8;
  }
  size += 8.0 * g.edges.size();
  return size;
}

std::string OpLabel(const OpSpec& op) {
  std::string label = OpKindName(op.kind);
  std::string target = op.GetString("ns");
  if (target.empty()) target = op.GetString("table");
  if (!target.empty()) label += "[" + target + "]";
  return label;
}

}  // namespace

void Optimizer::CostPlan(const QueryPlan& plan, PlanExplain* out) const {
  out->query_id = plan.query_id;
  const CostParams& p = model_.params();
  double n = p.nodes;
  double h = model_.Hops();
  // Rows/bytes flowing into each rendezvous namespace, accumulated from the
  // producing graphs (the compiler lists producers before consumers).
  std::map<std::string, std::pair<double, double>> produced;  // rows, unit B

  for (const OpGraph& g : plan.graphs) {
    Cost dissem;
    double wire = GraphWireBytes(g);
    switch (g.dissem) {
      case DissemKind::kBroadcast:
        dissem = Cost{n, n * wire};
        break;
      case DissemKind::kEquality:
      case DissemKind::kRange:
        dissem = Cost{h, h * wire};
        break;
      case DissemKind::kLocal:
        break;
    }
    out->ops.push_back(ExplainOp{g.id, 0, "disseminate", 0, dissem});
    out->total += dissem;

    // Topological pass over the graph's operators.
    std::map<uint32_t, std::vector<uint32_t>> succ;
    std::map<uint32_t, int> indeg;
    for (const OpSpec& op : g.ops) indeg[op.id] = 0;
    for (const GraphEdge& e : g.edges) {
      succ[e.from].push_back(e.to);
      indeg[e.to]++;
    }
    std::map<uint32_t, double> rows, unit_bytes;
    std::deque<uint32_t> ready;
    for (const OpSpec& op : g.ops) {
      if (indeg[op.id] == 0) ready.push_back(op.id);
    }
    std::map<uint32_t, double> in_rows, in_bytes_weighted;
    while (!ready.empty()) {
      uint32_t id = ready.front();
      ready.pop_front();
      const OpSpec* op = g.FindOp(id);
      if (op == nullptr) continue;
      double in_r = in_rows[id];
      double in_b =
          in_r > 0 ? in_bytes_weighted[id] / in_r : in_bytes_weighted[id];
      double out_r = in_r;
      double out_b = in_b;
      Cost cost;
      switch (op->kind) {
        case OpKind::kScan:
        case OpKind::kNewData: {
          std::string ns = op->GetString("ns");
          auto pit = produced.find(ns);
          if (pit != produced.end()) {
            out_r = pit->second.first;
            out_b = pit->second.second;
          } else if (stats_ != nullptr && stats_->Has(ns)) {
            TableStats st = SnapshotFor(ns);
            out_r = static_cast<double>(st.tuples);
            out_b = st.mean_bytes;
          } else {
            out_r = 0;
            out_b = 64;
          }
          break;
        }
        case OpKind::kSelection:
          out_r = in_r * p.default_selectivity;
          break;
        case OpKind::kLimit:
        case OpKind::kTopK:
          out_r = std::min(in_r, static_cast<double>(op->GetInt("k", 10)));
          break;
        case OpKind::kGroupBy: {
          double groups = std::max(1.0, std::sqrt(in_r));
          out_r = op->GetString("mode", "partial") == "final"
                      ? groups
                      : std::min(in_r, groups * std::min(n, in_r));
          break;
        }
        case OpKind::kHierAgg: {
          TableStats st;
          st.tuples = static_cast<uint64_t>(in_r);
          st.mean_bytes = in_b;
          double groups = std::max(1.0, std::sqrt(in_r));
          cost = model_.HierAgg(st, groups);
          out_r = groups;
          break;
        }
        case OpKind::kFetchMatches: {
          std::string table = op->GetString("table");
          if (stats_ != nullptr && stats_->Has(table)) {
            TableStats st = SnapshotFor(table);
            double m =
                static_cast<double>(st.tuples) / std::max(1.0, st.distinct);
            cost = model_.DhtGet(in_r, m * st.mean_bytes);
            out_r = in_r * m;
            out_b = in_b + st.mean_bytes;
          } else {
            cost = model_.DhtGet(in_r, 64);
          }
          break;
        }
        case OpKind::kPut: {
          cost = model_.DhtPut(in_r, in_b);
          auto& slot = produced[op->GetString("ns")];
          slot.second = slot.first + in_r > 0
                            ? (slot.second * slot.first + in_b * in_r) /
                                  (slot.first + in_r)
                            : in_b;
          slot.first += in_r;
          out_r = 0;  // sink
          break;
        }
        case OpKind::kBloomCreate: {
          double filter_bytes =
              static_cast<double>(op->GetInt("bits", 8192)) / 8.0;
          double contributors = std::min(n, std::max(1.0, in_r));
          cost = Cost{contributors, contributors * filter_bytes};
          out_r = 0;  // filter, not tuples
          break;
        }
        case OpKind::kBloomProbe: {
          double filter_bytes = p.bloom_bits / 8.0;
          double fetchers = std::min(n, std::max(1.0, in_r));
          cost = model_.DhtGet(fetchers, filter_bytes);
          out_r = in_r * 0.5;  // pass rate unknown at this level
          break;
        }
        case OpKind::kResult:
          cost = Cost{in_r, in_r * in_b};
          break;
        default:
          break;  // local pass-through
      }
      rows[id] = out_r;
      unit_bytes[id] = out_b;
      out->ops.push_back(ExplainOp{g.id, id, OpLabel(*op), out_r, cost});
      out->total += cost;
      for (uint32_t next : succ[id]) {
        in_rows[next] += out_r;
        in_bytes_weighted[next] += out_b * out_r;
        if (--indeg[next] == 0) ready.push_back(next);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// PlanExplain rendering
// ---------------------------------------------------------------------------

std::string PlanExplain::ToString() const {
  std::string s = "EXPLAIN q" + std::to_string(query_id) + "\n";
  for (size_t i = 0; i < joins.size(); ++i) {
    const JoinStep& j = joins[i];
    s += "  join " + std::to_string(i + 1) + ": " + j.outer_name + "." +
         j.outer_col + " = " + j.inner_name + "." + j.inner_col + "  [" +
         JoinStrategyName(j.strategy) +
         (j.stats_based ? "" : ", compiler default") + "]";
    if (j.est_rows > 0) {
      s += "  est " + std::to_string(static_cast<int64_t>(j.est_rows)) +
           " rows";
    }
    if (j.cost.messages > 0 || j.cost.bytes > 0) {
      s += "  cost " + j.cost.ToString();
    }
    s += "\n";
    for (const auto& [strategy, cost] : j.alternatives) {
      if (strategy == j.strategy) continue;
      s += "      vs " + std::string(JoinStrategyName(strategy)) + ": " +
           cost.ToString() + "\n";
    }
  }
  if (!agg.strategy.empty()) {
    s += "  aggregation: " + agg.strategy +
         (agg.stats_based ? "" : " (compiler default)") + "  cost " +
         agg.cost.ToString() + "\n";
    for (const auto& [strategy, cost] : agg.alternatives) {
      if (strategy == agg.strategy) continue;
      s += "      vs " + strategy + ": " + cost.ToString() + "\n";
    }
  }
  if (!ops.empty()) {
    s += "  operators:\n";
    for (const ExplainOp& op : ops) {
      s += "    g" + std::to_string(op.graph_id) + "/" +
           std::to_string(op.op_id) + " " + op.op;
      if (op.op_id != 0) {
        s += "  -> est " + std::to_string(static_cast<int64_t>(op.est_rows)) +
             " rows";
      }
      if (op.cost.messages > 0 || op.cost.bytes > 0) {
        s += ", " + op.cost.ToString();
      }
      s += "\n";
    }
  }
  s += "  total: " + total.ToString() + "\n";
  return s;
}

}  // namespace pier
