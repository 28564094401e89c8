#include "opt/optimizer.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <optional>

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
  std::vector<TableStats> st;
  for (const JoinInput& in : inputs) {
    if (HasUsableStats(in.table)) st.push_back(StatsFor(in));
  }
  bool costed = st.size() == inputs.size();

  // Greedy: each step joins an unjoined input over an edge whose other end
  // is joined (any edge, either way round, while nothing is). The cheapest
  // step wins, ties going to the first in (edge, orientation) order; after
  // the first step the intermediate is always the outer (it is never
  // published under an index). Without statistics every step costs 0 and
  // the first FROM table starts joined: the syntactic order, Fetch Matches
  // where the inner's primary index is the join attribute, rehash otherwise.
  std::vector<JoinStep> steps;
  std::vector<bool> joined(inputs.size(), false);
  if (!costed) joined[0] = true;
  TableStats cur;  // running intermediate
  while (steps.size() + 1 < inputs.size()) {
    bool none_joined = steps.empty() && costed;
    std::optional<JoinStep> best;
    double best_total = 0;
    for (size_t e = 0; e < edges.size(); ++e) {
      const JoinEdge& je = edges[e];
      for (int flip = 0; flip < 2; ++flip) {
        int o = flip ? je.b : je.a;
        int i = flip ? je.a : je.b;
        if (joined[i] || !(joined[o] || none_joined)) continue;
        JoinStep s;
        s.edge = static_cast<int>(e);
        s.outer = steps.empty() ? o : -1;
        s.inner = i;
        s.outer_col = flip ? je.b_col : je.a_col;
        s.inner_col = flip ? je.a_col : je.b_col;
        s.outer_name = inputs[o].table;
        s.inner_name = inputs[i].table;
        bool fetch = FetchMatchesApplicable(inputs[i], s.inner_col);
        double total = 0;
        if (costed) {
          if (!steps.empty()) s.outer_name = "(intermediate)";
          // Rehash always works, Fetch Matches needs the inner published on
          // the join attribute, and the Bloom rewrite (snapshot plans only)
          // builds the filter over the inner and prunes the outer.
          const TableStats& outer_st = steps.empty() ? st[o] : cur;
          auto& alts = s.alternatives;
          alts.emplace_back(JoinStrategy::kRehash,
                            model_.RehashJoin(outer_st, st[i]));
          if (fetch) {
            alts.emplace_back(JoinStrategy::kFetchMatches,
                              model_.FetchMatchesJoin(outer_st, st[i]));
          }
          if (!continuous) {
            alts.emplace_back(JoinStrategy::kBloom,
                              model_.BloomJoin(outer_st, st[i]));
          }
          s.cost = alts[0].second;
          for (const auto& [strategy, cost] : alts) {
            if (model_.Total(cost) < model_.Total(s.cost)) {
              s.strategy = strategy;
              s.cost = cost;
            }
          }
          s.stats_based = true;
          s.est_rows = EstimateJoinRows(outer_st, st[i]);
          total = model_.Total(s.cost);
        } else if (fetch) {
          s.strategy = JoinStrategy::kFetchMatches;
        }
        if (!best || total < best_total) {
          best = std::move(s);
          best_total = total;
        }
      }
    }
    if (!best) {
      return Status::NotSupported(
          "multi-table query needs equi-join predicates connecting every "
          "table");
    }
    if (costed) {
      cur.mean_bytes = (steps.empty() ? st[best->outer] : cur).mean_bytes +
                       st[best->inner].mean_bytes;
      cur.tuples = static_cast<uint64_t>(std::max(1.0, best->est_rows));
      cur.distinct = std::max(1.0, best->est_rows);
    }
    if (best->outer >= 0) joined[best->outer] = true;
    joined[best->inner] = true;
    steps.push_back(std::move(*best));
  }
  return steps;
}

AggDecision Optimizer::ChooseAggStrategy(const std::string& table,
                                         size_t num_group_cols,
                                         bool group_is_partition_key) const {
  AggDecision d;
  d.strategy = "flat";
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

ReplanDecision Optimizer::Consider(const QueryPlan& current,
                                   const std::string& current_fingerprint,
                                   const QueryPlan& fresh,
                                   const PlanExplain& fresh_explain,
                                   double min_cost_ratio) const {
  ReplanDecision d;
  d.strategy_changed = fresh_explain.Fingerprint() != current_fingerprint;
  if (!d.strategy_changed) return d;

  // Same statistics, both plans: the ratio compares like with like.
  PlanExplain cur_cost;
  CostPlan(current, &cur_cost);
  PlanExplain fresh_cost;
  CostPlan(fresh, &fresh_cost);
  d.current_total = model_.Total(cur_cost.total);
  d.fresh_total = model_.Total(fresh_cost.total);
  if (d.fresh_total > 0) {
    d.ratio = d.current_total / d.fresh_total;
  } else {
    // A free candidate beats any positive cost; two free plans tie.
    d.ratio = d.current_total > 0 ? std::numeric_limits<double>::infinity()
                                  : 0;
  }
  d.swap = d.ratio >= min_cost_ratio;
  return d;
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

std::string PlanExplain::Fingerprint() const {
  std::string fp;
  for (const JoinStep& j : joins) {
    fp += j.outer_name + "." + j.outer_col + "><" + j.inner_name + "." +
          j.inner_col + ":" + JoinStrategyName(j.strategy) + ";";
  }
  if (!agg.strategy.empty()) fp += "agg:" + agg.strategy + ";";
  return fp;
}

}  // namespace pier
