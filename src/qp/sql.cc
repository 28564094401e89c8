#include "qp/sql.h"

#include "qp/agg_state.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <set>

#include "opt/optimizer.h"
#include "qp/ufl.h"
#include "util/hash.h"

namespace pier {

namespace {

/// The timeout of a query that names none.
constexpr TimeUs kDefaultTimeout = 20 * kSecond;

// ---------------------------------------------------------------------------
// Lexical helpers
// ---------------------------------------------------------------------------

std::string Lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(c));
  return out;
}

std::string Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

/// Find the first top-level (outside quotes and parens) occurrence of the
/// keyword `kw` (which may contain a space, e.g. "group by") at a word
/// boundary. Returns npos if absent.
size_t FindKeyword(std::string_view text, std::string_view kw,
                   size_t from = 0) {
  int depth = 0;
  bool in_str = false;
  for (size_t i = from; i + kw.size() <= text.size(); ++i) {
    char c = text[i];
    if (in_str) {
      if (c == '\'') in_str = false;
      continue;
    }
    if (c == '\'') {
      in_str = true;
      continue;
    }
    if (c == '(') depth++;
    if (c == ')') depth--;
    if (depth > 0) continue;
    bool match = true;
    for (size_t j = 0; j < kw.size(); ++j) {
      char a = static_cast<char>(
          std::tolower(static_cast<unsigned char>(text[i + j])));
      char b = kw[j];
      if (b == ' ') {
        if (!std::isspace(static_cast<unsigned char>(text[i + j]))) {
          match = false;
          break;
        }
      } else if (a != b) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    bool left_ok =
        i == 0 || !std::isalnum(static_cast<unsigned char>(text[i - 1]));
    size_t end = i + kw.size();
    bool right_ok = end >= text.size() ||
                    !std::isalnum(static_cast<unsigned char>(text[end]));
    if (left_ok && right_ok) return i;
  }
  return std::string_view::npos;
}

/// Split on top-level commas.
std::vector<std::string> SplitTopLevel(std::string_view text) {
  std::vector<std::string> out;
  int depth = 0;
  bool in_str = false;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i < text.size()) {
      char c = text[i];
      if (in_str) {
        if (c == '\'') in_str = false;
        continue;
      }
      if (c == '\'') {
        in_str = true;
        continue;
      }
      if (c == '(') depth++;
      if (c == ')') depth--;
      if (c != ',' || depth > 0) continue;
    }
    std::string part = Trim(text.substr(start, i - start));
    if (!part.empty()) out.push_back(std::move(part));
    start = i + 1;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Expression rewriting
// ---------------------------------------------------------------------------

void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->kind() == ExprKind::kLogic && e->logic_op() == LogicOp::kAnd) {
    SplitConjuncts(e->children()[0], out);
    SplitConjuncts(e->children()[1], out);
    return;
  }
  out->push_back(e);
}

ExprPtr JoinConjuncts(const std::vector<ExprPtr>& conjuncts) {
  if (conjuncts.empty()) return nullptr;
  ExprPtr e = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) e = Expr::And(e, conjuncts[i]);
  return e;
}

/// Rebuild an expression with every column name passed through `rename`.
ExprPtr RewriteColumns(
    const ExprPtr& e,
    const std::function<std::string(const std::string&)>& rename) {
  switch (e->kind()) {
    case ExprKind::kConst:
      return e;
    case ExprKind::kColumn:
      return Expr::Column(rename(e->column_name()));
    case ExprKind::kCmp:
      return Expr::Cmp(e->cmp_op(), RewriteColumns(e->children()[0], rename),
                       RewriteColumns(e->children()[1], rename));
    case ExprKind::kLogic:
      if (e->logic_op() == LogicOp::kNot)
        return Expr::Not(RewriteColumns(e->children()[0], rename));
      return e->logic_op() == LogicOp::kAnd
                 ? Expr::And(RewriteColumns(e->children()[0], rename),
                             RewriteColumns(e->children()[1], rename))
                 : Expr::Or(RewriteColumns(e->children()[0], rename),
                            RewriteColumns(e->children()[1], rename));
    case ExprKind::kArith:
      return Expr::Arith(e->arith_op(),
                         RewriteColumns(e->children()[0], rename),
                         RewriteColumns(e->children()[1], rename));
    case ExprKind::kFunc: {
      std::vector<ExprPtr> args;
      for (const ExprPtr& c : e->children())
        args.push_back(RewriteColumns(c, rename));
      return Expr::Func(e->func_name(), std::move(args));
    }
  }
  return e;
}

/// Table prefix of a dotted column ("e.src" -> "e"), or "" if undotted.
std::string ColumnPrefix(const std::string& name) {
  size_t dot = name.find('.');
  return dot == std::string::npos ? std::string() : name.substr(0, dot);
}

std::string StripPrefix(const std::string& name) {
  size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(dot + 1);
}

// ---------------------------------------------------------------------------
// Parsed query structure
// ---------------------------------------------------------------------------

struct SelectItem {
  bool star = false;
  bool is_agg = false;
  AggFunc func = AggFunc::kCount;
  std::string col;    // "" for count(*)
  std::string alias;  // output name
};

struct FromTable {
  std::string table;
  std::string alias;
};

struct ParsedSql {
  std::vector<SelectItem> items;
  std::vector<FromTable> from;
  ExprPtr where;  // null if absent
  std::vector<std::string> group_by;
  std::string order_col;
  bool order_desc = false;
  int64_t limit = -1;
  TimeUs timeout = 0;
  TimeUs window = 0;
  bool continuous = false;
};

Result<SelectItem> ParseSelectItem(const std::string& raw) {
  SelectItem item;
  std::string text = Trim(raw);
  // Optional "AS alias" suffix.
  size_t as_pos = FindKeyword(text, "as");
  if (as_pos != std::string::npos) {
    item.alias = Trim(text.substr(as_pos + 2));
    text = Trim(text.substr(0, as_pos));
  }
  if (text == "*") {
    item.star = true;
    return item;
  }
  size_t paren = text.find('(');
  if (paren != std::string::npos) {
    std::string fn = Lower(Trim(text.substr(0, paren)));
    size_t close = text.rfind(')');
    if (close == std::string::npos || close < paren)
      return Status::InvalidArgument("unbalanced parens in '" + raw + "'");
    std::string arg = Trim(text.substr(paren + 1, close - paren - 1));
    item.is_agg = true;
    PIER_ASSIGN_OR_RETURN(item.func, ParseAggFunc(fn));
    item.col = arg == "*" ? "" : StripPrefix(arg);
    if (item.alias.empty()) {
      item.alias = fn + (item.col.empty() ? "" : "_" + item.col);
    }
    return item;
  }
  item.col = text;  // prefix stripped later, once aliases are known
  if (item.alias.empty()) item.alias = StripPrefix(text);
  return item;
}

Result<ParsedSql> Parse(const std::string& sql) {
  ParsedSql q;
  std::string text = Trim(sql);
  if (!text.empty() && text.back() == ';') text.pop_back();

  size_t sel = FindKeyword(text, "select");
  if (sel != 0) return Status::InvalidArgument("query must start with SELECT");
  size_t from = FindKeyword(text, "from");
  if (from == std::string_view::npos)
    return Status::InvalidArgument("missing FROM");

  struct ClausePos {
    const char* kw;
    size_t pos;
  };
  size_t where = FindKeyword(text, "where", from);
  size_t group = FindKeyword(text, "group by", from);
  size_t order = FindKeyword(text, "order by", from);
  size_t limit = FindKeyword(text, "limit", from);
  size_t timeout = FindKeyword(text, "timeout", from);
  size_t window = FindKeyword(text, "window", from);
  size_t continuous = FindKeyword(text, "continuous", from);

  auto clause_end = [&](size_t start) {
    size_t end = text.size();
    for (size_t p : {where, group, order, limit, timeout, window, continuous}) {
      if (p != std::string_view::npos && p > start) end = std::min(end, p);
    }
    return end;
  };

  // SELECT list.
  for (const std::string& part :
       SplitTopLevel(text.substr(6, from - 6))) {
    PIER_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem(part));
    q.items.push_back(std::move(item));
  }
  if (q.items.empty()) return Status::InvalidArgument("empty SELECT list");

  // FROM list.
  size_t from_end = clause_end(from + 4);
  for (const std::string& part :
       SplitTopLevel(text.substr(from + 4, from_end - from - 4))) {
    FromTable ft;
    size_t sp = part.find(' ');
    if (sp == std::string::npos) {
      ft.table = part;
      ft.alias = part;
    } else {
      ft.table = Trim(part.substr(0, sp));
      ft.alias = Trim(part.substr(sp + 1));
    }
    q.from.push_back(std::move(ft));
  }
  if (q.from.empty()) return Status::NotSupported("FROM must name a table");

  if (where != std::string_view::npos) {
    size_t end = clause_end(where + 5);
    PIER_ASSIGN_OR_RETURN(q.where,
                          ParseExpr(text.substr(where + 5, end - where - 5)));
  }
  if (group != std::string_view::npos) {
    size_t end = clause_end(group + 8);
    for (const std::string& col :
         SplitTopLevel(text.substr(group + 8, end - group - 8))) {
      q.group_by.push_back(StripPrefix(col));
    }
  }
  if (order != std::string_view::npos) {
    size_t end = clause_end(order + 8);
    std::string clause = Trim(text.substr(order + 8, end - order - 8));
    size_t sp = clause.find(' ');
    if (sp != std::string::npos) {
      std::string dir = Lower(Trim(clause.substr(sp + 1)));
      if (dir == "desc") {
        q.order_desc = true;
      } else if (dir != "asc") {
        return Status::InvalidArgument("bad ORDER BY direction '" + dir + "'");
      }
      clause = Trim(clause.substr(0, sp));
    }
    q.order_col = StripPrefix(clause);
  }
  if (limit != std::string_view::npos) {
    size_t end = clause_end(limit + 5);
    q.limit = std::strtoll(
        Trim(text.substr(limit + 5, end - limit - 5)).c_str(), nullptr, 10);
    if (q.limit <= 0) return Status::InvalidArgument("bad LIMIT");
  }
  if (timeout != std::string_view::npos) {
    size_t end = clause_end(timeout + 7);
    PIER_ASSIGN_OR_RETURN(
        q.timeout,
        ParseDuration(Trim(text.substr(timeout + 7, end - timeout - 7))));
  }
  if (window != std::string_view::npos) {
    size_t end = clause_end(window + 6);
    PIER_ASSIGN_OR_RETURN(
        q.window,
        ParseDuration(Trim(text.substr(window + 6, end - window - 6))));
  }
  q.continuous = continuous != std::string_view::npos;
  return q;
}

// ---------------------------------------------------------------------------
// Plan assembly
// ---------------------------------------------------------------------------

/// Process-unique query ids. SubmitQuery keeps a nonzero id, and the
/// compiler needs one early so rendezvous namespaces ("q<id>.x") can be
/// baked into operator parameters.
uint64_t NextQueryId(const std::string& sql) {
  static std::atomic<uint64_t> counter{1};
  uint64_t c = counter.fetch_add(1);
  uint64_t id = HashCombine(Fnv1a64(sql), c);
  return id == 0 ? 1 : id;
}

/// Equality-dissemination check: does `where` pin every partition attribute
/// of `hint` to a constant? If so fill dissem ns/key.
bool TryEqualityDissem(const ExprPtr& where, const std::string& table,
                       const TableHint& hint, OpGraph* g) {
  if (!where || hint.partition_attrs.empty()) return false;
  std::string key;
  for (const std::string& attr : hint.partition_attrs) {
    Value v;
    if (!where->ExtractEqualityConstant(attr, &v)) return false;
    key += v.CanonicalString();
    key.push_back('|');
  }
  g->dissem = DissemKind::kEquality;
  g->dissem_ns = table;
  g->dissem_key = key;
  return true;
}

struct Compiler {
  const SqlOptions& options;
  ParsedSql q;
  QueryPlan plan;
  std::string qns;  // "q<id>"
  PlanExplain* explain_ = nullptr;

  std::string Ns(const std::string& what) const { return qns + "." + what; }

  /// Per-input filters, equi-join edges, and everything else, for any number
  /// of FROM tables. Bare column names throughout.
  struct MultiJoin {
    std::vector<ExprPtr> filters;  // one per input; null if none
    std::vector<JoinEdge> edges;   // first equi-join predicate per table pair
    struct Residual {
      ExprPtr expr;
      std::vector<int> refs;  // referenced input indices
      /// References an unknown/unprefixed name: only safe once every input
      /// is joined.
      bool needs_all = false;
    };
    std::vector<Residual> residuals;
  };

  Result<MultiJoin> AnalyzeJoins() {
    MultiJoin mj;
    mj.filters.resize(q.from.size());
    if (!q.where) return Status::InvalidArgument("join query needs WHERE");
    std::map<std::string, int> alias_index;
    for (size_t i = 0; i < q.from.size(); ++i) {
      alias_index.emplace(q.from[i].alias, static_cast<int>(i));
    }
    std::vector<ExprPtr> conjuncts;
    SplitConjuncts(q.where, &conjuncts);
    std::set<std::pair<int, int>> edged;  // pairs that already have an edge
    std::vector<std::vector<ExprPtr>> filter_parts(q.from.size());
    for (const ExprPtr& c : conjuncts) {
      // Join predicate: col(a) = col(b) across two distinct aliases; only
      // the first such predicate per pair becomes an edge (the rest stay
      // residual, as the two-table compiler always treated them).
      if (c->kind() == ExprKind::kCmp && c->cmp_op() == CmpOp::kEq &&
          c->children()[0]->kind() == ExprKind::kColumn &&
          c->children()[1]->kind() == ExprKind::kColumn) {
        const std::string& c0 = c->children()[0]->column_name();
        const std::string& c1 = c->children()[1]->column_name();
        auto it0 = alias_index.find(ColumnPrefix(c0));
        auto it1 = alias_index.find(ColumnPrefix(c1));
        if (it0 != alias_index.end() && it1 != alias_index.end() &&
            it0->second != it1->second) {
          int i0 = it0->second, i1 = it1->second;
          std::pair<int, int> key = std::minmax(i0, i1);
          if (edged.insert(key).second) {
            JoinEdge e;
            if (i0 < i1) {
              e.a = i0;
              e.b = i1;
              e.a_col = StripPrefix(c0);
              e.b_col = StripPrefix(c1);
            } else {
              e.a = i1;
              e.b = i0;
              e.a_col = StripPrefix(c1);
              e.b_col = StripPrefix(c0);
            }
            mj.edges.push_back(std::move(e));
            continue;
          }
        }
      }
      // Side filter when all columns reference exactly one alias; residual
      // otherwise.
      std::vector<std::string> cols;
      c->CollectColumns(&cols);
      std::set<int> refs;
      bool unknown = cols.empty();
      for (const std::string& col : cols) {
        auto it = alias_index.find(ColumnPrefix(col));
        if (it == alias_index.end()) {
          unknown = true;
        } else {
          refs.insert(it->second);
        }
      }
      ExprPtr bare = RewriteColumns(c, StripPrefix);
      if (!unknown && refs.size() == 1) {
        filter_parts[*refs.begin()].push_back(bare);
      } else {
        mj.residuals.push_back(MultiJoin::Residual{
            bare, std::vector<int>(refs.begin(), refs.end()), unknown});
      }
    }
    for (size_t i = 0; i < q.from.size(); ++i) {
      mj.filters[i] = JoinConjuncts(filter_parts[i]);
    }
    return mj;
  }

  /// Add a `kind` op fed by `*tail` and make it the new tail. The reference
  /// is valid until the next AddOp on `g`.
  OpSpec& Then(OpGraph* g, uint32_t* tail, OpKind kind) {
    OpSpec& op = g->AddOp(kind);
    g->Connect(*tail, op.id, 0);
    *tail = op.id;
    return op;
  }

  /// Build a scan->selection chain; returns the id of the chain's tail.
  uint32_t ScanChain(OpGraph* g, const std::string& table,
                     const ExprPtr& filter) {
    OpSpec& scan = g->AddOp(OpKind::kScan);
    scan.Set("ns", table);
    uint32_t tail = scan.id;
    if (filter) Then(g, &tail, OpKind::kSelection).SetExpr("pred", filter);
    return tail;
  }

  /// Start an opgraph from a base table: targeted dissemination when the
  /// filter pins the partition key, then scan (+ pushed-down selection).
  uint32_t StartBaseGraph(OpGraph* g, const std::string& table,
                          const ExprPtr& filter) {
    auto hint = options.tables.find(table);
    if (hint != options.tables.end())
      TryEqualityDissem(filter, table, hint->second, g);
    return ScanChain(g, table, filter);
  }

  /// Project the SELECT list's plain columns behind `tail` (nothing for
  /// SELECT * or an aggregate-only list); returns the new tail.
  uint32_t Project(OpGraph* g, uint32_t tail) {
    bool star = false;
    std::vector<std::string> cols;
    for (const SelectItem& item : q.items) {
      star |= item.star;
      if (!item.star && !item.is_agg) cols.push_back(StripPrefix(item.col));
    }
    if (!star && !cols.empty())
      Then(g, &tail, OpKind::kProjection).SetStrings("cols", cols);
    return tail;
  }

  /// Append ORDER BY (top-k) or LIMIT, then the result op, behind `tail`.
  void OrderLimitResult(OpGraph* g, uint32_t tail) {
    if (!q.order_col.empty()) {
      OpSpec& topk = Then(g, &tail, OpKind::kTopK);
      topk.SetInt("k", q.limit > 0 ? q.limit : 10);
      topk.Set("col", q.order_col);
      topk.SetInt("desc", q.order_desc ? 1 : 0);
      if (!q.group_by.empty()) topk.SetStrings("dedup", q.group_by);
    } else if (q.limit > 0) {
      Then(g, &tail, OpKind::kLimit).SetInt("k", q.limit);
    }
    Then(g, &tail, OpKind::kResult);
  }

  bool NeedsCollect() const { return !q.order_col.empty() || q.limit > 0; }

  /// Deliver `tail`'s finished rows to the result op — or, for ORDER BY /
  /// LIMIT, through a single collection owner: publish them to a constant
  /// key and add a collector graph (flush stage `stage`) running
  /// top-k/limit + result there.
  void Deliver(OpGraph* g, uint32_t tail, int32_t stage) {
    if (!NeedsCollect()) {
      Then(g, &tail, OpKind::kResult);
      return;
    }
    std::string ns = Ns("collect");
    OpSpec& put = Then(g, &tail, OpKind::kPut);
    put.Set("ns", ns);
    put.Set("key", "");  // constant key: one collection owner

    OpGraph& cg = plan.AddGraph();  // invalidates g
    cg.dissem = DissemKind::kEquality;
    cg.dissem_ns = ns;
    cg.dissem_key = Tuple().PartitionKey({});
    cg.flush_stage = stage;
    OpSpec& nd = cg.AddOp(OpKind::kNewData);
    nd.Set("ns", ns);
    OrderLimitResult(&cg, nd.id);
  }

  Result<QueryPlan> CompileSingleTable() {
    const FromTable& ft = q.from[0];
    bool has_agg = false;
    for (const SelectItem& item : q.items) has_agg |= item.is_agg;

    if (!has_agg) {
      // Project before any collection stage, so the collector sees final
      // rows.
      OpGraph& g = plan.AddGraph();
      Deliver(&g, Project(&g, StartBaseGraph(&g, ft.table, q.where)), 1);
      return std::move(plan);
    }

    // Aggregation query.
    std::vector<AggSpec> aggs;
    for (const SelectItem& item : q.items) {
      if (!item.is_agg) continue;
      aggs.push_back(AggSpec{item.func, item.col, item.alias});
    }
    std::string aggs_text = FormatAggSpecs(aggs);
    std::string keys_text;
    for (size_t i = 0; i < q.group_by.size(); ++i) {
      if (i) keys_text.push_back(',');
      keys_text += q.group_by[i];
    }

    // "flat"/"hier" are forced; "auto" asks the optimizer (flat — the
    // historical default — without usable statistics).
    AggDecision dec;
    dec.strategy = options.agg_strategy;
    if (dec.strategy == "auto") {
      auto hint = options.tables.find(ft.table);
      bool group_is_pk = hint != options.tables.end() &&
                         !q.group_by.empty() &&
                         hint->second.partition_attrs == q.group_by;
      dec = options.optimizer.ChooseAggStrategy(ft.table, q.group_by.size(),
                                                group_is_pk);
    }
    if (explain_ != nullptr) explain_->agg = dec;

    if (dec.strategy == "hier") {
      OpGraph& g = plan.AddGraph();
      uint32_t tail = ScanChain(&g, ft.table, q.where);
      OpSpec& agg = Then(&g, &tail, OpKind::kHierAgg);
      agg.Set("keys", keys_text);
      agg.Set("aggs", aggs_text);
      OrderLimitResult(&g, tail);
      return std::move(plan);
    }

    // Flat strategy: partial -> rehash by group key -> final.
    std::string agg_ns = Ns("agg");
    OpGraph& g1 = plan.AddGraph();
    uint32_t tail = StartBaseGraph(&g1, ft.table, q.where);
    OpSpec& part = Then(&g1, &tail, OpKind::kGroupBy);
    part.Set("keys", keys_text);
    part.Set("aggs", aggs_text);
    part.Set("mode", "partial");
    OpSpec& put = Then(&g1, &tail, OpKind::kPut);
    put.Set("ns", agg_ns);
    put.Set("key", keys_text);

    OpGraph& g2 = plan.AddGraph();
    g2.flush_stage = 1;
    OpSpec& nd = g2.AddOp(OpKind::kNewData);
    nd.Set("ns", agg_ns);
    tail = nd.id;
    OpSpec& fin = Then(&g2, &tail, OpKind::kGroupBy);
    fin.Set("keys", keys_text);
    fin.Set("aggs", aggs_text);
    fin.Set("mode", "final");
    Deliver(&g2, tail, 2);
    return std::move(plan);
  }

  /// Compile the chosen join steps into opgraphs. Each step either extends
  /// the current chain with a Fetch Matches probe, or closes it with a Put
  /// into a rendezvous namespace joined by a SymHashJoin in a fresh staged
  /// graph (optionally Bloom-prefiltering the probed side first).
  Result<QueryPlan> CompileJoins() {
    PIER_ASSIGN_OR_RETURN(MultiJoin mj, AnalyzeJoins());
    std::vector<JoinInput> inputs(q.from.size());
    for (size_t i = 0; i < q.from.size(); ++i) {
      inputs[i].table = q.from[i].table;
      auto hint = options.tables.find(q.from[i].table);
      if (hint != options.tables.end())
        inputs[i].partition_attrs = hint->second.partition_attrs;
      inputs[i].filtered = mj.filters[i] != nullptr;
    }
    PIER_ASSIGN_OR_RETURN(
        std::vector<JoinStep> steps,
        options.optimizer.PlanJoins(inputs, mj.edges, q.continuous));
    if (explain_ != nullptr) explain_->joins = steps;

    // Unused equi-join edges (cycles in the join graph) become residual
    // equality predicates, applied once both endpoints are joined.
    std::vector<bool> edge_used(mj.edges.size(), false);
    for (const JoinStep& s : steps) edge_used[s.edge] = true;
    for (size_t e = 0; e < mj.edges.size(); ++e) {
      if (edge_used[e]) continue;
      const JoinEdge& je = mj.edges[e];
      mj.residuals.push_back(MultiJoin::Residual{
          Expr::Cmp(CmpOp::kEq, Expr::Column(je.a_col),
                    Expr::Column(je.b_col)),
          {je.a, je.b},
          false});
    }

    int64_t bloom_bits =
        static_cast<int64_t>(options.optimizer.model().params().bloom_bits);

    std::set<int> covered{steps[0].outer};
    std::vector<bool> placed(mj.residuals.size(), false);
    OpGraph* cg = nullptr;   // graph carrying the running intermediate
    uint32_t ctail = 0;      // its dataflow tail
    int cstage = 0;          // its flush stage
    std::string ctable;      // intermediate tuples' table name

    for (size_t k = 0; k < steps.size(); ++k) {
      const JoinStep& s = steps[k];
      covered.insert(s.inner);
      bool last = k + 1 == steps.size();
      const ExprPtr& inner_filter = mj.filters[s.inner];
      const std::string& inner_table = q.from[s.inner].table;

      // Residual conjuncts whose references are now all joined. Folded into
      // ONE conjunction first so a two-table default plan serializes exactly
      // as it always has.
      std::vector<ExprPtr> resids;
      for (size_t r = 0; r < mj.residuals.size(); ++r) {
        if (placed[r]) continue;
        const MultiJoin::Residual& res = mj.residuals[r];
        if (res.needs_all && !last) continue;
        bool ok = true;
        for (int ref : res.refs) ok &= covered.count(ref) > 0;
        if (!ok) continue;
        placed[r] = true;
        resids.push_back(res.expr);
      }
      ExprPtr residual = JoinConjuncts(resids);

      // Later SymHashJoins split their mixed rendezvous stream by table
      // name, so non-final steps name their output tuples.
      std::string out_name = last ? "" : "j" + std::to_string(k + 1);
      std::string ns_suffix =
          steps.size() > 1 ? std::to_string(k + 1) : std::string();

      if (cg == nullptr) {  // the first step starts the chain at its outer
        cg = &plan.AddGraph();
        ctail = StartBaseGraph(cg, q.from[s.outer].table, mj.filters[s.outer]);
        ctable = q.from[s.outer].table;
      }

      if (s.strategy == JoinStrategy::kFetchMatches) {
        OpSpec& fmj = Then(cg, &ctail, OpKind::kFetchMatches);
        fmj.Set("table", inner_table);
        fmj.SetExpr("key_expr", Expr::Column(s.outer_col));
        if (!out_name.empty()) fmj.Set("table_out", out_name);
        std::vector<ExprPtr> pred;
        if (inner_filter) pred.push_back(inner_filter);
        if (residual) pred.push_back(residual);
        if (!pred.empty()) fmj.SetExpr("pred", JoinConjuncts(pred));
        if (!out_name.empty()) ctable = out_name;
        continue;
      }

      // Rehash (optionally Bloom-prefiltered): outer side into the
      // rendezvous namespace, inner side into the same, SHJ in a new graph.
      bool bloom = s.strategy == JoinStrategy::kBloom;
      std::string jns = Ns("join" + ns_suffix);
      std::string fns = Ns("bloom" + ns_suffix);
      if (bloom) {
        // The probe fetches the filter on its graph's first flush, one
        // stage after the build side's stage-0 flush published it.
        OpSpec& bp = Then(cg, &ctail, OpKind::kBloomProbe);
        bp.Set("col", s.outer_col);
        bp.Set("ns", fns);
        cg->flush_stage = std::max<int32_t>(cg->flush_stage, 1);
      }
      OpSpec& outer_put = Then(cg, &ctail, OpKind::kPut);
      outer_put.Set("ns", jns);
      outer_put.Set("key", s.outer_col);

      {
        OpGraph& g = plan.AddGraph();  // invalidates cg until it moves on
        uint32_t tail = StartBaseGraph(&g, inner_table, inner_filter);
        if (bloom) {
          OpSpec& bc = g.AddOp(OpKind::kBloomCreate);
          bc.Set("col", s.inner_col);
          bc.Set("ns", fns);
          bc.SetInt("bits", bloom_bits);
          g.Connect(tail, bc.id, 0);
          // The filter publishes on flush; inner tuples also flow to the
          // rehash put below.
        }
        OpSpec& put = g.AddOp(OpKind::kPut);
        put.Set("ns", jns);
        put.Set("key", s.inner_col);
        g.Connect(tail, put.id, 0);
      }

      // SymHashJoin emits as rows meet and never needs a flush, so every
      // join graph shares stage 1 and a collector stays within stage 2.
      OpGraph& jg = plan.AddGraph();
      jg.flush_stage = 1;
      OpSpec& nd = jg.AddOp(OpKind::kNewData);
      nd.Set("ns", jns);
      ctail = nd.id;
      OpSpec& shj = Then(&jg, &ctail, OpKind::kSymHashJoin);
      shj.Set("l_key", s.outer_col);
      shj.Set("r_key", s.inner_col);
      shj.Set("l_table", ctable);
      shj.Set("r_table", inner_table);
      if (!out_name.empty()) shj.Set("table", out_name);
      if (residual) shj.SetExpr("pred", residual);
      cg = &jg;
      cstage = jg.flush_stage;
      ctable = out_name.empty() ? "join" : out_name;
    }

    // A collected join ships its rows unprojected.
    Deliver(cg, NeedsCollect() ? ctail : Project(cg, ctail), cstage + 1);
    return std::move(plan);
  }

  Result<QueryPlan> Compile() {
    plan.timeout = q.timeout > 0 ? q.timeout : kDefaultTimeout;
    plan.continuous = q.continuous;
    if (q.window > 0) plan.window = q.window;

    // Normalize WHERE column names: strip prefixes for single-table queries
    // (join analysis needs them and strips later).
    if (q.where && q.from.size() == 1) {
      q.where = RewriteColumns(q.where, [this](const std::string& name) {
        std::string p = ColumnPrefix(name);
        if (p == q.from[0].alias || p == q.from[0].table)
          return StripPrefix(name);
        return name;
      });
    }

    if (q.from.size() == 1) return CompileSingleTable();
    return CompileJoins();
  }
};

}  // namespace

Result<QueryPlan> CompileSql(const std::string& sql, const SqlOptions& options,
                             PlanExplain* explain) {
  if (options.agg_strategy != "flat" && options.agg_strategy != "hier" &&
      options.agg_strategy != "auto") {
    return Status::InvalidArgument("unknown agg_strategy '" +
                                   options.agg_strategy +
                                   "' (expected \"flat\", \"hier\" or "
                                   "\"auto\")");
  }
  PIER_ASSIGN_OR_RETURN(ParsedSql parsed, Parse(sql));
  Compiler c{options, std::move(parsed), QueryPlan{}, "", explain};
  c.plan.query_id =
      options.query_id != 0 ? options.query_id : NextQueryId(sql);
  c.qns = "q" + std::to_string(c.plan.query_id);
  PIER_ASSIGN_OR_RETURN(QueryPlan plan, c.Compile());
  PIER_RETURN_IF_ERROR(plan.Validate());
  if (explain != nullptr) explain->query_id = plan.query_id;
  return plan;
}

}  // namespace pier
