// Tests for the plan layer: opgraph validation and wire round trips, the SQL
// compiler's plan shapes, UFL parsing, and aggregate-state algebra. The two
// front ends are exercised through PierClient::Compile, so they see exactly
// the catalog-derived metadata applications see.

#include <gtest/gtest.h>

#include <limits>

#include "decoder_fuzz.h"
#include "opt/optimizer.h"
#include "opt/stats.h"
#include "qp/agg_state.h"
#include "qp/dataflow.h"
#include "qp/opgraph.h"
#include "qp/sim_pier.h"
#include "qp/sql.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/random.h"

namespace pier {
namespace {

// ---------------------------------------------------------------------------
// OpGraph / QueryPlan
// ---------------------------------------------------------------------------

TEST(OpGraph, ValidateCatchesStructuralErrors) {
  OpGraph g;
  g.id = 1;
  OpSpec& scan = g.AddOp(OpKind::kScan);
  scan.Set("ns", "t");
  uint32_t scan_id = scan.id;
  OpSpec& res = g.AddOp(OpKind::kResult);
  g.Connect(scan_id, res.id);
  EXPECT_TRUE(g.Validate().ok());

  OpGraph bad = g;
  bad.Connect(99, 1);
  EXPECT_FALSE(bad.Validate().ok()) << "unknown endpoint";

  OpGraph loop = g;
  loop.Connect(scan_id, scan_id);
  EXPECT_FALSE(loop.Validate().ok()) << "self loop";

  OpGraph feed = g;
  feed.Connect(res.id, scan_id);
  EXPECT_FALSE(feed.Validate().ok()) << "access method with inputs";
}

TEST(OpGraph, JoinArityChecked) {
  OpGraph g;
  g.id = 1;
  OpSpec& a = g.AddOp(OpKind::kSource);
  uint32_t a_id = a.id;
  OpSpec& j = g.AddOp(OpKind::kSymHashJoin);
  j.Set("l_key", "x");
  j.Set("r_key", "y");
  uint32_t j_id = j.id;
  g.Connect(a_id, j_id, 0);
  EXPECT_FALSE(g.Validate().ok()) << "one input is not enough";
  OpSpec& b = g.AddOp(OpKind::kSource);
  g.Connect(b.id, j_id, 1);
  EXPECT_TRUE(g.Validate().ok());
  // Mixed-stream mode accepts a single input.
  OpGraph m;
  m.id = 2;
  OpSpec& src = m.AddOp(OpKind::kSource);
  uint32_t src_id = src.id;
  OpSpec& mj = m.AddOp(OpKind::kSymHashJoin);
  mj.Set("l_key", "x");
  mj.Set("r_key", "y");
  mj.Set("l_table", "l");
  mj.Set("r_table", "r");
  m.Connect(src_id, mj.id, 0);
  EXPECT_TRUE(m.Validate().ok());
}

/// A plan that sets every encoded field, with a second graph whose PHT range
/// has a negative bound.
QueryPlan EveryFieldPlan() {
  QueryPlan plan;
  plan.query_id = 777;
  plan.timeout = 12 * kSecond;
  plan.continuous = true;
  plan.window = 3 * kSecond;
  plan.generation = 4;
  plan.deadline_us = 99 * kSecond;  // absolute instant, rides every hop
  plan.successors = {NetAddress{7, 5000}, NetAddress{9, 5000}};
  plan.proxy_epoch = 1;
  plan.catchup_floor_us = 55 * kSecond;
  plan.lease_period_us = 2 * kSecond;
  OpGraph& g = plan.AddGraph();
  g.dissem = DissemKind::kEquality;
  g.dissem_ns = "t";
  g.dissem_key = "I5|";
  g.flush_stage = 2;
  OpSpec& scan = g.AddOp(OpKind::kScan);
  scan.Set("ns", "t");
  OpSpec& sel = g.AddOp(OpKind::kSelection);
  sel.SetExpr("pred", *ParseExpr("v > 3"));
  uint32_t sel_id = sel.id;
  OpSpec& res = g.AddOp(OpKind::kResult);
  g.Connect(1, sel_id, 0);
  g.Connect(sel_id, res.id, 0);
  OpGraph& range = plan.AddGraph();
  range.dissem = DissemKind::kRange;
  range.dissem_ns = "idx";
  range.dissem_lo = -40;
  range.dissem_hi = std::numeric_limits<int64_t>::max();
  range.AddOp(OpKind::kScan).Set("ns", "idx");
  return plan;
}

TEST(QueryPlan, WireRoundTrip) {
  QueryPlan plan = EveryFieldPlan();
  Result<QueryPlan> back = QueryPlan::Decode(plan.Encode());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->query_id, 777u);
  EXPECT_TRUE(back->continuous);
  EXPECT_EQ(back->window, 3 * kSecond);
  EXPECT_EQ(back->generation, 4u);
  EXPECT_EQ(back->deadline_us, 99 * kSecond);
  ASSERT_EQ(back->successors.size(), 2u);
  EXPECT_EQ(back->successors[0], (NetAddress{7, 5000}));
  EXPECT_EQ(back->successors[1], (NetAddress{9, 5000}));
  EXPECT_EQ(back->proxy_epoch, 1u);
  EXPECT_EQ(back->catchup_floor_us, 55 * kSecond);
  EXPECT_EQ(back->lease_period_us, 2 * kSecond);
  EXPECT_FALSE(back->cancelled);
  ASSERT_EQ(back->graphs.size(), 2u);
  EXPECT_EQ(back->graphs[1].dissem_lo, -40);
  EXPECT_EQ(back->graphs[1].dissem_hi, std::numeric_limits<int64_t>::max());
  const OpGraph& bg = back->graphs[0];
  EXPECT_EQ(bg.dissem, DissemKind::kEquality);
  EXPECT_EQ(bg.dissem_key, "I5|");
  EXPECT_EQ(bg.flush_stage, 2);
  ASSERT_EQ(bg.ops.size(), 3u);
  EXPECT_EQ(bg.edges.size(), 2u);
  Result<ExprPtr> pred = bg.ops[1].GetExpr("pred");
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ((*pred)->ToString(), "(v > 3)");
}

TEST(QueryPlan, DecodeRejectsCorruption) {
  QueryPlan plan;
  plan.query_id = 1;
  plan.AddGraph().AddOp(OpKind::kScan).Set("ns", "t");
  std::string wire = plan.Encode();
  EXPECT_FALSE(QueryPlan::Decode(wire + "zz").ok());
  EXPECT_FALSE(QueryPlan::Decode(wire.substr(0, wire.size() / 2)).ok());
  EXPECT_FALSE(QueryPlan::Decode("").ok());
}

TEST(QueryPlan, DecoderSurvivesTruncationGarbageAndOverCapCounts) {
  std::string wire = EveryFieldPlan().Encode();
  size_t cuts = FuzzDecoder(wire, 4, [](const std::string& body) {
    return QueryPlan::Decode(body).ok();
  });
  EXPECT_EQ(cuts, 0u);
  // Over-cap counts: a successor chain past its cap, and a varint32 field
  // (the generation) holding more than 32 bits.
  QueryPlan plan = EveryFieldPlan();
  plan.successors.resize(QueryPlan::kMaxSuccessors + 1);
  EXPECT_EQ(QueryPlan::Decode(plan.Encode()).status().code(),
            StatusCode::kCorruption);
  plan = EveryFieldPlan();
  plan.generation = UINT32_MAX;
  wire = plan.Encode();
  const std::string max32("\xff\xff\xff\xff\x0f", 5);
  size_t at = wire.find(max32);
  ASSERT_NE(at, std::string::npos);
  ASSERT_TRUE(QueryPlan::Decode(wire).ok());
  wire[at + 4] = '\x1f';  // the same varint, 2^33 - 1
  EXPECT_EQ(QueryPlan::Decode(wire).status().code(), StatusCode::kCorruption);
}

TEST(QueryMeter, DecoderSurvivesTruncationGarbageAndOverCapCounts) {
  QueryMeter meter;
  meter.At(0, 0)->bytes = 1234567;
  meter.At(1, 3)->tuples_in = 5;
  meter.At(300, 70000)->msgs = 2;
  WireWriter w;
  meter.EncodeTo(&w);
  std::map<QueryMeter::Key, OpCost> back;
  WireReader r(w.data());
  ASSERT_TRUE(QueryMeter::DecodeSnapshot(&r, &back));
  EXPECT_EQ(back.size(), 3u);
  EXPECT_EQ((back[{300, 70000}].msgs), 2u);
  size_t cuts = FuzzDecoder(w.data(), 5, [](const std::string& body) {
    WireReader br(body);
    std::map<QueryMeter::Key, OpCost> out;
    return QueryMeter::DecodeSnapshot(&br, &out);
  });
  EXPECT_EQ(cuts, 0u);
  // Over-cap: more slots than the cap, and an op id past 32 bits.
  WireWriter many;
  many.PutU8(1);
  many.PutVarint(4097);
  WireReader mr(many.data());
  EXPECT_FALSE(QueryMeter::DecodeSnapshot(&mr, &back));
  WireWriter wide;
  wide.PutU8(1);
  wide.PutVarint(1);
  wide.PutVarint(1);
  wide.PutVarint(uint64_t{UINT32_MAX} + 1);
  for (int i = 0; i < 4; ++i) wide.PutVarint(0);
  WireReader wr(wide.data());
  EXPECT_FALSE(QueryMeter::DecodeSnapshot(&wr, &back));
}

// ---------------------------------------------------------------------------
// SQL compiler plan shapes (through the client façade)
// ---------------------------------------------------------------------------

/// A one-node network whose catalog declares t (partitioned by k) and
/// s (partitioned by y) — the former hand-written SqlOptions hints, now
/// derived. Compile() never submits, so one shared instance is enough.
PierClient* Client() {
  static SimPier* net = [] {
    SimPier::Options opts;
    opts.sim.seed = 1;
    opts.settle_time = 1 * kSecond;
    auto* n = new SimPier(1, opts);
    PIER_CHECK(n->catalog()->Register(TableSpec("t").PartitionBy({"k"})).ok());
    PIER_CHECK(n->catalog()->Register(TableSpec("s").PartitionBy({"y"})).ok());
    return n;
  }();
  return net->client(0);
}

int CountOps(const OpGraph& g, OpKind kind) {
  int n = 0;
  for (const OpSpec& op : g.ops) n += op.kind == kind;
  return n;
}

TEST(Sql, SimpleSelectIsOneBroadcastGraph) {
  auto plan =
      Client()->Compile(Sql("SELECT a, b FROM t WHERE a > 3 TIMEOUT 5s"));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->graphs.size(), 1u);
  EXPECT_EQ(plan->graphs[0].dissem, DissemKind::kBroadcast);
  EXPECT_EQ(CountOps(plan->graphs[0], OpKind::kScan), 1);
  EXPECT_EQ(CountOps(plan->graphs[0], OpKind::kSelection), 1);
  EXPECT_EQ(CountOps(plan->graphs[0], OpKind::kProjection), 1);
  EXPECT_EQ(CountOps(plan->graphs[0], OpKind::kResult), 1);
  EXPECT_EQ(plan->timeout, 5 * kSecond);
}

TEST(Sql, EqualityOnPartitionKeyTargetsDissemination) {
  auto plan = Client()->Compile(Sql("SELECT * FROM t WHERE k = 9"));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->graphs[0].dissem, DissemKind::kEquality);
  EXPECT_EQ(plan->graphs[0].dissem_ns, "t");
  // Equality on a non-partition column broadcasts.
  auto plan2 = Client()->Compile(Sql("SELECT * FROM t WHERE a = 9"));
  EXPECT_EQ(plan2->graphs[0].dissem, DissemKind::kBroadcast);
}

TEST(Sql, SelectStarSkipsProjection) {
  auto plan = Client()->Compile(Sql("SELECT * FROM t"));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(CountOps(plan->graphs[0], OpKind::kProjection), 0);
}

TEST(Sql, FlatAggregationIsTwoStageRehash) {
  auto plan = Client()->Compile(
      Sql("SELECT k, count(*) AS c, sum(v) AS sv FROM t GROUP BY k"));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->graphs.size(), 2u);
  EXPECT_EQ(CountOps(plan->graphs[0], OpKind::kGroupBy), 1);
  EXPECT_EQ(CountOps(plan->graphs[0], OpKind::kPut), 1);
  EXPECT_EQ(CountOps(plan->graphs[1], OpKind::kGroupBy), 1);
  EXPECT_EQ(plan->graphs[0].FindOp(2)->GetString("mode"), "partial");
  EXPECT_EQ(plan->graphs[1].flush_stage, 1) << "finals flush after partials";
}

TEST(Sql, HierAggregationIsSingleGraph) {
  auto plan = Client()->Compile(
      Sql("SELECT k, count(*) AS c FROM t GROUP BY k").WithAggStrategy("hier"));
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->graphs.size(), 1u);
  EXPECT_EQ(CountOps(plan->graphs[0], OpKind::kHierAgg), 1);
}

TEST(Sql, OrderByLimitAddsCollectorStage) {
  auto plan = Client()->Compile(Sql(
      "SELECT k, count(*) AS c FROM t GROUP BY k ORDER BY c DESC LIMIT 4"));
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->graphs.size(), 3u) << "partial, final+put, collector";
  const OpGraph& collector = plan->graphs[2];
  EXPECT_EQ(collector.dissem, DissemKind::kEquality);
  EXPECT_EQ(CountOps(collector, OpKind::kTopK), 1);
  for (const OpSpec& op : collector.ops) {
    if (op.kind == OpKind::kTopK) {
      EXPECT_EQ(op.GetInt("k", 0), 4);
      EXPECT_EQ(op.GetStrings("dedup"), std::vector<std::string>{"k"});
    }
  }
}

TEST(Sql, JoinPicksFetchMatchesWhenInnerIndexed) {
  auto plan = Client()->Compile(
      Sql("SELECT * FROM t a, s b WHERE a.k = b.y AND a.v > 1"));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->graphs.size(), 1u);
  EXPECT_EQ(CountOps(plan->graphs[0], OpKind::kFetchMatches), 1);
  EXPECT_EQ(CountOps(plan->graphs[0], OpKind::kSelection), 1)
      << "outer filter pushed down";
}

TEST(Sql, JoinFallsBackToRehashOtherwise) {
  auto plan =
      Client()->Compile(Sql("SELECT * FROM t a, s b WHERE a.v = b.w"));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->graphs.size(), 3u);
  EXPECT_EQ(CountOps(plan->graphs[2], OpKind::kSymHashJoin), 1);
}

TEST(Sql, RejectsMalformedQueries) {
  auto bad = [](const std::string& text) {
    return !Client()->Compile(Sql(text)).ok();
  };
  EXPECT_TRUE(bad("FROM t"));
  EXPECT_TRUE(bad("SELECT FROM t"));
  EXPECT_TRUE(bad("SELECT * FROM"));
  EXPECT_TRUE(bad("SELECT * FROM a, b, c"));
  EXPECT_TRUE(bad("SELECT * FROM a, b WHERE a.x > b.y"))
      << "no equi-join predicate";
  EXPECT_TRUE(bad("SELECT * FROM t LIMIT 0"));
}

TEST(Sql, RejectsUnknownAggregates) {
  EXPECT_FALSE(Client()->Compile(Sql("SELECT med(v) FROM t")).ok());
  EXPECT_FALSE(Client()->Compile(Sql("SELECT median(v) FROM t GROUP BY k")).ok())
      << "holistic aggregates are unsupported";
  auto err = Client()->Compile(Sql("SELECT frob(v) AS f FROM t"));
  ASSERT_FALSE(err.ok());
  EXPECT_NE(err.status().message().find("unknown aggregate"), std::string::npos)
      << err.status().ToString();
}

TEST(Sql, RejectsMalformedDurations) {
  auto bad = [](const std::string& text) {
    return !Client()->Compile(Sql(text)).ok();
  };
  // TIMEOUT: negative, zero, bad suffix, non-numeric.
  EXPECT_TRUE(bad("SELECT * FROM t TIMEOUT -5s"));
  EXPECT_TRUE(bad("SELECT * FROM t TIMEOUT 0s"));
  EXPECT_TRUE(bad("SELECT * FROM t TIMEOUT 5x"));
  EXPECT_TRUE(bad("SELECT * FROM t TIMEOUT soon"));
  // WINDOW: same duration grammar. WINDOW 0 in particular must be an
  // InvalidArgument, not a per-millisecond flush timer at execution time.
  EXPECT_TRUE(bad("SELECT * FROM t TIMEOUT 5s WINDOW -1s CONTINUOUS"));
  EXPECT_TRUE(bad("SELECT * FROM t TIMEOUT 5s WINDOW 0 CONTINUOUS"));
  EXPECT_TRUE(bad("SELECT * FROM t TIMEOUT 5s WINDOW 0ms CONTINUOUS"));
  EXPECT_TRUE(bad("SELECT * FROM t TIMEOUT 5s WINDOW 0s CONTINUOUS"));
  EXPECT_TRUE(bad("SELECT * FROM t TIMEOUT 5s WINDOW 2parsecs CONTINUOUS"));
  EXPECT_TRUE(bad("SELECT * FROM t TIMEOUT 5s WINDOW abc CONTINUOUS"));
  // A value past INT64_MAX microseconds overflows the product, and one past
  // INT64_MAX itself is clamped by strtoll: both are rejected.
  EXPECT_TRUE(bad("SELECT * FROM t TIMEOUT 9223372036855s"));
  EXPECT_TRUE(bad("SELECT * FROM t TIMEOUT 9223372036854775807s"));
  EXPECT_TRUE(bad("SELECT * FROM t TIMEOUT 9223372036854776ms"));
  EXPECT_TRUE(bad("SELECT * FROM t TIMEOUT 99999999999999999999ms"));
  // The largest accepted values, in either unit and suffix case.
  {
    auto s = Client()->Compile(Sql("SELECT * FROM t TIMEOUT 9223372036854S"));
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    EXPECT_EQ(s->timeout, 9223372036854 * kSecond);
    auto ms =
        Client()->Compile(Sql("SELECT * FROM t TIMEOUT 9223372036854775MS"));
    ASSERT_TRUE(ms.ok()) << ms.status().ToString();
    EXPECT_EQ(ms->timeout, 9223372036854775 * kMillisecond);
  }
  {
    Status s = Client()
                   ->Compile(Sql("SELECT * FROM t TIMEOUT 5s WINDOW 0 "
                                 "CONTINUOUS"))
                   .status();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  }
  // Control: the well-formed versions compile.
  EXPECT_TRUE(Client()->Compile(Sql("SELECT * FROM t TIMEOUT 5s")).ok());
  EXPECT_TRUE(Client()
                  ->Compile(Sql("SELECT * FROM t TIMEOUT 5s WINDOW 500ms "
                                "CONTINUOUS"))
                  .ok());
}

TEST(Sql, DistinctQueriesGetDistinctIds) {
  auto a = Client()->Compile(Sql("SELECT * FROM t"));
  auto b = Client()->Compile(Sql("SELECT * FROM t"));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->query_id, b->query_id);
}

/// Compiled plans are pinned byte for byte: each digest is Fnv1a64 over the
/// wire encoding of the plan, recorded at commit e9a4143, before the
/// compiler's duplicated plan fragments were folded into shared helpers.
/// Re-recorded once when plan fields and int64 values became varints; a
/// structural dump (graphs, op kinds, params with expressions as text,
/// edges) of every case was identical before and after that change.
/// Re-recorded once more when the plan lost its `replan` byte and its
/// flush-step varint: each new encoding equals the old one with exactly
/// those two fields cut out.
TEST(Sql, PlansAreByteIdenticalToRecordedDigests) {
  SqlOptions base;
  base.tables["t"] = TableHint{{"k"}};
  base.tables["s"] = TableHint{{"y"}};
  base.tables["u"] = TableHint{{"z"}};
  base.query_id = 4242;

  // Statistics under which the optimizer Bloom-prefilters the big side: the
  // small side has few distinct join keys.
  StatsRegistry reg;
  auto seed = [&reg](const std::string& table, int n, int distinct) {
    for (int i = 0; i < n; ++i) {
      Tuple t(table);
      t.Append("k", Value::Int64(i % distinct));
      t.Append("pad", Value::Bytes(std::string(8, 'x')));
      reg.Observe(table, t, {"k"}, t.Encode().size(), (1 + i) * kSecond);
    }
  };
  seed("big", 4000, 4000);
  seed("small", 4000, 40);
  CostParams params;
  params.nodes = 64;
  Optimizer opt(&reg, CostModel(params));
  SqlOptions bloom = base;
  bloom.tables["big"] = TableHint{{"pk"}};
  bloom.tables["small"] = TableHint{{"pk"}};
  bloom.optimizer = &opt;
  SqlOptions flat = base;
  flat.agg_strategy = "flat";
  SqlOptions hier = base;
  hier.agg_strategy = "hier";

  struct Case {
    const char* sql;
    const SqlOptions* options;
    uint64_t digest;
  };
  const Case cases[] = {
      {"SELECT a, b FROM t WHERE a > 3 TIMEOUT 5s", &base, 0x13985549d7079e38},
      {"SELECT a, b FROM t WHERE a > 1 ORDER BY a LIMIT 3", &base,
       0x6313709cf2be5fdc},
      {"SELECT * FROM t WHERE k = 9", &base, 0xa02d9e4efb1ea3ee},
      {"SELECT k, count(*) AS c, sum(v) AS sv FROM t GROUP BY k "
       "ORDER BY c DESC LIMIT 4",
       &flat, 0x85f3d280de0ebebc},
      {"SELECT k, count(*) AS c FROM t WHERE v > 2 GROUP BY k "
       "ORDER BY c DESC LIMIT 4",
       &hier, 0xaf3677760b087890},
      {"SELECT * FROM t a, s b WHERE a.v = b.w", &base, 0x1375bdfbde9a072a},
      {"SELECT * FROM big r, small s WHERE r.x = s.y", &bloom,
       0xad50c3c0cd5c267c},
      {"SELECT a.v, b.w FROM t a, s b WHERE a.k = b.y AND a.v > 1", &base,
       0x38902102dd34de79},
      {"SELECT a.v, c.q FROM t a, s b, u c WHERE a.v = b.w AND b.x = c.z "
       "AND a.k + c.q > 3 LIMIT 5",
       &base, 0x450801092f023a59},
  };
  for (const Case& c : cases) {
    PlanExplain explain;
    auto plan = CompileSql(c.sql, *c.options, &explain);
    ASSERT_TRUE(plan.ok()) << c.sql << ": " << plan.status().ToString();
    EXPECT_EQ(Fnv1a64(plan->Encode()), c.digest)
        << c.sql << ": digest 0x" << std::hex << Fnv1a64(plan->Encode());
  }
  // The Bloom case really is a Bloom join.
  PlanExplain explain;
  ASSERT_TRUE(CompileSql(cases[6].sql, bloom, &explain).ok());
  ASSERT_EQ(explain.joins.size(), 1u);
  EXPECT_EQ(explain.joins[0].strategy, JoinStrategy::kBloom);
}

// ---------------------------------------------------------------------------
// UFL
// ---------------------------------------------------------------------------

TEST(Ufl, ParsesFullProgram) {
  auto plan = Client()->Compile(Ufl(R"(
    # a two-stage aggregation, by hand
    query { timeout = 9s; window = 2s; continuous; }
    graph g1 broadcast {
      src: scan     [ns=events, watch=1];
      sel: selection[pred="sev >= 3"];
      agg: groupby  [keys=src, aggs="count::cnt", mode=partial];
      out: put      [ns=stage1, key=src];
      src -> sel -> agg -> out;
    }
    graph g2 stage(1) {
      in:  newdata [ns=stage1];
      fin: groupby [keys=src, aggs="count::cnt", mode=final];
      res: result;
      in -> fin -> res;
    }
  )"));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->timeout, 9 * kSecond);
  EXPECT_TRUE(plan->continuous);
  ASSERT_EQ(plan->graphs.size(), 2u);
  EXPECT_EQ(plan->graphs[0].ops.size(), 4u);
  EXPECT_EQ(plan->graphs[0].edges.size(), 3u);
  EXPECT_EQ(plan->graphs[1].flush_stage, 1);
  Result<ExprPtr> pred = plan->graphs[0].FindOp(2)->GetExpr("pred");
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ((*pred)->ToString(), "(sev >= 3)");
}

TEST(Ufl, WindowAndReplanOptions) {
  // A window is a duration; WINDOW 0 is rejected with InvalidArgument just
  // like in SQL. A UFL program is the physical plan, with nothing to
  // re-optimize, so `replan` is no UFL option.
  auto plan = Client()->Compile(Ufl(R"(
    query { timeout = 5s; window = 1s; continuous; }
    graph g broadcast { s: scan [ns=events]; o: result; s -> o; }
  )"));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->window, 1 * kSecond);

  Status replan = Client()
                      ->Compile(Ufl(R"(
    query { timeout = 5s; continuous; replan = auto; }
    graph g broadcast { s: scan [ns=events]; o: result; s -> o; }
  )"))
                      .status();
  EXPECT_EQ(replan.code(), StatusCode::kInvalidArgument) << replan.ToString();

  Status zero = Client()
                    ->Compile(Ufl(R"(
    query { timeout = 5s; window = 0ms; continuous; }
    graph g broadcast { s: scan [ns=events]; o: result; s -> o; }
  )"))
                    .status();
  EXPECT_EQ(zero.code(), StatusCode::kInvalidArgument) << zero.ToString();

  // Durations share SQL's parser: the largest value is accepted, one past
  // INT64_MAX microseconds is an InvalidArgument.
  auto longest = Client()->Compile(Ufl(R"(
    query { timeout = 9223372036854s; }
    graph g broadcast { s: scan [ns=events]; o: result; s -> o; }
  )"));
  ASSERT_TRUE(longest.ok()) << longest.status().ToString();
  EXPECT_EQ(longest->timeout, 9223372036854 * kSecond);
  Status over = Client()
                    ->Compile(Ufl(R"(
    query { timeout = 9223372036855s; }
    graph g broadcast { s: scan [ns=events]; o: result; s -> o; }
  )"))
                    .status();
  EXPECT_EQ(over.code(), StatusCode::kInvalidArgument) << over.ToString();
}

TEST(Ufl, InternalStampsAreNoOptions) {
  // The deadline and the catch-up floor are stamped by SubmitQuery and
  // SwapQuery: UFL sets neither.
  for (const char* option :
       {"deadline_us = 1234567", "catchup_floor_us = 777"}) {
    Status s = Client()
                   ->Compile(Ufl(std::string("query { timeout = 5s; ") +
                                 option +
                                 "; }\n"
                                 "graph g broadcast { s: scan [ns=events]; "
                                 "o: result; s -> o; }"))
                   .status();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << option;
  }
}

TEST(Ufl, SuccessorsAndLeaseRoundTrip) {
  // The churn-lifecycle options: successors as a host:port chain (adoption
  // order), lease as a duration.
  auto plan = Client()->Compile(Ufl(R"(
    query { timeout = 5s; continuous; window = 1s;
            successors = 7:5000, 9:5001; lease = 2s; }
    graph g broadcast { s: scan [ns=events]; o: result; s -> o; }
  )"));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->successors.size(), 2u);
  EXPECT_EQ(plan->successors[0], (NetAddress{7, 5000}));
  EXPECT_EQ(plan->successors[1], (NetAddress{9, 5001}));
  EXPECT_EQ(plan->lease_period_us, 2 * kSecond);

  // Malformed successors fail the parse, not the network.
  EXPECT_FALSE(Client()
                   ->Compile(Ufl(R"(
    query { timeout = 5s; successors = nonsense; }
    graph g broadcast { s: scan [ns=events]; o: result; s -> o; }
  )"))
                   .ok());
  EXPECT_FALSE(Client()
                   ->Compile(Ufl(R"(
    query { timeout = 5s; successors = 7:99999; }
    graph g broadcast { s: scan [ns=events]; o: result; s -> o; }
  )"))
                   .ok());
}

TEST(Executor, EffectiveWindowDefaultsAndFloors) {
  QueryPlan p;
  p.continuous = true;
  p.timeout = 40 * kSecond;
  p.window = 0;  // windowless (only reachable through hand-built plans)
  EXPECT_EQ(QueryExecutor::EffectiveWindow(p), QueryExecutor::kDefaultWindow);
  p.timeout = 80 * kMillisecond;  // short-lived query: default shrinks
  EXPECT_EQ(QueryExecutor::EffectiveWindow(p), 20 * kMillisecond);
  p.timeout = 20 * kMillisecond;  // ...but never below the floor
  EXPECT_EQ(QueryExecutor::EffectiveWindow(p), QueryExecutor::kMinWindow);
  p.timeout = 40 * kSecond;
  p.window = 1 * kMillisecond;  // explicit degenerate window: floored
  EXPECT_EQ(QueryExecutor::EffectiveWindow(p), QueryExecutor::kMinWindow);
  p.window = 2 * kSecond;  // sane explicit windows pass through
  EXPECT_EQ(QueryExecutor::EffectiveWindow(p), 2 * kSecond);
}

TEST(Ufl, JoinPortsAndDissemination) {
  auto plan = Client()->Compile(Ufl(R"(
    query { timeout = 5s; }
    graph g equality(t, "I5|") {
      a: scan [ns=l];
      b: scan [ns=r];
      j: shjoin [l_key=x, r_key=y];
      o: result;
      a -> j:0;
      b -> j:1;
      j -> o;
    }
  )"));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->graphs[0].dissem, DissemKind::kEquality);
  EXPECT_EQ(plan->graphs[0].dissem_key, "I5|");
  bool saw_port1 = false;
  for (const GraphEdge& e : plan->graphs[0].edges) saw_port1 |= e.port == 1;
  EXPECT_TRUE(saw_port1);
}

TEST(Ufl, ReportsErrorsWithLineNumbers) {
  auto bad = Client()->Compile(Ufl("graph g broadcast { x: bogus_operator; }"));
  ASSERT_FALSE(bad.ok());
  auto bad2 =
      Client()->Compile(Ufl("graph g broadcast { a: scan [ns=t]; a -> b; }"));
  ASSERT_FALSE(bad2.ok());
  EXPECT_NE(bad2.status().message().find("unknown label"), std::string::npos);
  EXPECT_FALSE(Client()->Compile(Ufl("")).ok());
}

// ---------------------------------------------------------------------------
// Aggregate state algebra
// ---------------------------------------------------------------------------

TEST(AggState, ParseSpecs) {
  auto specs = ParseAggSpecs("count::cnt,sum:bytes:total,avg:lat:mean");
  ASSERT_TRUE(specs.ok());
  ASSERT_EQ(specs->size(), 3u);
  EXPECT_EQ((*specs)[0].func, AggFunc::kCount);
  EXPECT_TRUE((*specs)[0].col.empty());
  EXPECT_EQ((*specs)[1].col, "bytes");
  EXPECT_EQ(FormatAggSpecs(*specs), "count::cnt,sum:bytes:total,avg:lat:mean");
  EXPECT_FALSE(ParseAggSpecs("sum::x").ok()) << "sum needs a column";
  EXPECT_FALSE(ParseAggSpecs("count:").ok()) << "missing alias";
  EXPECT_FALSE(ParseAggSpecs("median:x:m").ok()) << "holistic not supported";
}

TEST(AggState, MergeIsEquivalentToSingleStream) {
  // Property: folding a stream in two halves and merging equals folding all.
  AggSpec spec{AggFunc::kSum, "v", "s"};
  Rng rng(88);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int64_t> values;
    for (int i = 0; i < 20; ++i)
      values.push_back(static_cast<int64_t>(rng.Uniform(1000)) - 500);
    AggState all, left, right;
    for (size_t i = 0; i < values.size(); ++i) {
      Value v = Value::Int64(values[i]);
      all.UpdateValue(spec, v);
      (i < values.size() / 2 ? left : right).UpdateValue(spec, v);
    }
    left.Merge(right);
    for (AggFunc f : {AggFunc::kCount, AggFunc::kSum, AggFunc::kMin,
                      AggFunc::kMax, AggFunc::kAvg}) {
      EXPECT_TRUE(left.Finalize(f).LooseEquals(all.Finalize(f)))
          << AggFuncName(f) << " trial " << trial;
    }
  }
}

TEST(AggState, PartialColumnsAreOnlyWhatEachFunctionNeeds) {
  // count, sum, min, max: one column each; avg: count and sum.
  const std::pair<AggFunc, std::vector<std::string>> layouts[] = {
      {AggFunc::kCount, {"m#n"}},
      {AggFunc::kSum, {"m#s"}},
      {AggFunc::kMin, {"m#mn"}},
      {AggFunc::kMax, {"m#mx"}},
      {AggFunc::kAvg, {"m#n", "m#s"}},
  };
  for (const auto& [func, cols] : layouts)
    EXPECT_EQ(AggState::PartialColumns(func, "m"), cols) << AggFuncName(func);
}

TEST(AggState, PartialColumnsRoundTrip) {
  for (AggFunc f : {AggFunc::kCount, AggFunc::kSum, AggFunc::kMin,
                    AggFunc::kMax, AggFunc::kAvg}) {
    AggSpec spec{f, "v", "m"};
    AggState s;
    for (int v : {3, 1, 10, 2}) s.UpdateValue(spec, Value::Int64(v));
    std::vector<std::string> names = AggState::PartialColumns(f, "m");
    TupleBatchBuilder carrier(
        std::make_shared<BatchSchema>(BatchSchema{"p", names}));
    s.AppendPartial(f, &carrier);
    TupleBatch row = carrier.Finish();
    ASSERT_EQ(row.num_rows(), 1u) << AggFuncName(f);
    std::vector<size_t> cols(names.size());
    for (size_t i = 0; i < cols.size(); ++i) cols[i] = i;
    AggState back;
    ASSERT_TRUE(back.FromPartial(f, row, 0, cols)) << AggFuncName(f);
    EXPECT_EQ(back.Finalize(f), s.Finalize(f)) << AggFuncName(f);
  }
  // A count that is not an integer is malformed. (Absent partial columns are
  // GroupTable.MergeSkipsOnlyTheAggregateWithAbsentColumns.)
  Tuple bad("p", {{"m#n", Value::String("four")}, {"m#s", Value::Null()}});
  AggState malformed;
  EXPECT_FALSE(malformed.FromPartial(AggFunc::kAvg,
                                     TupleBatch::FromTuples({bad}), 0, {0, 1}));
}

TEST(AggState, SkipsMissingAndNullColumns) {
  AggSpec spec{AggFunc::kSum, "v", "s"};
  AggState s;
  s.UpdateValue(spec, Value::Null());  // column absent, or a null value
  s.UpdateValue(spec, Value::Int64(3));
  EXPECT_EQ(s.count(), 1);
  EXPECT_TRUE(s.Finalize(AggFunc::kSum).LooseEquals(Value::Int64(3)));
}

TEST(AggState, Int64SumsThatOverflowContinueAsDouble) {
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  AggSpec spec{AggFunc::kSum, "v", "s"};
  AggState up;
  up.UpdateValue(spec, Value::Int64(kMax - 1));
  up.UpdateValue(spec, Value::Int64(10));
  Value sum = up.Finalize(AggFunc::kSum);
  ASSERT_EQ(sum.type(), ValueType::kDouble) << sum.ToString();
  EXPECT_DOUBLE_EQ(sum.double_unchecked(), static_cast<double>(kMax) + 9.0);
  // Once a double, the sum stays one; in range it stays an exact int64.
  up.UpdateValue(spec, Value::Int64(1));
  EXPECT_EQ(up.Finalize(AggFunc::kSum).type(), ValueType::kDouble);

  AggState down;
  down.UpdateValue(spec, Value::Int64(kMin + 1));
  AggState other;
  other.UpdateValue(spec, Value::Int64(-5));
  down.Merge(other);
  sum = down.Finalize(AggFunc::kSum);
  ASSERT_EQ(sum.type(), ValueType::kDouble) << sum.ToString();
  EXPECT_DOUBLE_EQ(sum.double_unchecked(), static_cast<double>(kMin) - 4.0);

  AggState exact;
  exact.UpdateValue(spec, Value::Int64(kMax - 1));
  exact.UpdateValue(spec, Value::Int64(1));
  EXPECT_EQ(exact.Finalize(AggFunc::kSum), Value::Int64(kMax));
}

/// One row in `alias`'s avg partial layout: count `n` and int64 sum `s`.
TupleBatch CountSumPartial(const std::string& alias, int64_t n, int64_t s) {
  TupleBatchBuilder b(std::make_shared<BatchSchema>(
      BatchSchema{"p", AggState::PartialColumns(AggFunc::kAvg, alias)}));
  b.AppendInt64(n);
  b.AppendValue(Value::Int64(s));
  return b.Finish();
}

TEST(AggState, MergedCountsSaturateAtInt64Max) {
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<size_t> cols = {0, 1};
  const AggFunc avg = AggFunc::kAvg;
  AggState a, b;
  ASSERT_TRUE(a.FromPartial(avg, CountSumPartial("c", kMax - 2, 0), 0, cols));
  ASSERT_TRUE(b.FromPartial(avg, CountSumPartial("c", 5, 0), 0, cols));
  a.Merge(b);
  EXPECT_EQ(a.count(), kMax);
  a.Merge(b);
  EXPECT_EQ(a.count(), kMax) << "a saturated count stays saturated";
  EXPECT_EQ(a.Finalize(AggFunc::kCount), Value::Int64(kMax));
}

TEST(AggState, FromPartialRejectsANegativeCount) {
  AggState s;
  EXPECT_FALSE(
      s.FromPartial(AggFunc::kAvg, CountSumPartial("c", -1, 4), 0, {0, 1}));
  EXPECT_TRUE(
      s.FromPartial(AggFunc::kAvg, CountSumPartial("c", 0, 4), 0, {0, 1}));
}

// ---------------------------------------------------------------------------
// GroupTable: the grouping core shared by GroupBy and HierAgg
// ---------------------------------------------------------------------------

std::vector<AggSpec> GroupTableAggs() {
  auto specs = ParseAggSpecs(
      "count::cnt,count:z:cz,sum:i:si,sum:d:sd,sum:z:sz,min:i:mni,min:d:mnd,"
      "min:z:mnz,max:i:mxi,max:d:mxd,max:z:mxz,avg:i:ai,avg:d:ad,avg:z:az");
  EXPECT_TRUE(specs.ok());
  return *specs;
}

/// ev(k, i, d, z): three groups; d is exact in binary so sums do not depend
/// on fold order; z is null whenever i % 3 == 0, so group "g0" has only
/// nulls in z.
std::vector<Tuple> GroupTableRows() {
  std::vector<Tuple> rows;
  for (int i = 0; i < 30; ++i) {
    Tuple t("ev");
    t.Append("k", Value::String("g" + std::to_string(i % 3)));
    t.Append("i", Value::Int64(i * 7 - 50));
    t.Append("d", Value::Double(i * 0.25 - 3.5));
    t.Append("z", i % 3 == 0 ? Value::Null() : Value::Int64(i));
    rows.push_back(std::move(t));
  }
  return rows;
}

std::vector<Tuple> EmittedRows(const GroupTable& table, bool partial) {
  std::vector<Tuple> out;
  for (const TupleBatch& b : table.Emit("agg", partial)) {
    for (size_t r = 0; r < b.num_rows(); ++r) out.push_back(b.RowTuple(r));
  }
  return out;
}

TEST(GroupTable, MergedPartialsEqualOneTableFoldingEverything) {
  std::vector<Tuple> rows = GroupTableRows();
  std::vector<Tuple> first(rows.begin(), rows.begin() + 15);
  std::vector<Tuple> second(rows.begin() + 15, rows.end());
  GroupTable all({"k"}, GroupTableAggs());
  GroupTable left({"k"}, GroupTableAggs());
  GroupTable right({"k"}, GroupTableAggs());
  all.Fold(TupleBatch::FromTuples(rows));
  left.Fold(TupleBatch::FromTuples(first));
  right.Fold(TupleBatch::FromTuples(second));

  GroupTable merged({"k"}, GroupTableAggs());
  for (const GroupTable* half : {&left, &right}) {
    for (const TupleBatch& b : half->Emit("agg", /*partial=*/true))
      merged.Merge(b);
  }
  std::vector<Tuple> want = EmittedRows(all, false);
  ASSERT_EQ(want.size(), 3u);
  EXPECT_EQ(EmittedRows(merged, false), want);
  EXPECT_EQ(EmittedRows(merged, true), EmittedRows(all, true));

  // Spot-check the finals against hand-computed values.
  const Tuple& g0 = want[0];
  EXPECT_EQ(*g0.Get("k"), Value::String("g0"));
  EXPECT_EQ(*g0.Get("cnt"), Value::Int64(10));
  EXPECT_EQ(*g0.Get("cz"), Value::Int64(0)) << "z is null in every g0 row";
  EXPECT_TRUE(g0.Get("sz")->is_null());
  EXPECT_TRUE(g0.Get("mnz")->is_null());
  EXPECT_TRUE(g0.Get("az")->is_null());
  // g0 holds i in {0, 3, ..., 27}: sum 135, so si = 7 * 135 - 50 * 10.
  EXPECT_EQ(*g0.Get("si"), Value::Int64(445));
  EXPECT_EQ(*g0.Get("mni"), Value::Int64(-50));
  EXPECT_EQ(*g0.Get("mxi"), Value::Int64(139));
  EXPECT_TRUE(g0.Get("ai")->LooseEquals(Value::Double(44.5)));
  EXPECT_EQ(*g0.Get("sd"), Value::Double(135 * 0.25 - 35.0));
  EXPECT_EQ(*g0.Get("mxd"), Value::Double(27 * 0.25 - 3.5));
  const Tuple& g1 = want[1];
  EXPECT_EQ(*g1.Get("cz"), Value::Int64(10));
  EXPECT_EQ(*g1.Get("sz"), Value::Int64(145));  // 1 + 4 + ... + 28
  EXPECT_EQ(*g1.Get("mnz"), Value::Int64(1));
  EXPECT_EQ(*g1.Get("mxz"), Value::Int64(28));
}

TEST(GroupTable, MergeDiscardsBatchWithoutKeyColumn) {
  GroupTable src({"k"}, GroupTableAggs());
  src.Fold(TupleBatch::FromTuples(GroupTableRows()));
  GroupTable other_key({"i"}, GroupTableAggs());
  for (const TupleBatch& b : src.Emit("agg", /*partial=*/true))
    other_key.Merge(b);
  EXPECT_TRUE(other_key.empty());
  // Raw rows lacking the key are discarded by Fold just the same.
  GroupTable missing({"nope"}, GroupTableAggs());
  missing.Fold(TupleBatch::FromTuples(GroupTableRows()));
  EXPECT_TRUE(missing.empty());
}

TEST(GroupTable, MergeSkipsOnlyTheAggregateWithAbsentColumns) {
  auto aggs = ParseAggSpecs("count::cnt,avg:v:a");
  ASSERT_TRUE(aggs.ok());
  GroupTable table({"k"}, *aggs);
  // cnt's partial column is present; a has its "#n" but lacks its "#s".
  Tuple partial("agg");
  partial.Append("k", Value::String("a"));
  partial.Append("cnt#n", Value::Int64(4));
  partial.Append("a#n", Value::Int64(2));
  table.Merge(TupleBatch::FromTuples({partial, partial}));
  std::vector<Tuple> out = EmittedRows(table, false);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(*out[0].Get("cnt"), Value::Int64(8));
  EXPECT_TRUE(out[0].Get("a")->is_null()) << "a was never merged";
  table.clear();
  EXPECT_TRUE(table.empty());
}

TEST(GroupTable, MergeSaturatesCountsAndSkipsNegativeOnes) {
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  auto aggs = ParseAggSpecs("count::cnt,sum:v:s");
  ASSERT_TRUE(aggs.ok());
  GroupTable table({"k"}, *aggs);
  auto partial = [](const std::string& k, int64_t cnt, int64_t s) {
    Tuple t("agg");
    t.Append("k", Value::String(k));
    t.Append("cnt#n", Value::Int64(cnt));
    t.Append("s#s", Value::Int64(s));
    return t;
  };
  table.Merge(TupleBatch::FromTuples({
      partial("a", kMax - 1, kMax - 1),
      partial("a", 5, 5),
      partial("b", -3, 7),  // hostile count: only cnt skips this row
      partial("b", 2, 4),
  }));
  std::vector<Tuple> out = EmittedRows(table, false);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(*out[0].Get("cnt"), Value::Int64(kMax));
  const Value* sum = out[0].Get("s");
  ASSERT_EQ(sum->type(), ValueType::kDouble) << sum->ToString();
  EXPECT_DOUBLE_EQ(sum->double_unchecked(), static_cast<double>(kMax) + 4.0);
  EXPECT_EQ(*out[1].Get("cnt"), Value::Int64(2));
  EXPECT_EQ(*out[1].Get("s"), Value::Int64(11));
}

}  // namespace
}  // namespace pier
