// Tests for the statistics subsystem and the cost-based optimizer: KMV
// sketch accuracy, publish-time accrual, the sys.stats round trip through a
// PIER query, strategy flips as cardinality ratios cross the cost-model
// crossovers, and the no-stats guarantee that compiled plans stay
// byte-identical to the pre-optimizer compiler.

#include <gtest/gtest.h>

#include <set>

#include "opt/cost_model.h"
#include "opt/optimizer.h"
#include "opt/stats.h"
#include "qp/sim_pier.h"
#include "qp/sql.h"

namespace pier {
namespace {

// ---------------------------------------------------------------------------
// KMV sketch
// ---------------------------------------------------------------------------

TEST(KmvSketch, ExactBelowK) {
  KmvSketch s(64);
  for (int i = 0; i < 40; ++i) s.Add("key" + std::to_string(i));
  for (int i = 0; i < 40; ++i) s.Add("key" + std::to_string(i));  // dups
  EXPECT_DOUBLE_EQ(s.Estimate(), 40.0);
}

TEST(KmvSketch, ApproximatesLargeCardinalities) {
  KmvSketch s(64);
  const double kTrue = 5000;
  for (int i = 0; i < static_cast<int>(kTrue); ++i)
    s.Add("value-" + std::to_string(i));
  double est = s.Estimate();
  EXPECT_GT(est, kTrue * 0.6) << est;
  EXPECT_LT(est, kTrue * 1.6) << est;
}

TEST(KmvSketch, MergeApproximatesUnion) {
  KmvSketch a(64), b(64);
  for (int i = 0; i < 1000; ++i) a.Add("x" + std::to_string(i));
  for (int i = 500; i < 1500; ++i) b.Add("x" + std::to_string(i));
  a.Merge(b);
  double est = a.Estimate();
  EXPECT_GT(est, 1500 * 0.6) << est;
  EXPECT_LT(est, 1500 * 1.6) << est;
}

TEST(KmvSketch, SerializeRoundTrip) {
  KmvSketch s(32);
  for (int i = 0; i < 200; ++i) s.Add("k" + std::to_string(i));
  Result<KmvSketch> back = KmvSketch::Deserialize(s.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_DOUBLE_EQ(back->Estimate(), s.Estimate());
  EXPECT_FALSE(KmvSketch::Deserialize("junk").ok());
  EXPECT_FALSE(KmvSketch::Deserialize("").ok());
}

TEST(Stats, QueryScopedNamespacesAreRecognized) {
  EXPECT_TRUE(IsQueryScopedNamespace("q123.join"));
  EXPECT_TRUE(IsQueryScopedNamespace("q7.agg"));
  EXPECT_TRUE(IsQueryScopedNamespace("!dissem"));
  EXPECT_FALSE(IsQueryScopedNamespace("quotes"));  // 'q' but no digits+dot
  EXPECT_FALSE(IsQueryScopedNamespace("events"));
  EXPECT_FALSE(IsQueryScopedNamespace("sys.stats"));
}

// ---------------------------------------------------------------------------
// StatsRegistry accrual + sys.stats round trip
// ---------------------------------------------------------------------------

/// Seed a registry directly (no network): n tuples whose partition key
/// cycles through `distinct` values, carrying `payload` extra bytes.
void Seed(StatsRegistry* reg, const std::string& table, int n, int distinct,
          int payload = 8) {
  for (int i = 0; i < n; ++i) {
    Tuple t(table);
    t.Append("k", Value::Int64(i % distinct));
    t.Append("pad", Value::Bytes(std::string(payload, 'x')));
    reg->Observe(table, t, {"k"}, t.Encode().size(), (1 + i) * kSecond);
  }
}

TEST(Stats, ArrivalRateDecaysForIdleTables) {
  StatsRegistry reg;
  // 101 tuples over 100s (Seed stamps 1s..101s): ~1 tuple/sec.
  Seed(&reg, "t", 101, 10);
  const TimeUs last = 101 * kSecond;

  double raw = reg.Snapshot("t").rate_per_sec;
  EXPECT_NEAR(raw, 1.0, 0.05);

  // Reading "as of" an instant at or before the last observation applies no
  // decay; neither does the now-less Snapshot.
  EXPECT_DOUBLE_EQ(reg.SnapshotAt("t", 0).rate_per_sec, raw);
  EXPECT_DOUBLE_EQ(reg.SnapshotAt("t", last).rate_per_sec, raw);
  EXPECT_DOUBLE_EQ(reg.SnapshotAt("t", last - kSecond).rate_per_sec, raw);

  // One half-life of silence halves the rate; a long dry spell drives it
  // toward zero instead of advertising the historical average forever.
  double one_hl =
      reg.SnapshotAt("t", last + StatsRegistry::kRateHalfLife).rate_per_sec;
  EXPECT_NEAR(one_hl, raw / 2, 0.02);
  double five_hl =
      reg.SnapshotAt("t", last + 5 * StatsRegistry::kRateHalfLife)
          .rate_per_sec;
  EXPECT_LT(five_hl, raw / 25);
  EXPECT_GT(five_hl, 0.0);

  // Everything except the rate is time-invariant.
  TableStats decayed = reg.SnapshotAt("t", last + StatsRegistry::kRateHalfLife);
  TableStats fresh = reg.Snapshot("t");
  EXPECT_EQ(decayed.tuples, fresh.tuples);
  EXPECT_DOUBLE_EQ(decayed.distinct, fresh.distinct);
  EXPECT_DOUBLE_EQ(decayed.mean_bytes, fresh.mean_bytes);
}

TEST(Stats, PublishTimeAccrualThroughClient) {
  SimPier::Options opts;
  opts.sim.seed = 3;
  opts.settle_time = 4 * kSecond;
  SimPier net(6, opts);
  ASSERT_TRUE(net.catalog()->Register(TableSpec("t").PartitionBy({"k"})).ok());
  for (int i = 0; i < 100; ++i) {
    Tuple t("t");
    t.Append("k", Value::Int64(i));
    t.Append("v", Value::Int64(i * 3));
    ASSERT_TRUE(net.client(0)->Publish("t", t).ok());
    net.RunFor(100 * kMillisecond);
  }
  ASSERT_TRUE(net.stats()->Has("t"));
  TableStats st = net.stats()->Snapshot("t");
  EXPECT_EQ(st.tuples, 100u);
  EXPECT_GT(st.mean_bytes, 0);
  EXPECT_GT(st.distinct, 60) << "100 distinct keys through a k=64 sketch";
  EXPECT_LT(st.distinct, 170);
  EXPECT_GT(st.rate_per_sec, 0) << "tuples arrived over a nonzero span";
}

TEST(Stats, SysStatsRoundTripThroughQuery) {
  SimPier::Options opts;
  opts.sim.seed = 5;
  opts.settle_time = 6 * kSecond;
  SimPier net(8, opts);
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("ev").PartitionBy({"src"})).ok());
  // Publish through MANY clients: they share one registry, whose rows all
  // carry ONE origin — folding must not multiply the counts. The publish
  // pacing ships a sys.stats row at every kStatsPublishEvery-th tuple, so
  // the last row covers every tuple.
  constexpr uint64_t kRows = 2 * PierClient::kStatsPublishEvery;
  for (uint64_t i = 0; i < kRows; ++i) {
    Tuple t("ev");
    t.Append("src", Value::Int64(static_cast<int64_t>(i % 10)));
    t.Append("n", Value::Int64(static_cast<int64_t>(i)));
    ASSERT_TRUE(net.client(i % net.size())->Publish("ev", t).ok());
  }
  net.RunFor(3 * kSecond);

  // The stats are now ordinary soft state: query them like any table.
  auto q = net.client(4)->Query(
      Sql("SELECT * FROM sys.stats WHERE table = 'ev' TIMEOUT 6s"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<Tuple> rows = q->Collect();
  ASSERT_FALSE(rows.empty()) << "sys.stats row should be queryable";

  // A fresh registry (a different node's view) folds the rows back in.
  StatsRegistry fresh;
  for (const Tuple& row : rows) {
    ASSERT_TRUE(fresh.Fold(row).ok()) << row.ToString();
  }
  ASSERT_TRUE(fresh.Has("ev"));
  TableStats st = fresh.Snapshot("ev");
  EXPECT_EQ(st.tuples, kRows);
  EXPECT_GT(st.mean_bytes, 0);
  EXPECT_GT(st.distinct, 5) << "10 distinct sources";
  EXPECT_LT(st.distinct, 20);
}

TEST(Stats, OperatorExecutionAccruesThroughPutExchange) {
  SimPier::Options opts;
  opts.sim.seed = 9;
  opts.settle_time = 6 * kSecond;
  SimPier net(6, opts);
  ASSERT_TRUE(net.catalog()->Register(TableSpec("t").PartitionBy({"k"})).ok());
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("derived").PartitionBy({"k"})).ok());
  for (int i = 0; i < 12; ++i) {
    Tuple t("t");
    t.Append("k", Value::Int64(i));
    ASSERT_TRUE(net.client(i % net.size())->Publish("t", t).ok());
  }
  net.RunFor(2 * kSecond);

  // A UFL materialization: scan t everywhere, republish into `derived`.
  auto q = net.client(0)->Query(Ufl(R"(
    query { timeout = 6s; }
    graph g broadcast {
      src: scan [ns=t];
      out: put  [ns=derived, key=k];
      src -> out;
    }
  )"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  net.RunFor(8 * kSecond);

  ASSERT_TRUE(net.stats()->Has("derived"))
      << "operator Put into an application namespace must accrue stats";
  EXPECT_EQ(net.stats()->Snapshot("derived").tuples, 12u);
  EXPECT_FALSE(net.stats()->Has("q" + std::to_string(q->id()) + ".join"))
      << "per-query rendezvous namespaces stay out of the registry";
}

// ---------------------------------------------------------------------------
// Optimizer decisions
// ---------------------------------------------------------------------------

CostParams Params(double nodes) {
  CostParams p;
  p.nodes = nodes;
  return p;
}

TEST(CostModel, PutBatchAmortizesMessagesNotBytes) {
  CostParams unbatched = Params(64);
  CostParams batched = Params(64);
  batched.put_batch = 16;
  Cost a = CostModel(unbatched).DhtPut(1600, 80);
  Cost b = CostModel(batched).DhtPut(1600, 80);
  // 16 same-owner items share a frame: 1/16th the messages, same payload.
  EXPECT_DOUBLE_EQ(b.messages, a.messages / 16.0);
  EXPECT_DOUBLE_EQ(b.bytes, a.bytes);
  EXPECT_LT(CostModel(batched).Total(b), CostModel(unbatched).Total(a));
  // put_batch=1 (the default) is exactly the unbatched pricing.
  Cost c = CostModel(Params(64)).DhtPut(1600, 80);
  EXPECT_DOUBLE_EQ(c.messages, a.messages);
  EXPECT_DOUBLE_EQ(c.bytes, a.bytes);
}

TEST(CostModel, BatchingDiscountSyncsThroughSetPublishBatching) {
  // The client mirrors its publish-batching knob into the cost params its
  // optimizer prices with, so Explain under batching sees the discount.
  SimPier net(4);
  PierClient* c = net.client(0);
  EXPECT_DOUBLE_EQ(c->cost_params().put_batch, 1.0);
  c->SetPublishBatching(64, 0);
  EXPECT_DOUBLE_EQ(c->cost_params().put_batch, 64.0);
  c->SetPublishBatching(0, 0);
  EXPECT_DOUBLE_EQ(c->cost_params().put_batch, 1.0);
}

TEST(Optimizer, SmallProbeLargeIndexedBuildPicksFetchMatches) {
  StatsRegistry reg;
  Seed(&reg, "probe", 100, 100, 8);
  Seed(&reg, "build", 5000, 5000, 8);
  Optimizer opt(&reg, CostModel(Params(64)));
  std::vector<JoinInput> inputs = {{"probe", {"k"}, false},
                                   {"build", {"j"}, false}};
  std::vector<JoinEdge> edges = {{0, 1, "j", "j"}};
  auto steps = opt.PlanJoins(inputs, edges, /*continuous=*/false);
  ASSERT_TRUE(steps.ok()) << steps.status().ToString();
  ASSERT_EQ(steps->size(), 1u);
  const JoinStep& s = (*steps)[0];
  EXPECT_EQ(s.strategy, JoinStrategy::kFetchMatches);
  EXPECT_TRUE(s.stats_based);
  EXPECT_EQ(s.inner, 1) << "the indexed side is probed";
  // Acceptance: the chosen strategy's message estimate beats SymHashJoin's.
  double rehash_msgs = -1;
  for (const auto& [strategy, cost] : s.alternatives) {
    if (strategy == JoinStrategy::kRehash) rehash_msgs = cost.messages;
  }
  ASSERT_GE(rehash_msgs, 0) << "rehash must always be a candidate";
  EXPECT_LT(s.cost.messages, rehash_msgs);
}

TEST(Optimizer, StrategyFlipsAcrossBloomCrossover) {
  // Fat probed side, neither side indexed on the join column. With a tiny
  // builder key set the Bloom prefilter pays for itself; as the builder's
  // distinct count approaches the probed side's, the filter prunes nothing
  // and plain rehash wins. A continuous plan is never offered Bloom: its
  // probe would fetch the filter once, while the build side still streams.
  auto plan_with_builder_distinct = [](int builder_distinct,
                                       bool continuous = false) {
    StatsRegistry reg;
    Seed(&reg, "big", 4000, 4000, 200);
    Seed(&reg, "small", 4000, builder_distinct, 8);
    Optimizer opt(&reg, CostModel(Params(64)));
    std::vector<JoinInput> inputs = {{"big", {"pk"}, false},
                                     {"small", {"pk"}, false}};
    std::vector<JoinEdge> edges = {{0, 1, "x", "y"}};
    auto steps = opt.PlanJoins(inputs, edges, continuous);
    EXPECT_TRUE(steps.ok());
    EXPECT_EQ(steps->size(), 1u);
    for (const auto& [strategy, cost] : (*steps)[0].alternatives)
      EXPECT_TRUE(!continuous || strategy != JoinStrategy::kBloom);
    return (*steps)[0].strategy;
  };
  EXPECT_EQ(plan_with_builder_distinct(40), JoinStrategy::kBloom)
      << "builder keys cover 1% of probe keys: prefilter prunes 99%";
  EXPECT_EQ(plan_with_builder_distinct(4000), JoinStrategy::kRehash)
      << "full key containment: the filter passes everything and only adds "
         "overhead";
  EXPECT_EQ(plan_with_builder_distinct(40, /*continuous=*/true),
            JoinStrategy::kRehash);
}

TEST(Optimizer, NoUsableStatsFallsBackToDefaults) {
  StatsRegistry reg;
  Seed(&reg, "a", 10, 10);  // below min_sample_tuples
  Seed(&reg, "b", 2000, 2000);
  Optimizer opt(&reg, CostModel(Params(64)));
  std::vector<JoinInput> inputs = {{"a", {"x"}, false}, {"b", {"y"}, false}};
  std::vector<JoinEdge> edges = {{0, 1, "x", "y"}};
  auto steps = opt.PlanJoins(inputs, edges, /*continuous=*/false);
  ASSERT_TRUE(steps.ok());
  const JoinStep& s = (*steps)[0];
  EXPECT_FALSE(s.stats_based);
  EXPECT_EQ(s.outer, 0);
  EXPECT_EQ(s.inner, 1);
  EXPECT_EQ(s.strategy, JoinStrategy::kFetchMatches)
      << "historical default: inner indexed on the join attribute";
}

TEST(Optimizer, AggregationFlipsWithDataDensity) {
  StatsRegistry reg;
  Seed(&reg, "t", 100, 100);
  // Dense: most of a 16-node network holds data -> the tree pays off.
  Optimizer dense(&reg, CostModel(Params(16)));
  AggDecision d = dense.ChooseAggStrategy("t", 0, false);
  ASSERT_TRUE(d.stats_based);
  EXPECT_EQ(d.strategy, "hier");
  // Sparse: 100 tuples across 1000 nodes -> flat only touches data holders.
  Optimizer sparse(&reg, CostModel(Params(1000)));
  AggDecision s = sparse.ChooseAggStrategy("t", 0, false);
  ASSERT_TRUE(s.stats_based);
  EXPECT_EQ(s.strategy, "flat");
  // No stats: flat, the historical default, and not stats-based.
  Optimizer none(&reg, CostModel(Params(16)));
  AggDecision n = none.ChooseAggStrategy("unknown", 0, false);
  EXPECT_EQ(n.strategy, "flat");
  EXPECT_FALSE(n.stats_based);
}

// ---------------------------------------------------------------------------
// Compiler integration
// ---------------------------------------------------------------------------

SqlOptions BaseOptions(uint64_t query_id) {
  SqlOptions o;
  o.tables["t"] = TableHint{{"k"}};
  o.tables["s"] = TableHint{{"y"}};
  o.query_id = query_id;
  return o;
}

TEST(SqlOptimizer, UnknownAggStrategyIsRejected) {
  SqlOptions o = BaseOptions(0);
  o.agg_strategy = "bogus";
  auto r = CompileSql("SELECT count(*) FROM t", o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
  for (const char* ok : {"flat", "hier", "auto"}) {
    SqlOptions good = BaseOptions(0);
    good.agg_strategy = ok;
    EXPECT_TRUE(CompileSql("SELECT count(*) FROM t", good).ok()) << ok;
  }
}

TEST(SqlOptimizer, StatsFlipJoinStrategyAndExplainShowsIt) {
  StatsRegistry reg;
  Seed(&reg, "t", 80, 80);        // small probe side
  Seed(&reg, "s", 4000, 4000);    // large build side, indexed on y
  Optimizer opt(&reg, CostModel(Params(64)));
  SqlOptions o = BaseOptions(7);
  o.optimizer = opt;
  PlanExplain explain;
  auto plan =
      CompileSql("SELECT * FROM t a, s b WHERE a.k = b.y", o, &explain);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(explain.joins.size(), 1u);
  EXPECT_EQ(explain.joins[0].strategy, JoinStrategy::kFetchMatches);
  EXPECT_TRUE(explain.joins[0].stats_based);
  int fm_ops = 0;
  for (const OpSpec& op : plan->graphs[0].ops)
    fm_ops += op.kind == OpKind::kFetchMatches;
  EXPECT_EQ(fm_ops, 1);
  opt.CostPlan(*plan, &explain);
  EXPECT_GT(explain.total.messages, 0);
  std::string text = explain.ToString();
  EXPECT_NE(text.find("fetch-matches"), std::string::npos) << text;
}

TEST(SqlOptimizer, BloomPlanCompilesAndValidates) {
  StatsRegistry reg;
  Seed(&reg, "big", 4000, 4000, 200);
  Seed(&reg, "small", 4000, 40, 8);
  Optimizer opt(&reg, CostModel(Params(64)));
  SqlOptions o;
  o.tables["big"] = TableHint{{"pk"}};
  o.tables["small"] = TableHint{{"pk"}};
  o.query_id = 11;
  o.optimizer = opt;
  PlanExplain explain;
  auto plan = CompileSql("SELECT * FROM big r, small s WHERE r.x = s.y", o,
                         &explain);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(explain.joins.size(), 1u);
  EXPECT_EQ(explain.joins[0].strategy, JoinStrategy::kBloom);
  int creates = 0, probes = 0, joins = 0;
  for (const OpGraph& g : plan->graphs) {
    for (const OpSpec& op : g.ops) {
      creates += op.kind == OpKind::kBloomCreate;
      probes += op.kind == OpKind::kBloomProbe;
      joins += op.kind == OpKind::kSymHashJoin;
    }
  }
  EXPECT_EQ(creates, 1);
  EXPECT_EQ(probes, 1);
  EXPECT_EQ(joins, 1);
}

TEST(SqlOptimizer, ThreeWayJoinCompilesAsAChain) {
  SqlOptions o;
  o.tables["orders"] = TableHint{{"oid"}};
  o.tables["cust"] = TableHint{{"cid"}};
  o.tables["item"] = TableHint{{"iid"}};
  o.query_id = 13;
  auto plan = CompileSql(
      "SELECT * FROM orders o, cust c, item i "
      "WHERE o.cust = c.cid AND o.item = i.iid",
      o);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Both inners are indexed on their join attribute: one graph, two chained
  // Fetch Matches probes.
  ASSERT_EQ(plan->graphs.size(), 1u);
  int fm = 0;
  for (const OpSpec& op : plan->graphs[0].ops)
    fm += op.kind == OpKind::kFetchMatches;
  EXPECT_EQ(fm, 2);
  // Disconnected multi-way joins are still rejected.
  auto bad = CompileSql(
      "SELECT * FROM orders o, cust c, item i WHERE o.cust = c.cid", o);
  EXPECT_FALSE(bad.ok());
}

// ---------------------------------------------------------------------------
// End-to-end: three-way join answers + EXPLAIN through the client
// ---------------------------------------------------------------------------

TEST(OptimizerE2E, ThreeWayJoinStreamsCorrectAnswers) {
  SimPier::Options opts;
  opts.sim.seed = 77;
  opts.settle_time = 8 * kSecond;
  SimPier net(10, opts);
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("orders").PartitionBy({"oid"})).ok());
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("cust").PartitionBy({"cid"})).ok());
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("item").PartitionBy({"iid"})).ok());
  for (int i = 0; i < 6; ++i) {
    Tuple t("orders");
    t.Append("oid", Value::Int64(i));
    t.Append("cust", Value::Int64(i % 3));
    t.Append("item", Value::Int64(i % 2));
    ASSERT_TRUE(net.client(i % net.size())->Publish("orders", t).ok());
  }
  for (int i = 0; i < 3; ++i) {
    Tuple t("cust");
    t.Append("cid", Value::Int64(i));
    t.Append("name", Value::String("c" + std::to_string(i)));
    ASSERT_TRUE(net.client((i + 2) % net.size())->Publish("cust", t).ok());
  }
  for (int i = 0; i < 2; ++i) {
    Tuple t("item");
    t.Append("iid", Value::Int64(i));
    t.Append("label", Value::String("i" + std::to_string(i)));
    ASSERT_TRUE(net.client((i + 5) % net.size())->Publish("item", t).ok());
  }
  net.RunFor(3 * kSecond);

  auto q = net.client(1)->Query(
      Sql("SELECT * FROM orders o, cust c, item i "
          "WHERE o.cust = c.cid AND o.item = i.iid TIMEOUT 12s"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<Tuple> rows = q->Collect();
  ASSERT_EQ(rows.size(), 6u) << "every order matches one cust and one item";
  std::set<int64_t> oids;
  for (const Tuple& t : rows) {
    ASSERT_TRUE(t.Has("name")) << t.ToString();
    ASSERT_TRUE(t.Has("label")) << t.ToString();
    oids.insert(t.Get("oid")->int64_unchecked());
  }
  EXPECT_EQ(oids.size(), 6u);
}

// UFL is a physical plan already: EXPLAIN takes it as written, makes no join
// or aggregation decision, and costs the graph's dissemination and each of
// its operators.
TEST(OptimizerE2E, ExplainTakesAUflPlanAsWritten) {
  SimPier::Options opts;
  opts.sim.seed = 93;
  opts.settle_time = 1 * kSecond;
  SimPier net(2, opts);
  const Ufl program(R"(
    query { timeout = 5s; }
    graph g broadcast {
      s: scan [ns=events]; f: selection [pred="a > 1"]; o: result;
      s -> f -> o;
    }
  )");
  auto compiled = net.client(0)->Compile(program);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto ex = net.client(0)->Explain(program);
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  EXPECT_EQ(ex->plan.Encode(), compiled->Encode());
  EXPECT_TRUE(ex->detail.joins.empty());
  EXPECT_TRUE(ex->detail.agg.strategy.empty());
  ASSERT_EQ(ex->detail.ops.size(), 4u);
  EXPECT_EQ(ex->detail.ops[0].op, "disseminate");
  EXPECT_GT(ex->detail.ops[0].cost.messages, 0) << "a broadcast costs";
  for (const ExplainOp& op : ex->detail.ops) EXPECT_EQ(op.graph_id, 1u);

  Status bad = net.client(0)->Explain(Ufl("query { timeout = 5s; }")).status();
  EXPECT_FALSE(bad.ok()) << "a program with no graph explains nothing";
}

TEST(OptimizerE2E, ExplainSelectsCheapPlanFromAccruedStats) {
  SimPier::Options opts;
  opts.sim.seed = 91;
  opts.settle_time = 8 * kSecond;
  SimPier net(10, opts);
  ASSERT_TRUE(net.catalog()->Register(TableSpec("r").PartitionBy({"x"})).ok());
  ASSERT_TRUE(net.catalog()->Register(TableSpec("s").PartitionBy({"y"})).ok());
  for (int i = 0; i < 80; ++i) {  // small probe side
    Tuple t("r");
    t.Append("x", Value::Int64(i));
    ASSERT_TRUE(net.client(i % net.size())->Publish("r", t).ok());
  }
  for (int i = 0; i < 400; ++i) {  // large indexed build side
    Tuple t("s");
    t.Append("y", Value::Int64(i));
    t.Append("b", Value::Int64(1000 + i));
    ASSERT_TRUE(net.client(i % net.size())->Publish("s", t).ok());
  }
  net.RunFor(2 * kSecond);

  auto ex = net.client(3)->Explain(
      Sql("SELECT * FROM r a, s b WHERE a.x = b.y TIMEOUT 10s"));
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  ASSERT_EQ(ex->detail.joins.size(), 1u);
  const JoinStep& s = ex->detail.joins[0];
  EXPECT_TRUE(s.stats_based) << "480 tuples accrued: stats must be usable";
  EXPECT_TRUE(s.strategy == JoinStrategy::kFetchMatches ||
              s.strategy == JoinStrategy::kBloom)
      << JoinStrategyName(s.strategy);
  double rehash_msgs = -1;
  for (const auto& [strategy, cost] : s.alternatives) {
    if (strategy == JoinStrategy::kRehash) rehash_msgs = cost.messages;
  }
  ASSERT_GE(rehash_msgs, 0);
  EXPECT_LT(s.cost.messages, rehash_msgs)
      << "chosen plan must beat the SymHashJoin estimate on messages";

  // The explained plan runs and produces the join result.
  auto q = net.client(3)->Query(std::move(ex->plan));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<Tuple> rows = q->Collect();
  EXPECT_EQ(rows.size(), 80u) << "every r row has exactly one s match";
}

// ---------------------------------------------------------------------------
// FoldForeign (the background refresh's ingest path)
// ---------------------------------------------------------------------------

TEST(Stats, FoldForeignSkipsOwnOriginRows) {
  StatsRegistry mine;
  mine.set_origin(7);
  Seed(&mine, "t", 50, 10);

  StatsRegistry other;
  other.set_origin(9);
  Seed(&other, "t", 30, 5);

  // A refresh query streams back every published row, including this
  // registry's own: folding those must not double count.
  ASSERT_TRUE(mine.FoldForeign(mine.ToSysTuple("t")).ok());
  EXPECT_EQ(mine.Snapshot("t").tuples, 50u) << "own row must be a no-op";

  ASSERT_TRUE(mine.FoldForeign(other.ToSysTuple("t")).ok());
  EXPECT_EQ(mine.Snapshot("t").tuples, 80u) << "foreign rows fold in";

  EXPECT_FALSE(mine.FoldForeign(Tuple("junk")).ok());
}

// ---------------------------------------------------------------------------
// Replanning policy
// ---------------------------------------------------------------------------

/// The client's replan threshold.
constexpr double kDefaultRatio = PierClient::kReplanCostRatio;

/// An aggregation PlanExplain with just the strategy decision filled in.
PlanExplain AggExplain(const std::string& strategy) {
  PlanExplain ex;
  ex.agg.strategy = strategy;
  return ex;
}

/// A one-graph flat-style plan over `table`: scan -> partial -> put.
QueryPlan FlatAggPlan(const std::string& table) {
  QueryPlan plan;
  plan.continuous = true;
  OpGraph& g = plan.AddGraph();
  OpSpec& scan = g.AddOp(OpKind::kScan);
  scan.Set("ns", table);
  uint32_t tail = scan.id;
  OpSpec& part = g.AddOp(OpKind::kGroupBy);
  part.Set("keys", "k");
  part.Set("aggs", "count:*:c");
  part.Set("mode", "partial");
  uint32_t part_id = part.id;
  g.Connect(tail, part_id, 0);
  OpSpec& put = g.AddOp(OpKind::kPut);
  put.Set("ns", "q1.agg");
  put.Set("key", "k");
  g.Connect(part_id, put.id, 0);
  return plan;
}

/// The hier-style equivalent: scan -> hieragg -> result.
QueryPlan HierAggPlan(const std::string& table) {
  QueryPlan plan;
  plan.continuous = true;
  OpGraph& g = plan.AddGraph();
  OpSpec& scan = g.AddOp(OpKind::kScan);
  scan.Set("ns", table);
  uint32_t tail = scan.id;
  OpSpec& agg = g.AddOp(OpKind::kHierAgg);
  agg.Set("keys", "k");
  agg.Set("aggs", "count:*:c");
  uint32_t agg_id = agg.id;
  g.Connect(tail, agg_id, 0);
  OpSpec& res = g.AddOp(OpKind::kResult);
  g.Connect(agg_id, res.id, 0);
  return plan;
}

TEST(OptimizerReplan, FingerprintTracksDecisionsNotCosts) {
  PlanExplain a = AggExplain("flat");
  PlanExplain b = AggExplain("flat");
  b.total = Cost{999, 999999};  // cost numbers must not affect identity
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_NE(a.Fingerprint(), AggExplain("hier").Fingerprint());

  PlanExplain join1;
  JoinStep s;
  s.outer_name = "r";
  s.outer_col = "x";
  s.inner_name = "s";
  s.inner_col = "y";
  s.strategy = JoinStrategy::kRehash;
  join1.joins.push_back(s);
  PlanExplain join2 = join1;
  join2.joins[0].strategy = JoinStrategy::kBloom;
  EXPECT_NE(join1.Fingerprint(), join2.Fingerprint());
  PlanExplain join3 = join1;
  join3.joins[0].stats_based = true;  // same strategy, now confirmed by stats
  EXPECT_EQ(join1.Fingerprint(), join3.Fingerprint());
}

TEST(OptimizerReplan, UnchangedStrategyNeverSwaps) {
  StatsRegistry reg;
  Seed(&reg, "t", 5000, 40);
  Optimizer opt(&reg, CostModel(CostParams{}));
  std::string fp = AggExplain("flat").Fingerprint();
  ReplanDecision d = opt.Consider(FlatAggPlan("t"), fp, FlatAggPlan("t"),
                                  AggExplain("flat"), kDefaultRatio);
  EXPECT_FALSE(d.swap);
  EXPECT_FALSE(d.strategy_changed);
}

TEST(OptimizerReplan, SwapsOnlyPastTheCostRatioThreshold) {
  CostParams params;
  params.nodes = 32;
  StatsRegistry reg;
  // Dense table: far more tuples than nodes, so the flat plan's per-window
  // rehash of partials dwarfs the aggregation tree's 2N reports.
  Seed(&reg, "t", 5000, 40);

  std::string flat_fp = AggExplain("flat").Fingerprint();
  Optimizer opt(&reg, CostModel(params));
  ReplanDecision d = opt.Consider(FlatAggPlan("t"), flat_fp, HierAggPlan("t"),
                                  AggExplain("hier"), kDefaultRatio);
  EXPECT_TRUE(d.strategy_changed);
  ASSERT_GT(d.fresh_total, 0);
  EXPECT_GT(d.ratio, 1.0) << "hier must estimate cheaper on the dense table";
  EXPECT_EQ(d.swap, d.ratio >= kDefaultRatio);

  // A sky-high threshold vetoes the same strategy change.
  ReplanDecision vetoed = opt.Consider(FlatAggPlan("t"), flat_fp,
                                       HierAggPlan("t"), AggExplain("hier"),
                                       /*min_cost_ratio=*/1e9);
  EXPECT_TRUE(vetoed.strategy_changed);
  EXPECT_FALSE(vetoed.swap);

  // A permissive threshold takes it.
  ReplanDecision taken = opt.Consider(FlatAggPlan("t"), flat_fp,
                                      HierAggPlan("t"), AggExplain("hier"),
                                      /*min_cost_ratio=*/1.0);
  EXPECT_TRUE(taken.swap);
}

}  // namespace
}  // namespace pier
