// End-to-end query processing over a simulated PIER network, driven entirely
// through the PierClient façade: declare tables in the catalog, publish base
// tuples, submit SQL, receive answers at the proxy.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>

#include "decoder_fuzz.h"
#include "qp/sim_pier.h"
#include "qp/ufl.h"
#include "util/random.h"

namespace pier {
namespace {

SimPier::Options PierOptions(uint64_t seed = 7) {
  SimPier::Options opts;
  opts.sim.seed = seed;
  opts.seed_routing = true;
  opts.settle_time = 8 * kSecond;
  return opts;
}

/// Publish `n` rows of a simple table t(k, v, s) spread across the nodes:
/// k = row index, v = k * 10, s = "row<k>". Partitioned by k.
void PublishRows(SimPier* net, int n, const std::string& table = "t") {
  ASSERT_TRUE(
      net->catalog()->Register(TableSpec(table).PartitionBy({"k"})).ok());
  for (int i = 0; i < n; ++i) {
    Tuple t(table);
    t.Append("k", Value::Int64(i));
    t.Append("v", Value::Int64(i * 10));
    t.Append("s", Value::String("row" + std::to_string(i)));
    ASSERT_TRUE(net->client(i % net->size())->Publish(table, t).ok());
  }
}

/// Register ev(src, ...) partitioned by src and publish `rows` of it.
void PublishEvents(SimPier* net, const std::vector<Tuple>& rows) {
  ASSERT_TRUE(
      net->catalog()->Register(TableSpec("ev").PartitionBy({"src"})).ok());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(net->client(i % net->size())->Publish("ev", rows[i]).ok());
  }
}

TEST(QpE2E, SelectWhereStreamsMatchingRows) {
  SimPier net(10, PierOptions());
  PublishRows(&net, 20);
  net.RunFor(3 * kSecond);

  auto q = net.client(3)->Query(
      Sql("SELECT k, v FROM t WHERE v >= 150 TIMEOUT 10s"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  std::vector<int64_t> ks;
  bool done = false;
  q->OnTuple([&](const Tuple& t) {
    ASSERT_TRUE(t.Has("k"));
    ASSERT_TRUE(t.Has("v"));
    EXPECT_FALSE(t.Has("s")) << "projection should drop s";
    ks.push_back(t.Get("k")->int64_unchecked());
  });
  q->OnDone([&]() { done = true; });

  EXPECT_TRUE(q->Wait().ok());
  EXPECT_TRUE(done);
  EXPECT_TRUE(q->done());
  std::sort(ks.begin(), ks.end());
  // v >= 150 -> k in {15..19}.
  EXPECT_EQ(ks, (std::vector<int64_t>{15, 16, 17, 18, 19}));
  EXPECT_EQ(q->stats().tuples, 5u);
  EXPECT_GE(q->stats().first_tuple_latency, 0);
  EXPECT_LE(q->stats().first_tuple_latency, q->stats().last_tuple_latency);
}

TEST(QpE2E, EqualityPredicateUsesTargetedDissemination) {
  SimPier net(12, PierOptions(11));
  PublishRows(&net, 24);
  net.RunFor(3 * kSecond);

  // Compile() exposes the plan for shape assertions; the same plan is then
  // submitted through the native-plan entry point.
  auto plan =
      net.client(0)->Compile(Sql("SELECT * FROM t WHERE k = 7 TIMEOUT 8s"));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->graphs.size(), 1u);
  EXPECT_EQ(plan->graphs[0].dissem, DissemKind::kEquality);

  auto q = net.client(0)->Query(std::move(*plan));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<Tuple> rows = q->Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].Get("k")->int64_unchecked(), 7);
  EXPECT_EQ(rows[0].Get("v")->int64_unchecked(), 70);
}

TEST(QpE2E, FlatAggregationCountsPerGroup) {
  SimPier net(10, PierOptions(23));
  // 30 events across 3 sources with known counts: src0 x 15, src1 x 10,
  // src2 x 5.
  std::vector<Tuple> rows;
  int counts[3] = {15, 10, 5};
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < counts[s]; ++i) {
      Tuple t("ev");
      t.Append("src", Value::String("src" + std::to_string(s)));
      t.Append("bytes", Value::Int64(100 + i));
      rows.push_back(std::move(t));
    }
  }
  PublishEvents(&net, rows);
  net.RunFor(3 * kSecond);

  auto q = net.client(2)->Query(
      Sql("SELECT src, count(*) AS cnt, sum(bytes) AS total FROM ev "
          "GROUP BY src TIMEOUT 12s"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  std::map<std::string, int64_t> got;
  std::map<std::string, int64_t> sums;
  q->OnTuple([&](const Tuple& t) {
    ASSERT_TRUE(t.Has("src"));
    got[std::string(*t.Get("src")->AsString())] =
        t.Get("cnt")->int64_unchecked();
    sums[std::string(*t.Get("src")->AsString())] =
        t.Get("total")->int64_unchecked();
  });
  EXPECT_TRUE(q->Wait().ok());

  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got["src0"], 15);
  EXPECT_EQ(got["src1"], 10);
  EXPECT_EQ(got["src2"], 5);
  // sum over i of (100+i) for i in [0, n).
  EXPECT_EQ(sums["src2"], 100 * 5 + 0 + 1 + 2 + 3 + 4);
}

TEST(QpE2E, HierarchicalAggregationMatchesFlat) {
  SimPier net(16, PierOptions(31));
  // ev(src, x, y, z): x is an int, y a double, z null in every third row.
  struct Truth {
    int64_t cnt = 0, sum_x = 0, min_x = INT64_MAX, count_z = 0;
    double max_y = -1e300;
  };
  std::map<std::string, Truth> truth;
  std::vector<Tuple> rows;
  for (int i = 0; i < 48; ++i) {
    Tuple t("ev");
    std::string src = "s" + std::to_string(i % 4);
    t.Append("src", Value::String(src));
    t.Append("x", Value::Int64(i * 3 - 20));
    t.Append("y", Value::Double(i * 0.5 + 0.25));
    t.Append("z", i % 3 == 0 ? Value::Null() : Value::Int64(i));
    Truth& g = truth[src];
    g.cnt++;
    g.sum_x += i * 3 - 20;
    g.min_x = std::min<int64_t>(g.min_x, i * 3 - 20);
    g.max_y = std::max(g.max_y, i * 0.5 + 0.25);
    g.count_z += i % 3 != 0;
    rows.push_back(std::move(t));
  }
  PublishEvents(&net, rows);
  net.RunFor(3 * kSecond);

  for (const char* strategy : {"hier", "flat"}) {
    SCOPED_TRACE(strategy);
    Sql sql = Sql("SELECT src, count(*) AS cnt, sum(x) AS sx, min(x) AS mnx, "
                  "max(y) AS mxy, avg(x) AS ax, count(z) AS cz FROM ev "
                  "GROUP BY src TIMEOUT 14s")
                  .WithAggStrategy(strategy);
    auto plan = net.client(5)->Compile(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    if (std::string(strategy) == "hier") {
      ASSERT_EQ(plan->graphs.size(), 1u) << "hier strategy is single-graph";
    }

    auto q = net.client(5)->Query(std::move(*plan));
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    // Hier roots may re-emit refined totals; the latest row per group wins.
    std::map<std::string, Tuple> got;
    q->OnTuple([&](const Tuple& t) {
      got[std::string(*t.Get("src")->AsString())] = t;
    });
    EXPECT_TRUE(q->Wait().ok());

    ASSERT_EQ(got.size(), 4u);
    for (int s = 0; s < 4; ++s) {
      std::string src = "s" + std::to_string(s);
      const Tuple& t = got[src];
      const Truth& want = truth[src];
      EXPECT_EQ(t.Get("cnt")->int64_unchecked(), 12) << "group " << src;
      EXPECT_EQ(*t.Get("cnt"), Value::Int64(want.cnt)) << src;
      EXPECT_EQ(*t.Get("sx"), Value::Int64(want.sum_x)) << src;
      EXPECT_EQ(*t.Get("mnx"), Value::Int64(want.min_x)) << src;
      EXPECT_EQ(*t.Get("mxy"), Value::Double(want.max_y)) << src;
      EXPECT_TRUE(t.Get("ax")->LooseEquals(
          Value::Double(static_cast<double>(want.sum_x) / want.cnt)))
          << src;
      EXPECT_EQ(*t.Get("cz"), Value::Int64(want.count_z)) << src;
    }
  }
}

TEST(QpE2E, HierAggIgnoresHostilePartialFrames) {
  SimPier net(16, PierOptions(31));
  std::vector<Tuple> rows;
  for (int i = 0; i < 48; ++i) {
    Tuple t("ev");
    t.Append("src", Value::String("s" + std::to_string(i % 4)));
    rows.push_back(std::move(t));
  }
  PublishEvents(&net, rows);
  net.RunFor(3 * kSecond);

  auto plan = net.client(5)->Compile(
      Sql("SELECT src, count(*) AS cnt FROM ev GROUP BY src TIMEOUT 14s")
          .WithAggStrategy("hier"));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->graphs.size(), 1u);
  const OpGraph& graph = plan->graphs[0];
  uint32_t agg_op = 0;
  for (const OpSpec& op : graph.ops) {
    if (op.kind == OpKind::kHierAgg) agg_op = op.id;
  }
  ASSERT_NE(agg_op, 0u);
  uint32_t graph_id = graph.id;

  auto q = net.client(5)->Query(std::move(*plan));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::map<std::string, int64_t> got;
  q->OnTuple([&](const Tuple& t) {
    got[std::string(*t.Get("src")->AsString())] =
        t.Get("cnt")->int64_unchecked();
  });

  // A partial for s0 that would add 1,000 to its count if it were merged.
  Tuple partial("agg");
  partial.Append("src", Value::String("s0"));
  partial.Append("cnt#n", Value::Int64(1000));
  WireWriter w;
  TupleBatch::FromTuples({partial}).EncodeTo(&w);
  std::string valid = std::move(w).data();
  const std::string ns = "q" + std::to_string(q->id()) + ".g" +
                         std::to_string(graph_id) + ".op" +
                         std::to_string(agg_op) + ".agg";
  net.RunFor(1 * kSecond);
  net.dht(3)->Put(ns, "root", "truncated", valid.substr(0, valid.size() / 2),
                  60 * kSecond);
  net.dht(7)->Put(ns, "root", "garbage", std::string("\x07\xff\xfegarbage"),
                  60 * kSecond);
  net.dht(11)->Put(ns, "root", "trailing", valid + '\0', 60 * kSecond);
  EXPECT_TRUE(q->Wait().ok());

  ASSERT_EQ(got.size(), 4u);
  for (int s = 0; s < 4; ++s)
    EXPECT_EQ(got["s" + std::to_string(s)], 12) << "group s" << s;
}

TEST(QpE2E, TopKOrdersGroupsGlobally) {
  SimPier net(10, PierOptions(41));
  std::vector<Tuple> rows;
  int counts[5] = {25, 16, 9, 4, 1};
  for (int s = 0; s < 5; ++s) {
    for (int i = 0; i < counts[s]; ++i) {
      Tuple t("ev");
      t.Append("src", Value::String("src" + std::to_string(s)));
      rows.push_back(std::move(t));
    }
  }
  PublishEvents(&net, rows);
  net.RunFor(3 * kSecond);

  auto q = net.client(1)->Query(
      Sql("SELECT src, count(*) AS cnt FROM ev GROUP BY src "
          "ORDER BY cnt DESC LIMIT 3 TIMEOUT 16s"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  std::vector<std::pair<std::string, int64_t>> got;
  q->OnTuple([&](const Tuple& t) {
    got.emplace_back(std::string(*t.Get("src")->AsString()),
                     t.Get("cnt")->int64_unchecked());
  });
  EXPECT_TRUE(q->Wait().ok());

  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (std::pair<std::string, int64_t>{"src0", 25}));
  EXPECT_EQ(got[1], (std::pair<std::string, int64_t>{"src1", 16}));
  EXPECT_EQ(got[2], (std::pair<std::string, int64_t>{"src2", 9}));
}

TEST(QpE2E, RehashSymmetricHashJoin) {
  SimPier net(10, PierOptions(53));
  // r(a, x): 8 rows; s(b, y): join attr x = y matches for 0..3.
  ASSERT_TRUE(net.catalog()->Register(TableSpec("r").PartitionBy({"a"})).ok());
  // s partitioned on b, NOT the join attr: forces the rehash SHJ plan.
  ASSERT_TRUE(net.catalog()->Register(TableSpec("s").PartitionBy({"b"})).ok());
  for (int i = 0; i < 8; ++i) {
    Tuple t("r");
    t.Append("a", Value::Int64(i));
    t.Append("x", Value::Int64(i));
    ASSERT_TRUE(net.client(i % net.size())->Publish("r", t).ok());
  }
  for (int i = 0; i < 4; ++i) {
    Tuple t("s");
    t.Append("b", Value::Int64(100 + i));
    t.Append("y", Value::Int64(i));
    ASSERT_TRUE(net.client((i + 3) % net.size())->Publish("s", t).ok());
  }
  net.RunFor(3 * kSecond);

  auto plan = net.client(4)->Compile(
      Sql("SELECT * FROM r r1, s s1 WHERE r1.x = s1.y TIMEOUT 14s"));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->graphs.size(), 3u) << "rehash plan: two puts + one join";

  auto q = net.client(4)->Query(std::move(*plan));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<std::pair<int64_t, int64_t>> matches;  // (a, b)
  q->OnTuple([&](const Tuple& t) {
    ASSERT_TRUE(t.Has("a"));
    ASSERT_TRUE(t.Has("b"));
    matches.emplace_back(t.Get("a")->int64_unchecked(),
                         t.Get("b")->int64_unchecked());
  });
  EXPECT_TRUE(q->Wait().ok());

  std::sort(matches.begin(), matches.end());
  ASSERT_EQ(matches.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(matches[i].first, i);
    EXPECT_EQ(matches[i].second, 100 + i);
  }
}

// Two rehash steps and a collector: every join graph flushes at stage 1, so
// the ORDER BY/LIMIT collector flushes at stage 2, before the query closes.
TEST(QpE2E, OrderByLimitOverAThreeTableRehashJoin) {
  SimPier net(16, PierOptions(59));
  // Every table is partitioned on a column no join uses: both steps rehash.
  for (const char* table : {"a", "b", "c"}) {
    ASSERT_TRUE(
        net.catalog()->Register(TableSpec(table).PartitionBy({"p"})).ok());
  }
  for (int i = 0; i < 40; ++i) {
    Tuple a("a");
    a.Append("p", Value::Int64(i));
    a.Append("aid", Value::Int64(i));
    a.Append("x", Value::Int64(i));
    Tuple b("b");
    b.Append("p", Value::Int64(i));
    b.Append("y", Value::Int64(i));
    b.Append("z", Value::Int64(100 + i));
    Tuple c("c");
    c.Append("p", Value::Int64(i));
    c.Append("cid", Value::Int64(1000 + i));
    c.Append("w", Value::Int64(100 + i));
    ASSERT_TRUE(net.client(i % net.size())->Publish("a", a).ok());
    ASSERT_TRUE(net.client((i + 5) % net.size())->Publish("b", b).ok());
    ASSERT_TRUE(net.client((i + 9) % net.size())->Publish("c", c).ok());
  }
  net.RunFor(3 * kSecond);

  auto plan = net.client(2)->Compile(
      Sql("SELECT a.aid, c.cid FROM a, b, c WHERE a.x = b.y AND b.z = c.w "
          "ORDER BY a.aid LIMIT 5 TIMEOUT 8s"));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  int join_graphs = 0;
  for (const OpGraph& g : plan->graphs) {
    EXPECT_LE(g.flush_stage, OpGraph::kMaxFlushStage);
    for (const OpSpec& op : g.ops)
      join_graphs += op.kind == OpKind::kSymHashJoin;
  }
  ASSERT_EQ(join_graphs, 2) << "two rehash steps";

  auto q = net.client(2)->Query(std::move(*plan));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<Tuple> rows = q->Collect();
  ASSERT_EQ(rows.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(*rows[i].Get("aid"), Value::Int64(i));
    EXPECT_EQ(*rows[i].Get("cid"), Value::Int64(1000 + i));
  }
}

TEST(QpE2E, FetchMatchesJoinViaPrimaryIndex) {
  SimPier net(10, PierOptions(67));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("orders").PartitionBy({"oid"})).ok());
  // cust's primary index == the join attribute -> Fetch Matches join.
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("cust").PartitionBy({"cid"})).ok());
  for (int i = 0; i < 6; ++i) {
    Tuple t("orders");
    t.Append("oid", Value::Int64(i));
    t.Append("cust", Value::Int64(i % 3));
    ASSERT_TRUE(net.client(i % net.size())->Publish("orders", t).ok());
  }
  for (int i = 0; i < 3; ++i) {
    Tuple t("cust");
    t.Append("cid", Value::Int64(i));
    t.Append("name", Value::String("c" + std::to_string(i)));
    ASSERT_TRUE(net.client((i + 5) % net.size())->Publish("cust", t).ok());
  }
  net.RunFor(3 * kSecond);

  auto plan = net.client(2)->Compile(
      Sql("SELECT * FROM orders o, cust c WHERE o.cust = c.cid TIMEOUT 12s"));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->graphs.size(), 1u) << "FM join plan is a single graph";
  bool has_fm = false;
  for (const OpSpec& op : plan->graphs[0].ops)
    has_fm |= op.kind == OpKind::kFetchMatches;
  EXPECT_TRUE(has_fm);

  auto q = net.client(2)->Query(std::move(*plan));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<Tuple> rows = q->Collect();
  EXPECT_EQ(rows.size(), 6u);
  for (const Tuple& t : rows) {
    EXPECT_TRUE(t.Has("name"));
    EXPECT_TRUE(t.Has("oid"));
  }
}

// Every flows row names one of 256 hosts, and the optimizer Bloom-prefilters
// flows against the hosts' addresses. The probe fetches the filter at its
// graph's stage-1 flush, a stage after the build side's stage-0 flush put
// it, so no matching row is dropped by a partial filter. A continuous join is
// never offered Bloom: its first window flush is also the build side's.
TEST(QpE2E, BloomJoinReturnsEveryMatchingRow) {
  SimPier net(64, PierOptions(1));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("flows").PartitionBy({"id"})).ok());
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("hosts").PartitionBy({"addr"})).ok());
  for (int h = 0; h < 256; ++h) {
    Tuple t("hosts");
    t.Append("addr", Value::Int64(h));
    t.Append("region", Value::String("r" + std::to_string(h % 8)));
    ASSERT_TRUE(net.client(h % net.size())->Publish("hosts", t).ok());
  }
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    Tuple t("flows");
    t.Append("id", Value::Int64(i));
    t.Append("dst", Value::Int64(static_cast<int64_t>(rng.Uniform(256))));
    ASSERT_TRUE(net.client(i % net.size())->Publish("flows", t).ok());
  }
  net.RunFor(5 * kSecond);

  const std::string join =
      "SELECT f.id, h.region FROM flows f, hosts h WHERE f.dst = h.addr ";
  auto has_probe = [](const QueryPlan& plan) {
    for (const OpGraph& g : plan.graphs)
      for (const OpSpec& op : g.ops)
        if (op.kind == OpKind::kBloomProbe) return true;
    return false;
  };
  auto ex = net.client(0)->Explain(Sql(join + "TIMEOUT 8s"));
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  EXPECT_TRUE(has_probe(ex->plan)) << ex->detail.ToString();

  for (const char* timeout : {"TIMEOUT 8s", "TIMEOUT 4s"}) {
    auto q = net.client(0)->Query(Sql(join + timeout));
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    std::set<int64_t> ids;
    for (const Tuple& t : q->Collect()) ids.insert(*t.Get("id")->AsInt64());
    EXPECT_EQ(ids.size(), 2000u) << timeout;
  }

  const Sql continuous(join + "TIMEOUT 8s WINDOW 2s CONTINUOUS");
  auto plan = net.client(0)->Compile(continuous);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(has_probe(*plan));
  auto q = net.client(0)->Query(continuous);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::set<int64_t> ids;
  q->OnTuple([&](const Tuple& t) { ids.insert(*t.Get("id")->AsInt64()); });
  EXPECT_TRUE(q->Wait().ok());
  EXPECT_EQ(ids.size(), 2000u) << "continuous";
}

TEST(QpE2E, ContinuousQuerySeesLatePublishes) {
  SimPier net(8, PierOptions(71));
  net.RunFor(1 * kSecond);
  // Declared before anything is published: metadata, not data, is what the
  // catalog tracks, so a continuous query over an empty table is fine.
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("ev").PartitionBy({"src"})).ok());

  auto plan = net.client(0)->Compile(
      Sql("SELECT src, count(*) AS cnt FROM ev GROUP BY src "
          "TIMEOUT 20s WINDOW 3s CONTINUOUS"));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->continuous);

  auto q = net.client(0)->Query(std::move(*plan));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<int64_t> observed;
  q->OnTuple([&](const Tuple& t) {
    if (*t.Get("src")->AsString() == "live")
      observed.push_back(t.Get("cnt")->int64_unchecked());
  });
  net.RunFor(2 * kSecond);

  // Publish while the query is live; each window should fold new arrivals.
  for (int i = 0; i < 6; ++i) {
    Tuple t("ev");
    t.Append("src", Value::String("live"));
    ASSERT_TRUE(net.client(i % net.size())->Publish("ev", t).ok());
    net.RunFor(1 * kSecond);
  }
  net.RunFor(10 * kSecond);

  ASSERT_FALSE(observed.empty());
  // Tumbling windows: the total of the per-window counts is the 6 events.
  int64_t total = 0;
  for (int64_t c : observed) total += c;
  EXPECT_EQ(total, 6);
}

// ---------------------------------------------------------------------------
// Absolute deadlines (the close-timeout hole from the relative-timeout era)
// ---------------------------------------------------------------------------

TEST(QpE2E, SubmitStampsAnAbsoluteDeadlineOntoDisseminatedPlans) {
  SimPier net(6, PierOptions(83));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("t").PartitionBy({"k"})).ok());
  // Watch targeted dissemination arrive as stored objects and decode the
  // plan every executing node actually sees.
  TimeUs seen_deadline = -1;
  std::vector<uint64_t> subs;
  for (uint32_t i = 0; i < net.size(); ++i) {
    subs.push_back(net.dht(i)->OnNewData(
        "!dissem", [&](const ObjectName&, std::string_view blob) {
          auto p = QueryPlan::Decode(blob);
          if (p.ok()) seen_deadline = p->deadline_us;
        }));
  }
  TimeUs submitted_at = net.loop()->now();
  auto q = net.client(0)->Query(
      Sql("SELECT * FROM t WHERE k = 3 TIMEOUT 5s"));  // equality dissem
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  net.RunFor(3 * kSecond);
  EXPECT_EQ(seen_deadline, submitted_at + 5 * kSecond)
      << "SubmitQuery must stamp now + timeout as the absolute deadline";
  for (uint32_t i = 0; i < net.size(); ++i) net.dht(i)->CancelNewData(subs[i]);
}

TEST(QpE2E, LateGenerationFirstSightClosesAtTheDeadline) {
  // The PR-3 hole: a node whose FIRST sight of a continuous query is a
  // later generation used to arm a FULL timeout from swap time. With the
  // absolute deadline it arms only the remaining lifetime.
  SimPier net(2, PierOptions(87));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("ev").PartitionBy({"src"})).ok());

  QueryPlan plan;
  plan.query_id = 4242;
  plan.continuous = true;
  plan.timeout = 60 * kSecond;  // nominal lifetime: a minute...
  plan.window = 2 * kSecond;
  plan.generation = 3;  // ...but this node joins at generation 3,
  plan.deadline_us = net.loop()->now() + 4 * kSecond;  // 4s before the end
  OpGraph& g = plan.AddGraph();
  OpSpec& scan = g.AddOp(OpKind::kScan);
  scan.Set("ns", "ev");
  uint32_t scan_id = scan.id;
  OpSpec& res = g.AddOp(OpKind::kResult);
  g.Connect(scan_id, res.id, 0);

  QueryPlan meta = plan;
  meta.graphs.clear();
  QueryExecutor* exec = net.qp(1)->executor();
  ASSERT_TRUE(exec->StartGraphs(meta, plan.graphs).ok());
  ASSERT_TRUE(exec->HasQuery(4242));
  net.RunFor(2 * kSecond);
  EXPECT_TRUE(exec->HasQuery(4242)) << "still inside the remaining lifetime";
  net.RunFor(4 * kSecond);
  EXPECT_FALSE(exec->HasQuery(4242))
      << "the query must close at the absolute deadline, not at "
         "swap time + full timeout";
}

// ---------------------------------------------------------------------------
// Continuous-query lifecycle: swap, auto-replan
// ---------------------------------------------------------------------------

// A query's window is fixed at submission, like its deadline and timeout: a
// swapped-in plan compiled with another WINDOW runs on the submitted grid.
TEST(QpE2E, SwapKeepsTheSubmittedWindow) {
  SimPier net(8, PierOptions(91));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("ev").PartitionBy({"src"})).ok());
  constexpr TimeUs kW = 4 * kSecond;
  const char* submitted =
      "SELECT src, count(*) AS cnt FROM ev GROUP BY src "
      "TIMEOUT 60s WINDOW 4s CONTINUOUS";
  auto q = net.client(0)->Query(Sql(submitted).WithAggStrategy("flat"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const uint64_t qid = q->id();
  std::vector<TimeUs> deliveries;
  q->OnTuple([&](const Tuple&) { deliveries.push_back(net.loop()->now()); });
  auto publish_for = [&](TimeUs span) {
    for (TimeUs t = 0; t < span; t += kSecond) {
      Tuple e("ev");
      e.Append("src", Value::String("live"));
      ASSERT_TRUE(net.client(0)->Publish("ev", e).ok());
      net.RunFor(kSecond);
    }
  };
  publish_for(6 * kSecond);

  auto faster = net.client(0)->Compile(
      Sql("SELECT src, count(*) AS cnt FROM ev GROUP BY src "
          "TIMEOUT 60s WINDOW 1s CONTINUOUS")
          .WithAggStrategy("flat"));
  ASSERT_TRUE(faster.ok()) << faster.status().ToString();
  ASSERT_EQ(faster->window, kSecond);
  ASSERT_TRUE(net.qp(0)->SwapQuery(qid, std::move(*faster)).ok());
  auto stored = net.qp(0)->ProxyPlan(qid);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_EQ(stored->window, kW) << "the proxy's plan keeps the window";
  EXPECT_EQ(stored->generation, 1u);

  // The swap's final flush is off the grid; watch from the next boundary.
  net.RunFor(kW);
  const size_t from = deliveries.size();
  publish_for(4 * kW);
  ASSERT_GT(deliveries.size(), from);
  EXPECT_LE(deliveries.size() - from, 5u)
      << "one final row per 4 s window, not one per second";
  // A final row flushes at origin + (k+1)·W + W/4; it reaches the proxy
  // within the network's delay.
  const TimeUs origin = stored->deadline_us - stored->timeout;
  for (size_t i = from; i < deliveries.size(); ++i) {
    const TimeUs phase = (deliveries[i] - origin - kW / 4) % kW;
    EXPECT_LT(phase, 500 * kMillisecond)
        << "delivery " << i << " lies " << phase / kMillisecond
        << " ms past the submitted window's final-flush instant";
  }
}

TEST(QpE2E, SwapQueryReplacesTheRunningOpgraphs) {
  SimPier net(8, PierOptions(97));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("ev").PartitionBy({"src"})).ok());

  const char* query_text =
      "SELECT src, count(*) AS cnt FROM ev GROUP BY src "
      "TIMEOUT 60s WINDOW 3s CONTINUOUS";
  auto q = net.client(0)->Query(Sql(query_text).WithAggStrategy("flat"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t qid = q->id();
  size_t delivered = 0;
  q->OnTuple([&](const Tuple&) { delivered++; });

  auto publish_for = [&](TimeUs span) {
    for (TimeUs t = 0; t < span; t += kSecond) {
      Tuple e("ev");
      e.Append("src", Value::String("live"));
      ASSERT_TRUE(net.client(0)->Publish("ev", e).ok());
      net.RunFor(kSecond);
    }
  };
  publish_for(8 * kSecond);
  size_t before_swap = delivered;
  EXPECT_GT(before_swap, 0u);

  // The flat plan's first graph holds a partial GroupBy; after the swap the
  // same (query, graph, op) coordinates must resolve to the hier plan's ops.
  auto hier = net.client(0)->Compile(
      Sql(query_text).WithAggStrategy("hier"));
  ASSERT_TRUE(hier.ok()) << hier.status().ToString();
  uint32_t hier_gid = hier->graphs[0].id;
  uint32_t hier_agg_op = 0;
  for (const OpSpec& op : hier->graphs[0].ops) {
    if (op.kind == OpKind::kHierAgg) hier_agg_op = op.id;
  }
  ASSERT_NE(hier_agg_op, 0u);

  // Guard rails: swaps need a live continuous query and a continuous plan.
  EXPECT_EQ(net.qp(0)->SwapQuery(424242, *hier).code(), StatusCode::kNotFound);
  {
    QueryPlan snapshot = *hier;
    snapshot.continuous = false;
    EXPECT_EQ(net.qp(0)->SwapQuery(qid, std::move(snapshot)).code(),
              StatusCode::kInvalidArgument);
  }

  ASSERT_TRUE(net.qp(0)->SwapQuery(qid, std::move(*hier)).ok());
  net.RunFor(2 * kSecond);  // dissemination of the new generation

  // Every node now runs the hier opgraph under the ORIGINAL query id.
  Operator* op = net.qp(1)->executor()->FindOp(qid, hier_gid, hier_agg_op);
  ASSERT_NE(op, nullptr) << "new generation instantiated on remote nodes";
  EXPECT_EQ(op->spec().kind, OpKind::kHierAgg);

  publish_for(12 * kSecond);
  EXPECT_GT(delivered, before_swap)
      << "the swapped plan keeps answering under the same handle";
  EXPECT_FALSE(q->done());
}

// Object names come from the node, not from a graph instance: a swapped-in
// generation that puts into the query's own namespace under one key adds
// its objects beside its predecessor's instead of re-minting their names
// and overwriting them one for one.
TEST(QpE2E, SwappedInGenerationKeepsItsPredecessorsObjects) {
  SimPier net(4, PierOptions(113));
  ASSERT_TRUE(net.catalog()->Register(TableSpec("ev").LocalOnly()).ok());
  constexpr uint64_t kQid = 4242;
  const std::string out_ns = "q" + std::to_string(kQid) + ".out";
  auto plan = ParseUfl(
      "query { timeout = 60s; window = 1s; continuous; }\n"
      "graph g1 local {\n"
      "  src: scan [ns=ev];\n"
      "  out: put [ns=\"" + out_ns + "\", key=k];\n"
      "  src -> out;\n"
      "}\n");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  plan->query_id = kQid;
  ASSERT_TRUE(net.qp(0)->SubmitQuery(*plan, [](const Tuple&) {}).ok());
  net.RunFor(kSecond);

  constexpr int kRows = 5;
  auto publish = [&]() {
    for (int i = 0; i < kRows; ++i) {
      Tuple e("ev");
      e.Append("k", Value::Int64(7));  // one constant key for every row
      e.Append("i", Value::Int64(i));
      ASSERT_TRUE(net.client(0)->Publish("ev", e).ok());
    }
    net.RunFor(2 * kSecond);
  };
  Tuple probe("ev");
  probe.Append("k", Value::Int64(7));
  const std::string key = probe.PartitionKey({"k"});
  auto stored = [&]() {
    size_t n = 0;
    bool done = false;
    net.dht(1)->Get(out_ns, key,
                    [&](const Status& s, std::vector<DhtItem> items) {
                      EXPECT_TRUE(s.ok()) << s.ToString();
                      n = items.size();
                      done = true;
                    });
    net.RunFor(kSecond);
    EXPECT_TRUE(done) << "get never completed";
    return n;
  };

  publish();
  ASSERT_EQ(stored(), static_cast<size_t>(kRows));
  ASSERT_TRUE(net.qp(0)->SwapQuery(kQid, *plan).ok());
  net.RunFor(kSecond);
  publish();
  EXPECT_EQ(stored(), static_cast<size_t>(2 * kRows))
      << "the new generation overwrote its predecessor's objects";
}

TEST(QpE2E, AutoReplanSwapsOnACardinalityShiftAndOnlyThen) {
  SimPier net(8, PierOptions(101));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("ev").PartitionBy({"src"})).ok());
  // Submitted over an EMPTY table: no usable statistics, so the compiler
  // defaults to flat aggregation and the replanner's baseline is "flat".
  auto q = net.client(0)->Query(
      Sql("SELECT src, count(*) AS cnt FROM ev GROUP BY src "
          "TIMEOUT 60s WINDOW 3s CONTINUOUS")
          .WithReplan("auto"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  size_t delivered = 0;
  q->OnTuple([&](const Tuple&) { delivered++; });

  // Stable phase: a handful of tuples, far below min_sample_tuples — every
  // recompile re-picks the default, so the plan must never swap.
  for (int i = 0; i < 8; ++i) {
    Tuple e("ev");
    e.Append("src", Value::String("s" + std::to_string(i % 4)));
    ASSERT_TRUE(net.client(0)->Publish("ev", e).ok());
    net.RunFor(kSecond);
  }
  EXPECT_EQ(q->stats().replans, 0u) << "stable stats: no swap, ever";

  // Shift: the table grows dense (hundreds of tuples over 8 nodes), which
  // flips the cost model to hierarchical aggregation.
  for (int i = 0; i < 300; ++i) {
    Tuple e("ev");
    e.Append("src", Value::String("s" + std::to_string(i % 4)));
    ASSERT_TRUE(net.client(i % net.size())->Publish("ev", e).ok());
    if (i % 25 == 24) net.RunFor(kSecond);
  }
  net.RunFor(10 * kSecond);  // several replan ticks past the shift

  EXPECT_GE(q->stats().replans, 1u)
      << "the cardinality shift must trigger a replan";
  EXPECT_LE(q->stats().replans, 1u)
      << "after the swap the fresh choice is stable again";
  // Tumbling windows only emit when fresh tuples arrive, so keep the stream
  // alive to observe the swapped plan answering.
  size_t at_swap = delivered;
  for (int i = 0; i < 10; ++i) {
    Tuple e("ev");
    e.Append("src", Value::String("s0"));
    ASSERT_TRUE(net.client(0)->Publish("ev", e).ok());
    net.RunFor(kSecond);
  }
  net.RunFor(4 * kSecond);
  EXPECT_GT(delivered, at_swap) << "the replanned query keeps answering";
}

TEST(QpE2E, CancelStopsDelivery) {
  SimPier net(8, PierOptions(83));
  PublishRows(&net, 16);
  net.RunFor(3 * kSecond);

  auto q = net.client(1)->Query(Sql("SELECT k FROM t TIMEOUT 10s"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  bool done = false;
  q->OnDone([&]() { done = true; });
  EXPECT_TRUE(q->Cancel().ok());
  EXPECT_TRUE(done) << "Cancel completes the handle through OnDone";
  EXPECT_TRUE(q->done());
  EXPECT_TRUE(q->stats().cancelled);
  net.RunFor(14 * kSecond);
  EXPECT_EQ(q->stats().tuples, 0u)
      << "no answers may be delivered after Cancel";
}

// ---------------------------------------------------------------------------
// The query clock: every node flushes on the proxy's boundaries
// ---------------------------------------------------------------------------

/// A graph `source -> groupby -> tail`: the source holds `rows` rows of key
/// `key` (none when it is injectable), the group-by counts them in `mode`,
/// and the tail is a result, or with a `put_ns` a put of the groups to that
/// namespace under the constant key.
OpGraph CountGraph(uint32_t id, int32_t stage, const std::string& key,
                   int rows, const std::string& mode = "local",
                   const std::string& put_ns = "") {
  OpGraph g;
  g.id = id;
  g.dissem = DissemKind::kLocal;
  g.flush_stage = stage;
  OpSpec& src = g.AddOp(OpKind::kSource);
  if (rows == 0) src.SetInt("inject", 1);
  for (int i = 0; i < rows; ++i) {
    src.Set("tuple" + std::to_string(i),
            Tuple("t", {{"k", Value::String(key)}}).Encode());
  }
  OpSpec& agg = g.AddOp(OpKind::kGroupBy);
  agg.Set("keys", "k");
  agg.Set("aggs", "count::cnt");
  agg.Set("mode", mode);
  OpSpec& tail = g.AddOp(put_ns.empty() ? OpKind::kResult : OpKind::kPut);
  if (!put_ns.empty()) {
    tail.Set("ns", put_ns);
    tail.Set("key", "");
  }
  g.Connect(1, 2);
  g.Connect(2, 3);
  return g;
}

/// The events `exec` releases when it drops query `qid` through a cancel
/// tombstone: what the query held in the event loop.
size_t EventsHeld(SimPier* net, QueryExecutor* exec, QueryPlan meta) {
  meta.cancelled = true;
  size_t before = net->loop()->pending();
  EXPECT_TRUE(exec->StartGraphs(meta, {}).ok());
  EXPECT_FALSE(exec->HasQuery(meta.query_id));
  return before - net->loop()->pending();
}

// A snapshot stage falls at origin + (s+1)·T/4 on every node, where the
// origin is the proxy's submit instant: a node whose first graph of the query
// starts late does not shift it, and a graph that starts after its instant
// flushes at once. The whole schedule is one clock event.
TEST(QueryClock, SnapshotStagesFallOnTheQueryOrigin) {
  SimPier net(3, PierOptions(131));
  const TimeUs t0 = net.loop()->now();
  QueryPlan plan;
  plan.query_id = 7001;
  plan.timeout = 8 * kSecond;
  plan.deadline_us = t0 + plan.timeout;
  plan.graphs.push_back(CountGraph(1, 0, "proxy", 1));
  std::map<std::string, TimeUs> delivered;
  ASSERT_TRUE(net.qp(0)
                  ->SubmitQuery(plan,
                                [&](const Tuple& t) {
                                  delivered[std::string(
                                      *t.Get("k")->AsString())] =
                                      net.loop()->now();
                                })
                  .ok());
  QueryPlan meta = plan;
  meta.graphs.clear();
  meta.proxy = net.dht(0)->local_address();

  // One second in, node 1 sees the query for the first time (a stage-1
  // graph) and node 2 starts one with a graph at every stage.
  net.RunFor(1 * kSecond);
  QueryExecutor* late = net.qp(1)->executor();
  ASSERT_TRUE(late->StartGraphs(meta, {CountGraph(2, 1, "late", 2)}).ok());
  QueryPlan other = meta;
  other.query_id = 7002;
  QueryExecutor* staged = net.qp(2)->executor();
  staged->set_metering(false);  // its teardown then sends no cost frame
  ASSERT_TRUE(staged
                  ->StartGraphs(other, {CountGraph(1, 0, "a", 1),
                                        CountGraph(2, 1, "b", 1),
                                        CountGraph(3, 2, "c", 1)})
                  .ok());
  net.RunFor(500 * kMillisecond);  // the sources have pushed their rows
  EXPECT_EQ(EventsHeld(&net, staged, other), 1u)
      << "three staged graphs and the close share one clock event";

  // Five seconds in, node 1 adds a stage-0 graph, whose instant has passed.
  net.RunFor(t0 + 5 * kSecond - net.loop()->now());
  ASSERT_TRUE(late->StartGraphs(meta, {CountGraph(3, 0, "after", 3)}).ok());
  net.RunFor(4 * kSecond);

  ASSERT_EQ(delivered.size(), 3u);
  EXPECT_EQ(delivered["proxy"], t0 + 2 * kSecond);
  EXPECT_GE(delivered["late"], t0 + 4 * kSecond);
  EXPECT_LT(delivered["late"], t0 + 4 * kSecond + 250 * kMillisecond)
      << "stage 1 flushes at origin + T/2, not at node 1's start + T/2";
  EXPECT_GE(delivered["after"], t0 + 5 * kSecond);
  EXPECT_LT(delivered["after"], t0 + 5 * kSecond + 250 * kMillisecond)
      << "a graph that starts after its instant flushes at once";
  EXPECT_FALSE(late->HasQuery(plan.query_id)) << "closed at the deadline";
}

// Windows are one interval on every node. Nodes A and B start the partial
// graph of a flat windowed count W/2 apart, and the final graph starts at
// the owner of the rendezvous at the submit instant. Rows injected into A
// and B in the same window make one final row with the exact count: both
// partials flush on the shared boundary and the final a quarter window
// later. On per-node phases, A's partials reach the final one window before
// B's, and the count splits.
TEST(QueryClock, OneWindowsPartialsMakeOneFinalRow) {
  SimPier net(4, PierOptions(137));
  constexpr TimeUs kW = 2 * kSecond;
  const std::string agg_ns = "q7101.agg";
  const TimeUs t0 = net.loop()->now();
  QueryPlan plan;
  plan.query_id = 7101;
  plan.continuous = true;
  plan.window = kW;
  plan.timeout = 30 * kSecond;
  plan.deadline_us = t0 + plan.timeout;
  OpGraph& fin = plan.AddGraph();
  fin.dissem = DissemKind::kEquality;
  fin.dissem_ns = agg_ns;
  fin.dissem_key = Tuple().PartitionKey({});
  fin.flush_stage = 1;
  fin.AddOp(OpKind::kNewData).Set("ns", agg_ns);
  OpSpec& merge = fin.AddOp(OpKind::kGroupBy);
  merge.Set("keys", "k");
  merge.Set("aggs", "count::cnt");
  merge.Set("mode", "final");
  fin.AddOp(OpKind::kResult);
  fin.Connect(1, 2);
  fin.Connect(2, 3);
  std::vector<int64_t> rows;
  ASSERT_TRUE(net.qp(0)
                  ->SubmitQuery(plan,
                                [&](const Tuple& t) {
                                  rows.push_back(
                                      t.Get("cnt")->int64_unchecked());
                                })
                  .ok());
  QueryPlan meta = plan;
  meta.graphs.clear();
  meta.proxy = net.dht(0)->local_address();

  // A and B: two nodes that do not run the final graph.
  net.RunFor(3 * kW / 4);
  std::vector<uint32_t> others;
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (!net.qp(i)->executor()->HasQuery(plan.query_id)) others.push_back(i);
  }
  ASSERT_GE(others.size(), 2u);
  QueryExecutor* a = net.qp(others[0])->executor();
  QueryExecutor* b = net.qp(others[1])->executor();
  const OpGraph partial = CountGraph(2, 0, "", 0, "partial", agg_ns);
  a->set_metering(false);
  ASSERT_TRUE(a->StartGraphs(meta, {partial}).ok());
  net.RunFor(kW / 2);
  ASSERT_TRUE(b->StartGraphs(meta, {partial}).ok());

  // Both inject in the window [t0 + W, t0 + 2W).
  net.RunFor(kW / 4);
  const Tuple row("t", {{"k", Value::String("x")}});
  ASSERT_TRUE(
      a->InjectBatch(plan.query_id, 2, 1, TupleBatch::FromTuples({row, row}))
          .ok());
  ASSERT_TRUE(b->InjectBatch(plan.query_id, 2, 1,
                             TupleBatch::FromTuples({row, row, row}))
                  .ok());
  net.RunFor(3 * kW);
  EXPECT_EQ(rows, std::vector<int64_t>{5})
      << "one window's partials, one final row";

  // A runs for a remote proxy, and its clock is its only event.
  EXPECT_EQ(EventsHeld(&net, a, meta), 1u);
}

// ---------------------------------------------------------------------------
// The query layer's direct frames, sent through a node's transport
// ---------------------------------------------------------------------------

/// The frame `type` + `body` from `from` to `to`, then 200 ms of the sim.
void SendFrame(SimPier* net, uint32_t from, uint32_t to, uint8_t type,
               std::string_view body) {
  WireWriter w = OverlayRouter::FrameMessage(type);
  w.PutRaw(body);
  net->dht(from)->router()->SendFramed(net->dht(to)->local_address(),
                                       std::move(w).data());
  net->RunFor(200 * kMillisecond);
}

// A cost snapshot cut at any byte replaces nothing. An answer batch cut
// inside its rows delivers none of them; cut inside its cost block, it
// delivers every row and leaves the sender's snapshot as it was.
TEST(QueryFrames, CostsAndAnswerBatchIgnoreCutAndGarbageFrames) {
  SimPier net(4, PierOptions(98));
  ASSERT_TRUE(net.catalog()->Register(TableSpec("t").PartitionBy({"k"})).ok());
  auto q = net.client(0)->Query(
      Sql("SELECT k FROM t TIMEOUT 600s WINDOW 60s CONTINUOUS"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  net.RunFor(kSecond);
  QueryProcessor* proxy = net.qp(0);

  // Node 1's snapshot, as the proxy reports it: graph 77 is no graph of the
  // query, so only frames from this test fill it.
  auto snapshot = [&] {
    std::vector<std::tuple<uint32_t, uint64_t, uint64_t, uint64_t, uint64_t>>
        out;
    for (const QueryCostOp& op : proxy->QueryCosts(q->id()).ops) {
      if (op.graph_id != 77) continue;
      out.emplace_back(op.op_id, op.cost.tuples_in, op.cost.tuples_out,
                       op.cost.msgs, op.cost.bytes);
    }
    return out;
  };
  auto costs_frame = [&](uint64_t scale, bool with_rows) {
    WireWriter w;
    w.PutU64(q->id());
    if (with_rows) {
      std::vector<Tuple> rows;
      for (int64_t k = 0; k < 3; ++k) {
        Tuple t("t");
        t.Append("k", Value::Int64(k));
        rows.push_back(std::move(t));
      }
      TupleBatch::FromTuples(rows).EncodeTo(&w);
    }
    const size_t rows_end = w.size();
    QueryMeter meter;
    *meter.At(77, 1) = OpCost{5 * scale, 5 * scale, scale, 100 * scale};
    *meter.At(77, 2) = OpCost{scale, 0, 0, 0};
    meter.EncodeTo(&w);
    return std::make_pair(std::move(w).data(), rows_end);
  };
  const std::string base_frame = costs_frame(1, false).first;
  SendFrame(&net, 1, 0, QueryExecutor::kMsgQueryCosts, base_frame);
  const auto base = snapshot();
  ASSERT_EQ(base.size(), 2u);
  auto restore = [&] {
    if (snapshot() != base)
      SendFrame(&net, 1, 0, QueryExecutor::kMsgQueryCosts, base_frame);
    ASSERT_EQ(snapshot(), base);
  };

  const std::string costs = costs_frame(3, false).first;
  auto send_costs = [&](const std::string& body) {
    SendFrame(&net, 1, 0, QueryExecutor::kMsgQueryCosts, body);
    const bool replaced = snapshot() != base;
    restore();
    return replaced;
  };
  ASSERT_TRUE(send_costs(costs));
  EXPECT_EQ(FuzzDecoder(costs, 63, send_costs), 0u);

  const std::pair<std::string, size_t> batch = costs_frame(3, true);
  const std::string& answers = batch.first;
  const size_t rows_end = batch.second;
  size_t calls = 0;
  auto send_answers = [&](const std::string& body) {
    const uint64_t before = proxy->stats().answers_delivered;
    SendFrame(&net, 1, 0, QueryExecutor::kMsgAnswerBatch, body);
    const uint64_t delivered = proxy->stats().answers_delivered - before;
    if (calls++ < answers.size()) {  // FuzzDecoder's cuts come first
      EXPECT_EQ(delivered, body.size() < rows_end ? 0u : 3u)
          << "cut at byte " << body.size();
      EXPECT_EQ(snapshot(), base) << "cut at byte " << body.size();
    }
    restore();
    return delivered > 0;
  };
  const uint64_t before = proxy->stats().answers_delivered;
  SendFrame(&net, 1, 0, QueryExecutor::kMsgAnswerBatch, answers);
  EXPECT_EQ(proxy->stats().answers_delivered, before + 3);
  EXPECT_NE(snapshot(), base) << "a whole frame replaces the snapshot";
  restore();
  EXPECT_EQ(FuzzDecoder(answers, 64, send_answers), answers.size() - rows_end)
      << "exactly the cuts that keep every row deliver";
}

// An answer frame for a query the receiver does not proxy reads the query's
// durable record (the forward-give-up failover path), but any peer can send
// one: a qid whose record said no is not read again within kRecordMissTtl,
// and a burst of unknown qids runs at most kMaxRecordReads reads at once.
TEST(QueryFrames, AnswersForUnknownQueriesCostBoundedRecordReads) {
  SimPier net(4, PierOptions(99));
  std::vector<Tuple> rows(1, Tuple("t"));
  rows[0].Append("k", Value::Int64(1));
  const TupleBatch batch = TupleBatch::FromTuples(rows);
  auto frame = [&](uint64_t qid) {
    WireWriter w = OverlayRouter::FrameMessage(QueryExecutor::kMsgAnswerBatch);
    w.PutU64(qid);
    batch.EncodeTo(&w);
    return std::move(w).data();
  };
  const NetAddress to = net.dht(0)->local_address();
  auto send = [&](uint64_t qid) {
    net.dht(1)->router()->SendFramed(to, frame(qid));
  };
  QueryProcessor* qp = net.qp(0);
  const uint64_t gets = net.dht(0)->stats().gets;

  for (int i = 0; i < 5; ++i) {
    send(4242);
    net.RunFor(200 * kMillisecond);
  }
  EXPECT_EQ(qp->stats().record_reads, 1u) << "one read for one qid";
  net.RunFor(QueryProcessor::kRecordMissTtl);
  send(4242);
  net.RunFor(200 * kMillisecond);
  EXPECT_EQ(qp->stats().record_reads, 2u) << "read again after the TTL";

  // A read of a missing record takes a few hundred ms: the burst lands
  // while its first reads are all in flight.
  net.RunFor(kSecond);
  for (uint64_t qid = 1; qid <= 50; ++qid) send(qid);
  net.RunFor(200 * kMillisecond);
  EXPECT_EQ(qp->stats().record_reads, 2u + QueryProcessor::kMaxRecordReads)
      << "a burst of unknown qids";
  EXPECT_EQ(net.dht(0)->stats().gets - gets, qp->stats().record_reads);
  EXPECT_EQ(qp->stats().adoptions, 0u);
  EXPECT_EQ(qp->stats().answers_delivered, 0u);
}

TEST(QueryFrames, MalformedBroadcastsAreCountedAndExported) {
  SimPier net(4, PierOptions(53));
  PublishRows(&net, 8);
  net.RunFor(2 * kSecond);
  // Every node, the sender too, gets each broadcast once.
  constexpr uint64_t kGarbage = 25;
  for (uint64_t i = 0; i < kGarbage; ++i)
    net.dht(0)->router()->Broadcast("not a plan " + std::to_string(i));
  net.RunFor(kSecond);
  for (uint32_t i = 0; i < net.size(); ++i) {
    EXPECT_EQ(net.qp(i)->stats().malformed_broadcasts, kGarbage) << i;
    double exported = -1;
    for (const MetricSample& s : net.metrics(i)->Snapshot()) {
      if (s.name == "pier_query_malformed_broadcasts_total") exported = s.value;
    }
    EXPECT_EQ(exported, static_cast<double>(kGarbage)) << i;
  }
  // A well-formed plan still starts everywhere and answers.
  auto q = net.client(1)->Query(Sql("SELECT k FROM t TIMEOUT 5s"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->Collect().size(), 8u);
  for (uint32_t i = 0; i < net.size(); ++i)
    EXPECT_EQ(net.qp(i)->stats().malformed_broadcasts, kGarbage) << i;
}

}  // namespace
}  // namespace pier
