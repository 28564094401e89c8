// First-class observability: MetricsRegistry semantics (labels, histogram
// buckets, snapshot consistency under concurrent writers), the Prometheus
// scrape endpoint round-trip over the VRI's framed TCP, sys.metrics
// publish/query through PierClient, per-query cost-meter aggregation across a
// 2-node simulation, and the repair tick's fixed cadence.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/node_metrics.h"
#include "obs/scrape.h"
#include "qp/sim_pier.h"

namespace pier {
namespace {

SimPier::Options PierOptions(uint64_t seed) {
  SimPier::Options opts;
  opts.sim.seed = seed;
  opts.seed_routing = true;
  opts.settle_time = 8 * kSecond;
  return opts;
}

// ---------------------------------------------------------------------------
// Registry semantics
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, SameNameAndLabelsSameInstrument) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("pier_x_total", {{"op", "put"}});
  Counter* b = reg.GetCounter("pier_x_total", {{"op", "put"}});
  Counter* c = reg.GetCounter("pier_x_total", {{"op", "get"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  a->Inc(3);
  c->Inc();
  EXPECT_EQ(a->value(), 3u);
  EXPECT_EQ(c->value(), 1u);
  EXPECT_EQ(reg.num_families(), 1u);
  EXPECT_EQ(reg.num_series("pier_x_total"), 2u);
}

TEST(MetricsRegistry, KindMismatchYieldsSinkNotCrash) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("pier_y_total");
  ASSERT_NE(a, nullptr);
  // Re-registering the family as a gauge must not corrupt it or return null.
  Gauge* g = reg.GetGauge("pier_y_total");
  ASSERT_NE(g, nullptr);
  g->Set(42);  // lands in the sink, harmless
  a->Inc();
  std::vector<MetricSample> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].value, 1.0);
}

TEST(MetricsRegistry, GaugeMovesBothWays) {
  MetricsRegistry reg;
  Gauge* g = reg.GetGauge("pier_depth");
  g->Set(5.0);
  g->Add(-2.5);
  EXPECT_DOUBLE_EQ(g->value(), 2.5);
}

TEST(MetricsRegistry, HistogramBucketsAreCumulativeInSamples) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("pier_lat_us", {10, 100, 1000});
  h->Observe(5);
  h->Observe(50);
  h->Observe(500);
  h->Observe(5000);  // +Inf bucket
  std::vector<MetricSample> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const MetricSample& s = snap[0];
  EXPECT_EQ(s.kind, MetricKind::kHistogram);
  ASSERT_EQ(s.buckets.size(), 4u);  // 3 bounds + Inf
  EXPECT_EQ(s.buckets[0].second, 1u);
  EXPECT_EQ(s.buckets[1].second, 2u);
  EXPECT_EQ(s.buckets[2].second, 3u);
  EXPECT_EQ(s.buckets[3].second, 4u);  // cumulative: everything
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 5555.0);
}

TEST(MetricsRegistry, SeriesCapCollapsesIntoDroppedCounter) {
  MetricsRegistry reg;
  reg.set_max_series_per_family(2);
  Counter* a = reg.GetCounter("pier_q_total", {{"qid", "1"}});
  Counter* b = reg.GetCounter("pier_q_total", {{"qid", "2"}});
  Counter* over = reg.GetCounter("pier_q_total", {{"qid", "3"}});
  EXPECT_NE(a, b);
  over->Inc();  // sink; must not crash or mint a third series
  EXPECT_EQ(reg.num_series("pier_q_total"), 2u);
  EXPECT_GE(reg.dropped_series(), 1u);
  // The synthetic drop counter appears in the snapshot.
  bool found = false;
  for (const MetricSample& s : reg.Snapshot())
    if (s.name == "pier_metrics_dropped_series_total") found = true;
  EXPECT_TRUE(found);
}

TEST(MetricsRegistry, RemoveRetiresSeriesButPointersStayValid) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("pier_r_total", {{"qid", "9"}});
  a->Inc();
  EXPECT_TRUE(reg.Remove("pier_r_total", {{"qid", "9"}}));
  EXPECT_FALSE(reg.Remove("pier_r_total", {{"qid", "9"}}));  // already gone
  a->Inc();  // writes land somewhere harmless
  for (const MetricSample& s : reg.Snapshot())
    EXPECT_NE(s.name, "pier_r_total");
}

TEST(MetricsRegistry, RetiredSeriesDoNotCountAgainstTheFamilyCap) {
  // A long-lived proxy mints and retires one qid series per query: twice the
  // cap in sequence must never hit it, because only live series count.
  MetricsRegistry reg;
  reg.set_max_series_per_family(1024);
  for (int i = 0; i < 2000; ++i) {
    MetricLabels labels{{"qid", std::to_string(i)}};
    reg.GetCounter("pier_query_answers_total", labels)->Inc();
    ASSERT_TRUE(reg.Remove("pier_query_answers_total", labels)) << "query " << i;
  }
  EXPECT_EQ(reg.dropped_series(), 0u);
  EXPECT_EQ(reg.num_series("pier_query_answers_total"), 0u);
}

TEST(MetricsRegistry, CallbackFamiliesReadLiveValues) {
  MetricsRegistry reg;
  uint64_t live = 7;
  reg.AddCounterFn("pier_live_total", {},
                   [&live] { return static_cast<double>(live); });
  auto value = [&reg]() -> double {
    for (const MetricSample& s : reg.Snapshot())
      if (s.name == "pier_live_total") return s.value;
    return -1;
  };
  EXPECT_EQ(value(), 7.0);
  live = 19;
  EXPECT_EQ(value(), 19.0);
}

TEST(MetricsRegistry, RenderTextExposesHelpTypeAndEscaping) {
  MetricsRegistry reg;
  reg.GetCounter("pier_t_total", {{"tag", "a\"b\\c\nd"}}, "counts things")
      ->Inc(2);
  std::string text = reg.RenderText();
  EXPECT_NE(text.find("# HELP pier_t_total counts things"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pier_t_total counter"), std::string::npos);
  EXPECT_NE(text.find("tag=\"a\\\"b\\\\c\\nd\""), std::string::npos);
  EXPECT_NE(text.find("} 2\n"), std::string::npos);
}

TEST(MetricsRegistry, SnapshotConsistentUnderConcurrentUpdates) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("pier_cc_total");
  Histogram* h = reg.GetHistogram("pier_ch_us", {1, 10, 100});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([c, h] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Inc();
        h->Observe(static_cast<double>(i % 200));
      }
    });
  }
  // Concurrent snapshots must never see a histogram whose cumulative bucket
  // total is below its count (count is read first by design).
  for (int i = 0; i < 50; ++i) {
    for (const MetricSample& s : reg.Snapshot()) {
      if (s.name != "pier_ch_us") continue;
      ASSERT_FALSE(s.buckets.empty());
      EXPECT_GE(s.buckets.back().second, s.count);
    }
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c->value(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(h->count(), uint64_t{kThreads} * kPerThread);
  std::vector<uint64_t> per_bucket = h->bucket_counts();
  uint64_t total = 0;
  for (uint64_t b : per_bucket) total += b;
  EXPECT_EQ(total, uint64_t{kThreads} * kPerThread);
}

// ---------------------------------------------------------------------------
// Scrape endpoint round-trip (VRI framed TCP, in simulation)
// ---------------------------------------------------------------------------

TEST(MetricsEndpoint, ScrapeRoundTripInSimulation) {
  SimPier::Options opts = PierOptions(101);
  opts.metrics_port = 9100;
  SimPier net(4, opts);
  ASSERT_TRUE(net.catalog()
                  ->Register(TableSpec("ev").PartitionBy({"k"}))
                  .ok());
  for (int i = 0; i < 8; ++i) {
    Tuple t("ev");
    t.Append("k", Value::Int64(i));
    ASSERT_TRUE(net.client(0)->Publish("ev", t).ok());
  }
  net.RunFor(2 * kSecond);

  // Scrape node 1's endpoint from node 0's runtime.
  std::string body;
  bool done = false;
  ScrapeMetrics(net.qp(0)->vri(), net.metrics_address(1),
                [&](std::string b) {
                  body = std::move(b);
                  done = true;
                });
  net.RunFor(2 * kSecond);
  ASSERT_TRUE(done) << "scrape never completed";
  ASSERT_FALSE(body.empty());
  // The response is the registry's own rendering: families from several
  // subsystems, help/type headers, and values matching the live Stats.
  EXPECT_NE(body.find("# TYPE pier_dht_puts_total counter"),
            std::string::npos);
  EXPECT_NE(body.find("pier_net_msgs_sent_total"), std::string::npos);
  EXPECT_NE(body.find("pier_repl_repair_ticks_total"), std::string::npos);
  std::string rendered = net.metrics(1)->RenderText();
  std::string want = "pier_dht_store_requests_total " +
                     std::to_string(net.dht(1)->stats().store_requests);
  EXPECT_NE(rendered.find(want), std::string::npos);
  // Endpoint bookkeeping on the scraped node.
  ASSERT_NE(net.node(1)->endpoint(), nullptr);
  EXPECT_EQ(net.node(1)->endpoint()->stats().scrapes, 1u);
}

TEST(MetricsEndpoint, ScrapingANodeWithNoListenerYieldsAnEmptyBody) {
  SimPier net(2, PierOptions(103));  // metrics_port 0: no node listens
  std::string body = "unset";
  bool done = false;
  ScrapeMetrics(net.qp(0)->vri(), net.metrics_address(1),
                [&](std::string b) {
                  body = std::move(b);
                  done = true;
                });
  net.RunFor(2 * kSecond);
  ASSERT_TRUE(done) << "a refused scrape never completed";
  EXPECT_TRUE(body.empty());
}

// ---------------------------------------------------------------------------
// sys.metrics publish / query through PIER itself
// ---------------------------------------------------------------------------

TEST(SysMetrics, PublishedSnapshotIsQueryable) {
  SimPier net(4, PierOptions(202));
  ASSERT_TRUE(net.catalog()
                  ->Register(TableSpec("ev").PartitionBy({"k"}))
                  .ok());
  for (int i = 0; i < 16; ++i) {
    Tuple t("ev");
    t.Append("k", Value::Int64(i));
    ASSERT_TRUE(net.client(0)->Publish("ev", t).ok());
  }
  net.RunFor(kSecond);

  // SimPier wires a registry automatically; a client without one refuses.
  PierClient bare(net.qp(1), net.catalog());
  EXPECT_FALSE(bare.PublishMetrics().ok());

  std::vector<MetricSample> published;
  ASSERT_TRUE(net.client(0)->PublishMetrics(&published).ok());
  ASSERT_FALSE(published.empty());
  net.RunFor(2 * kSecond);  // let the puts land

  auto q = net.client(1)->Query(
      Sql("SELECT * FROM sys.metrics TIMEOUT 6s"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<Tuple> rows = q->Collect();
  ASSERT_FALSE(rows.empty());

  // Fold: newest row per (metric, labels, origin).
  std::map<std::string, std::pair<int64_t, double>> newest;
  for (const Tuple& r : rows) {
    const Value* name = r.Get("metric");
    const Value* labels = r.Get("labels");
    const Value* origin = r.Get("origin");
    const Value* value = r.Get("value");
    const Value* at = r.Get("updated_us");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(value, nullptr);
    ASSERT_NE(at, nullptr);
    std::string key = std::string(*name->AsString()) + "|" +
                      std::string(*labels->AsString()) + "|" +
                      std::string(*origin->AsString());
    int64_t ts = *at->AsInt64();
    auto it = newest.find(key);
    if (it == newest.end() || ts > it->second.first)
      newest[key] = {ts, *value->AsDouble()};
  }
  // Every published sample must be queryable with the value the snapshot
  // carried (same origin, so the keys are unambiguous).
  NetAddress self = net.dht(0)->local_address();
  std::string origin =
      std::to_string(self.host) + ":" + std::to_string(self.port);
  size_t checked = 0;
  for (const MetricSample& s : published) {
    if (s.kind == MetricKind::kHistogram) continue;  // value rides count/sum
    auto it = newest.find(s.name + "|" + RenderLabels(s.labels) + "|" + origin);
    ASSERT_NE(it, newest.end()) << "missing sys.metrics row for " << s.name;
    EXPECT_DOUBLE_EQ(it->second.second, s.value) << s.name;
    checked++;
  }
  EXPECT_GT(checked, 10u);
}

// ---------------------------------------------------------------------------
// Per-query cost metering, aggregated at the proxy (2-node sim)
// ---------------------------------------------------------------------------

TEST(QueryMetering, ExplainAnalyzeAggregatesAcrossNodes) {
  SimPier net(2, PierOptions(303));
  ASSERT_TRUE(net.catalog()
                  ->Register(TableSpec("ev").PartitionBy({"k"}))
                  .ok());
  for (int i = 0; i < 24; ++i) {
    Tuple t("ev");
    t.Append("k", Value::Int64(i));
    t.Append("v", Value::Int64(i * 10));
    ASSERT_TRUE(net.client(0)->Publish("ev", t).ok());
  }
  net.RunFor(2 * kSecond);

  auto q = net.client(0)->Query(Sql("SELECT * FROM ev TIMEOUT 6s"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<Tuple> rows = q->Collect();
  EXPECT_EQ(rows.size(), 24u);

  auto ea = net.client(0)->ExplainAnalyze(*q);
  ASSERT_TRUE(ea.ok()) << ea.status().ToString();
  EXPECT_TRUE(ea->final) << "costs must be final after completion";
  ASSERT_FALSE(ea->actual.ops.empty());

  // The answer pseudo-op counted every delivered tuple, local and remote.
  const QueryCostOp* answers = nullptr;
  uint64_t scan_out = 0;
  uint32_t scan_nodes = 0;
  for (const QueryCostOp& op : ea->actual.ops) {
    if (op.graph_id == QueryMeter::kAnswerSlot.first &&
        op.op_id == QueryMeter::kAnswerSlot.second) {
      answers = &op;
    } else if (op.cost.tuples_out > 0) {
      scan_out += op.cost.tuples_out;
      scan_nodes = std::max(scan_nodes, op.nodes);
    }
  }
  ASSERT_NE(answers, nullptr);
  EXPECT_EQ(answers->cost.tuples_out, 24u);
  EXPECT_GE(scan_out, 24u) << "operator meters saw every produced tuple";
  EXPECT_EQ(scan_nodes, 2u) << "both nodes' meters reached the proxy";
  // Tuples from the remote node crossed the wire and were metered as such.
  EXPECT_GT(answers->cost.msgs, 0u);
  EXPECT_GT(answers->cost.bytes, 0u);
  EXPECT_LT(answers->cost.msgs, 24u) << "local deliveries are not wire msgs";

  // Handle-level totals mirror the report.
  EXPECT_EQ(q->stats().op_msgs, ea->actual.total.msgs);
  EXPECT_EQ(q->stats().op_bytes, ea->actual.total.bytes);
  EXPECT_GT(q->stats().op_tuples, 0u);

  // The rendering names both sides.
  std::string text = ea->ToString();
  EXPECT_NE(text.find("answers:"), std::string::npos);
  EXPECT_NE(text.find("actual"), std::string::npos);
}

TEST(QueryMetering, MeteringOffMeansEmptyReport) {
  SimPier net(2, PierOptions(304));
  ASSERT_TRUE(net.catalog()
                  ->Register(TableSpec("ev").PartitionBy({"k"}))
                  .ok());
  Tuple t("ev");
  t.Append("k", Value::Int64(1));
  ASSERT_TRUE(net.client(0)->Publish("ev", t).ok());
  net.RunFor(kSecond);
  for (uint32_t i = 0; i < net.size(); ++i)
    net.qp(i)->executor()->set_metering(false);

  auto q = net.client(0)->Query(Sql("SELECT * FROM ev TIMEOUT 4s"));
  ASSERT_TRUE(q.ok());
  std::vector<Tuple> rows = q->Collect();
  EXPECT_EQ(rows.size(), 1u) << "answers still flow with metering off";
  auto ea = net.client(0)->ExplainAnalyze(*q);
  ASSERT_TRUE(ea.ok());
  EXPECT_EQ(ea->actual.total.msgs, 0u);
  EXPECT_EQ(ea->actual.total.tuples_out, 0u);
}

uint64_t SumSends(SimPier* net) {
  uint64_t sends = 0;
  for (uint32_t i = 0; i < net->size(); ++i)
    sends += net->dht(i)->stats().sends;
  return sends;
}

/// Runs `plan` at node 0 to completion and returns the msgs the proxy's
/// report charges to the one op of `kind`, with the nodes' summed
/// Dht::Stats::sends delta over the query in `sends`.
uint64_t OpMsgs(SimPier* net, QueryPlan plan, OpKind kind, uint64_t* sends) {
  uint32_t graph_id = 0, op_id = 0;
  for (const OpGraph& g : plan.graphs)
    for (const OpSpec& op : g.ops)
      if (op.kind == kind) graph_id = g.id, op_id = op.id;
  EXPECT_NE(op_id, 0u) << OpKindName(kind) << " not in the plan";
  const uint64_t before = SumSends(net);
  auto q = net->client(0)->Query(std::move(plan));
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  if (!q.ok()) return 0;
  EXPECT_FALSE(q->Collect().empty());
  *sends = SumSends(net) - before;
  auto ea = net->client(0)->ExplainAnalyze(*q);
  EXPECT_TRUE(ea.ok() && ea->final);
  if (!ea.ok()) return 0;
  for (const QueryCostOp& op : ea->actual.ops)
    if (op.graph_id == graph_id && op.op_id == op_id) return op.cost.msgs;
  return 0;
}

// The hierarchical operators route every partial and every join record with
// Dht::Send; each send is charged to the operator that made it, so the
// report's msgs for the op equal the sends the DHTs counted.
TEST(QueryMetering, HierarchicalSendsAreChargedToTheirOperator) {
  SimPier net(16, PierOptions(306));
  ASSERT_TRUE(net.catalog()
                  ->Register(TableSpec("ev").PartitionBy({"id"}))
                  .ok());
  ASSERT_TRUE(net.catalog()->Register(TableSpec("l").LocalOnly()).ok());
  ASSERT_TRUE(net.catalog()->Register(TableSpec("r").LocalOnly()).ok());
  for (int i = 0; i < 200; ++i) {
    Tuple t("ev");
    t.Append("id", Value::Int64(i));
    t.Append("g", Value::Int64(i % 10));
    ASSERT_TRUE(net.client(i % net.size())->Publish("ev", t).ok());
  }
  for (int i = 0; i < 24; ++i) {
    for (const char* side : {"l", "r"}) {
      Tuple t(side);
      t.Append("k", Value::Int64(i % 6));
      ASSERT_TRUE(net.client((i * 5) % net.size())->Publish(side, t).ok());
    }
  }
  net.RunFor(2 * kSecond);

  auto agg = net.client(0)->Compile(
      Sql("SELECT g, count(*) AS c FROM ev GROUP BY g TIMEOUT 8s")
          .WithAggStrategy("hier"));
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  uint64_t sends = 0;
  uint64_t msgs = OpMsgs(&net, std::move(*agg), OpKind::kHierAgg, &sends);
  EXPECT_GT(sends, 0u);
  EXPECT_EQ(msgs, sends) << "hieragg";

  auto join = net.client(0)->Compile(Ufl(R"(
    query { timeout = 8s; }
    graph g broadcast {
      a: scan [ns=l];
      b: scan [ns=r];
      j: hierjoin [l_key=k, r_key=k];
      a -> j:0;
      b -> j:1;
    }
  )"));
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  msgs = OpMsgs(&net, std::move(*join), OpKind::kHierJoin, &sends);
  EXPECT_EQ(sends, 48u) << "one send per input row";
  EXPECT_EQ(msgs, sends) << "hierjoin";
}

TEST(QueryMetering, PerQuerySeriesRetireWhenTheProxyRecordEnds) {
  SimPier net(2, PierOptions(305));
  ASSERT_TRUE(net.catalog()
                  ->Register(TableSpec("ev").PartitionBy({"k"}))
                  .ok());
  Tuple t("ev");
  t.Append("k", Value::Int64(1));
  ASSERT_TRUE(net.client(0)->Publish("ev", t).ok());
  net.RunFor(kSecond);

  // 20 queries in a row through one proxy: each mints its qid-labeled
  // answers counter while it runs, and retires it when its record ends.
  MetricsRegistry* reg = net.metrics(0);
  for (int i = 0; i < 20; ++i) {
    auto q = net.client(0)->Query(Sql("SELECT * FROM ev TIMEOUT 2s"));
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_EQ(reg->num_series("pier_query_answers_total"), 1u)
        << "query " << i << " runs with its own series";
    EXPECT_EQ(q->Collect().size(), 1u);
    EXPECT_TRUE(q->done());
  }
  EXPECT_EQ(reg->num_series("pier_query_answers_total"), 0u)
      << "finished queries leave no per-query series behind";
}

// ---------------------------------------------------------------------------
// Repair-tick cadence
// ---------------------------------------------------------------------------

TEST(RepairCadence, FixedTickCountsIdlePassesAndARingChange) {
  SimPier::Options opts = PierOptions(404);
  opts.dht.replication_factor = 2;
  SimPier net(4, opts);

  // The settle window already ran quiet ticks; keep the ring idle longer.
  net.RunFor(20 * kSecond);
  ReplicationManager* repl = net.dht(0)->replication();
  EXPECT_GT(repl->stats().repair_ticks, 0u);
  EXPECT_GT(repl->stats().idle_repair_ticks, 0u);

  // A quiet ring ticks once per period, every tick idle.
  const uint64_t ticks_before = repl->stats().repair_ticks;
  const uint64_t idle_before = repl->stats().idle_repair_ticks;
  const TimeUs window = 16 * kSecond;
  net.RunFor(window);
  const uint64_t want =
      static_cast<uint64_t>(window / ReplicationManager::kRepairPeriod);
  EXPECT_EQ(repl->stats().repair_ticks - ticks_before, want);
  EXPECT_EQ(repl->stats().idle_repair_ticks - idle_before, want);

  // A ring change (kill a neighbor) makes some live node's tick do work once
  // the protocol notices the membership move.
  net.harness()->FailNode(2);
  net.RunFor(30 * kSecond);
  bool any_busy = false;
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (i == 2 || !net.harness()->IsAlive(i)) continue;
    if (net.dht(i)->replication()->stats().idle_repair_ticks <
        net.dht(i)->replication()->stats().repair_ticks)
      any_busy = true;
  }
  EXPECT_TRUE(any_busy) << "some live node saw a non-idle repair tick";
}

}  // namespace
}  // namespace pier
