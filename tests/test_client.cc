// Tests for the client façade: catalog registration semantics, catalog-driven
// index fan-out on Publish (primary + secondary + PHT range), the
// unknown-table submission error, and QueryHandle streaming/collect/cancel.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

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
// Catalog (no network needed)
// ---------------------------------------------------------------------------

TEST(Catalog, RegisterIsIdempotentButConflictsAreErrors) {
  Catalog cat;
  TableSpec spec =
      TableSpec("emp").PartitionBy({"id"}).SecondaryIndex("dept");
  ASSERT_TRUE(cat.Register(spec).ok());
  EXPECT_TRUE(cat.Register(spec).ok())
      << "identical re-registration is a no-op";

  TableSpec conflicting = TableSpec("emp").PartitionBy({"dept"});
  Status s = cat.Register(conflicting);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);

  EXPECT_FALSE(cat.Register(TableSpec("")).ok()) << "name required";
  EXPECT_FALSE(cat.Register(TableSpec("x")).ok())
      << "non-local tables need partition attrs";
  EXPECT_TRUE(cat.Register(TableSpec("logs").LocalOnly()).ok());
  EXPECT_FALSE(
      cat.Register(TableSpec("trc").LocalOnly().RangeIndex("ts", 10)).ok())
      << "local-only tuples never reach the DHT: indexes cannot be populated";
  EXPECT_FALSE(
      cat.Register(TableSpec("trc").LocalOnly().SecondaryIndex("id")).ok());
}

TEST(Catalog, KnowsTablesAndTheirIndexTables) {
  Catalog cat;
  ASSERT_TRUE(cat.Register(TableSpec("emp")
                               .PartitionBy({"id"})
                               .SecondaryIndex("dept")
                               .RangeIndex("age", 8))
                  .ok());
  EXPECT_TRUE(cat.Knows("emp"));
  EXPECT_TRUE(cat.Knows("emp_by_dept")) << "default secondary index name";
  EXPECT_TRUE(cat.Knows("emp_rng_age")) << "default range index name";
  EXPECT_FALSE(cat.Knows("mystery"));
  // Role distinction: secondary-index tables hold ordinary tuples and are
  // scannable; PHT range tables hold trie nodes and are only valid as
  // range-dissemination targets.
  EXPECT_TRUE(cat.KnowsRelation("emp_by_dept"));
  EXPECT_FALSE(cat.KnowsRelation("emp_rng_age"));
  EXPECT_TRUE(cat.KnowsRangeTable("emp_rng_age"));
  EXPECT_FALSE(cat.KnowsRangeTable("emp_by_dept"));

  // The SQL hints are derived: base table plus its secondary index table.
  auto hints = cat.TableHints();
  ASSERT_EQ(hints.count("emp"), 1u);
  EXPECT_EQ(hints["emp"].partition_attrs, std::vector<std::string>{"id"});
  ASSERT_EQ(hints.count("emp_by_dept"), 1u);
  EXPECT_EQ(hints["emp_by_dept"].partition_attrs,
            std::vector<std::string>{"dept"});
}

// ---------------------------------------------------------------------------
// Publish fan-out
// ---------------------------------------------------------------------------

TEST(PierClient, PublishRequiresACatalogEntry) {
  SimPier net(2, PierOptions(3));
  Tuple t("ghost");
  t.Append("k", Value::Int64(1));
  Status s = net.client(0)->Publish("ghost", t);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(PierClient, SecondaryIndexFanOutAndLookup) {
  SimPier net(10, PierOptions(5));
  // One declaration; every Publish fans out to the primary index AND the
  // dept secondary index (§3.3.3's (index-key, tupleID) entries).
  ASSERT_TRUE(net.catalog()
                  ->Register(TableSpec("emp")
                                 .PartitionBy({"id"})
                                 .SecondaryIndex("dept"))
                  .ok());
  const char* depts[] = {"eng", "eng", "ops", "eng", "sales"};
  for (int i = 0; i < 5; ++i) {
    Tuple t("emp");
    t.Append("id", Value::Int64(i));
    t.Append("dept", Value::String(depts[i]));
    t.Append("name", Value::String("emp" + std::to_string(i)));
    ASSERT_TRUE(net.client(i % net.size())->Publish("emp", t).ok());
  }
  net.RunFor(3 * kSecond);

  // Publish once, query through the secondary index: the opgraph goes to the
  // dept='eng' index partition, which fetches each BASE tuple by its stored
  // primary-key locator.
  auto q = net.client(7)->QueryByIndex("emp", "dept", Value::String("eng"),
                                       8 * kSecond);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<Tuple> rows = q->Collect();
  ASSERT_EQ(rows.size(), 3u) << "three eng employees";
  std::set<std::string> names;
  for (const Tuple& t : rows) {
    // The full base tuple was fetched, not just the index entry.
    ASSERT_TRUE(t.Has("name")) << t.ToString();
    ASSERT_TRUE(t.Has("id")) << t.ToString();
    EXPECT_EQ(*t.Get("dept")->AsString(), "eng");
    names.insert(std::string(*t.Get("name")->AsString()));
  }
  EXPECT_EQ(names, (std::set<std::string>{"emp0", "emp1", "emp3"}));

  // No index on "name" was declared.
  auto no_idx = net.client(7)->QueryByIndex("emp", "name",
                                            Value::String("emp0"));
  EXPECT_FALSE(no_idx.ok());

  // The index table is also a queryable relation in its own right, with an
  // equality-targeted plan derived from the catalog hints.
  auto plan = net.client(2)->Compile(
      Sql("SELECT * FROM emp_by_dept WHERE dept = 'ops' TIMEOUT 6s"));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->graphs[0].dissem, DissemKind::kEquality);
  auto entries = net.client(2)->Query(std::move(*plan));
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  std::vector<Tuple> idx_rows = entries->Collect();
  ASSERT_EQ(idx_rows.size(), 1u);
  EXPECT_TRUE(idx_rows[0].Has("base_key")) << "locator column";
  EXPECT_EQ(*idx_rows[0].Get("base_table")->AsString(), "emp");
}

TEST(PierClient, RangeIndexFanOut) {
  SimPier net(12, PierOptions(9));
  ASSERT_TRUE(net.catalog()
                  ->Register(TableSpec("readings")
                                 .PartitionBy({"sensor"})
                                 .RangeIndex("temp", /*key_bits=*/8))
                  .ok());
  for (int i = 0; i < 24; ++i) {
    Tuple t("readings");
    t.Append("sensor", Value::Int64(i));
    t.Append("temp", Value::Int64(i * 10));  // 0..230
    ASSERT_TRUE(net.client(i % net.size())->Publish("readings", t).ok());
    if (i % 4 == 3) net.RunFor(500 * kMillisecond);  // pace the trie splits
  }
  net.RunFor(8 * kSecond);

  // A UFL range query over the PHT the publishes fanned into.
  auto q = net.client(1)->Query(Ufl(R"(
    query { timeout = 8s; }
    graph g range(readings_rng_temp, 100, 150) {
      src: source [inject=1, pht_key_bits=8];
      out: result;
      src -> out;
    }
  )"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<Tuple> rows = q->Collect();
  std::vector<int64_t> temps;
  for (const Tuple& t : rows) temps.push_back(t.Get("temp")->int64_unchecked());
  std::sort(temps.begin(), temps.end());
  EXPECT_EQ(temps, (std::vector<int64_t>{100, 110, 120, 130, 140, 150}));

  // A PHT namespace is not a scannable relation: an ordinary SQL scan over
  // it could only ever time out with zero rows, so submission rejects it.
  auto scan = net.client(1)->Query(
      Sql("SELECT * FROM readings_rng_temp TIMEOUT 5s"));
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kNotFound);
}

TEST(PierClient, PublishValidatesTuplesAgainstTheSpec) {
  SimPier net(4, PierOptions(21));
  ASSERT_TRUE(net.catalog()
                  ->Register(TableSpec("m")
                                 .PartitionBy({"id"})
                                 .SecondaryIndex("tag")
                                 .RangeIndex("score", 8))
                  .ok());
  Tuple missing_key("m");
  missing_key.Append("score", Value::Int64(4));
  EXPECT_FALSE(net.client(0)->Publish("m", missing_key).ok())
      << "no partition attribute: the tuple would be unfindable";

  Tuple missing_range("m");
  missing_range.Append("id", Value::Int64(1));
  EXPECT_FALSE(net.client(0)->Publish("m", missing_range).ok())
      << "declared range index needs its attribute";

  Tuple bad_range("m");
  bad_range.Append("id", Value::Int64(1));
  bad_range.Append("score", Value::String("high"));
  EXPECT_FALSE(net.client(0)->Publish("m", bad_range).ok());

  // Secondary indexes are sparse: a tuple without the indexed attribute is
  // fine, it is simply not indexed.
  Tuple no_tag("m");
  no_tag.Append("id", Value::Int64(2));
  no_tag.Append("score", Value::Int64(7));
  EXPECT_TRUE(net.client(0)->Publish("m", no_tag).ok());
}

// ---------------------------------------------------------------------------
// Unknown-table submission errors
// ---------------------------------------------------------------------------

TEST(PierClient, SubmittingAQueryOverAnUndeclaredTableFails) {
  SimPier net(4, PierOptions(13));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("t").PartitionBy({"k"})).ok());

  // SQL path: the table was never declared, so the proxy rejects the plan
  // instead of timing out with zero answers.
  auto q = net.client(0)->Query(Sql("SELECT * FROM mystery TIMEOUT 5s"));
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kNotFound);
  EXPECT_NE(q.status().message().find("mystery"), std::string::npos);

  // Native-plan path surfaces the same error.
  QueryPlan plan;
  plan.timeout = 5 * kSecond;
  OpGraph& g = plan.AddGraph();
  OpSpec& scan = g.AddOp(OpKind::kScan);
  scan.Set("ns", "mystery");
  uint32_t scan_id = scan.id;
  OpSpec& res = g.AddOp(OpKind::kResult);
  g.Connect(scan_id, res.id, 0);
  auto q2 = net.client(0)->Query(std::move(plan));
  ASSERT_FALSE(q2.ok());
  EXPECT_EQ(q2.status().code(), StatusCode::kNotFound);

  // Declared tables pass, including plan-internal rendezvous namespaces
  // (a Put in the plan produces them, so they need no catalog entry).
  auto ok = net.client(0)->Query(
      Sql("SELECT k, count(*) AS c FROM t GROUP BY k TIMEOUT 5s"));
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();

  // A QueryProcessor with no client attached keeps the paper's bake-it-in
  // contract: no resolver, no check (node 1 never built a client).
  QueryPlan raw;
  raw.timeout = 2 * kSecond;
  OpGraph& rg = raw.AddGraph();
  OpSpec& rscan = rg.AddOp(OpKind::kScan);
  rscan.Set("ns", "mystery");
  uint32_t rscan_id = rscan.id;
  OpSpec& rres = rg.AddOp(OpKind::kResult);
  rg.Connect(rscan_id, rres.id, 0);
  auto raw_qid = net.qp(1)->SubmitQuery(std::move(raw), [](const Tuple&) {});
  EXPECT_TRUE(raw_qid.ok());
}

// ---------------------------------------------------------------------------
// QueryHandle semantics
// ---------------------------------------------------------------------------

TEST(QueryHandleTest, BufferReplaysIntoLateOnTupleRegistration) {
  SimPier net(6, PierOptions(17));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("t").PartitionBy({"k"})).ok());
  for (int i = 0; i < 6; ++i) {
    Tuple t("t");
    t.Append("k", Value::Int64(i));
    ASSERT_TRUE(net.client(i % net.size())->Publish("t", t).ok());
  }
  net.RunFor(3 * kSecond);

  auto q = net.client(0)->Query(Sql("SELECT k FROM t TIMEOUT 6s"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // Let answers arrive BEFORE any callback exists; they must buffer.
  net.RunFor(8 * kSecond);
  EXPECT_EQ(q->stats().tuples, 6u);

  std::vector<int64_t> ks;
  bool done = false;
  q->OnTuple([&](const Tuple& t) {
    ks.push_back(t.Get("k")->int64_unchecked());
  });
  q->OnDone([&]() { done = true; });  // already done: fires immediately
  EXPECT_EQ(ks.size(), 6u) << "buffered answers replay on registration";
  EXPECT_TRUE(done);
  EXPECT_TRUE(q->Collect().empty()) << "buffer was handed to the callback";
}

TEST(QueryHandleTest, StatsTrackLatencies) {
  SimPier net(6, PierOptions(19));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("t").PartitionBy({"k"})).ok());
  Tuple t("t");
  t.Append("k", Value::Int64(1));
  ASSERT_TRUE(net.client(0)->Publish("t", t).ok());
  net.RunFor(2 * kSecond);

  auto q = net.client(3)->Query(Sql("SELECT k FROM t TIMEOUT 5s"));
  ASSERT_TRUE(q.ok());
  EXPECT_NE(q->id(), 0u);
  ASSERT_TRUE(q->Wait().ok());
  EXPECT_EQ(q->stats().tuples, 1u);
  EXPECT_GT(q->stats().first_tuple_latency, 0);
  EXPECT_EQ(q->stats().first_tuple_latency, q->stats().last_tuple_latency);
  EXPECT_FALSE(q->stats().cancelled);
}

TEST(QueryHandleTest, EmptyHandleIsInert) {
  QueryHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_EQ(h.id(), 0u);
  EXPECT_FALSE(h.done());
  EXPECT_EQ(h.stats().tuples, 0u);
  EXPECT_FALSE(h.Cancel().ok());  // no-op, must not crash
  EXPECT_FALSE(h.Wait().ok());
  EXPECT_TRUE(h.Collect().empty());
}

// ---------------------------------------------------------------------------
// Buffering: the late OnTuple replay and the fixed buffer cap
// ---------------------------------------------------------------------------

void PublishRows(SimPier* net, int n) {
  for (int i = 0; i < n; ++i) {
    Tuple t("t");
    t.Append("k", Value::Int64(i));
    ASSERT_TRUE(net->client(i % net->size())->Publish("t", t).ok());
  }
}

TEST(QueryHandleTest, CancelInsideALateOnTupleStopsTheDrain) {
  // Regression: registering OnTuple replays the answers buffered before it;
  // a callback that Cancel()s mid-drain must stop the replay (the rest stays
  // buffered).
  SimPier net(6, PierOptions(59));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("t").PartitionBy({"k"})).ok());
  PublishRows(&net, 6);
  net.RunFor(3 * kSecond);

  auto q = net.client(0)->Query(
      Sql("SELECT k FROM t TIMEOUT 30s WINDOW 2s CONTINUOUS"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  net.RunFor(6 * kSecond);
  ASSERT_FALSE(q->done());
  ASSERT_EQ(q->stats().tuples, 6u);

  size_t delivered = 0;
  QueryHandle handle = *q;
  q->OnTuple([&](const Tuple&) {
    delivered++;
    (void)handle.Cancel();  // teardown is the point; status checked below
  });
  EXPECT_EQ(delivered, 1u) << "Cancel mid-drain stops the replay";
  EXPECT_TRUE(q->done());
  EXPECT_EQ(q->Collect().size(), 5u) << "the rest stays buffered";
}

TEST(QueryHandleTest, BufferCapBitesAndCountsDrops) {
  // A local-only table at the proxy: its rows reach the handle without a
  // network hop, so the cap can be overflowed cheaply.
  SimPier net(2, PierOptions(37));
  ASSERT_TRUE(net.catalog()->Register(TableSpec("t").LocalOnly()).ok());
  constexpr size_t kOver = 4;
  std::vector<Tuple> rows;
  for (size_t i = 0; i < QueryHandle::kMaxBuffered + kOver; ++i) {
    Tuple t("t");
    t.Append("k", Value::Int64(static_cast<int64_t>(i)));
    rows.push_back(std::move(t));
  }
  ASSERT_TRUE(net.client(1)->PublishBatch("t", rows).ok());

  auto q = net.client(1)->Query(Sql("SELECT k FROM t TIMEOUT 6s"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<Tuple> got = q->Collect();
  EXPECT_EQ(got.size(), QueryHandle::kMaxBuffered)
      << "the cap bounds the buffer";
  EXPECT_EQ(q->stats().tuples, rows.size());
  EXPECT_EQ(q->stats().dropped, kOver) << "overflow is counted, not silent";
}

TEST(QueryHandleTest, CollectOnRunningContinuousKeepsTheBuffer) {
  SimPier net(6, PierOptions(41));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("t").PartitionBy({"k"})).ok());
  PublishRows(&net, 6);
  net.RunFor(3 * kSecond);

  auto q = net.client(0)->Query(
      Sql("SELECT k FROM t TIMEOUT 30s WINDOW 2s CONTINUOUS"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<Tuple> first = q->Collect(/*max_wait=*/6 * kSecond);
  ASSERT_FALSE(q->done()) << "continuous query is still running";
  EXPECT_EQ(first.size(), 6u);
  // A second Collect mid-run sees the SAME prefix again (plus anything that
  // arrived since) — the first call must not have swapped it away.
  std::vector<Tuple> second = q->Collect(/*max_wait=*/1 * kSecond);
  EXPECT_GE(second.size(), first.size());
  EXPECT_TRUE(q->Cancel().ok());
  EXPECT_TRUE(q->done());
}

TEST(QueryHandleTest, CancelFromInsideOnTupleIgnoresLaterAnswers) {
  // Regression: answers already in flight when Cancel() runs (here: the
  // remaining groups of the same window flush) must neither crash the
  // delivery path nor reach the done handle.
  SimPier net(6, PierOptions(43));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("ev").PartitionBy({"src"})).ok());
  const char* srcs[] = {"a", "b", "c"};
  for (int i = 0; i < 12; ++i) {
    Tuple t("ev");
    t.Append("src", Value::String(srcs[i % 3]));
    ASSERT_TRUE(net.client(i % net.size())->Publish("ev", t).ok());
  }
  net.RunFor(3 * kSecond);

  auto q = net.client(0)->Query(
      Sql("SELECT src, count(*) AS c FROM ev GROUP BY src "
          "TIMEOUT 30s WINDOW 2s CONTINUOUS"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t seen = 0;
  QueryHandle handle = *q;
  q->OnTuple([&](const Tuple&) {
    seen++;
    // Cancel mid-window, with sibling groups in flight; done/cancelled are
    // asserted below once the window settles.
    (void)handle.Cancel();
  });
  net.RunFor(20 * kSecond);
  EXPECT_TRUE(q->done());
  EXPECT_TRUE(q->stats().cancelled);
  EXPECT_EQ(seen, 1u) << "no delivery after Cancel";
  EXPECT_EQ(q->stats().tuples, 1u)
      << "a done handle ignores late answers entirely";
}

// ---------------------------------------------------------------------------
// Batched publishing (PublishBatch + auto-batching)
// ---------------------------------------------------------------------------

/// Objects of `ns` stored across the whole network (background maintenance
/// traffic — tree joins etc. — stores objects too, so per-namespace counts
/// are the only stable assertion base).
uint64_t StoredObjects(SimPier* net, const std::string& ns) {
  uint64_t n = 0;
  for (uint32_t i = 0; i < net->size(); ++i)
    n += net->dht(i)->objects()->NamespaceObjects(ns);
  return n;
}

uint64_t BatchedPuts(SimPier* net) {
  uint64_t n = 0;
  for (uint32_t i = 0; i < net->size(); ++i)
    n += net->dht(i)->stats().batched_puts;
  return n;
}

TEST(PublishBatchTest, ExplicitBatchFansOutAndIsQueryable) {
  SimPier net(8, PierOptions(61));
  ASSERT_TRUE(net.catalog()
                  ->Register(TableSpec("emp")
                                 .PartitionBy({"id"})
                                 .SecondaryIndex("dept"))
                  .ok());
  std::vector<Tuple> rows;
  for (int i = 0; i < 12; ++i) {
    Tuple t("emp");
    t.Append("id", Value::Int64(i));
    t.Append("dept", Value::String(i % 2 ? "eng" : "ops"));
    rows.push_back(std::move(t));
  }
  ASSERT_TRUE(net.client(0)->PublishBatch("emp", rows).ok());
  net.RunFor(5 * kSecond);

  EXPECT_GT(BatchedPuts(&net), 0u) << "the batch path must actually engage";
  // One registry update for the whole batch, same totals as per-tuple.
  EXPECT_EQ(net.stats()->Snapshot("emp").tuples, 12u);

  auto q = net.client(3)->Query(Sql("SELECT id FROM emp TIMEOUT 6s"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->Collect().size(), 12u);
  auto by_idx =
      net.client(3)->QueryByIndex("emp", "dept", Value::String("eng"));
  ASSERT_TRUE(by_idx.ok()) << by_idx.status().ToString();
  EXPECT_EQ(by_idx->Collect().size(), 6u)
      << "secondary entries rode the same batch";
}

TEST(PublishBatchTest, ValidationIsAllOrNothing) {
  SimPier net(4, PierOptions(63));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("m").PartitionBy({"id"})).ok());
  Tuple good("m");
  good.Append("id", Value::Int64(1));
  Tuple bad("m");  // no partition attribute
  bad.Append("x", Value::Int64(2));
  uint64_t before = StoredObjects(&net, "m");
  Status s = net.client(0)->PublishBatch("m", {good, bad});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  net.RunFor(3 * kSecond);
  EXPECT_EQ(StoredObjects(&net, "m"), before)
      << "nothing of the batch published";
}

TEST(PublishBatchTest, AutoBatchFlushesOnSize) {
  SimPier net(6, PierOptions(67));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("t").PartitionBy({"k"})).ok());
  PierClient* c = net.client(0);
  c->SetPublishBatching(4, /*max_delay=*/60 * kSecond);  // timer can't fire
  uint64_t before = StoredObjects(&net, "t");
  for (int i = 0; i < 3; ++i) {
    Tuple t("t");
    t.Append("k", Value::Int64(i));
    ASSERT_TRUE(c->Publish("t", t).ok());
  }
  net.RunFor(3 * kSecond);
  EXPECT_EQ(StoredObjects(&net, "t"), before)
      << "below the size trigger nothing ships";
  Tuple t4("t");
  t4.Append("k", Value::Int64(3));
  ASSERT_TRUE(c->Publish("t", t4).ok());  // 4th tuple: flush
  net.RunFor(3 * kSecond);
  EXPECT_EQ(StoredObjects(&net, "t"), before + 4);
}

TEST(PublishBatchTest, AutoBatchFlushesOnTimer) {
  SimPier net(6, PierOptions(71));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("t").PartitionBy({"k"})).ok());
  PierClient* c = net.client(0);
  c->SetPublishBatching(100, /*max_delay=*/500 * kMillisecond);
  uint64_t before = StoredObjects(&net, "t");
  for (int i = 0; i < 2; ++i) {
    Tuple t("t");
    t.Append("k", Value::Int64(i));
    ASSERT_TRUE(c->Publish("t", t).ok());
  }
  net.RunFor(200 * kMillisecond);
  EXPECT_EQ(StoredObjects(&net, "t"), before) << "window not yet elapsed";
  net.RunFor(5 * kSecond);
  EXPECT_EQ(StoredObjects(&net, "t"), before + 2) << "the delay timer flushed";
}

TEST(PublishBatchTest, ExplicitFlushShipsTheBuffer) {
  SimPier net(6, PierOptions(73));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("t").PartitionBy({"k"})).ok());
  PierClient* c = net.client(0);
  c->SetPublishBatching(100, /*max_delay=*/60 * kSecond);
  uint64_t before = StoredObjects(&net, "t");
  for (int i = 0; i < 5; ++i) {
    Tuple t("t");
    t.Append("k", Value::Int64(i));
    ASSERT_TRUE(c->Publish("t", t).ok());
  }
  ASSERT_TRUE(c->Flush().ok());
  net.RunFor(3 * kSecond);
  EXPECT_EQ(StoredObjects(&net, "t"), before + 5);
  // A second Flush with nothing buffered is a no-op.
  EXPECT_TRUE(c->Flush().ok());
}

TEST(PublishBatchTest, ExplicitBatchFlushesThePendingBufferFirst) {
  // An explicit PublishBatch must not overtake tuples already waiting in
  // the same table's auto-batch buffer.
  SimPier net(6, PierOptions(77));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("t").PartitionBy({"k"})).ok());
  PierClient* c = net.client(0);
  c->SetPublishBatching(100, /*max_delay=*/60 * kSecond);
  uint64_t before = StoredObjects(&net, "t");
  Tuple first("t");
  first.Append("k", Value::Int64(1));
  ASSERT_TRUE(c->Publish("t", first).ok());  // buffered
  Tuple second("t");
  second.Append("k", Value::Int64(2));
  ASSERT_TRUE(c->PublishBatch("t", {second}).ok());  // ships buffer + batch
  net.RunFor(3 * kSecond);
  EXPECT_EQ(StoredObjects(&net, "t"), before + 2)
      << "the buffered tuple must ship with (before) the explicit batch";
}

TEST(PublishBatchTest, DisablingBatchingFlushesTheBacklog) {
  SimPier net(6, PierOptions(79));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("t").PartitionBy({"k"})).ok());
  PierClient* c = net.client(0);
  c->SetPublishBatching(100, 60 * kSecond);
  uint64_t before = StoredObjects(&net, "t");
  Tuple t("t");
  t.Append("k", Value::Int64(1));
  ASSERT_TRUE(c->Publish("t", t).ok());
  c->SetPublishBatching(0, 0);  // off — must not strand the buffered tuple
  net.RunFor(3 * kSecond);
  EXPECT_EQ(StoredObjects(&net, "t"), before + 1);
}

TEST(PublishBatchTest, ClientDestroyedWithBatchesInFlight) {
  // A batch's completion can fire after its client is gone — including the
  // batch the destructor's own Flush() ships. It must not touch the client.
  SimPier net(6, PierOptions(83));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("t").PartitionBy({"k"})).ok());
  uint64_t before = StoredObjects(&net, "t");
  {
    PierClient scoped(net.qp(1), net.catalog());
    std::vector<Tuple> rows;
    for (int i = 0; i < 20; ++i) {
      Tuple t("t");
      t.Append("k", Value::Int64(i));
      rows.push_back(std::move(t));
    }
    ASSERT_TRUE(scoped.PublishBatch("t", rows).ok());
    scoped.SetPublishBatching(100, /*max_delay=*/60 * kSecond);
    for (int i = 20; i < 25; ++i) {
      Tuple t("t");
      t.Append("k", Value::Int64(i));
      ASSERT_TRUE(scoped.Publish("t", t).ok());  // buffered until teardown
    }
  }
  net.RunFor(5 * kSecond);
  EXPECT_EQ(StoredObjects(&net, "t"), before + 25);
}

TEST(PublishBatchTest, UnbatchedPublishPastADeadReplicaHolderEndsWithKCopies) {
  // Auto-batching off: Publish is a batch of one. A replica holder that died
  // just before the publish costs the copy the owner sent it; once the ring
  // drops the dead node, the owner's repair places it at the next successor.
  SimPier net(8, PierOptions(89));
  ASSERT_TRUE(net.catalog()
                  ->Register(TableSpec("pf").PartitionBy({"id"}).Replicas(3))
                  .ok());
  Tuple t("pf");
  t.Append("id", Value::Int64(7));
  const std::string key = t.PartitionKey({"id"});
  Id target = RoutingId("pf", key);
  int owner = -1;
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (net.dht(i)->router()->protocol()->IsOwner(target))
      owner = static_cast<int>(i);
  }
  ASSERT_GE(owner, 0);
  std::vector<RingPeer> succs =
      net.dht(owner)->router()->protocol()->SuccessorSet(2);
  ASSERT_FALSE(succs.empty());
  int replica = -1;
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (net.dht(i)->local_address() == succs[0].addr)
      replica = static_cast<int>(i);
  }
  ASSERT_GE(replica, 0);
  uint32_t publisher = 0;
  while (static_cast<int>(publisher) == owner ||
         static_cast<int>(publisher) == replica)
    publisher++;
  PierClient* c = net.client(publisher);

  net.harness()->FailNode(static_cast<uint32_t>(replica));
  ASSERT_TRUE(c->Publish("pf", t).ok());
  net.RunFor(60 * kSecond);
  EXPECT_EQ(c->publish_failures().dropped_items, 0u);
  size_t live_copies = 0;
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (net.harness()->IsAlive(i))
      live_copies += net.dht(i)->objects()->Get("pf", key).size();
  }
  EXPECT_EQ(live_copies, 3u) << "the dead holder's copy was never replaced";
}

TEST(PierClient, ReplanModeIsValidated) {
  SimPier net(2, PierOptions(47));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("t").PartitionBy({"k"})).ok());
  auto q = net.client(0)->Query(
      Sql("SELECT * FROM t TIMEOUT 2s").WithReplan("sometimes"));
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST(PierClient, StatsRefreshFoldsRemoteRowsIntoAPrivateRegistry) {
  SimPier net(6, PierOptions(53));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("ev").PartitionBy({"src"})).ok());

  // A client with a PRIVATE registry (distinct origin) on node 3: the
  // shared-registry clients' sys.stats rows are foreign to it.
  PierClient mine(net.qp(3), net.catalog(),
                  [&net](TimeUs t) { net.RunFor(t); });
  ASSERT_FALSE(mine.stats()->Has("ev"));
  auto refresh = mine.StartStatsRefresh(/*window=*/2 * kSecond,
                                        /*lifetime=*/60 * kSecond);
  ASSERT_TRUE(refresh.ok()) << refresh.status().ToString();

  // Publish pacing pushes a sys.stats row at every kStatsPublishEvery-th
  // tuple, so the last row covers every tuple.
  constexpr uint64_t kRows = 2 * PierClient::kStatsPublishEvery;
  for (uint64_t i = 0; i < kRows; ++i) {
    Tuple t("ev");
    t.Append("src", Value::Int64(static_cast<int64_t>(i % 10)));
    ASSERT_TRUE(net.client(i % net.size())->Publish("ev", t).ok());
  }
  net.RunFor(6 * kSecond);

  ASSERT_TRUE(mine.stats()->Has("ev"))
      << "the refresh folds arriving sys.stats rows automatically";
  EXPECT_EQ(mine.stats()->Snapshot("ev").tuples, kRows);

  // Calling again while the refresh runs returns the running query.
  auto again = mine.StartStatsRefresh();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->id(), refresh->id());
}

}  // namespace
}  // namespace pier
