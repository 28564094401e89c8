// Operator-level tests: local opgraphs on a one-node network, driven through
// the executor with injected batches. These exercise each operator's contract
// (including the best-effort malformed-tuple policy) without the cost of a
// full multi-node simulation.

#include <gtest/gtest.h>

#include <algorithm>

#include "data/tuple_batch.h"
#include "qp/agg_state.h"
#include "qp/sim_pier.h"
#include "util/hash.h"
#include "util/random.h"

namespace pier {
namespace {

/// A one-node rig: builds a local graph source[inject] -> <middle> -> result
/// and collects emitted tuples.
class LocalGraph {
 public:
  explicit LocalGraph(uint64_t seed = 99) {
    SimPier::Options opts;
    opts.sim.seed = seed;
    opts.settle_time = 1 * kSecond;
    net_ = std::make_unique<SimPier>(1, opts);
  }

  /// Builds source -> ops... -> result. Returns ids of the middle ops. A
  /// non-empty `side` adds a second branch from the last middle op through
  /// the `side` ops to a result of its own.
  std::vector<uint32_t> Build(std::vector<OpSpec> middle,
                              TimeUs timeout = 60 * kSecond,
                              const std::vector<OpSpec>& side = {}) {
    for (const OpSpec& spec : middle) {
      // A Bloom probe reads its filter namespace as a relation, so the
      // catalog must know it before the proxy accepts the plan.
      if (spec.kind == OpKind::kBloomProbe) {
        (void)net_->catalog()->Register(
            TableSpec(spec.GetString("ns")).PartitionBy({"filter"}));
      }
    }
    plan_.query_id = 50000 + seed_counter_++;
    plan_.timeout = timeout;
    OpGraph& g = plan_.AddGraph();
    g.dissem = DissemKind::kLocal;
    OpSpec& src = g.AddOp(OpKind::kSource);
    src.SetInt("inject", 1);
    src_id_ = src.id;
    uint32_t prev = src_id_;
    std::vector<uint32_t> ids;
    for (OpSpec& spec : middle) {
      OpSpec& op = g.AddOp(spec.kind);
      op.params = spec.params;
      uint32_t id = op.id;
      ids.push_back(id);
      g.Connect(prev, id, 0);
      prev = id;
    }
    const uint32_t fork = prev;
    OpSpec& res = g.AddOp(OpKind::kResult);
    g.Connect(prev, res.id, 0);
    if (!side.empty()) {
      prev = fork;
      for (const OpSpec& spec : side) {
        OpSpec& op = g.AddOp(spec.kind);
        op.params = spec.params;
        g.Connect(prev, op.id, 0);
        prev = op.id;
      }
      g.Connect(prev, g.AddOp(OpKind::kResult).id, 0);
    }
    graph_id_ = g.id;

    auto qid = net_->qp(0)->SubmitQuery(
        plan_, [this](const Tuple& t) { out.push_back(t); });
    EXPECT_TRUE(qid.ok()) << qid.status().ToString();
    net_->RunFor(100 * kMillisecond);
    return ids;
  }

  /// Inject one row (a batch of one).
  void Inject(const Tuple& t) { InjectBatch(TupleBatch::FromTuples({t})); }

  void InjectBatch(const TupleBatch& b) {
    EXPECT_TRUE(net_->qp(0)
                    ->executor()
                    ->InjectBatch(plan_.query_id, graph_id_, src_id_, b)
                    .ok());
  }

  void Run(TimeUs t = 500 * kMillisecond) { net_->RunFor(t); }

  void Flush() { net_->qp(0)->executor()->FlushQuery(plan_.query_id); }

  Operator* Op(uint32_t id) {
    return net_->qp(0)->executor()->FindOp(plan_.query_id, graph_id_, id);
  }

  std::vector<Tuple> out;

 private:
  std::unique_ptr<SimPier> net_;
  QueryPlan plan_;
  uint32_t src_id_ = 0;
  uint32_t graph_id_ = 0;
  uint64_t seed_counter_ = 0;
};

Tuple Row(int64_t a, int64_t b) {
  Tuple t("t");
  t.Append("a", Value::Int64(a));
  t.Append("b", Value::Int64(b));
  return t;
}

TEST(Operators, SelectionDiscardsMalformedTuplesSilently) {
  LocalGraph g;
  OpSpec sel(0, OpKind::kSelection);
  sel.SetExpr("pred", *ParseExpr("a > 5"));
  g.Build({sel});
  g.Inject(Row(10, 0));                       // passes
  g.Inject(Row(3, 0));                        // fails predicate
  g.Inject(Tuple("t", {{"x", Value::Int64(9)}}));  // no column a: discarded
  Tuple wrong_type("t");
  wrong_type.Append("a", Value::String("ten"));     // type error: discarded
  g.Inject(wrong_type);
  g.Run();
  ASSERT_EQ(g.out.size(), 1u);
  EXPECT_EQ(*g.out[0].Get("a")->AsInt64(), 10);
}

TEST(Operators, ProjectionComputedColumns) {
  LocalGraph g;
  OpSpec proj(0, OpKind::kProjection);
  proj.SetStrings("cols", {"a"});
  proj.Set("out0", "twice");
  proj.SetExpr("expr0", *ParseExpr("a * 2"));
  g.Build({proj});
  g.Inject(Row(21, 1));
  g.Run();
  ASSERT_EQ(g.out.size(), 1u);
  EXPECT_EQ(*g.out[0].Get("twice")->AsInt64(), 42);
  EXPECT_FALSE(g.out[0].Has("b"));
}

TEST(Operators, DupElimByContentAndBySubset) {
  LocalGraph g;
  g.Build({OpSpec(0, OpKind::kDupElim)});
  g.Inject(Row(1, 1));
  g.Inject(Row(1, 1));  // exact duplicate
  g.Inject(Row(1, 2));  // differs in b
  g.Run();
  EXPECT_EQ(g.out.size(), 2u);

  LocalGraph g2;
  OpSpec de(0, OpKind::kDupElim);
  de.SetStrings("cols", {"a"});
  g2.Build({de});
  g2.Inject(Row(1, 1));
  g2.Inject(Row(1, 2));  // same a: duplicate under the subset
  g2.Inject(Row(2, 1));
  g2.Run();
  EXPECT_EQ(g2.out.size(), 2u);
}

TEST(Operators, QueueYieldsButPreservesOrderAndCount) {
  LocalGraph g;
  OpSpec q(0, OpKind::kQueue);
  auto ids = g.Build({q});
  for (int i = 0; i < 600; ++i) g.Inject(Row(i, 0));
  EXPECT_LT(g.out.size(), 600u) << "queue must defer past the batch limit";
  g.Run();
  ASSERT_EQ(g.out.size(), 600u);
  for (int i = 0; i < 600; ++i)
    EXPECT_EQ(*g.out[i].Get("a")->AsInt64(), i) << "FIFO order";
}

TEST(Operators, QueueFlushDrainsWhatItHolds) {
  // A flush pushes the parked rows on at once, ahead of the queue's own
  // zero-delay timer, which then finds nothing left.
  LocalGraph g;
  OpSpec q(0, OpKind::kQueue);
  g.Build({q});
  for (int i = 0; i < 3; ++i) g.Inject(Row(i, 0));
  EXPECT_EQ(g.out.size(), 0u) << "the queue parks what it is given";
  g.Flush();
  ASSERT_EQ(g.out.size(), 3u);
  g.Run();
  EXPECT_EQ(g.out.size(), 3u) << "a drained row was pushed twice";
}

// A tee hands every batch to each of its consumers (§3.3.5).
TEST(Operators, TeeFeedsEveryConsumer) {
  LocalGraph g;
  OpSpec tee(0, OpKind::kTee);
  OpSpec sel(0, OpKind::kSelection);
  sel.SetExpr("pred", *ParseExpr("a > 5"));
  g.Build({tee}, 60 * kSecond, {sel});
  g.Inject(Row(10, 0));
  g.Inject(Row(3, 0));
  g.Run();
  std::vector<int64_t> got;
  for (const Tuple& t : g.out) got.push_back(*t.Get("a")->AsInt64());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<int64_t>{3, 10, 10}))
      << "both rows on the plain branch, the one past the filter on the other";
}

TEST(Operators, QueueShedsPastMaxSizeAndCountsTheDrops) {
  LocalGraph g;
  OpSpec q(0, OpKind::kQueue);
  q.SetInt("max_size", 4);
  auto ids = g.Build({q});
  BatchAssembler rows;
  for (int i = 0; i < 10; ++i) rows.Add(Row(i, 0));
  for (const TupleBatch& b : rows.TakeBatches()) g.InjectBatch(b);
  g.Run();
  ASSERT_EQ(g.out.size(), 4u);
  EXPECT_EQ(*g.out[3].Get("a")->AsInt64(), 3) << "the head of the batch";
  EXPECT_EQ(g.Op(ids[0])->Metric("dropped"), 6);
}

TEST(Operators, LimitStopsTheQueryLocally) {
  LocalGraph g;
  OpSpec lim(0, OpKind::kLimit);
  lim.SetInt("k", 3);
  g.Build({lim});
  for (int i = 0; i < 10; ++i) g.Inject(Row(i, 0));
  g.Run();
  EXPECT_EQ(g.out.size(), 3u);
}

TEST(Operators, GroupByLocalEmitsOnFlushAndTumbles) {
  LocalGraph g;
  OpSpec agg(0, OpKind::kGroupBy);
  agg.SetStrings("keys", {"a"});
  agg.Set("aggs", "count::n,sum:b:total");
  auto ids = g.Build({agg});
  g.Inject(Row(1, 10));
  g.Inject(Row(1, 20));
  g.Inject(Row(2, 5));
  g.Run();
  EXPECT_TRUE(g.out.empty()) << "blocking operator: nothing before flush";
  g.Flush();
  g.Run();
  ASSERT_EQ(g.out.size(), 2u);
  for (const Tuple& t : g.out) {
    if (*t.Get("a")->AsInt64() == 1) {
      EXPECT_EQ(*t.Get("n")->AsInt64(), 2);
      EXPECT_EQ(*t.Get("total")->AsInt64(), 30);
    } else {
      EXPECT_EQ(*t.Get("n")->AsInt64(), 1);
    }
  }
  // Tumbling: a second flush with no new input emits nothing.
  size_t before = g.out.size();
  g.Flush();
  g.Run();
  EXPECT_EQ(g.out.size(), before);
}

TEST(Operators, TopKDedupReplacesRefinedGroups) {
  LocalGraph g;
  OpSpec topk(0, OpKind::kTopK);
  topk.SetInt("k", 2);
  topk.Set("col", "b");
  topk.SetInt("desc", 1);
  topk.SetStrings("dedup", {"a"});
  g.Build({topk});
  g.Inject(Row(1, 10));
  g.Inject(Row(2, 20));
  g.Inject(Row(3, 5));
  g.Flush();
  g.Run();
  ASSERT_EQ(g.out.size(), 2u);
  EXPECT_EQ(*g.out[0].Get("a")->AsInt64(), 2);
  EXPECT_EQ(*g.out[1].Get("a")->AsInt64(), 1);
  // A refined value for group 3 overtakes; re-flush emits the new ranking.
  g.Inject(Row(3, 99));
  g.Flush();
  g.Run();
  ASSERT_EQ(g.out.size(), 4u);
  EXPECT_EQ(*g.out[2].Get("a")->AsInt64(), 3);
  // Unchanged state: no re-emission.
  g.Flush();
  g.Run();
  EXPECT_EQ(g.out.size(), 4u);
}

TEST(Operators, UnionRenamesTable) {
  LocalGraph g;
  OpSpec u(0, OpKind::kUnion);
  u.Set("table", "merged");
  g.Build({u});
  g.Inject(Row(1, 1));
  g.Run();
  ASSERT_EQ(g.out.size(), 1u);
  EXPECT_EQ(g.out[0].table(), "merged");
}

TEST(Operators, EddyPassesConjunctionRegardlessOfPolicy) {
  for (const char* policy : {"fixed", "adaptive"}) {
    LocalGraph g;
    OpSpec eddy(0, OpKind::kEddy);
    eddy.SetInt("n", 2);
    eddy.SetExpr("mexpr0", *ParseExpr("a > 0"));
    eddy.SetExpr("mexpr1", *ParseExpr("b < 100"));
    eddy.Set("policy", policy);
    auto ids = g.Build({eddy});
    g.Inject(Row(1, 50));    // passes both
    g.Inject(Row(-1, 50));   // fails first
    g.Inject(Row(1, 200));   // fails second
    g.Run();
    EXPECT_EQ(g.out.size(), 1u) << policy;
    Operator* op = g.Op(ids[0]);
    ASSERT_NE(op, nullptr);
    EXPECT_GT(op->Metric("evaluations"), 0) << policy;
    EXPECT_EQ(op->Metric("no_such_metric"), -1);
  }
}

TEST(Operators, MaterializerMakesTupleScanableLocally) {
  SimPier::Options opts;
  opts.sim.seed = 3;
  opts.settle_time = 1 * kSecond;
  SimPier net(1, opts);

  QueryPlan plan;
  plan.query_id = 60001;
  plan.timeout = 30 * kSecond;
  OpGraph& g = plan.AddGraph();
  g.dissem = DissemKind::kLocal;
  OpSpec& src = g.AddOp(OpKind::kSource);
  src.SetInt("inject", 1);
  uint32_t src_id = src.id;
  OpSpec& mat = g.AddOp(OpKind::kMaterializer);
  mat.Set("ns", "mat_table");
  mat.SetStrings("key", {"a"});
  mat.SetInt("drop_on_close", 0);
  g.Connect(src_id, mat.id, 0);

  ASSERT_TRUE(net.qp(0)->SubmitQuery(plan, [](const Tuple&) {}).ok());
  net.RunFor(100 * kMillisecond);
  ASSERT_TRUE(
      net.qp(0)
          ->executor()
          ->InjectBatch(plan.query_id, g.id, src_id,
                        TupleBatch::FromTuples({Row(7, 8)}))
          .ok());
  net.RunFor(100 * kMillisecond);
  EXPECT_EQ(net.dht(0)->objects()->NamespaceObjects("mat_table"), 1u);
}

TEST(Operators, UnknownOpKindIsRejectedNotFatal) {
  OpSpec bogus(1, static_cast<OpKind>(200));
  auto op = MakeOperator(bogus);
  EXPECT_FALSE(op.ok());
}

TEST(Operators, BadParamsRejectedAtBuild) {
  // A graph whose operator fails Init must be rejected by Build, and the
  // node must keep running (the executor logs and skips it).
  SimPier::Options opts;
  opts.sim.seed = 4;
  opts.settle_time = 1 * kSecond;
  SimPier net(1, opts);
  QueryPlan plan;
  plan.query_id = 60002;
  plan.timeout = 5 * kSecond;
  OpGraph& g = plan.AddGraph();
  g.dissem = DissemKind::kLocal;
  OpSpec& scan = g.AddOp(OpKind::kScan);  // missing ns param
  (void)scan;
  auto qid = net.qp(0)->SubmitQuery(plan, [](const Tuple&) {});
  EXPECT_TRUE(qid.ok()) << "submission survives";
  net.RunFor(kSecond);
  EXPECT_EQ(net.qp(0)->executor()->FindOp(plan.query_id, g.id, 1), nullptr)
      << "bad graph was not instantiated";
}

TEST(Operators, MalformedStoredObjectsAreSkippedByScan) {
  // Garbage bytes published into a table namespace must not break queries
  // over that table (§3.3.4 best-effort).
  SimPier::Options opts;
  opts.sim.seed = 5;
  opts.settle_time = 6 * kSecond;
  SimPier net(4, opts);
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("junkish").PartitionBy({"v"})).ok());
  Tuple good("junkish");
  good.Append("v", Value::Int64(1));
  ASSERT_TRUE(net.client(0)->Publish("junkish", good).ok());
  net.dht(1)->Put("junkish", "somekey", "sfx", "\xde\xad\xbe\xef garbage",
                  60 * kSecond);
  net.RunFor(2 * kSecond);

  auto q = net.client(2)->Query(Sql("SELECT * FROM junkish TIMEOUT 5s"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->Collect().size(), 1u)
      << "the good tuple arrives, the garbage is dropped";
}

// ---------------------------------------------------------------------------
// Exactly-once catch-up (§3.3.4): scan, newdata and the hier-agg root read a
// namespace through one feed. Each must deliver an object stored before the
// query, one stored after SubmitQuery returns but before the catch-up event
// runs, and a later one, each exactly once; skip (and count) objects stored
// before the catch-up floor; and go silent once the query stops.
// ---------------------------------------------------------------------------

/// One node running the local graph `scan|newdata -> result`, or
/// `source -> hieragg -> result` whose root reads the aggregation namespace.
/// Store() writes straight into the node's object store, which fires newData
/// exactly as an arriving put does.
class CatchUpRig {
 public:
  explicit CatchUpRig(OpKind kind) : kind_(kind) {
    SimPier::Options opts;
    opts.sim.seed = 17;
    opts.settle_time = 1 * kSecond;
    net_ = std::make_unique<SimPier>(1, opts);
    EXPECT_TRUE(
        net_->catalog()->Register(TableSpec("cu").PartitionBy({"id"})).ok());
    plan_.query_id = 70001;
    plan_.timeout = 60 * kSecond;
    OpGraph& g = plan_.AddGraph();
    g.dissem = DissemKind::kLocal;
    graph_id_ = g.id;
    ns_ = "cu";
    if (kind == OpKind::kHierAgg) {
      OpSpec& src = g.AddOp(OpKind::kSource);
      src.SetInt("inject", 1);
      uint32_t src_id = src.id;
      OpSpec& agg = g.AddOp(OpKind::kHierAgg);
      agg.Set("keys", "id");
      agg.Set("aggs", "count::cnt");
      agg.SetInt("hold_ms", 20);
      op_id_ = agg.id;
      g.Connect(src_id, op_id_, 0);
      ns_ = "q" + std::to_string(plan_.query_id) + ".g" +
            std::to_string(graph_id_) + ".op" + std::to_string(op_id_) +
            ".agg";
    } else {
      OpSpec& access = g.AddOp(kind);
      access.Set("ns", ns_);
      op_id_ = access.id;
    }
    OpSpec& res = g.AddOp(OpKind::kResult);
    g.Connect(op_id_, res.id, 0);
  }

  void Store(const std::string& id) {
    Tuple t("cu");
    t.Append("id", Value::String(id));
    std::string value = t.Encode();
    if (kind_ == OpKind::kHierAgg) {
      // The root reads partial frames, as routed by the other nodes' flush.
      GroupTable partial({"id"}, {AggSpec{AggFunc::kCount, "", "cnt"}});
      partial.Fold(TupleBatch::FromTuples({t}));
      WireWriter w;
      partial.Emit("agg", /*partial=*/true)[0].EncodeTo(&w);
      value = std::move(w).data();
    }
    net_->dht(0)->StoreLocal(ObjectName{ns_, id, "s." + id}, std::move(value),
                             60 * kSecond);
  }

  void Submit(TimeUs catchup_floor_us) {
    plan_.catchup_floor_us = catchup_floor_us;
    ASSERT_TRUE(net_->qp(0)
                    ->SubmitQuery(plan_,
                                  [this](const Tuple& t) { out_.push_back(t); })
                    .ok());
    ASSERT_NE(Op(), nullptr) << "local graphs start inside SubmitQuery";
  }

  void Stop() {
    net_->qp(0)->executor()->StopQuery(plan_.query_id);
    Run();
    ASSERT_EQ(Op(), nullptr);
  }

  void Run() { net_->RunFor(200 * kMillisecond); }
  TimeUs Now() { return net_->dht(0)->vri()->Now(); }

  Operator* Op() {
    return net_->qp(0)->executor()->FindOp(plan_.query_id, graph_id_, op_id_);
  }

  /// Object id -> times delivered. The root re-emits cumulative finals, so
  /// there its latest count per group is what it merged.
  std::map<std::string, int64_t> Delivered() const {
    std::map<std::string, int64_t> seen;
    for (const Tuple& t : out_) {
      std::string id(*t.Get("id")->AsString());
      if (kind_ == OpKind::kHierAgg) {
        seen[id] = *t.Get("cnt")->AsInt64();
      } else {
        seen[id]++;
      }
    }
    return seen;
  }

 private:
  OpKind kind_;
  std::unique_ptr<SimPier> net_;
  QueryPlan plan_;
  uint32_t graph_id_ = 0;
  uint32_t op_id_ = 0;
  std::string ns_;
  std::vector<Tuple> out_;
};

const OpKind kCatchUpReaders[] = {OpKind::kScan, OpKind::kNewData,
                                  OpKind::kHierAgg};

TEST(CatchUp, DeliversEveryObjectExactlyOnceAndNothingAfterStop) {
  for (OpKind kind : kCatchUpReaders) {
    SCOPED_TRACE(OpKindName(kind));
    CatchUpRig rig(kind);
    rig.Store("before");
    rig.Submit(0);
    rig.Store("between");  // newData sees it, and so will the catch-up scan
    rig.Run();
    rig.Store("after");
    rig.Run();
    const std::map<std::string, int64_t> want{
        {"after", 1}, {"before", 1}, {"between", 1}};
    EXPECT_EQ(rig.Delivered(), want);
    EXPECT_EQ(rig.Op()->Metric("suppressed"), 0);
    rig.Stop();
    rig.Store("stopped");
    rig.Run();
    EXPECT_EQ(rig.Delivered(), want);
  }
}

TEST(CatchUp, FloorSkipsAndCountsOlderObjects) {
  for (OpKind kind : kCatchUpReaders) {
    SCOPED_TRACE(OpKindName(kind));
    CatchUpRig rig(kind);
    rig.Store("old");
    rig.Run();
    TimeUs floor = rig.Now();
    rig.Run();
    rig.Store("new");
    rig.Submit(floor);
    rig.Run();
    EXPECT_EQ(rig.Delivered(), (std::map<std::string, int64_t>{{"new", 1}}));
    EXPECT_EQ(rig.Op()->Metric("suppressed"), 1);
  }
}

// ---------------------------------------------------------------------------
// Batch-size equivalence: the same randomized stream through the same middle
// graph twice — once as 1-row batches, once as multi-row TupleBatches (the
// assembler rolls batches on schema changes, exactly as the runtime's decode
// path does). Both answer streams must match, byte for byte and in order,
// including across window flush boundaries, a digest recorded from the
// per-tuple operator path at commit cb4b9bb, before that path was deleted.
// ---------------------------------------------------------------------------

/// The rendering the digests below were recorded in: the tuple codec as it
/// stood at that commit, with int64 values as 8 fixed little-endian bytes.
/// Frozen here so the recorded digests outlive later codec changes.
std::string FrozenEncode(const Tuple& t) {
  WireWriter w;
  w.PutBytes(t.table());
  w.PutVarint(t.num_columns());
  for (const Column& c : t.columns()) {
    w.PutBytes(c.name);
    w.PutU8(static_cast<uint8_t>(c.value.type()));
    switch (c.value.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kBool:
        w.PutU8(c.value.bool_unchecked() ? 1 : 0);
        break;
      case ValueType::kInt64:
        w.PutU64(static_cast<uint64_t>(c.value.int64_unchecked()));
        break;
      case ValueType::kDouble:
        w.PutDouble(c.value.double_unchecked());
        break;
      case ValueType::kString:
      case ValueType::kBytes:
        w.PutBytes(c.value.str_unchecked());
        break;
    }
  }
  return std::move(w).data();
}

/// A recorded answer stream: Fnv1a64 over the concatenated frozen tuple
/// renderings (self-delimiting, so the concatenation is unambiguous) plus the
/// row count.
struct Golden {
  uint64_t digest;
  size_t rows;
};

Golden Digest(const std::vector<Tuple>& answers) {
  std::string all;
  for (const Tuple& t : answers) all += FrozenEncode(t);
  return Golden{Fnv1a64(all), answers.size()};
}

void ExpectBatchEquivalence(const std::vector<OpSpec>& middle,
                            const std::vector<std::vector<Tuple>>& windows,
                            Golden want, size_t batch_rows = 64) {
  for (size_t rows_per_batch : {size_t{1}, batch_rows}) {
    LocalGraph g(123);
    g.Build(middle);
    for (const std::vector<Tuple>& win : windows) {
      BatchAssembler assembler(rows_per_batch);
      for (const Tuple& t : win) assembler.Add(t);
      for (const TupleBatch& b : assembler.TakeBatches()) g.InjectBatch(b);
      g.Run();
      g.Flush();
      g.Run();
    }
    Golden got = Digest(g.out);
    EXPECT_EQ(got.digest, want.digest)
        << rows_per_batch << "-row batches: digest 0x" << std::hex
        << got.digest << std::dec << ", " << got.rows << " rows";
    EXPECT_EQ(got.rows, want.rows) << rows_per_batch << "-row batches";
  }
}

/// Randomized rows: duplicate-heavy int key `a` (sometimes missing, sometimes
/// mistyped as a string), optional int `b`, optional string `s` — exercising
/// the best-effort discard policy on both paths.
std::vector<Tuple> RandomRows(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Tuple> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Tuple t("t");
    uint64_t shape = rng.Uniform(12);
    if (shape != 0)
      t.Append("a", shape == 1
                        ? Value::String("ten")
                        : Value::Int64(static_cast<int64_t>(rng.Uniform(20))));
    if (rng.Uniform(10) != 0)
      t.Append("b", Value::Int64(static_cast<int64_t>(rng.Uniform(100))));
    if (rng.Uniform(3) == 0)
      t.Append("s", Value::String("u" + std::to_string(rng.Uniform(5))));
    rows.push_back(std::move(t));
  }
  return rows;
}

TEST(BatchEquivalence, SelectionProjectionDupElimChain) {
  OpSpec sel(0, OpKind::kSelection);
  sel.SetExpr("pred", *ParseExpr("a < 15"));
  OpSpec proj(0, OpKind::kProjection);
  proj.SetStrings("cols", {"a", "s"});
  proj.Set("out0", "twice");
  proj.SetExpr("expr0", *ParseExpr("a * 2"));
  OpSpec dedup(0, OpKind::kDupElim);
  ExpectBatchEquivalence({sel, proj, dedup}, {RandomRows(71, 400)},
                         Golden{0xc84d8a7184fa5775, 69});
}

TEST(BatchEquivalence, GroupByAcrossWindowBoundaries) {
  OpSpec agg(0, OpKind::kGroupBy);
  agg.SetStrings("keys", {"a"});
  agg.Set("aggs", "count::n,sum:b:total,min:b:lo");
  // Three tumbling windows (Flush between them): per-window group answers
  // must agree, not just the final state.
  ExpectBatchEquivalence(
      {agg}, {RandomRows(72, 150), RandomRows(73, 150), RandomRows(74, 150)},
      Golden{0xf8d6fa6d49eb56c9, 63});
}

TEST(BatchEquivalence, EddyDrawsIdenticalRoutingDecisions) {
  for (const char* policy : {"fixed", "adaptive"}) {
    OpSpec eddy(0, OpKind::kEddy);
    eddy.SetInt("n", 2);
    eddy.SetExpr("mexpr0", *ParseExpr("a > 5"));
    eddy.SetExpr("mexpr1", *ParseExpr("b < 80"));
    eddy.Set("policy", policy);
    // Both policies pass the same conjunction, so they share one stream.
    ExpectBatchEquivalence({eddy}, {RandomRows(75, 300)},
                           Golden{0x8c2f296c46daa995, 123});
  }
}

TEST(BatchEquivalence, QueueThenLimitStopsAtTheSameRow) {
  OpSpec q(0, OpKind::kQueue);
  OpSpec lim(0, OpKind::kLimit);
  lim.SetInt("k", 37);
  ExpectBatchEquivalence({q, lim}, {RandomRows(76, 200)},
                         Golden{0xfee5e0fe51b40fb7, 37});
}

TEST(BatchEquivalence, SymHashJoinMixedTableStream) {
  // An interleaved two-table stream through the join's single-input mode:
  // batches roll on every table switch, so the batch path sees many short
  // batches routed whole to the correct side.
  Rng rng(77);
  std::vector<Tuple> rows;
  for (int i = 0; i < 300; ++i) {
    if (rng.Uniform(2) == 0) {
      Tuple r("r");
      r.Append("x", Value::Int64(static_cast<int64_t>(rng.Uniform(40))));
      r.Append("a", Value::Int64(i));
      rows.push_back(std::move(r));
    } else {
      Tuple s("s");
      s.Append("y", Value::Int64(static_cast<int64_t>(rng.Uniform(40))));
      s.Append("b", Value::Int64(i));
      rows.push_back(std::move(s));
    }
  }
  OpSpec shj(0, OpKind::kSymHashJoin);
  shj.Set("l_key", "x");
  shj.Set("r_key", "y");
  shj.Set("l_table", "r");
  shj.Set("r_table", "s");
  ExpectBatchEquivalence({shj}, {rows}, Golden{0xd4381475c2e3c9ea, 547},
                         /*batch_rows=*/32);
}

/// Partial-state rows as a mode=partial GroupBy emits them for
/// "count::n,sum:b:total" ("n#n", "total#s"), with the odd row
/// missing its key or one aggregate's columns and sums that are sometimes
/// doubles — so the stream rolls batches on every schema change.
std::vector<Tuple> PartialRows(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Tuple> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Tuple t("agg");
    uint64_t shape = rng.Uniform(10);
    if (shape != 0)
      t.Append("a", Value::Int64(static_cast<int64_t>(rng.Uniform(8))));
    t.Append("n#n", Value::Int64(static_cast<int64_t>(1 + rng.Uniform(5))));
    if (shape != 1) {
      int64_t lo = static_cast<int64_t>(rng.Uniform(50));
      int64_t hi = lo + static_cast<int64_t>(rng.Uniform(50));
      (void)rng.Uniform(4);  // the recorded stream drew a count column here
      t.Append("total#s", shape == 2 ? Value::Double(lo + hi + 0.5)
                                     : Value::Int64(lo + hi));
    }
    rows.push_back(std::move(t));
  }
  return rows;
}

TEST(BatchEquivalence, TopKWithoutDedupPerWindow) {
  OpSpec topk(0, OpKind::kTopK);
  topk.SetInt("k", 10);
  topk.Set("col", "b");
  topk.SetInt("desc", 1);
  ExpectBatchEquivalence(
      {topk}, {RandomRows(80, 120), RandomRows(81, 120), RandomRows(82, 5)},
      Golden{0x4e7e25062b434df1, 24});
}

TEST(BatchEquivalence, TopKDedupRefinesAcrossFlushes) {
  OpSpec topk(0, OpKind::kTopK);
  topk.SetInt("k", 5);
  topk.Set("col", "b");
  topk.SetInt("desc", 0);
  topk.SetStrings("dedup", {"a"});
  // The third window repeats the second: unchanged state re-flushes nothing.
  std::vector<Tuple> again = RandomRows(84, 100);
  ExpectBatchEquivalence({topk}, {RandomRows(83, 100), again, again},
                         Golden{0xc5cc9b0aca4bd2cb, 10});
}

TEST(BatchEquivalence, FinalGroupByMergesPartials) {
  OpSpec agg(0, OpKind::kGroupBy);
  agg.SetStrings("keys", {"a"});
  agg.Set("aggs", "count::n,sum:b:total");
  agg.Set("mode", "final");
  ExpectBatchEquivalence({agg}, {PartialRows(85, 120), PartialRows(86, 120)},
                         Golden{0xba2da328d0573ef1, 16});
}

TEST(BatchEquivalence, SubsetDupElim) {
  OpSpec de(0, OpKind::kDupElim);
  de.SetStrings("cols", {"a", "s"});
  ExpectBatchEquivalence({de}, {RandomRows(87, 300)},
                         Golden{0x9421f67c74164892, 92});
}

TEST(BatchEquivalence, PausedControlReleasesOnFlush) {
  // Paused from the start: every window buffers (capped at max_buffer, the
  // rest shed) and the flush releases the buffer, then pauses again.
  OpSpec ctl(0, OpKind::kControl);
  ctl.SetInt("paused", 1);
  ctl.SetInt("max_buffer", 100);
  ExpectBatchEquivalence(
      {ctl}, {RandomRows(88, 150), RandomRows(89, 60), RandomRows(90, 150)},
      Golden{0x5862ae7b6f6883a0, 260});
}

TEST(BatchEquivalence, ZeroColumnProjection) {
  // Every projected column is missing: one column-less row per input row.
  OpSpec proj(0, OpKind::kProjection);
  proj.SetStrings("cols", {"zz"});
  proj.Set("table", "nothing");
  ExpectBatchEquivalence({proj}, {RandomRows(91, 200)},
                         Golden{0xac009d9427646665, 200});
}

TEST(BatchEquivalence, BloomProbeFailsOpenWithoutAFilter) {
  // No filter is ever published: rows buffered before the fetch deadline
  // and rows arriving after it all pass (rows lacking the column drop).
  OpSpec probe(0, OpKind::kBloomProbe);
  probe.Set("col", "a");
  probe.Set("ns", "bf_none");
  probe.SetInt("wait_ms", 300);
  ExpectBatchEquivalence({probe}, {RandomRows(92, 150), RandomRows(93, 150)},
                         Golden{0x229cbf61c9669fce, 277});
}

TEST(BatchEquivalence, ReplicatedScanMergeStillDeliversEachRowOnce) {
  // k = 3 placement: every row exists on its owner plus two successors, and
  // the scan-time replica merge must still deliver each exactly once now
  // that scan results travel as batches.
  SimPier::Options opts;
  opts.sim.seed = 29;
  opts.seed_routing = true;
  SimPier net(8, opts);
  ASSERT_TRUE(net.catalog()
                  ->Register(TableSpec("rv").PartitionBy({"id"}).Replicas(3))
                  .ok());
  std::vector<std::string> published;
  for (int i = 0; i < 24; ++i) {
    Tuple e("rv");
    e.Append("id", Value::Int64(i));
    e.Append("v", Value::String("p" + std::to_string(i)));
    ASSERT_TRUE(net.client(i % 8)->Publish("rv", e).ok());
    published.push_back(e.Encode());
  }
  net.RunFor(3 * kSecond);

  auto q = net.client(0)->Query(Sql("SELECT * FROM rv TIMEOUT 6s"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<std::string> got;
  q->OnTuple([&](const Tuple& t) { got.push_back(t.Encode()); });
  net.RunFor(8 * kSecond);

  std::sort(published.begin(), published.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, published)
      << "replica merge under batch delivery lost or double-counted rows";
}

}  // namespace
}  // namespace pier
