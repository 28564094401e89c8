// Churn-hardened continuous-query lifecycle: proxy failover to successors,
// orphan reaping by lease expiry and by failed answer forwards, deadline
// preservation across failover, cancel semantics on orphaned handles, the
// cancel tombstone, swap-time catch-up suppression, and the missed-swap
// repair from the query's durable plan record.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "qp/sim_pier.h"
#include "qp/ufl.h"

namespace pier {
namespace {

SimPier::Options PierOptions(uint64_t seed = 7) {
  SimPier::Options opts;
  opts.sim.seed = seed;
  opts.seed_routing = true;
  opts.settle_time = 8 * kSecond;
  return opts;
}

constexpr TimeUs kLease = 2 * kSecond;

/// The continuous counting query used throughout: GROUP BY over a
/// non-partition column, so every data-holding node participates.
Sql CountingQuery(SimPier* net, std::vector<uint32_t> successor_nodes,
                  const std::string& timeout = "60s") {
  std::vector<NetAddress> succ;
  for (uint32_t n : successor_nodes)
    succ.push_back(net->dht(n)->local_address());
  return Sql("SELECT src, count(*) AS cnt FROM ev GROUP BY src TIMEOUT " +
             timeout + " WINDOW 2s CONTINUOUS")
      .WithSuccessors(std::move(succ))
      .WithLeasePeriod(kLease);
}

void RegisterEv(SimPier* net) {
  ASSERT_TRUE(
      net->catalog()->Register(TableSpec("ev").PartitionBy({"id"})).ok());
}

/// Publish one ev row (unique id = spreads across nodes; fixed src = the
/// group key) from a LIVE node.
void PublishEv(SimPier* net, int64_t* next_id) {
  Tuple e("ev");
  e.Append("id", Value::Int64((*next_id)++));
  e.Append("src", Value::String("live"));
  for (uint32_t n = 0; n < net->size(); ++n) {
    uint32_t pub = static_cast<uint32_t>((*next_id + n) % net->size());
    if (!net->harness()->IsAlive(pub)) continue;
    ASSERT_TRUE(net->client(pub)->Publish("ev", e).ok());
    return;
  }
}

using Tally = std::map<std::string, uint64_t>;

size_t LiveExecutorsRunning(SimPier* net, uint64_t qid) {
  size_t running = 0;
  for (uint32_t i = 0; i < net->size(); ++i) {
    if (!net->harness()->IsAlive(i)) continue;
    if (net->qp(i)->executor()->HasQuery(qid)) running++;
  }
  return running;
}

TEST(Failover, ProxyKillFailsOverToSuccessorAndAnswersResume) {
  SimPier net(10, PierOptions(211));
  RegisterEv(&net);
  int64_t next_id = 0;

  auto q = net.client(1)->Query(CountingQuery(&net, {2}));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t qid = q->id();
  size_t before_kill = 0;
  q->OnTuple([&](const Tuple&) { before_kill++; });

  for (int i = 0; i < 10; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  EXPECT_GT(before_kill, 0u) << "steady answers before the kill";
  ASSERT_EQ(net.qp(2)->stats().adoptions, 0u);

  net.harness()->FailNode(1);

  // Keep the stream alive; executors detect the dead proxy (lease expiry /
  // answer-forward give-ups) and node 2 — first in the chain — adopts.
  for (int i = 0; i < 12; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  EXPECT_EQ(net.qp(2)->stats().adoptions, 1u) << "successor adopted the query";
  for (uint32_t i = 3; i < net.size(); ++i) {
    EXPECT_GT(net.qp(i)->executor()->stats().proxy_failovers +
                  net.qp(i)->executor()->stats().orphan_reaps,
              0u)
        << "node " << i << " never noticed the proxy died";
    EXPECT_EQ(net.qp(i)->executor()->stats().orphan_reaps, 0u)
        << "node " << i << " reaped despite a live successor";
  }
  // The walk each survivor took: one dead-proxy probe, then a failover to
  // node 2 (which adopts itself) — no reap anywhere.
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (i == 1) continue;
    const QueryExecutor::Stats& st = net.qp(i)->executor()->stats();
    EXPECT_EQ(st.probe_verdicts, (Tally{{"dead", 1}})) << "node " << i;
    EXPECT_TRUE(st.orphan_reaps_by_reason.empty()) << "node " << i;
  }

  // Re-attach through the adopting node: the backlog it buffered while the
  // query had no client replays, and the stream continues.
  auto attached = net.client(2)->Attach(qid);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  size_t after_attach = 0;
  attached->OnTuple([&](const Tuple&) { after_attach++; });
  size_t replayed = after_attach;
  EXPECT_GT(net.qp(2)->stats().answers_buffered, 0u)
      << "the adopted proxy held answers for the missing client";
  EXPECT_GT(replayed, 0u) << "buffered answers replay on attach";

  for (int i = 0; i < 8; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  EXPECT_GT(after_attach, replayed) << "live answers resume after re-attach";
  EXPECT_FALSE(attached->done());

  // Attaching a query this node does NOT proxy stays an error.
  EXPECT_EQ(net.client(3)->Attach(qid).status().code(), StatusCode::kNotFound);
}

TEST(Failover, NoSuccessorsMeansExecutorsReapByLeaseExpiry) {
  SimPier net(8, PierOptions(223));
  RegisterEv(&net);
  int64_t next_id = 0;

  auto q = net.client(1)->Query(CountingQuery(&net, {}));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t qid = q->id();
  for (int i = 0; i < 5; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  ASSERT_GT(LiveExecutorsRunning(&net, qid), 1u)
      << "the query must be running remotely before the kill";

  net.harness()->FailNode(1);
  // One lease period for the lease to starve, plus the check-tick and the
  // point-to-point probe corroboration (lease/2 timeout): every surviving
  // executor reaps the orphan — opgraphs gone, timers cancelled.
  net.RunFor(2 * kLease + kLease / 2);
  EXPECT_EQ(LiveExecutorsRunning(&net, qid), 0u)
      << "orphaned opgraphs must not outlive the lease";
  bool reason_seen = false;
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (!net.harness()->IsAlive(i)) continue;
    const QueryExecutor::Stats& st = net.qp(i)->executor()->stats();
    if (st.orphan_reaps > 0) {
      reason_seen = true;
      EXPECT_NE(st.last_orphan_reason.find("no proxy successor"),
                std::string::npos)
          << st.last_orphan_reason;
    }
    // Every survivor probed the dead proxy once and reaped on that verdict.
    EXPECT_EQ(st.probe_verdicts, (Tally{{"dead", 1}})) << "node " << i;
    EXPECT_EQ(st.orphan_reaps_by_reason, (Tally{{"probe_dead", 1}}))
        << "node " << i;
  }
  EXPECT_TRUE(reason_seen) << "at least one executor recorded the abort reason";
}

// With a lease too long to starve, failed answer forwards are what find the
// dead proxy: after kForwardFailuresBeforeFailover of them the executor's
// deferred failover step runs, and with no successor it reaps the query.
TEST(Failover, FailedAnswerForwardsReapAQueryWithNoSuccessor) {
  SimPier net(8, PierOptions(229));
  RegisterEv(&net);
  int64_t next_id = 0;

  auto q = net.client(1)->Query(
      Sql("SELECT src, count(*) AS cnt FROM ev GROUP BY src TIMEOUT 600s "
          "WINDOW 2s CONTINUOUS")
          .WithLeasePeriod(3600 * kSecond));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t qid = q->id();
  for (int i = 0; i < 5; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  ASSERT_GT(LiveExecutorsRunning(&net, qid), 1u);

  net.harness()->FailNode(1);
  for (int i = 0; i < 90; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  size_t reaped = 0;
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (!net.harness()->IsAlive(i)) continue;
    const QueryExecutor::Stats& st = net.qp(i)->executor()->stats();
    EXPECT_TRUE(st.probe_verdicts.empty()) << "node " << i << " probed";
    if (st.orphan_reaps == 0) continue;
    reaped++;
    EXPECT_EQ(st.orphan_reaps_by_reason, (Tally{{"forward_failed", 1}}))
        << "node " << i;
    EXPECT_GE(st.forward_failures,
              uint64_t{QueryExecutor::kForwardFailuresBeforeFailover})
        << "node " << i;
    EXPECT_FALSE(net.qp(i)->executor()->HasQuery(qid)) << "node " << i;
  }
  EXPECT_GT(reaped, 0u) << "no executor acted on its failed forwards";
}

TEST(Failover, DeadlineIsHonoredAcrossFailover) {
  SimPier net(8, PierOptions(227));
  RegisterEv(&net);
  int64_t next_id = 0;

  auto q = net.client(1)->Query(CountingQuery(&net, {2}, "14s"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t qid = q->id();
  for (int i = 0; i < 4; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }

  net.harness()->FailNode(1);
  for (int i = 0; i < 4; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  ASSERT_EQ(net.qp(2)->stats().adoptions, 1u);

  auto attached = net.client(2)->Attach(qid);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  // The adopted query ends at the ORIGINAL absolute deadline (14s from
  // submission), not a fresh timeout from adoption: the remaining lifetime
  // the attached handle reports must be well under the original.
  EXPECT_LT(attached->timeout(), 9 * kSecond);
  bool done_fired = false;
  attached->OnDone([&] { done_fired = true; });

  net.RunFor(9 * kSecond);  // past deadline + slack
  EXPECT_TRUE(done_fired) << "done fires at the original deadline";
  EXPECT_TRUE(attached->done());
  EXPECT_EQ(LiveExecutorsRunning(&net, qid), 0u)
      << "executors close at the absolute deadline, failover or not";
}

TEST(Failover, EveryRecordDrainsAfterAProxyKillAndAnAdoption) {
  SimPier net(8, PierOptions(281));
  RegisterEv(&net);
  int64_t next_id = 0;

  auto q = net.client(1)->Query(CountingQuery(&net, {2}, "14s"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t qid = q->id();
  for (int i = 0; i < 4; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  net.harness()->FailNode(1);
  for (int i = 0; i < 6; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  ASSERT_EQ(net.qp(2)->stats().adoptions, 1u);
  ASSERT_TRUE(net.qp(2)->HasClientQuery(qid));
  auto plan = net.qp(2)->ProxyPlan(qid);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // Past the original deadline plus the done slack, nothing of the query
  // may be left anywhere: no executor record, no proxy record.
  TimeUs drained = plan->deadline_us + QueryProcessor::kDoneSlack;
  net.RunFor(drained - net.loop()->now() + kMillisecond);
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (!net.harness()->IsAlive(i)) continue;
    EXPECT_EQ(net.qp(i)->executor()->num_active(), 0u) << "node " << i;
    EXPECT_FALSE(net.qp(i)->HasClientQuery(qid)) << "node " << i;
  }
}

TEST(Failover, SwapDrivenByTheAdoptedProxySurvivesTheRace) {
  SimPier net(8, PierOptions(229));
  RegisterEv(&net);
  int64_t next_id = 0;

  const char* text =
      "SELECT src, count(*) AS cnt FROM ev GROUP BY src "
      "TIMEOUT 60s WINDOW 2s CONTINUOUS";
  Sql query = Sql(text).WithAggStrategy("flat").WithSuccessors(
      {net.dht(2)->local_address()});
  query.WithLeasePeriod(kLease);
  auto q = net.client(1)->Query(query);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t qid = q->id();

  for (int i = 0; i < 6; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  net.harness()->FailNode(1);
  for (int i = 0; i < 6; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  ASSERT_EQ(net.qp(2)->stats().adoptions, 1u);

  // Before adoption completes everywhere, some executors may still be
  // walking their failover chain — the adopted proxy swaps the plan anyway.
  auto hier = net.client(2)->Compile(Sql(text).WithAggStrategy("hier"));
  ASSERT_TRUE(hier.ok()) << hier.status().ToString();
  uint32_t hier_gid = hier->graphs[0].id;
  uint32_t hier_op = 0;
  for (const OpSpec& op : hier->graphs[0].ops) {
    if (op.kind == OpKind::kHierAgg) hier_op = op.id;
  }
  ASSERT_NE(hier_op, 0u);
  ASSERT_TRUE(net.qp(2)->SwapQuery(qid, std::move(*hier)).ok())
      << "the ADOPTED proxy owns the swap";
  net.RunFor(2 * kSecond);

  Operator* op = net.qp(4)->executor()->FindOp(qid, hier_gid, hier_op);
  ASSERT_NE(op, nullptr) << "swapped generation reached remote executors";
  EXPECT_EQ(op->spec().kind, OpKind::kHierAgg);

  auto attached = net.client(2)->Attach(qid);
  ASSERT_TRUE(attached.ok());
  size_t answers = 0;
  attached->OnTuple([&](const Tuple&) { answers++; });
  for (int i = 0; i < 6; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  EXPECT_GT(answers, 0u) << "the swapped plan answers through the new proxy";
}

TEST(Failover, AMissedSwapIsReadFromTheDurableRecord) {
  // An executor that missed a swap broadcast learns of the newer generation
  // from a graphless lease refresh. It reads the query's durable plan record
  // and swaps to the record's broadcast graphs.
  SimPier net(8, PierOptions(241));
  RegisterEv(&net);
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("eq").PartitionBy({"src"})).ok());
  int64_t next_id = 0;
  const char* text =
      "SELECT src, count(*) AS cnt FROM ev GROUP BY src "
      "TIMEOUT 60s WINDOW 2s CONTINUOUS";
  auto q = net.client(1)->Query(
      Sql(text).WithAggStrategy("flat").WithLeasePeriod(kLease));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t qid = q->id();
  size_t answers = 0;
  q->OnTuple([&](const Tuple&) { answers++; });
  for (int i = 0; i < 4; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }

  // Node kMissed drops every broadcast frame from now on: it misses the swap.
  constexpr uint32_t kMissed = 5;
  net.dht(kMissed)->router()->RegisterDirectType(
      OverlayRouter::kMsgBroadcast,
      [](const NetAddress&, std::string_view) {});
  auto hier = net.client(1)->Compile(Sql(text).WithAggStrategy("hier"));
  ASSERT_TRUE(hier.ok()) << hier.status().ToString();
  uint32_t hier_gid = hier->graphs[0].id;
  uint32_t hier_op = 0;
  for (const OpSpec& op : hier->graphs[0].ops) {
    if (op.kind == OpKind::kHierAgg) hier_op = op.id;
  }
  ASSERT_NE(hier_op, 0u);
  QueryExecutor* missed = net.qp(kMissed)->executor();
  // A refresh that runs ahead of the record, which still holds generation
  // 0, changes nothing: the node must not relabel the old graphs as the
  // new generation, or the real swap below could never repair it.
  auto current = net.qp(1)->ProxyPlan(qid);
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  QueryPlan ahead = *current;
  ahead.graphs.clear();
  ahead.generation++;
  ASSERT_TRUE(missed->StartGraphs(ahead, {}).ok());
  net.RunFor(kSecond);
  ASSERT_TRUE(net.qp(1)->SwapQuery(qid, std::move(*hier)).ok());
  net.RunFor(kSecond);
  ASSERT_TRUE(missed->HasQuery(qid));
  auto runs_hier = [&] {
    Operator* op = missed->FindOp(qid, hier_gid, hier_op);
    return op != nullptr && op->spec().kind == OpKind::kHierAgg;
  };
  ASSERT_FALSE(runs_hier()) << "test premise: the node must miss the swap";

  auto plan = net.qp(1)->ProxyPlan(qid);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  QueryPlan refresh = *plan;
  refresh.graphs.clear();
  ASSERT_TRUE(missed->StartGraphs(refresh, {}).ok());
  net.RunFor(kSecond);
  EXPECT_TRUE(runs_hier()) << "the fetched generation was not swapped in";

  const size_t before = answers;
  for (int i = 0; i < 6; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  EXPECT_GT(answers, before) << "answers stopped after the repair";

  // A record with no broadcast graph gives a node that reads it nothing to
  // run. The proxy swaps an equality-disseminated query to a graph on
  // another partition owner: the node that ran the first generation hears
  // the newer generation's refresh, reads a record that holds only the
  // other owner's graph, and stops the superseded generation, so later
  // refreshes find no query there and read nothing.
  auto eq_sql = [](const std::string& key) {
    return Sql("SELECT * FROM eq WHERE src = '" + key +
               "' TIMEOUT 60s WINDOW 2s CONTINUOUS")
        .WithLeasePeriod(kLease);
  };
  auto eq = net.client(1)->Query(eq_sql("x"));
  ASSERT_TRUE(eq.ok()) << eq.status().ToString();
  net.RunFor(2 * kSecond);
  auto eq_plan = net.qp(1)->ProxyPlan(eq->id());
  ASSERT_TRUE(eq_plan.ok()) << eq_plan.status().ToString();
  ASSERT_EQ(eq_plan->graphs.size(), 1u);
  ASSERT_EQ(eq_plan->graphs[0].dissem, DissemKind::kEquality);
  uint32_t runner = 0;
  while (runner < net.size() &&
         !net.qp(runner)->executor()->HasQuery(eq->id()))
    runner++;
  ASSERT_LT(runner, net.size());
  Result<QueryPlan> elsewhere = Status::NotFound("no key off the runner");
  for (int k = 0; k < 32; ++k) {
    auto plan = net.client(1)->Compile(eq_sql("y" + std::to_string(k)));
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const OpGraph& g = plan->graphs[0];
    Id target = RoutingId(g.dissem_ns, g.dissem_key);
    if (!net.dht(runner)->router()->protocol()->IsOwner(target)) {
      elsewhere = std::move(plan);
      break;
    }
  }
  ASSERT_TRUE(elsewhere.ok()) << elsewhere.status().ToString();
  ASSERT_TRUE(net.qp(1)->SwapQuery(eq->id(), std::move(*elsewhere)).ok());
  net.RunFor(kSecond);
  const uint64_t gets = net.dht(runner)->stats().gets;
  net.RunFor(2 * kLease);  // six refreshes, every lease/3
  EXPECT_LE(net.dht(runner)->stats().gets, gets + 1);
  EXPECT_FALSE(net.qp(runner)->executor()->HasQuery(eq->id()))
      << "the superseded generation kept running";
}

TEST(Failover, AMissedSwapRepairedAfterTheProxyDiedAnswersTheAdopter) {
  // The proxy swaps and dies; node kMissed heard neither the swap nor any
  // later refresh from it. The successor adopts and announces itself, and
  // kMissed repairs the swap from the durable record, which the DEAD proxy
  // wrote. The repair takes its metadata from the adopter's refresh, so
  // kMissed's answers go to the adopter at once, not to the dead proxy.
  SimPier net(8, PierOptions(283));
  ASSERT_TRUE(net.catalog()->Register(TableSpec("loc").LocalOnly()).ok());
  constexpr uint32_t kMissed = 5;
  // Only kMissed holds rows, so every answer the adopter gets is its own.
  int64_t next_v = 0;
  auto publish_at_missed = [&] {
    Tuple t("loc");
    t.Append("v", Value::Int64(next_v++));
    ASSERT_TRUE(net.client(kMissed)->Publish("loc", t).ok());
  };
  auto q = net.client(1)->Query(
      Sql("SELECT * FROM loc TIMEOUT 60s WINDOW 1s CONTINUOUS")
          .WithSuccessors({net.dht(2)->local_address()})
          .WithLeasePeriod(kLease));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const uint64_t qid = q->id();
  size_t answers = 0;
  q->OnTuple([&](const Tuple&) { answers++; });
  for (int i = 0; i < 3; ++i) {
    publish_at_missed();
    net.RunFor(kSecond);
  }
  ASSERT_GT(answers, 0u);

  // From here kMissed drops whatever the original proxy disseminates for a
  // later generation: the swap and every refresh after it.
  const NetAddress first_proxy = net.dht(1)->local_address();
  QueryExecutor* missed = net.qp(kMissed)->executor();
  net.dht(kMissed)->router()->set_broadcast_handler(
      [missed, first_proxy, qid](std::string_view payload) {
        Result<QueryPlan> plan = QueryPlan::Decode(payload);
        if (!plan.ok()) return;
        if (plan->query_id == qid && plan->proxy == first_proxy &&
            plan->generation > 0)
          return;
        QueryPlan meta = *plan;
        meta.graphs.clear();
        (void)missed->StartGraphs(meta, plan->graphs);
      });
  auto filtered = net.client(1)->Compile(
      Sql("SELECT * FROM loc WHERE v >= 0 TIMEOUT 60s WINDOW 1s CONTINUOUS"));
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  ASSERT_EQ(filtered->graphs.size(), 1u);
  const uint32_t gid = filtered->graphs[0].id;
  uint32_t select_op = 0;
  for (const OpSpec& op : filtered->graphs[0].ops) {
    if (op.kind == OpKind::kSelection) select_op = op.id;
  }
  ASSERT_NE(select_op, 0u);
  ASSERT_TRUE(net.qp(1)->SwapQuery(qid, std::move(*filtered)).ok());
  auto runs_swapped = [&] {
    Operator* op = missed->FindOp(qid, gid, select_op);
    return op != nullptr && op->spec().kind == OpKind::kSelection;
  };
  for (int i = 0; i < 2; ++i) {
    publish_at_missed();
    net.RunFor(kSecond);
  }
  ASSERT_FALSE(runs_swapped()) << "test premise: the node must miss the swap";
  ASSERT_TRUE(net.qp(4)->executor()->FindOp(qid, gid, select_op) != nullptr)
      << "test premise: everyone else swapped";

  net.harness()->FailNode(1);
  for (int i = 0; i < 20 && !runs_swapped(); ++i) net.RunFor(kSecond / 2);
  ASSERT_EQ(net.qp(2)->stats().adoptions, 1u) << "successor adopted";
  ASSERT_TRUE(runs_swapped()) << "the record repaired the missed swap";

  // From the repair on, every row kMissed answers reaches the adopter within
  // a second: none is sent to the dead proxy and waits out UdpCC's give-ups.
  const uint64_t failures = missed->stats().forward_failures;
  const uint64_t delivered = net.qp(2)->stats().answers_delivered;
  for (int i = 0; i < 4; ++i) publish_at_missed();
  net.RunFor(kSecond + kSecond / 2);
  EXPECT_EQ(net.qp(2)->stats().answers_delivered, delivered + 4);
  net.RunFor(8 * kSecond);
  EXPECT_EQ(missed->stats().forward_failures, failures);
}

TEST(Failover, ReattachedHandleKeepsCountingAndAttachResumesReplanning) {
  // After the proxy dies and its successor adopts, the ORIGINAL handle is
  // re-bound through the successor's client and keeps its callback and its
  // tally. A second handle attached at the adopter with the query's SQL
  // has an estimate (the adopter read the plan's graphs from the durable
  // record) and resumes auto-replanning there.
  SimPier net(8, PierOptions(293));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("ev").PartitionBy({"src"})).ok());
  auto publish = [&](int i) {
    Tuple e("ev");
    e.Append("src", Value::String("s" + std::to_string(i % 4)));
    uint32_t from = static_cast<uint32_t>(i) % net.size();
    if (from == 1) from = 0;  // node 1 is the proxy, and it dies
    ASSERT_TRUE(net.client(from)->Publish("ev", e).ok());
  };
  Sql sql("SELECT src, count(*) AS cnt FROM ev GROUP BY src "
          "TIMEOUT 90s WINDOW 2s CONTINUOUS");
  sql.WithSuccessors({net.dht(2)->local_address()}).WithLeasePeriod(kLease);
  auto q = net.client(1)->Query(sql);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const uint64_t qid = q->id();
  size_t seen = 0;
  q->OnTuple([&](const Tuple&) { seen++; });
  // A handful of rows: far too few statistics to move the plan off flat.
  for (int i = 0; i < 6; ++i) {
    publish(i);
    net.RunFor(kSecond);
  }
  const uint64_t before_kill = q->stats().tuples;
  ASSERT_GT(before_kill, 0u);
  ASSERT_EQ(seen, before_kill);

  net.harness()->FailNode(1);
  for (int i = 0; i < 8; ++i) {
    publish(i);
    net.RunFor(kSecond);
  }
  ASSERT_EQ(net.qp(2)->stats().adoptions, 1u) << "successor adopted";
  EXPECT_EQ(q->stats().tuples, before_kill) << "nothing reaches a dead proxy";

  net.client(2)->set_replan_period(2 * kSecond);
  net.client(2)->set_replan_cost_ratio(1.05);
  auto attached = net.client(2)->Attach(qid, Sql(sql).WithReplan("auto"));
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  auto explained = net.client(2)->ExplainAnalyze(*attached);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_FALSE(explained->estimate.ops.empty())
      << "the adopter's plan has graphs to estimate";

  // Re-bind the original handle: the same callback fires, and its tally
  // continues from the pre-kill value.
  ASSERT_TRUE(q->Reattach(net.client(2)).ok());
  for (int i = 0; i < 6; ++i) {
    publish(i);
    net.RunFor(kSecond);
  }
  EXPECT_GT(q->stats().tuples, before_kill);
  EXPECT_EQ(seen, q->stats().tuples) << "one callback, one tally";
  EXPECT_EQ(attached->stats().replans, 0u) << "stable stats: no swap";

  // The table grows dense: the replan loop resumed at the adopter swaps the
  // plan to hierarchical aggregation, and the original handle keeps
  // receiving answers from the swapped plan.
  for (int i = 0; i < 300; ++i) {
    publish(i);
    if (i % 25 == 24) net.RunFor(kSecond);
  }
  net.RunFor(10 * kSecond);
  EXPECT_EQ(attached->stats().replans, 1u)
      << "the adopter's replan loop swapped the plan";
  const uint64_t at_swap = q->stats().tuples;
  for (int i = 0; i < 6; ++i) {
    publish(0);
    net.RunFor(kSecond);
  }
  EXPECT_GT(q->stats().tuples, at_swap);
  EXPECT_EQ(seen, q->stats().tuples);
}

TEST(Failover, StaleProbeVerdictClearsTheProbeSoTheNextProxyIsProbed) {
  // An executor's probe of the dead proxy is still out when the refresh
  // announcing the first successor reaches it: the probe's verdict is stale.
  // It must count for nothing AND end the probe — a probe left outstanding
  // blocks every later LeaseTick, so when the second proxy dies too the
  // executor would follow it, never probing, until the deadline.
  SimPier net(10, PierOptions(200));
  RegisterEv(&net);
  int64_t next_id = 0;
  auto q = net.client(1)->Query(CountingQuery(&net, {2, 3}));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t qid = q->id();
  for (int i = 0; i < 6; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  auto plan = net.qp(1)->ProxyPlan(qid);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  net.harness()->FailNode(1);
  // Every lease has run out and every executor's lease/2 probe of node 1 is
  // in flight. Node 5 alone now hears node 2's succession (the metadata
  // refresh the broadcast carries after an adoption).
  net.RunFor(kLease + kLease / 4);
  constexpr uint32_t kLate = 5;
  QueryPlan succession = *plan;
  succession.graphs.clear();
  succession.proxy = net.dht(2)->local_address();
  succession.proxy_epoch = 1;
  ASSERT_TRUE(net.qp(kLate)->executor()->StartGraphs(succession, {}).ok());
  for (int i = 0; i < 6; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  ASSERT_EQ(net.qp(2)->stats().adoptions, 1u);
  EXPECT_EQ(net.qp(kLate)->executor()->stats().probe_verdicts.count("dead"),
            0u)
      << "the stale verdict about node 1 must not count";

  net.harness()->FailNode(2);
  for (int i = 0; i < 12; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  EXPECT_EQ(net.qp(3)->stats().adoptions, 1u);
  const QueryExecutor::Stats& st = net.qp(kLate)->executor()->stats();
  EXPECT_EQ(st.probe_verdicts.count("dead") ? st.probe_verdicts.at("dead") : 0,
            1u)
      << "node " << kLate << " never probed the second proxy";
  EXPECT_TRUE(net.qp(kLate)->executor()->HasQuery(qid));
}

TEST(Failover, SuccessorThatDoesNotRunTheQueryIsWalkedPastAndReaped) {
  // An equality-disseminated continuous query runs on ONE partition owner.
  // If its configured successor is some other node, that node can never
  // adopt (it has no RunningQuery, so stray answers are no-ops) — the probe
  // must report "alive but not proxying" so the walk moves past it to a
  // reap, instead of leasing the silent successor until the deadline.
  SimPier net(10, PierOptions(251));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("ev").PartitionBy({"src"})).ok());
  const char* text =
      "SELECT * FROM ev WHERE src = 'x' TIMEOUT 60s WINDOW 2s CONTINUOUS";

  // Find the partition owner this query's opgraph will land on.
  auto compiled = net.client(1)->Compile(Sql(text));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_EQ(compiled->graphs[0].dissem, DissemKind::kEquality);
  Id target = RoutingId(compiled->graphs[0].dissem_ns,
                        compiled->graphs[0].dissem_key);
  uint32_t owner = 0;
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (net.dht(i)->router()->protocol()->IsOwner(target)) owner = i;
  }
  uint32_t successor = 2;
  while (successor == owner || successor == 1) successor++;

  Sql query = Sql(text).WithSuccessors({net.dht(successor)->local_address()});
  query.WithLeasePeriod(kLease);
  auto q = net.client(1)->Query(query);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t qid = q->id();
  net.RunFor(4 * kSecond);
  ASSERT_TRUE(net.qp(owner)->executor()->HasQuery(qid));
  ASSERT_FALSE(net.qp(successor)->executor()->HasQuery(qid))
      << "test premise: the successor must not run the query";

  net.harness()->FailNode(1);
  // Walk: dead-proxy probe fails -> successor leased -> two consecutive
  // alive-but-not-proxying verdicts -> chain exhausted -> reap.
  net.RunFor(8 * kLease);
  EXPECT_FALSE(net.qp(owner)->executor()->HasQuery(qid))
      << "the owner kept executing for a successor that can never adopt";
  EXPECT_EQ(net.qp(successor)->stats().adoptions, 0u);
  EXPECT_GT(net.qp(owner)->executor()->stats().orphan_reaps, 0u);
  // The owner's walk, verdict by verdict: the dead proxy, then two
  // alive-but-not-proxying strikes against the successor, then the reap.
  const QueryExecutor::Stats& st = net.qp(owner)->executor()->stats();
  EXPECT_EQ(st.probe_verdicts, (Tally{{"dead", 1}, {"not_proxying", 2}}));
  EXPECT_EQ(st.orphan_reaps_by_reason, (Tally{{"not_proxying", 1}}));
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (i == owner) continue;
    EXPECT_TRUE(net.qp(i)->executor()->stats().probe_verdicts.empty())
        << "node " << i << " runs nothing, so it probes nothing";
  }
}

TEST(Failover, CancelOnAnOrphanedHandleTearsDownLocallyAndSaysUnavailable) {
  SimPier net(6, PierOptions(233));
  RegisterEv(&net);

  auto q = net.client(0)->Query(CountingQuery(&net, {}));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t qid = q->id();
  net.RunFor(2 * kSecond);

  // Orphan the handle: the proxy-side record disappears underneath it (the
  // executor-driven reap path does exactly this when the chain is dead).
  net.qp(0)->CancelQuery(qid);

  bool done_fired = false;
  q->OnDone([&] { done_fired = true; });
  Status s = q->Cancel();
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
  EXPECT_TRUE(q->done()) << "the handle completes instead of hanging";
  EXPECT_TRUE(done_fired);
  EXPECT_TRUE(q->Cancel().ok()) << "second cancel is an idempotent no-op";
}

TEST(Failover, CancelTombstoneStopsExecutorsAndPreventsAdoption) {
  SimPier net(8, PierOptions(239));
  RegisterEv(&net);
  int64_t next_id = 0;

  auto q = net.client(1)->Query(CountingQuery(&net, {2}));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t qid = q->id();
  for (int i = 0; i < 5; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  ASSERT_GT(LiveExecutorsRunning(&net, qid), 1u);

  EXPECT_TRUE(q->Cancel().ok());
  net.RunFor(2 * kSecond);  // tombstone broadcast fan-out
  EXPECT_EQ(LiveExecutorsRunning(&net, qid), 0u)
      << "cancel reaches executors without waiting out the lease";
  net.RunFor(2 * kLease);
  EXPECT_EQ(net.qp(2)->stats().adoptions, 0u)
      << "a cancelled query must not be adopted by its successor";
}

TEST(Failover, DurableTombstoneUnadoptsASuccessorThatMissedTheBroadcast) {
  SimPier net(8, PierOptions(257));
  RegisterEv(&net);
  auto q = net.client(1)->Query(CountingQuery(&net, {2}));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t qid = q->id();
  net.RunFor(4 * kSecond);
  ASSERT_TRUE(q->Cancel().ok());
  net.RunFor(2 * kSecond);  // broadcast tombstone + durable DHT put settle

  // Simulate a successor that MISSED the tombstone broadcast and adopted
  // through lease starvation: force the adoption directly with the stale
  // metadata such an executor would hold.
  QueryPlan meta;
  meta.query_id = qid;
  meta.continuous = true;
  meta.timeout = 60 * kSecond;
  meta.deadline_us = net.loop()->now() + 50 * kSecond;
  meta.proxy = net.dht(2)->local_address();
  meta.proxy_epoch = 1;
  meta.successors = {net.dht(2)->local_address()};
  meta.lease_period_us = kLease;
  meta.window = 2 * kSecond;
  net.qp(2)->AdoptQuery(meta);
  EXPECT_TRUE(net.qp(2)->HasClientQuery(qid)) << "adoption is optimistic";

  net.RunFor(3 * kSecond);  // the tombstone Get round-trip corrects it
  EXPECT_FALSE(net.qp(2)->HasClientQuery(qid))
      << "the durable tombstone must un-adopt a cancelled query";
}

/// The node currently owning RoutingId(ns, key), or -1 if none is alive.
int OwnerOf(SimPier* net, const std::string& ns, const std::string& key) {
  Id target = RoutingId(ns, key);
  for (uint32_t i = 0; i < net->size(); ++i) {
    if (!net->harness()->IsAlive(i)) continue;
    if (net->dht(i)->router()->protocol()->IsOwner(target))
      return static_cast<int>(i);
  }
  return -1;
}

TEST(Failover, TombstoneSurvivesItsOwnersDeathThroughReplicas) {
  auto opts = PierOptions(263);
  opts.dht.replication_factor = 3;
  SimPier net(10, opts);
  RegisterEv(&net);
  auto q = net.client(1)->Query(CountingQuery(&net, {2}));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t qid = q->id();
  net.RunFor(4 * kSecond);
  ASSERT_TRUE(q->Cancel().ok());
  net.RunFor(2 * kSecond);  // durable tombstone put + replica frames settle

  // Kill the very node that owns the durable record, which now holds the
  // tombstone. With k = 1 the un-adopt read would find nothing.
  int owner = OwnerOf(&net, "!qplan", std::to_string(qid));
  ASSERT_GE(owner, 0);
  uint32_t adopter = owner == 2 ? 3 : 2;
  net.harness()->FailNode(static_cast<uint32_t>(owner));
  net.RunFor(8 * kSecond);  // stabilize: a tombstone replica's holder owns it

  // A successor that missed the cancel broadcast force-adopts with the
  // stale metadata it would still hold.
  QueryPlan meta;
  meta.query_id = qid;
  meta.continuous = true;
  meta.timeout = 60 * kSecond;
  meta.deadline_us = net.loop()->now() + 50 * kSecond;
  meta.proxy = net.dht(adopter)->local_address();
  meta.proxy_epoch = 1;
  meta.successors = {net.dht(adopter)->local_address()};
  meta.lease_period_us = kLease;
  meta.window = 2 * kSecond;
  net.qp(adopter)->AdoptQuery(meta);
  EXPECT_TRUE(net.qp(adopter)->HasClientQuery(qid));

  net.RunFor(4 * kSecond);
  EXPECT_FALSE(net.qp(adopter)->HasClientQuery(qid))
      << "the tombstone's replicas must un-adopt even with its owner dead";
}

TEST(Failover, AdoptionRecoversTheFullPlanThroughReplicasOfADeadOwner) {
  auto opts = PierOptions(271);
  opts.dht.replication_factor = 3;
  SimPier net(10, opts);
  RegisterEv(&net);
  int64_t next_id = 0;

  // Two graphs of different dissemination classes: the adopter's executor
  // can rebuild only the broadcast one, so a full ProxyPlan after adoption
  // proves the "!qplan" read-through worked.
  const char* kText = R"(
    query { timeout = 60s; window = 2s; continuous; }
    graph g1 broadcast { s: scan [ns=ev, watch=1]; o: result; s -> o; }
    graph g2 local { s: scan [ns=ev]; o: result; s -> o; }
  )";

  // The durable plan's owner must be a third node — if the id lands on the
  // proxy or its successor, resubmit: the fresh query id moves it.
  uint64_t qid = 0;
  int owner = -1;
  for (int attempt = 0; attempt < 8 && owner < 0; ++attempt) {
    auto plan = ParseUfl(kText);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_EQ(plan->graphs.size(), 2u);
    plan->successors = {net.dht(2)->local_address()};
    plan->lease_period_us = kLease;
    auto submitted = net.qp(1)->SubmitQuery(*plan, nullptr);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    net.RunFor(3 * kSecond);  // dissemination + durable plan replication
    int at = OwnerOf(&net, "!qplan", std::to_string(*submitted));
    ASSERT_GE(at, 0);
    if (at != 1 && at != 2) {
      qid = *submitted;
      owner = at;
      break;
    }
    net.qp(1)->CancelQuery(*submitted);
    net.RunFor(kSecond);
  }
  ASSERT_GE(owner, 0) << "no query id placed its plan off the proxy chain";

  // First the plan's primary owner dies, then the proxy. The adopter must
  // recover the non-broadcast graph from a surviving plan replica.
  net.harness()->FailNode(static_cast<uint32_t>(owner));
  net.RunFor(8 * kSecond);  // let routing heal before the adopter's plan Get
  net.harness()->FailNode(1);
  for (int i = 0; i < 12; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  ASSERT_EQ(net.qp(2)->stats().adoptions, 1u) << "successor adopted";

  auto adopted = net.qp(2)->ProxyPlan(qid);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  EXPECT_EQ(adopted->graphs.size(), 2u)
      << "the local graph was only recoverable from the plan's replicas";
}

// ---------------------------------------------------------------------------
// Swap-time catch-up suppression
// ---------------------------------------------------------------------------

TEST(Failover, SwapDoesNotDoubleCountHistoryInTheFirstWindow) {
  SimPier net(8, PierOptions(241));
  RegisterEv(&net);
  int64_t next_id = 0;

  const char* text =
      "SELECT src, count(*) AS cnt FROM ev GROUP BY src "
      "TIMEOUT 120s WINDOW 2s CONTINUOUS";
  auto q = net.client(0)->Query(Sql(text).WithAggStrategy("flat"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t qid = q->id();

  int64_t total = 0;
  q->OnTuple([&](const Tuple& t) {
    total += t.Get("cnt")->int64_unchecked();
  });

  // 40 rows of history, fully counted across the pre-swap windows.
  for (int i = 0; i < 40; ++i) PublishEv(&net, &next_id);
  net.RunFor(8 * kSecond);
  EXPECT_EQ(total, 40) << "every historical row counted exactly once";

  // Swap the physical plan. The swapped-in Scans re-read live soft state —
  // all 40 rows are still there — but the swap-time high-water mark makes
  // them skip history the previous generation already answered.
  auto hier = net.client(0)->Compile(Sql(text).WithAggStrategy("hier"));
  ASSERT_TRUE(hier.ok()) << hier.status().ToString();
  ASSERT_TRUE(net.qp(0)->SwapQuery(qid, std::move(*hier)).ok());
  int64_t at_swap = total;
  net.RunFor(8 * kSecond);
  EXPECT_LE(total - at_swap, 2)
      << "the first post-swap window re-counted history";

  // New arrivals after the swap still count normally. (The hier root's
  // monotone refinement may re-emit a refined total for the same window, so
  // the bound allows a small overshoot — the failure mode under test is the
  // ~40-row history re-count, not off-by-a-refinement.)
  for (int i = 0; i < 5; ++i) PublishEv(&net, &next_id);
  net.RunFor(6 * kSecond);
  EXPECT_GE(total - at_swap, 5) << "post-swap arrivals still flow";
  EXPECT_LE(total - at_swap, 12) << "post-swap total stays history-free";
}

}  // namespace
}  // namespace pier
