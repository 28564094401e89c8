// Churn-hardened continuous-query lifecycle: the ring owner of a dead
// proxy's id adopts the query (at its clock tick, or through an answer
// forward that gave up), an adopted query no client attaches to is
// cancelled after the grace, deadline preservation across failover, cancel
// semantics on orphaned handles, the cancel tombstone, swap-time catch-up
// suppression, and the missed-swap repair from the query's durable plan
// record.

#include <gtest/gtest.h>

#include <algorithm>
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

/// How long after a proxy's death its id's new owner has adopted a query
/// that owner runs: Chord's detection bound (about 4.25 s,
/// src/overlay/README.md), the owner's next clock tick (one 2 s window),
/// and slack for the notify that hands the range on.
constexpr TimeUs kAdoptWithin = 8 * kSecond;

/// The continuous counting query used throughout: GROUP BY over a
/// non-partition column, so every data-holding node participates.
Sql CountingQuery(const std::string& timeout = "60s") {
  return Sql("SELECT src, count(*) AS cnt FROM ev GROUP BY src TIMEOUT " +
             timeout + " WINDOW 2s CONTINUOUS");
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

size_t LiveExecutorsRunning(SimPier* net, uint64_t qid) {
  size_t running = 0;
  for (uint32_t i = 0; i < net->size(); ++i) {
    if (!net->harness()->IsAlive(i)) continue;
    if (net->qp(i)->executor()->HasQuery(qid)) running++;
  }
  return running;
}

/// The live nodes that proxy `qid`.
std::vector<uint32_t> Proxies(SimPier* net, uint64_t qid) {
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < net->size(); ++i) {
    if (net->harness()->IsAlive(i) && net->qp(i)->HasClientQuery(qid))
      out.push_back(i);
  }
  return out;
}

/// The live node whose ring id follows `node`'s clockwise: the one that
/// owns `node`'s id once `node` leaves.
uint32_t RingSuccessor(SimPier* net, uint32_t node) {
  const Id from = net->dht(node)->local_id();
  uint32_t best = node;
  for (uint32_t i = 0; i < net->size(); ++i) {
    if (i == node || !net->harness()->IsAlive(i)) continue;
    if (best == node || RingDistance(from, net->dht(i)->local_id()) <
                            RingDistance(from, net->dht(best)->local_id()))
      best = i;
  }
  return best;
}

/// The live node whose ring id precedes `node`'s: the one whose successor
/// list names `node` first.
uint32_t RingPredecessor(SimPier* net, uint32_t node) {
  const Id to = net->dht(node)->local_id();
  uint32_t best = node;
  for (uint32_t i = 0; i < net->size(); ++i) {
    if (i == node || !net->harness()->IsAlive(i)) continue;
    if (best == node || RingDistance(net->dht(i)->local_id(), to) <
                            RingDistance(net->dht(best)->local_id(), to))
      best = i;
  }
  return best;
}

/// Does live node `i` own `dead`'s ring id now?
bool OwnsIdOf(SimPier* net, uint32_t i, uint32_t dead) {
  return net->dht(i)->router()->protocol()->IsOwner(
      net->dht(dead)->local_id());
}

/// The query's durable record, as live node `from` reads it within a
/// second of the sim.
Result<QueryPlan> ReadRecord(SimPier* net, uint32_t from, uint64_t qid) {
  Result<QueryPlan> out = Status::NotFound("no record read");
  net->dht(from)->Get("!qplan", std::to_string(qid),
                      [&out](const Status& s, std::vector<DhtItem> items) {
                        if (s.ok() && !items.empty())
                          out = QueryPlan::Decode(items[0].value);
                      });
  net->RunFor(kSecond);
  return out;
}

/// Run the sim in 250 ms steps, publishing one ev row a second when
/// `next_id` is given, until some live node proxies `qid` other than
/// `old_proxy`, for at most `limit`. Returns that node, or -1.
int RunUntilAdopted(SimPier* net, uint64_t qid, uint32_t old_proxy,
                    TimeUs limit, int64_t* next_id = nullptr) {
  for (TimeUs t = 0; t < limit; t += 250 * kMillisecond) {
    if (next_id != nullptr && t % kSecond == 0) PublishEv(net, next_id);
    net->RunFor(250 * kMillisecond);
    for (uint32_t p : Proxies(net, qid)) {
      if (p != old_proxy) return static_cast<int>(p);
    }
  }
  return -1;
}

TEST(Failover, ProxyKillHandsTheQueryToTheOwnerOfItsId) {
  SimPier net(10, PierOptions(211));
  RegisterEv(&net);
  int64_t next_id = 0;

  auto q = net.client(1)->Query(CountingQuery());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t qid = q->id();
  size_t before_kill = 0;
  q->OnTuple([&](const Tuple&) { before_kill++; });

  for (int i = 0; i < 10; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  EXPECT_GT(before_kill, 0u) << "steady answers before the kill";
  const uint32_t successor = RingSuccessor(&net, 1);

  net.harness()->FailNode(1);
  const int adopter = RunUntilAdopted(&net, qid, 1, kAdoptWithin, &next_id);
  ASSERT_EQ(adopter, static_cast<int>(successor))
      << "the ring successor of the dead proxy adopts";
  for (int i = 0; i < 4; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  // Exactly one live node proxies the query, and it owns the dead proxy's
  // id; no other node adopted it, even for a moment.
  EXPECT_EQ(Proxies(&net, qid), std::vector<uint32_t>{successor});
  EXPECT_TRUE(OwnsIdOf(&net, successor, 1));
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (i == 1) continue;
    EXPECT_EQ(net.qp(i)->stats().adoptions, i == successor ? 1u : 0u)
        << "node " << i;
  }
  EXPECT_EQ(LiveExecutorsRunning(&net, qid), net.size() - 1)
      << "no executor tore the query down";

  // Re-attach through the adopting node: the backlog it buffered while the
  // query had no client replays, and the stream continues.
  auto attached = net.client(successor)->Attach(qid);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  size_t after_attach = 0;
  attached->OnTuple([&](const Tuple&) { after_attach++; });
  size_t replayed = after_attach;
  EXPECT_GT(net.qp(successor)->stats().answers_buffered, 0u)
      << "the adopted proxy held answers for the missing client";
  EXPECT_GT(replayed, 0u) << "buffered answers replay on attach";

  // Past the attach grace: an attached query keeps running.
  for (int i = 0; i < 12; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  EXPECT_GT(after_attach, replayed) << "live answers resume after re-attach";
  EXPECT_FALSE(attached->done());
  EXPECT_TRUE(net.qp(successor)->HasClientQuery(qid));

  // Attaching a query this node does NOT proxy stays an error.
  const uint32_t other = successor == 3 ? 4 : 3;
  EXPECT_EQ(net.client(other)->Attach(qid).status().code(),
            StatusCode::kNotFound);
}

TEST(Failover, AnAdoptionOfALiveProxyIsHandedBackOnceTheRingHeals) {
  // A brief fault can hand a LIVE proxy's id to its ring successor: one
  // UdpCC give-up makes the router's re-cover drop the proxy at the nodes
  // it passes, the successor's predecessor is cleared, and the proxy's
  // predecessor notifies the successor first. The successor adopts at its
  // next tick. Once the proxy's own stabilization restores it as the
  // successor's predecessor, the adopter finds the proxy owning its id
  // again and hands the query back: the submitting client keeps receiving
  // answers, and the query is never cancelled.
  SimPier net(10, PierOptions(211));
  RegisterEv(&net);
  int64_t next_id = 0;
  auto q = net.client(1)->Query(CountingQuery());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const uint64_t qid = q->id();
  size_t answers = 0;
  q->OnTuple([&](const Tuple&) { answers++; });
  for (int i = 0; i < 4; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  ASSERT_GT(answers, 0u);

  const uint32_t succ = RingSuccessor(&net, 1);
  const uint32_t pred = RingPredecessor(&net, 1);
  const NetAddress proxy = net.dht(1)->local_address();
  bool adopted = false;
  for (int i = 0; i < 200 && !adopted; ++i) {
    for (uint32_t n : {succ, pred})
      net.dht(n)->router()->protocol()->OnPeerUnreachable(proxy);
    if (i % 10 == 0) PublishEv(&net, &next_id);
    net.RunFor(100 * kMillisecond);
    adopted = net.qp(succ)->stats().adoptions > 0;
  }
  ASSERT_TRUE(adopted) << "test premise: the successor adopts for a moment";

  // Past the attach grace, with the ring left to heal.
  for (int i = 0; i < 8; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  EXPECT_EQ(net.qp(succ)->stats().handbacks, 1u);
  EXPECT_EQ(Proxies(&net, qid), std::vector<uint32_t>{1});
  auto plan = net.qp(1)->ProxyPlan(qid);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->proxy_epoch, 2u) << "the hand-back's epoch reached it";
  auto record = ReadRecord(&net, 0, qid);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record->proxy, proxy);
  EXPECT_EQ(record->proxy_epoch, 2u);
  EXPECT_FALSE(record->graphs.empty());

  const size_t before = answers;
  for (int i = 0; i < 8; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  EXPECT_GT(answers, before) << "the submitting client lost its answers";
  EXPECT_FALSE(q->done());
  EXPECT_EQ(LiveExecutorsRunning(&net, qid), net.size())
      << "the query was cancelled";
  EXPECT_EQ(net.qp(succ)->stats().adoptions, 1u);
}

TEST(Failover, AnAdopterKillHandsTheQueryOnToTheOwnerOfItsId) {
  // The proxy dies, its ring successor adopts, then the adopter dies too:
  // the owner of the ADOPTER's id takes the query over with the next epoch.
  SimPier net(10, PierOptions(200));
  RegisterEv(&net);
  int64_t next_id = 0;
  auto q = net.client(1)->Query(CountingQuery());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t qid = q->id();
  for (int i = 0; i < 6; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }

  net.harness()->FailNode(1);
  const int first = RunUntilAdopted(&net, qid, 1, kAdoptWithin, &next_id);
  ASSERT_GE(first, 0);
  auto attached = net.client(first)->Attach(qid);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  net.RunFor(2 * kSecond);
  auto plan = net.qp(first)->ProxyPlan(qid);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->proxy_epoch, 1u);
  // The adopter stored the record again naming itself.
  auto record = ReadRecord(&net, 0, qid);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record->proxy, net.dht(first)->local_address());
  EXPECT_EQ(record->proxy_epoch, 1u);
  EXPECT_EQ(record->graphs.size(), plan->graphs.size());

  const uint32_t next = RingSuccessor(&net, first);
  net.harness()->FailNode(first);
  const int second =
      RunUntilAdopted(&net, qid, first, kAdoptWithin, &next_id);
  ASSERT_EQ(second, static_cast<int>(next));
  EXPECT_EQ(Proxies(&net, qid), std::vector<uint32_t>{next});
  EXPECT_TRUE(OwnsIdOf(&net, next, first));
  plan = net.qp(next)->ProxyPlan(qid);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->proxy_epoch, 2u);
  EXPECT_EQ(LiveExecutorsRunning(&net, qid), net.size() - 2);
}

TEST(Failover, AnAdoptedQueryNoClientAttachesToIsCancelledAfterTheGrace) {
  SimPier net(8, PierOptions(223));
  RegisterEv(&net);
  int64_t next_id = 0;

  auto q = net.client(1)->Query(CountingQuery());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t qid = q->id();
  for (int i = 0; i < 5; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  ASSERT_GT(LiveExecutorsRunning(&net, qid), 1u)
      << "the query must be running remotely before the kill";

  net.harness()->FailNode(1);
  const int adopter = RunUntilAdopted(&net, qid, 1, kAdoptWithin);
  ASSERT_GE(adopter, 0);
  // Just short of the grace, the adopted query still runs everywhere.
  net.RunFor(QueryProcessor::kAttachGrace - kSecond);
  EXPECT_TRUE(net.qp(adopter)->HasClientQuery(qid));
  EXPECT_EQ(LiveExecutorsRunning(&net, qid), net.size() - 1);
  // The grace runs out with no client: the adopter cancels, and the
  // tombstone broadcast stops every executor.
  net.RunFor(2 * kSecond);
  EXPECT_TRUE(Proxies(&net, qid).empty());
  EXPECT_EQ(LiveExecutorsRunning(&net, qid), 0u)
      << "orphaned opgraphs must not outlive the grace";
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (i == 1) continue;
    EXPECT_EQ(net.qp(i)->stats().adoptions,
              i == static_cast<uint32_t>(adopter) ? 1u : 0u)
        << "node " << i << ": the tombstone must not be adopted";
  }
}

TEST(Failover, AnEqualityQueryFailsOverThroughTheForwardGiveUp) {
  // An equality-disseminated continuous query runs on ONE partition owner.
  // The dead proxy's ring successor runs no graph of it, so it never ticks
  // and never adopts on its own: the owner's answer forward to the dead
  // proxy gives up, the owner looks up who owns the proxy's id, and the
  // answers it sends there make that node read the record and adopt.
  SimPier net(10, PierOptions(251));
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("ev").PartitionBy({"src"})).ok());
  const char* text =
      "SELECT * FROM ev WHERE src = 'x' TIMEOUT 120s WINDOW 2s CONTINUOUS";
  auto compiled = net.client(0)->Compile(Sql(text));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_EQ(compiled->graphs.size(), 1u);
  ASSERT_EQ(compiled->graphs[0].dissem, DissemKind::kEquality);
  Id target = RoutingId(compiled->graphs[0].dissem_ns,
                        compiled->graphs[0].dissem_key);
  uint32_t owner = 0;
  while (!net.dht(owner)->router()->protocol()->IsOwner(target)) owner++;
  // A proxy that is not the owner, and whose ring successor is not either.
  uint32_t proxy = 0;
  while (proxy == owner || RingSuccessor(&net, proxy) == owner) proxy++;
  const uint32_t successor = RingSuccessor(&net, proxy);

  auto q = net.client(proxy)->Query(Sql(text));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const uint64_t qid = q->id();
  auto publish = [&] {
    Tuple e("ev");
    e.Append("src", Value::String("x"));
    ASSERT_TRUE(net.client(owner)->Publish("ev", e).ok());
  };
  size_t before_kill = 0;
  q->OnTuple([&](const Tuple&) { before_kill++; });
  for (int i = 0; i < 4; ++i) {
    publish();
    net.RunFor(kSecond);
  }
  ASSERT_GT(before_kill, 0u);
  ASSERT_TRUE(net.qp(owner)->executor()->HasQuery(qid));
  ASSERT_FALSE(net.qp(successor)->executor()->HasQuery(qid))
      << "test premise: the successor must not run the query";

  net.harness()->FailNode(proxy);
  QueryHandle attached;
  for (int i = 0; i < 60 && !attached.valid(); ++i) {
    publish();
    net.RunFor(kSecond);
    if (net.qp(successor)->HasClientQuery(qid)) {
      auto a = net.client(successor)->Attach(qid);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      attached = *a;
    }
  }
  ASSERT_TRUE(attached.valid()) << "the successor never adopted";
  const QueryExecutor::Stats& st = net.qp(owner)->executor()->stats();
  EXPECT_GE(st.forward_failures, 1u);
  EXPECT_EQ(st.proxy_failovers, 1u) << "one give-up re-targeted the answers";
  EXPECT_EQ(Proxies(&net, qid), std::vector<uint32_t>{successor});
  EXPECT_TRUE(OwnsIdOf(&net, successor, proxy));

  size_t after = 0;
  attached.OnTuple([&](const Tuple&) { after++; });
  const size_t replayed = after;
  for (int i = 0; i < 6; ++i) {
    publish();
    net.RunFor(kSecond);
  }
  EXPECT_GE(after, replayed + 5) << "answers flow to the adopter";
  EXPECT_TRUE(net.qp(owner)->executor()->HasQuery(qid));
}

TEST(Failover, DeadlineIsHonoredAcrossFailover) {
  SimPier net(8, PierOptions(227));
  RegisterEv(&net);
  int64_t next_id = 0;

  auto q = net.client(1)->Query(CountingQuery("20s"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t qid = q->id();
  for (int i = 0; i < 4; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }

  net.harness()->FailNode(1);
  const int adopter = RunUntilAdopted(&net, qid, 1, kAdoptWithin, &next_id);
  ASSERT_GE(adopter, 0);

  auto attached = net.client(adopter)->Attach(qid);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  // The adopted query ends at the ORIGINAL absolute deadline (20s from
  // submission), not a fresh timeout from adoption: the remaining lifetime
  // the attached handle reports must be well under the original.
  EXPECT_LT(attached->timeout(), 13 * kSecond);
  bool done_fired = false;
  attached->OnDone([&] { done_fired = true; });

  net.RunFor(attached->timeout() + 2 * kSecond);  // past deadline + slack
  EXPECT_TRUE(done_fired) << "done fires at the original deadline";
  EXPECT_TRUE(attached->done());
  EXPECT_EQ(LiveExecutorsRunning(&net, qid), 0u)
      << "executors close at the absolute deadline, failover or not";
}

TEST(Failover, EveryRecordDrainsAfterAProxyKillAndAnAdoption) {
  SimPier net(8, PierOptions(281));
  RegisterEv(&net);
  int64_t next_id = 0;

  auto q = net.client(1)->Query(CountingQuery("14s"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t qid = q->id();
  for (int i = 0; i < 4; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  net.harness()->FailNode(1);
  const int adopter = RunUntilAdopted(&net, qid, 1, kAdoptWithin, &next_id);
  ASSERT_GE(adopter, 0);
  auto attached = net.client(adopter)->Attach(qid);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  auto plan = net.qp(adopter)->ProxyPlan(qid);
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
  auto q = net.client(1)->Query(Sql(text).WithAggStrategy("flat"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t qid = q->id();

  for (int i = 0; i < 6; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  net.harness()->FailNode(1);
  const int found = RunUntilAdopted(&net, qid, 1, kAdoptWithin, &next_id);
  ASSERT_GE(found, 0);
  const uint32_t adopter = static_cast<uint32_t>(found);

  // Some executors may not have heard the adoption yet: the adopted proxy
  // swaps the plan anyway.
  auto hier = net.client(adopter)->Compile(Sql(text).WithAggStrategy("hier"));
  ASSERT_TRUE(hier.ok()) << hier.status().ToString();
  uint32_t hier_gid = hier->graphs[0].id;
  uint32_t hier_op = 0;
  for (const OpSpec& op : hier->graphs[0].ops) {
    if (op.kind == OpKind::kHierAgg) hier_op = op.id;
  }
  ASSERT_NE(hier_op, 0u);
  ASSERT_TRUE(net.qp(adopter)->SwapQuery(qid, std::move(*hier)).ok())
      << "the ADOPTED proxy owns the swap";
  net.RunFor(2 * kSecond);

  const uint32_t remote = adopter == 4 ? 5 : 4;
  Operator* op = net.qp(remote)->executor()->FindOp(qid, hier_gid, hier_op);
  ASSERT_NE(op, nullptr) << "swapped generation reached remote executors";
  EXPECT_EQ(op->spec().kind, OpKind::kHierAgg);

  auto attached = net.client(adopter)->Attach(qid);
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
  // from a later graphless metadata broadcast. It reads the query's durable
  // plan record and swaps to the record's broadcast graphs.
  SimPier net(8, PierOptions(241));
  RegisterEv(&net);
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("eq").PartitionBy({"src"})).ok());
  int64_t next_id = 0;
  const char* text =
      "SELECT src, count(*) AS cnt FROM ev GROUP BY src "
      "TIMEOUT 60s WINDOW 2s CONTINUOUS";
  auto q = net.client(1)->Query(Sql(text).WithAggStrategy("flat"));
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
  // A broadcast that runs ahead of the record, which still holds generation
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
  QueryPlan later = *plan;
  later.graphs.clear();
  ASSERT_TRUE(missed->StartGraphs(later, {}).ok());
  net.RunFor(kSecond);
  EXPECT_TRUE(runs_hier()) << "the fetched generation was not swapped in";

  const size_t before = answers;
  for (int i = 0; i < 6; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  EXPECT_GT(answers, before) << "answers stopped after the repair";

  // A swap with no broadcast graph reaches only its own nodes, so the proxy
  // announces it graphless. The proxy swaps an equality-disseminated query
  // to a graph on another partition owner: the node that ran the first
  // generation hears the announcement, reads a record that holds only the
  // other owner's graph, and stops the superseded generation with one read.
  auto eq_sql = [](const std::string& key) {
    return Sql("SELECT * FROM eq WHERE src = '" + key +
               "' TIMEOUT 60s WINDOW 2s CONTINUOUS");
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
  ASSERT_NE(runner, kMissed) << "test premise: the runner hears broadcasts";
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
  const uint64_t gets = net.dht(runner)->stats().gets;
  ASSERT_TRUE(net.qp(1)->SwapQuery(eq->id(), std::move(*elsewhere)).ok());
  net.RunFor(4 * kSecond);
  EXPECT_LE(net.dht(runner)->stats().gets, gets + 1);
  EXPECT_FALSE(net.qp(runner)->executor()->HasQuery(eq->id()))
      << "the superseded generation kept running";
}

TEST(Failover, AMissedSwapRepairedAfterTheProxyDiedAnswersTheAdopter) {
  // The proxy swaps and dies; node `missed_node` heard neither the swap nor
  // anything later from it. The owner of the dead proxy's id adopts and
  // announces itself, and `missed_node` repairs the swap from the durable
  // record, which the DEAD proxy wrote. The repair takes its metadata from
  // the adopter's announcement, so the node's answers go to the adopter at
  // once, not to the dead proxy.
  SimPier net(8, PierOptions(283));
  ASSERT_TRUE(net.catalog()->Register(TableSpec("loc").LocalOnly()).ok());
  const uint32_t adopter = RingSuccessor(&net, 1);
  const uint32_t missed_node = adopter == 5 ? 6 : 5;
  // Only missed_node holds rows, so every answer the adopter gets is its
  // own.
  int64_t next_v = 0;
  auto publish_at_missed = [&] {
    Tuple t("loc");
    t.Append("v", Value::Int64(next_v++));
    ASSERT_TRUE(net.client(missed_node)->Publish("loc", t).ok());
  };
  auto q = net.client(1)->Query(
      Sql("SELECT * FROM loc TIMEOUT 60s WINDOW 1s CONTINUOUS"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const uint64_t qid = q->id();
  size_t answers = 0;
  q->OnTuple([&](const Tuple&) { answers++; });
  for (int i = 0; i < 3; ++i) {
    publish_at_missed();
    net.RunFor(kSecond);
  }
  ASSERT_GT(answers, 0u);

  // From here missed_node drops whatever the original proxy disseminates
  // for a later generation: the swap and every broadcast after it.
  const NetAddress first_proxy = net.dht(1)->local_address();
  QueryExecutor* missed = net.qp(missed_node)->executor();
  net.dht(missed_node)
      ->router()
      ->set_broadcast_handler(
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
  ASSERT_TRUE(net.qp(adopter)->executor()->FindOp(qid, gid, select_op) !=
              nullptr)
      << "test premise: everyone else swapped";

  net.harness()->FailNode(1);
  ASSERT_EQ(RunUntilAdopted(&net, qid, 1, kAdoptWithin),
            static_cast<int>(adopter));
  auto attached = net.client(adopter)->Attach(qid);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  for (int i = 0; i < 8 && !runs_swapped(); ++i) net.RunFor(kSecond / 4);
  ASSERT_TRUE(runs_swapped()) << "the record repaired the missed swap";

  // From the repair on, every row missed_node answers reaches the adopter
  // within a second: none is sent to the dead proxy and waits out UdpCC's
  // give-ups.
  const uint64_t failures = missed->stats().forward_failures;
  const uint64_t delivered = net.qp(adopter)->stats().answers_delivered;
  for (int i = 0; i < 4; ++i) publish_at_missed();
  net.RunFor(kSecond + kSecond / 2);
  EXPECT_EQ(net.qp(adopter)->stats().answers_delivered, delivered + 4);
  net.RunFor(8 * kSecond);
  EXPECT_EQ(missed->stats().forward_failures, failures);
}

TEST(Failover, AnAdopterThatMissedTheSwapTakesTheRecordsPlan) {
  // The proxy's ring successor itself misses a swap, and then the proxy
  // dies. The successor adopts from its own executor's stale generation,
  // but takes the record's whole plan: it re-stores the record at the
  // swapped generation, its announcement carries that generation (so the
  // executors already on it follow), its own executor repairs the swap, and
  // its next swap is a new generation everywhere.
  SimPier net(8, PierOptions(283));
  ASSERT_TRUE(net.catalog()->Register(TableSpec("loc").LocalOnly()).ok());
  const uint32_t adopter = RingSuccessor(&net, 1);
  const uint32_t other = adopter == 5 ? 6 : 5;
  auto text = [](const std::string& where) {
    return Sql("SELECT * FROM loc" + where +
               " TIMEOUT 60s WINDOW 1s CONTINUOUS");
  };
  auto q = net.client(1)->Query(text(""));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const uint64_t qid = q->id();
  net.RunFor(2 * kSecond);

  // From here the adopter drops whatever the original proxy disseminates
  // for a later generation.
  const NetAddress first_proxy = net.dht(1)->local_address();
  QueryExecutor* missed = net.qp(adopter)->executor();
  net.dht(adopter)->router()->set_broadcast_handler(
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
  // The swapped-in generation's operator, identified by its kind.
  auto runs = [&](QueryExecutor* ex, const QueryPlan& plan, OpKind kind) {
    for (const OpSpec& op : plan.graphs[0].ops) {
      if (op.kind != kind) continue;
      Operator* found = ex->FindOp(qid, plan.graphs[0].id, op.id);
      return found != nullptr && found->spec().kind == kind;
    }
    return false;
  };
  auto filtered = net.client(1)->Compile(text(" WHERE v >= 0"));
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  const QueryPlan swapped = *filtered;
  ASSERT_TRUE(net.qp(1)->SwapQuery(qid, std::move(*filtered)).ok());
  net.RunFor(2 * kSecond);
  ASSERT_FALSE(runs(missed, swapped, OpKind::kSelection))
      << "test premise: the adopter must miss the swap";
  ASSERT_TRUE(
      runs(net.qp(other)->executor(), swapped, OpKind::kSelection))
      << "test premise: everyone else swapped";
  auto at_swap = ReadRecord(&net, 0, qid);
  ASSERT_TRUE(at_swap.ok()) << at_swap.status().ToString();
  ASSERT_EQ(at_swap->generation, 1u);

  net.harness()->FailNode(1);
  ASSERT_EQ(RunUntilAdopted(&net, qid, 1, kAdoptWithin),
            static_cast<int>(adopter));
  auto attached = net.client(adopter)->Attach(qid);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  net.RunFor(2 * kSecond);
  auto plan = net.qp(adopter)->ProxyPlan(qid);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->generation, 1u);
  EXPECT_EQ(plan->proxy_epoch, 1u);
  EXPECT_EQ(plan->catchup_floor_us, at_swap->catchup_floor_us);
  auto record = ReadRecord(&net, 0, qid);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record->generation, 1u) << "a stale generation overwrote it";
  EXPECT_EQ(record->proxy, net.dht(adopter)->local_address());
  EXPECT_EQ(record->graphs.size(), at_swap->graphs.size());
  EXPECT_TRUE(runs(missed, swapped, OpKind::kSelection))
      << "the adopter's own executor still runs the superseded generation";

  // Rows published at `other`, which ran the swapped generation all along,
  // reach the adopter: it followed the announcement.
  const uint64_t delivered = net.qp(adopter)->stats().answers_delivered;
  Tuple t("loc");
  t.Append("v", Value::Int64(1));
  ASSERT_TRUE(net.client(other)->Publish("loc", t).ok());
  net.RunFor(2 * kSecond);
  EXPECT_EQ(net.qp(adopter)->stats().answers_delivered, delivered + 1);

  // The adopter's next swap is generation 2, which every node runs.
  auto projected = net.client(adopter)->Compile(
      Sql("SELECT v FROM loc WHERE v >= 0 TIMEOUT 60s WINDOW 1s CONTINUOUS"));
  ASSERT_TRUE(projected.ok()) << projected.status().ToString();
  const QueryPlan next = *projected;
  ASSERT_TRUE(net.qp(adopter)->SwapQuery(qid, std::move(*projected)).ok());
  net.RunFor(2 * kSecond);
  EXPECT_EQ(net.qp(adopter)->ProxyPlan(qid)->generation, 2u);
  EXPECT_TRUE(runs(net.qp(other)->executor(), next, OpKind::kProjection))
      << "the next swap did not reach a node already on generation 1";
}

TEST(Failover, AttachAtTheAdopterStreamsAndCountsAnswers) {
  // After the proxy dies and the owner of its id adopts, a handle attached
  // through the adopter's client has an estimate (the adopter read the
  // plan's graphs from the durable record), streams the query's answers
  // into its callback and counts them. The original handle, bound to the
  // dead proxy, receives nothing more.
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
  auto q = net.client(1)->Query(
      Sql("SELECT src, count(*) AS cnt FROM ev GROUP BY src "
          "TIMEOUT 90s WINDOW 2s CONTINUOUS"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const uint64_t qid = q->id();
  size_t seen = 0;
  q->OnTuple([&](const Tuple&) { seen++; });
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
  const std::vector<uint32_t> proxies = Proxies(&net, qid);
  ASSERT_EQ(proxies.size(), 1u) << "the owner of the proxy's id adopted";
  const uint32_t adopter = proxies[0];
  EXPECT_EQ(q->stats().tuples, before_kill) << "nothing reaches a dead proxy";

  auto attached = net.client(adopter)->Attach(qid);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  auto explained = net.client(adopter)->ExplainAnalyze(*attached);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_FALSE(explained->estimate.ops.empty())
      << "the adopter's plan has graphs to estimate";
  size_t streamed = 0;
  attached->OnTuple([&](const Tuple&) { streamed++; });
  const uint64_t at_attach = attached->stats().tuples;

  for (int i = 0; i < 6; ++i) {
    publish(i);
    net.RunFor(kSecond);
  }
  EXPECT_GT(attached->stats().tuples, at_attach)
      << "the adopter's answers reach the attached handle";
  EXPECT_EQ(streamed, attached->stats().tuples) << "one callback, one tally";
  EXPECT_EQ(attached->stats().replans, 0u) << "an attached query never replans";
  EXPECT_EQ(q->stats().tuples, before_kill);
  EXPECT_EQ(seen, before_kill);
}

TEST(Failover, CancelOnAnOrphanedHandleTearsDownLocallyAndSaysUnavailable) {
  SimPier net(6, PierOptions(233));
  RegisterEv(&net);

  auto q = net.client(0)->Query(CountingQuery());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t qid = q->id();
  net.RunFor(2 * kSecond);

  // Orphan the handle: the proxy-side record disappears underneath it (an
  // adopter's attach grace running out does exactly this).
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

  auto q = net.client(1)->Query(CountingQuery());
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
      << "cancel reaches executors at once";
  // The proxy leaving afterwards hands its id on, but nothing adopts a
  // cancelled query: no executor runs it, and its record is a tombstone.
  net.harness()->FailNode(1);
  for (int i = 0; i < 12; ++i) {
    PublishEv(&net, &next_id);
    net.RunFor(kSecond);
  }
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (i == 1) continue;
    EXPECT_EQ(net.qp(i)->stats().adoptions, 0u)
        << "node " << i << " adopted a cancelled query";
  }
}

TEST(Failover, DurableTombstoneUnadoptsASuccessorThatMissedTheBroadcast) {
  SimPier net(8, PierOptions(257));
  RegisterEv(&net);
  auto q = net.client(1)->Query(CountingQuery());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t qid = q->id();
  net.RunFor(4 * kSecond);
  ASSERT_TRUE(q->Cancel().ok());
  net.RunFor(2 * kSecond);  // broadcast tombstone + durable DHT put settle

  // Simulate a node that MISSED the tombstone broadcast and adopted after
  // the proxy left: force the adoption directly with the stale metadata
  // such an executor would hold.
  QueryPlan meta;
  meta.query_id = qid;
  meta.continuous = true;
  meta.timeout = 60 * kSecond;
  meta.deadline_us = net.loop()->now() + 50 * kSecond;
  meta.proxy = net.dht(1)->local_address();
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
  auto q = net.client(1)->Query(CountingQuery());
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

  // A node that missed the cancel broadcast force-adopts with the stale
  // metadata it would still hold.
  QueryPlan meta;
  meta.query_id = qid;
  meta.continuous = true;
  meta.timeout = 60 * kSecond;
  meta.deadline_us = net.loop()->now() + 50 * kSecond;
  meta.proxy = net.dht(1)->local_address();
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
  // proxy or on the owner-to-be of its id, resubmit: the fresh query id
  // moves it.
  const uint32_t adopter = RingSuccessor(&net, 1);
  uint64_t qid = 0;
  int owner = -1;
  for (int attempt = 0; attempt < 8 && owner < 0; ++attempt) {
    auto plan = ParseUfl(kText);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_EQ(plan->graphs.size(), 2u);
    auto submitted = net.qp(1)->SubmitQuery(*plan, nullptr);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    net.RunFor(3 * kSecond);  // dissemination + durable plan replication
    int at = OwnerOf(&net, "!qplan", std::to_string(*submitted));
    ASSERT_GE(at, 0);
    if (at != 1 && at != static_cast<int>(adopter)) {
      qid = *submitted;
      owner = at;
      break;
    }
    net.qp(1)->CancelQuery(*submitted);
    net.RunFor(kSecond);
  }
  ASSERT_GE(owner, 0) << "no query id placed its plan off the two nodes";

  // First the plan's primary owner dies, then the proxy. The adopter must
  // recover the non-broadcast graph from a surviving plan replica.
  net.harness()->FailNode(static_cast<uint32_t>(owner));
  net.RunFor(8 * kSecond);  // let routing heal before the adopter's plan Get
  net.harness()->FailNode(1);
  ASSERT_EQ(RunUntilAdopted(&net, qid, 1, kAdoptWithin, &next_id),
            static_cast<int>(adopter));
  net.RunFor(3 * kSecond);  // the adopter's record read

  auto adopted = net.qp(adopter)->ProxyPlan(qid);
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
