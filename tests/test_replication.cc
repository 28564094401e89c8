// k-way successor-set replication: writer-driven placement, k = 1 sending no
// replica or repair traffic, promotion after owner death, read-any gets with
// read repair (and an absent key answered empty after every candidate),
// renew reaching the replica copies, scan-time replica merge (exactly-once),
// origin-stamped replica expiry, join-time range pulls, and the replicas
// plumbing through UFL, TableSpec and query plans.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "overlay/sim_overlay.h"
#include "qp/sim_pier.h"
#include "qp/ufl.h"

namespace pier {
namespace {

SimOverlay::Options SeededOptions(uint64_t seed = 42, int replication = 1) {
  SimOverlay::Options opts;
  opts.sim.seed = seed;
  opts.dht.replication_factor = replication;
  opts.seed_routing = true;
  opts.settle_time = 1 * kSecond;
  return opts;
}

int OwnerOf(SimOverlay* net, const std::string& ns, const std::string& key) {
  Id target = RoutingId(ns, key);
  for (uint32_t i = 0; i < net->size(); ++i) {
    if (!net->harness()->IsAlive(i)) continue;
    if (net->dht(i)->router()->protocol()->IsOwner(target))
      return static_cast<int>(i);
  }
  return -1;
}

/// Node index behind an address (SimHarness maps index <-> host - 1).
uint32_t NodeOf(const NetAddress& a) { return a.host - 1; }

/// Count the (ns, key) copies each node holds, by replica tag.
struct CopyCensus {
  size_t primaries = 0;
  size_t replicas = 0;
};
CopyCensus Census(SimOverlay* net, const std::string& ns,
                  const std::string& key) {
  CopyCensus c;
  for (uint32_t i = 0; i < net->size(); ++i) {
    if (!net->harness()->IsAlive(i)) continue;
    for (const auto* row : net->dht(i)->objects()->Get(ns, key)) {
      if (row->second.is_replica())
        c.replicas++;
      else
        c.primaries++;
    }
  }
  return c;
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

TEST(Replication, PutPlacesKTaggedCopiesAtOwnerAndSuccessors) {
  SimOverlay net(8, SeededOptions(11));
  net.dht(3)->Put("rt", "k1", "s", "v", 60 * kSecond, nullptr, /*replicas=*/3);
  net.RunFor(2 * kSecond);

  int owner = OwnerOf(&net, "rt", "k1");
  ASSERT_GE(owner, 0);
  auto at_owner = net.dht(owner)->objects()->Get("rt", "k1");
  ASSERT_EQ(at_owner.size(), 1u);
  EXPECT_EQ(at_owner[0]->second.replica_index, 0);
  EXPECT_EQ(at_owner[0]->second.desired_replicas, 3);

  // The owner's first two successors hold replica copies tagged 1 and 2.
  auto succs =
      net.dht(owner)->router()->protocol()->SuccessorSet(2);
  ASSERT_EQ(succs.size(), 2u);
  for (size_t j = 0; j < succs.size(); ++j) {
    auto at_succ = net.dht(NodeOf(succs[j]))->objects()->Get("rt", "k1");
    ASSERT_EQ(at_succ.size(), 1u) << "successor " << j << " missing its copy";
    EXPECT_EQ(at_succ[j == 0 ? 0 : 0]->second.replica_index, j + 1);
    EXPECT_TRUE(at_succ[0]->second.is_replica());
    EXPECT_EQ(at_succ[0]->second.desired_replicas, 3);
  }

  EXPECT_EQ(net.dht(3)->stats().replica_puts, 2u);
  CopyCensus c = Census(&net, "rt", "k1");
  EXPECT_EQ(c.primaries, 1u);
  EXPECT_EQ(c.replicas, 2u);
}

TEST(Replication, BatchPutReplicatesPerDestinationGroup) {
  SimOverlay net(8, SeededOptions(12));
  std::vector<DhtPutItem> items;
  for (int i = 0; i < 10; ++i) {
    DhtPutItem item;
    item.ns = "bt";
    item.key = "k" + std::to_string(i);
    item.suffix = "s";
    item.value = "v";
    item.lifetime = 60 * kSecond;
    item.replicas = 3;
    items.push_back(std::move(item));
  }
  Status done = Status::Internal("not called");
  std::vector<Dht::PutGroupStatus> groups;
  net.dht(1)->PutBatch(std::move(items),
                       [&](const Status& s, std::vector<Dht::PutGroupStatus> g) {
                         done = s;
                         groups = std::move(g);
                       });
  net.RunFor(3 * kSecond);
  ASSERT_TRUE(done.ok()) << done.ToString();
  size_t replica_frames = 0;
  for (const auto& g : groups) {
    EXPECT_FALSE(g.degraded());
    replica_frames += g.replica_frames;
  }
  EXPECT_GT(replica_frames, 0u) << "no replica frames rode the batch";

  for (int i = 0; i < 10; ++i) {
    CopyCensus c = Census(&net, "bt", "k" + std::to_string(i));
    EXPECT_EQ(c.primaries, 1u) << "key k" << i;
    EXPECT_EQ(c.replicas, 2u) << "key k" << i;
  }
  EXPECT_EQ(net.dht(1)->stats().replica_puts, 20u);
}

TEST(Replication, FactorOneKeepsEveryReplicationCounterAtZero) {
  // The k = 1 deployment must not even notice the subsystem exists: no
  // replica frames, no repair traffic, no scan suppression — on top of the
  // Put-equals-PutBatch wire guard in test_dht.
  SimOverlay net(8, SeededOptions(13));
  for (int i = 0; i < 8; ++i)
    net.dht(i % 8)->Put("z", "k" + std::to_string(i), "s", "v", 30 * kSecond);
  net.RunFor(10 * kSecond);  // many repair ticks
  std::vector<DhtItem> got;
  net.dht(2)->Get("z", "k1", [&](const Status& s, std::vector<DhtItem> items) {
    ASSERT_TRUE(s.ok());
    got = std::move(items);
  });
  net.RunFor(2 * kSecond);
  EXPECT_EQ(got.size(), 1u);
  for (uint32_t i = 0; i < net.size(); ++i) {
    Dht::Stats s = net.dht(i)->stats();
    EXPECT_EQ(s.replica_puts, 0u) << "node " << i;
    EXPECT_EQ(s.replica_stores, 0u) << "node " << i;
    EXPECT_EQ(s.promotions, 0u) << "node " << i;
    EXPECT_EQ(s.handoff_pushes, 0u) << "node " << i;
    EXPECT_EQ(s.handoff_pulls, 0u) << "node " << i;
    EXPECT_EQ(s.read_failovers, 0u) << "node " << i;
    EXPECT_EQ(s.read_repairs, 0u) << "node " << i;
    EXPECT_EQ(s.suppressed_scan_rows, 0u) << "node " << i;
  }
}

// ---------------------------------------------------------------------------
// Handoff
// ---------------------------------------------------------------------------

TEST(Replication, OwnerDeathPromotesAReplicaAndGetStillAnswers) {
  SimOverlay net(10, SeededOptions(17, /*replication=*/3));
  net.dht(4)->Put("hd", "k", "s", "payload", 120 * kSecond);
  net.RunFor(2 * kSecond);
  int owner = OwnerOf(&net, "hd", "k");
  ASSERT_GE(owner, 0);
  ASSERT_EQ(Census(&net, "hd", "k").replicas, 2u);

  net.harness()->FailNode(static_cast<uint32_t>(owner));
  net.RunFor(8 * kSecond);  // stabilize + repair ticks

  // Some replica holder owns the id now and promoted its copy.
  uint64_t promotions = 0;
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (!net.harness()->IsAlive(i)) continue;
    promotions += net.dht(i)->stats().promotions;
  }
  EXPECT_GE(promotions, 1u) << "no replica was promoted after the owner died";
  int new_owner = OwnerOf(&net, "hd", "k");
  ASSERT_GE(new_owner, 0);
  ASSERT_NE(new_owner, owner);
  auto at_new = net.dht(new_owner)->objects()->Get("hd", "k");
  ASSERT_EQ(at_new.size(), 1u);
  EXPECT_FALSE(at_new[0]->second.is_replica());

  // A read-any get from an uninvolved node still answers.
  uint32_t reader = 0;
  while (!net.harness()->IsAlive(reader) ||
         static_cast<int>(reader) == new_owner)
    reader++;
  std::vector<DhtItem> got;
  net.dht(reader)->Get("hd", "k", [&](const Status& s, std::vector<DhtItem> items) {
    ASSERT_TRUE(s.ok());
    got = std::move(items);
  });
  net.RunFor(3 * kSecond);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].value, "payload");
}

TEST(Replication, JoiningNodePullsTheReplicatedRangeItNowOwns) {
  SimOverlay net(8, SeededOptions(19, /*replication=*/3));
  for (int i = 0; i < 64; ++i)
    net.dht(i % 8)->Put("jp", "k" + std::to_string(i), "s", "v", 300 * kSecond);
  net.RunFor(3 * kSecond);

  uint32_t joiner = net.AddNode();
  net.RunFor(kSecond);
  net.SeedAll();  // the ring integrates the joiner: it owns a range now
  net.RunFor(5 * kSecond);

  EXPECT_GT(net.dht(joiner)->stats().handoff_pulls, 0u)
      << "the new node never pulled the replicated objects of its range";
  // Whatever it pulled it owns as primaries; nothing is double-counted.
  size_t total = 0;
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (!net.harness()->IsAlive(i)) continue;
    net.dht(i)->LocalScan(
        "jp", [&](const ObjectName&, std::string_view, TimeUs) { total++; });
  }
  EXPECT_EQ(total, 64u) << "scan-visible copies drifted after the handoff";
}

// ---------------------------------------------------------------------------
// Read repair
// ---------------------------------------------------------------------------

TEST(Replication, ReplicaAnswersWhenOwnerCopyIsGoneAndRepairsIt) {
  SimOverlay net(8, SeededOptions(23));
  net.dht(2)->Put("rr", "k", "s", "v", 120 * kSecond, nullptr, /*replicas=*/3);
  net.RunFor(2 * kSecond);
  int owner = OwnerOf(&net, "rr", "k");
  ASSERT_GE(owner, 0);

  // Simulate a stale owner: its primary copy vanishes (as if the node
  // restarted); the replica copies remain.
  net.dht(owner)->objects()->Remove(ObjectName{"rr", "k", "s"});
  ASSERT_TRUE(net.dht(owner)->objects()->Get("rr", "k").empty());

  uint32_t reader = owner == 0 ? 1 : 0;
  std::vector<DhtItem> got;
  net.dht(reader)->Get(
      "rr", "k",
      [&](const Status& s, std::vector<DhtItem> items) {
        ASSERT_TRUE(s.ok());
        got = std::move(items);
      },
      /*replicas=*/3);
  net.RunFor(3 * kSecond);

  ASSERT_EQ(got.size(), 1u) << "read-any lost the object";
  EXPECT_EQ(got[0].value, "v");
  EXPECT_EQ(net.dht(reader)->stats().read_failovers, 1u);
  EXPECT_EQ(net.dht(reader)->stats().read_repairs, 1u);
  // The owner copy is back — and primary again.
  auto repaired = net.dht(owner)->objects()->Get("rr", "k");
  ASSERT_EQ(repaired.size(), 1u) << "read repair never restored the owner";
  EXPECT_FALSE(repaired[0]->second.is_replica());
}

TEST(Replication, ReadAnyGetOfAnAbsentKeyTriesEveryCandidateThenIsEmpty) {
  SimOverlay net(8, SeededOptions(37, /*replication=*/3));
  int owner = OwnerOf(&net, "ab", "missing");
  ASSERT_GE(owner, 0);
  std::set<uint32_t> holders{static_cast<uint32_t>(owner)};
  for (const NetAddress& a :
       net.dht(owner)->router()->protocol()->SuccessorSet(2))
    holders.insert(NodeOf(a));
  ASSERT_EQ(holders.size(), 3u);
  uint32_t reader = 0;
  while (holders.count(reader) > 0) reader++;
  bool called = false;
  Status status = Status::Internal("not called");
  std::vector<DhtItem> got{DhtItem{"x", "x"}};
  net.dht(reader)->Get("ab", "missing",
                       [&](const Status& s, std::vector<DhtItem> items) {
                         called = true;
                         status = s;
                         got = std::move(items);
                       });
  net.RunFor(3 * kSecond);
  ASSERT_TRUE(called);
  EXPECT_TRUE(status.ok()) << "an absent key is an empty answer, not an error";
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(net.dht(reader)->stats().read_failovers, 2u)
      << "the owner and both replica holders are asked";
  EXPECT_EQ(net.dht(reader)->stats().read_repairs, 0u);
}

TEST(Replication, RenewKeepsReplicaCopiesAlivePastTheOriginalLifetime) {
  SimOverlay net(8, SeededOptions(41));
  net.dht(2)->Put("rn", "k", "s", "v", 5 * kSecond, nullptr, /*replicas=*/3);
  net.RunFor(2 * kSecond);
  ASSERT_EQ(Census(&net, "rn", "k").replicas, 2u);

  Status renewed = Status::Internal("not called");
  net.dht(2)->Renew("rn", "k", "s", 60 * kSecond,
                    [&](const Status& s) { renewed = s; });
  net.RunFor(8 * kSecond);  // well past the original 5 s lifetime
  EXPECT_TRUE(renewed.ok()) << renewed.ToString();
  CopyCensus c = Census(&net, "rn", "k");
  EXPECT_EQ(c.primaries, 1u);
  EXPECT_EQ(c.replicas, 2u) << "the renew never reached the replica copies";
}

// ---------------------------------------------------------------------------
// Scan-time replica merge
// ---------------------------------------------------------------------------

TEST(Replication, LocalScansSeeEachReplicatedObjectExactlyOnce) {
  SimOverlay net(8, SeededOptions(29, /*replication=*/3));
  for (int i = 0; i < 30; ++i)
    net.dht(i % 8)->Put("sc", "k" + std::to_string(i), "s", "v", 120 * kSecond);
  net.RunFor(3 * kSecond);

  size_t visible = 0;
  uint64_t suppressed = 0, stored = 0;
  for (uint32_t i = 0; i < net.size(); ++i) {
    net.dht(i)->LocalScan(
        "sc", [&](const ObjectName&, std::string_view, TimeUs) { visible++; });
    suppressed += net.dht(i)->stats().suppressed_scan_rows;
    stored += net.dht(i)->objects()->NamespaceObjects("sc");
  }
  EXPECT_EQ(visible, 30u) << "replica copies leaked into (or hid from) scans";
  EXPECT_EQ(stored, 90u) << "not every copy was placed";
  EXPECT_EQ(suppressed, 60u);
}

// ---------------------------------------------------------------------------
// Origin-stamped expiry
// ---------------------------------------------------------------------------

TEST(Replication, ReplicaCopiesExpireOnTheOriginClock) {
  SimOverlay net(4, SeededOptions(31));
  ObjectManager* om = net.dht(0)->objects();
  Vri* vri = net.dht(0)->vri();
  // A replica copy in a handoff push frame from node 1 to node 0.
  auto ship = [&](const std::string& key, TimeUs remaining, TimeUs age) {
    WireWriter w = Dht::FrameStore(/*replica_index=*/1,
                                   Dht::StoreOrigin::kHandoffPush, 1);
    Dht::EncodeStoreObject(&w, ObjectName{"ex", key, "s"}, remaining, age,
                           /*desired_replicas=*/3, "v");
    net.dht(1)->router()->SendFramed(net.dht(0)->local_address(),
                                     std::move(w).data(), nullptr);
  };
  // An object whose origin stored it 50s ago with 3s of life left: the
  // replica store keeps the origin's remaining lifetime and backdates
  // stored_at, instead of granting a fresh local lifetime.
  TimeUs sent = vri->Now();
  ship("k", 3 * kSecond, 50 * kSecond);
  net.RunFor(500 * kMillisecond);
  auto items = om->Get("ex", "k");
  ASSERT_EQ(items.size(), 1u);
  const ObjectManager::Object& copy = items[0]->second;
  EXPECT_EQ(copy.expires_at - copy.stored_at, 53 * kSecond);
  EXPECT_GT(copy.expires_at, sent + 3 * kSecond) << "stored on arrival";
  EXPECT_LE(copy.expires_at, vri->Now() + 3 * kSecond);

  net.RunFor(4 * kSecond);
  EXPECT_TRUE(om->Get("ex", "k").empty())
      << "the replica outlived its origin lifetime";
  net.RunFor(ObjectManager::kGcPeriod);
  EXPECT_EQ(om->NamespaceObjects("ex"), 0u) << "the sweep dropped it";

  // An already-expired origin copy is never stored.
  ship("k2", 0, 10 * kSecond);
  net.RunFor(500 * kMillisecond);
  EXPECT_EQ(om->NamespaceObjects("ex"), 0u);
}

// ---------------------------------------------------------------------------
// Aggregate safety: replication must not change answers
// ---------------------------------------------------------------------------

int64_t RunCountingSnapshot(int replication, uint64_t seed) {
  SimPier::Options opts;
  opts.sim.seed = seed;
  opts.dht.replication_factor = replication;
  opts.seed_routing = true;
  opts.settle_time = 8 * kSecond;
  SimPier net(8, opts);
  EXPECT_TRUE(
      net.catalog()->Register(TableSpec("ev").PartitionBy({"id"})).ok());
  for (int i = 0; i < 40; ++i) {
    Tuple e("ev");
    e.Append("id", Value::Int64(i));
    e.Append("src", Value::String("live"));
    EXPECT_TRUE(net.client(i % 8)->Publish("ev", e).ok());
  }
  net.RunFor(2 * kSecond);

  auto q = net.client(1)->Query(
      Sql("SELECT src, count(*) AS cnt FROM ev GROUP BY src TIMEOUT 8s")
          .WithAggStrategy("flat"));
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  if (!q.ok()) return -1;
  int64_t cnt = -1;
  q->OnTuple([&](const Tuple& t) { cnt = t.Get("cnt")->int64_unchecked(); });
  net.RunFor(12 * kSecond);
  return cnt;
}

TEST(Replication, ChurnFreeAggregatesMatchBetweenK3AndK1) {
  int64_t k1 = RunCountingSnapshot(1, 101);
  int64_t k3 = RunCountingSnapshot(3, 101);
  EXPECT_EQ(k1, 40) << "k = 1 baseline miscounted";
  EXPECT_EQ(k3, k1) << "replication changed a churn-free aggregate";
}

// A snapshot scan still subscribed when its owner dies must not see the
// dead owner's rows again: promotion and the handoff pull move objects that
// were already answered, so neither fires newData.
TEST(Replication, ScanStraddlingAnOwnerKillReturnsEveryRowExactlyOnce) {
  constexpr int kRows = 80;
  SimPier::Options opts;
  opts.sim.seed = 37;
  opts.dht.replication_factor = 3;
  opts.seed_routing = true;
  opts.settle_time = 4 * kSecond;
  SimPier net(10, opts);
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("ev").PartitionBy({"id"})).ok());
  for (int i = 0; i < kRows; ++i) {
    Tuple e("ev");
    e.Append("id", Value::Int64(i));
    uint32_t publisher = static_cast<uint32_t>(i) % 10;
    ASSERT_TRUE(net.client(publisher)->Publish("ev", e).ok());
  }
  net.RunFor(3 * kSecond);

  auto q = net.client(0)->Query(Sql("SELECT * FROM ev TIMEOUT 40s"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  size_t rows = 0;
  std::set<int64_t> ids;
  q->OnTuple([&](const Tuple& t) {
    rows++;
    ids.insert(t.Get("id")->int64_unchecked());
  });
  net.RunFor(500 * kMillisecond);
  // The victim holds primaries (ids are spread over all ten nodes).
  net.harness()->FailNode(9);
  net.RunFor(30 * kSecond);  // detection, promotion and pulls, scan still open

  uint64_t promotions = 0, pulls = 0;
  for (uint32_t i = 0; i < net.size(); ++i) {
    promotions += net.dht(i)->stats().promotions;
    pulls += net.dht(i)->stats().handoff_pulls;
  }
  EXPECT_GE(promotions, 1u) << "the kill never moved ownership";
  EXPECT_GE(pulls, 1u);
  EXPECT_EQ(ids.size(), static_cast<size_t>(kRows));
  EXPECT_EQ(rows, static_cast<size_t>(kRows))
      << "a maintenance re-store re-emitted rows the dead owner answered";
}

// ---------------------------------------------------------------------------
// Plumbing: UFL, TableSpec, plan validation
// ---------------------------------------------------------------------------

TEST(Replication, UflReplicasOptionFlowsIntoThePlan) {
  auto plan = ParseUfl(R"(
    query { timeout = 5s; replicas = 3; }
    graph g broadcast { s: scan [ns=events]; o: result; s -> o; }
  )");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->replicas, 3);

  EXPECT_FALSE(ParseUfl(R"(
    query { timeout = 5s; replicas = -1; }
    graph g broadcast { s: scan [ns=events]; o: result; s -> o; }
  )")
                   .ok());
}

TEST(Replication, SubmitRejectsAFactorTheOverlayCannotPlace) {
  SimPier::Options opts;
  opts.sim.seed = 37;
  opts.seed_routing = true;
  SimPier net(4, opts);
  auto plan = ParseUfl(R"(
    query { timeout = 5s; replicas = 99; }
    graph g broadcast { s: scan [ns=ev2]; o: result; s -> o; }
  )");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto qid = net.qp(0)->SubmitQuery(*plan, nullptr);
  ASSERT_FALSE(qid.ok());
  EXPECT_EQ(qid.status().code(), StatusCode::kInvalidArgument)
      << qid.status().ToString();
}

TEST(Replication, TableSpecReplicasPlaceCopiesAndOversizedSpecIsRejected) {
  SimPier::Options opts;
  opts.sim.seed = 41;
  opts.seed_routing = true;
  SimPier net(8, opts);
  ASSERT_TRUE(net.catalog()
                  ->Register(TableSpec("rv").PartitionBy({"id"}).Replicas(3))
                  .ok());
  for (int i = 0; i < 10; ++i) {
    Tuple e("rv");
    e.Append("id", Value::Int64(i));
    ASSERT_TRUE(net.client(2)->Publish("rv", e).ok());
  }
  net.RunFor(3 * kSecond);
  uint64_t replica_stores = 0;
  for (uint32_t i = 0; i < net.size(); ++i)
    replica_stores += net.dht(i)->stats().replica_stores;
  EXPECT_EQ(replica_stores, 20u)
      << "the TableSpec factor never reached the DHT";

  ASSERT_TRUE(net.catalog()
                  ->Register(TableSpec("rx").PartitionBy({"id"}).Replicas(100))
                  .ok());
  Tuple e("rx");
  e.Append("id", Value::Int64(1));
  Status s = net.client(2)->Publish("rx", e);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

}  // namespace
}  // namespace pier
