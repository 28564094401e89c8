// k-way successor-set replication: owner-driven placement (the writer sends
// one store frame per owner, the owner ships the copies), k = 1 sending no
// replica or repair traffic, the copy at the owner speaking for an object
// (after owner death, after a join's handoff, after a join in a dead node's
// place, after a write through a stale owner cache, and while the
// predecessor is unknown), read-any gets with read repair (and an absent key
// answered empty after every candidate), renew reaching the replica copies,
// scan-time replica merge (exactly-once), origin-stamped replica expiry, and
// the replicas plumbing through UFL, TableSpec and query plans.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "overlay/routing_chord.h"
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

/// The owner of `target` among nodes [0, n): the ring before node n joined.
int OwnerAmong(SimOverlay* net, Id target, uint32_t n) {
  for (uint32_t i = 0; i < n; ++i) {
    if (!net->harness()->IsAlive(i)) continue;
    if (net->dht(i)->router()->protocol()->IsOwner(target))
      return static_cast<int>(i);
  }
  return -1;
}

/// Node index behind an address (SimHarness maps index <-> host - 1).
uint32_t NodeOf(const NetAddress& a) { return a.host - 1; }

/// Count the (ns, key) copies the live nodes hold: the copy at the owner is
/// the primary, every other copy a replica.
struct CopyCensus {
  size_t primaries = 0;
  size_t replicas = 0;
};
CopyCensus Census(SimOverlay* net, const std::string& ns,
                  const std::string& key) {
  CopyCensus c;
  for (uint32_t i = 0; i < net->size(); ++i) {
    if (!net->harness()->IsAlive(i)) continue;
    size_t n = net->dht(i)->objects()->Get(ns, key).size();
    if (net->dht(i)->router()->protocol()->IsOwner(RoutingId(ns, key)))
      c.primaries += n;
    else
      c.replicas += n;
  }
  return c;
}

/// Rows of `ns` that node `i`'s LocalScan emits.
size_t ScanVisible(SimOverlay* net, uint32_t i, const std::string& ns) {
  size_t n = 0;
  net->dht(i)->LocalScan(
      ns, [&n](const ObjectName&, std::string_view, TimeUs) { n++; });
  return n;
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

TEST(Replication, PutPlacesKCopiesAtOwnerAndSuccessors) {
  SimOverlay net(8, SeededOptions(11));
  net.dht(3)->Put("rt", "k1", "s", "v", 60 * kSecond, nullptr, /*replicas=*/3);
  net.RunFor(2 * kSecond);

  int owner = OwnerOf(&net, "rt", "k1");
  ASSERT_GE(owner, 0);
  auto at_owner = net.dht(owner)->objects()->Get("rt", "k1");
  ASSERT_EQ(at_owner.size(), 1u);
  EXPECT_EQ(at_owner[0]->second.desired_replicas, 3);

  // The owner's first two successors hold the replica copies.
  auto succs =
      net.dht(owner)->router()->protocol()->SuccessorSet(2);
  ASSERT_EQ(succs.size(), 2u);
  for (size_t j = 0; j < succs.size(); ++j) {
    auto at_succ = net.dht(NodeOf(succs[j]))->objects()->Get("rt", "k1");
    ASSERT_EQ(at_succ.size(), 1u) << "successor " << j << " missing its copy";
    EXPECT_EQ(at_succ[0]->second.desired_replicas, 3);
  }

  // The owner shipped them; a writer that is not the owner shipped none.
  EXPECT_EQ(net.dht(owner)->stats().replica_puts, 2u);
  if (owner != 3) {
    EXPECT_EQ(net.dht(3)->stats().replica_puts, 0u);
  }
  CopyCensus c = Census(&net, "rt", "k1");
  EXPECT_EQ(c.primaries, 1u);
  EXPECT_EQ(c.replicas, 2u);
}

// A replicated batch costs the writer one store frame per owner. Each owner
// places the copies at its own successors; the writer sends no store frame
// to any of them.
TEST(Replication, BatchPutSendsOneFramePerOwnerAndOwnersPlaceTheCopies) {
  SimOverlay net(8, SeededOptions(12));
  const uint32_t writer = 1;
  std::vector<std::string> keys;
  std::map<int, size_t> owned;  // owner -> keys it owns
  for (int i = 0; keys.size() < 10; ++i) {
    std::string key = "k" + std::to_string(i);
    int owner = OwnerOf(&net, "bt", key);
    ASSERT_GE(owner, 0);
    if (owner == static_cast<int>(writer)) continue;
    keys.push_back(key);
    owned[owner]++;
  }
  auto batch = [&](const std::string& suffix, int replicas) {
    std::vector<DhtPutItem> items;
    for (const std::string& key : keys) {
      DhtPutItem item;
      item.ns = "bt";
      item.key = key;
      item.suffix = suffix;
      item.value = "v";
      item.lifetime = 60 * kSecond;
      item.replicas = replicas;
      items.push_back(std::move(item));
    }
    return items;
  };
  // Unreplicated puts of the same keys warm the writer's owner cache, so the
  // measured batch sends no lookup.
  net.dht(writer)->PutBatch(batch("warm", 1));
  net.RunFor(2 * kSecond);
  auto* chord =
      dynamic_cast<ChordProtocol*>(net.dht(writer)->router()->protocol());
  ASSERT_NE(chord, nullptr);
  // The writer's data frames other than ring maintenance.
  auto frames = [&] {
    return net.dht(writer)->router()->transport()->stats().msgs_sent -
           chord->counters().frames_sent;
  };
  const uint64_t before = frames();
  Status done = Status::Internal("not called");
  std::vector<Dht::PutGroupStatus> groups;
  net.dht(writer)->PutBatch(
      batch("s", 3), [&](const Status& s, std::vector<Dht::PutGroupStatus> g) {
        done = s;
        groups = std::move(g);
      });
  net.RunFor(3 * kSecond);
  ASSERT_TRUE(done.ok()) << done.ToString();
  EXPECT_EQ(groups.size(), owned.size());
  EXPECT_EQ(frames() - before, owned.size())
      << "the writer sent store frames past the owners";
  EXPECT_EQ(net.dht(writer)->stats().replica_puts, 0u);
  for (const auto& [owner, n] : owned)
    EXPECT_EQ(net.dht(owner)->stats().replica_puts, 2 * n) << "node " << owner;

  for (const std::string& key : keys) {
    CopyCensus c = Census(&net, "bt", key);
    EXPECT_EQ(c.primaries, 2u) << "key " << key;  // "warm" and "s"
    EXPECT_EQ(c.replicas, 2u) << "key " << key;
  }
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
    EXPECT_EQ(s.handoff_pushes, 0u) << "node " << i;
    EXPECT_EQ(s.read_failovers, 0u) << "node " << i;
    EXPECT_EQ(s.read_repairs, 0u) << "node " << i;
    EXPECT_EQ(s.suppressed_scan_rows, 0u) << "node " << i;
  }
}

// ---------------------------------------------------------------------------
// Handoff
// ---------------------------------------------------------------------------

TEST(Replication, OwnerDeathLeavesAReplicaSpeakingAndGetStillAnswers) {
  SimOverlay net(10, SeededOptions(17, /*replication=*/3));
  net.dht(4)->Put("hd", "k", "s", "payload", 120 * kSecond);
  net.RunFor(2 * kSecond);
  int owner = OwnerOf(&net, "hd", "k");
  ASSERT_GE(owner, 0);
  ASSERT_EQ(Census(&net, "hd", "k").replicas, 2u);

  net.harness()->FailNode(static_cast<uint32_t>(owner));
  net.RunFor(8 * kSecond);  // stabilize + repair ticks

  // A replica holder owns the id now, and its copy speaks in scans.
  int new_owner = OwnerOf(&net, "hd", "k");
  ASSERT_GE(new_owner, 0);
  ASSERT_NE(new_owner, owner);
  ASSERT_EQ(net.dht(new_owner)->objects()->Get("hd", "k").size(), 1u);
  EXPECT_EQ(ScanVisible(&net, new_owner, "hd"), 1u);
  // It owns a wider range and re-pushed what it newly owns, so the object
  // has k copies again.
  EXPECT_GE(net.dht(new_owner)->stats().handoff_pushes, 1u);
  EXPECT_EQ(Census(&net, "hd", "k").replicas, 2u);

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

TEST(Replication, JoiningNodeIsHandedTheReplicatedRangeItNowOwns) {
  SimOverlay net(8, SeededOptions(19, /*replication=*/3));
  for (int i = 0; i < 64; ++i)
    net.dht(i % 8)->Put("jp", "k" + std::to_string(i), "s", "v", 300 * kSecond);
  net.RunFor(3 * kSecond);

  uint32_t joiner = net.AddNode();
  net.RunFor(kSecond);
  net.SeedAll();  // the ring integrates the joiner: it owns a range now
  net.RunFor(5 * kSecond);

  // The joiner's successor shipped it every object of the range it took.
  size_t owned = 0;
  for (int i = 0; i < 64; ++i) {
    std::string key = "k" + std::to_string(i);
    if (OwnerOf(&net, "jp", key) != static_cast<int>(joiner)) continue;
    owned++;
    EXPECT_EQ(net.dht(joiner)->objects()->Get("jp", key).size(), 1u)
        << "the joiner was never handed " << key;
  }
  EXPECT_GT(owned, 0u) << "test premise: the joiner owns some keys";
  EXPECT_EQ(net.dht(joiner)->stats().store_requests, owned);
  // Only the copy at the owner speaks: nothing is double-counted.
  size_t total = 0;
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (net.harness()->IsAlive(i)) total += ScanVisible(&net, i, "jp");
  }
  EXPECT_EQ(total, 64u) << "scan-visible copies drifted after the handoff";
}

TEST(Replication, ANodeWhosePredecessorWasDroppedStillScansItsOwnRows) {
  // Between the predecessor's departure and the next one's notify, a node
  // knows no lower bound for its range. Its last known range (last pred,
  // self] stands in, so its own replicated rows stay visible to scans.
  SimOverlay net(8, SeededOptions(47, /*replication=*/3));
  for (int i = 0; i < 64; ++i)
    net.dht(i % 8)->Put("pd", "k" + std::to_string(i), "s", "v", 300 * kSecond);
  net.RunFor(3 * kSecond);  // stored, and repair has seen the ring

  uint32_t node = 0;
  size_t own = ScanVisible(&net, node, "pd");
  while (own == 0 && node + 1 < net.size())
    own = ScanVisible(&net, ++node, "pd");
  ASSERT_GT(own, 0u) << "test premise: the node owns some keys";
  RingPeer pred;
  RoutingProtocol* proto = net.dht(node)->router()->protocol();
  ASSERT_TRUE(proto->Predecessor(&pred));
  proto->OnPeerUnreachable(pred.addr);
  ASSERT_FALSE(proto->Predecessor(&pred));

  EXPECT_EQ(ScanVisible(&net, node, "pd"), own)
      << "the node's own rows vanished with its predecessor";
}

// A node that joins where a dead node's range was, before repair saw the
// ring without it, owns ids whose only live copies sit at the dead node's
// successors. The successor hands it those copies, so a scan still sees
// every row exactly once, on whichever side of the dead node it lands.
TEST(Replication, AJoinerTakingADeadNodesRangeIsHandedItsCopies) {
  for (bool before_dead : {true, false}) {
    SCOPED_TRACE(before_dead ? "the joiner lands before the dead node"
                             : "the joiner lands after the dead node");
    constexpr int kRows = 64;
    SimOverlay net(10, SeededOptions(53, /*replication=*/3));
    for (int i = 0; i < kRows; ++i)
      net.dht(i % 10)->Put("dj", "k" + std::to_string(i), "s", "v",
                           300 * kSecond);
    net.RunFor(3 * kSecond);

    uint32_t joiner = net.AddNode();
    int succ = OwnerAmong(&net, net.dht(joiner)->local_id(), joiner);
    ASSERT_GE(succ, 0);
    RingPeer pred;
    ASSERT_TRUE(net.dht(succ)->router()->protocol()->Predecessor(&pred));
    uint32_t dead =
        before_dead ? static_cast<uint32_t>(succ) : NodeOf(pred.addr);
    std::set<std::string> dead_owned;
    for (int i = 0; i < kRows; ++i) {
      std::string key = "k" + std::to_string(i);
      if (OwnerAmong(&net, RoutingId("dj", key), joiner) ==
          static_cast<int>(dead))
        dead_owned.insert(key);
    }
    // One step: the ring drops the dead node and takes in the joiner.
    net.harness()->FailNode(dead);
    net.SeedAll();
    net.RunFor(5 * kSecond);

    size_t taken = 0;
    for (const std::string& key : dead_owned)
      taken += OwnerOf(&net, "dj", key) == static_cast<int>(joiner);
    ASSERT_GT(taken, 0u)
        << "test premise: the joiner owns ids the dead node owned";
    std::multiset<std::string> seen;
    for (uint32_t i = 0; i < net.size(); ++i) {
      if (!net.harness()->IsAlive(i)) continue;
      net.dht(i)->LocalScan("dj", [&](const ObjectName& n, std::string_view,
                                      TimeUs) { seen.insert(n.key); });
    }
    std::set<std::string> rows(seen.begin(), seen.end());
    EXPECT_EQ(rows.size(), static_cast<size_t>(kRows))
        << "rows the dead node owned are hidden from every scan";
    EXPECT_EQ(seen.size(), rows.size()) << "a row was answered twice";
  }
}

// A writer whose owner cache predates a join sends a replicated write to
// the old owner after the range was already handed off. The old owner
// passes it on to the joiner that owns it now, so a scan sees it, and
// places the rest of the joiner's replica set.
TEST(Replication, AWriteThroughAStaleOwnerCacheReachesTheJoiner) {
  SimOverlay net(8, SeededOptions(59));
  // The next node's id, known before it joins (ids hash the address).
  NetAddress first = net.dht(0)->local_address();
  Id joiner_id = NodeIdFromAddress(first.host + net.size(), first.port);
  int owner = OwnerAmong(&net, joiner_id, net.size());
  ASSERT_GE(owner, 0);
  RingPeer pred;
  ASSERT_TRUE(net.dht(owner)->router()->protocol()->Predecessor(&pred));
  // A key the joiner takes from `owner` once it is in the ring.
  std::string key;
  for (int i = 0; key.empty() && i < 100000; ++i) {
    std::string k = "k" + std::to_string(i);
    if (InOpenClosed(pred.id, joiner_id, RoutingId("sw", k))) key = k;
  }
  ASSERT_FALSE(key.empty());
  uint32_t writer = 0;
  while (static_cast<int>(writer) == owner || NodeOf(pred.addr) == writer)
    writer++;
  // The first write warms the writer's owner cache with `owner`'s range.
  net.dht(writer)->Put("sw", key, "old", "v", 300 * kSecond, nullptr,
                       /*replicas=*/3);
  net.RunFor(kSecond);

  uint32_t joiner = net.AddNode();
  ASSERT_EQ(net.dht(joiner)->local_id(), joiner_id);
  net.SeedAll();
  net.RunFor(5 * kSecond);  // the joiner is in, and was handed the range
  ASSERT_EQ(OwnerOf(&net, "sw", key), static_cast<int>(joiner));
  ASSERT_EQ(net.dht(joiner)->objects()->Get("sw", key).size(), 1u);

  uint64_t hints = net.dht(owner)->router()->stats().not_owner_hints_sent;
  net.dht(writer)->Put("sw", key, "new", "v", 300 * kSecond, nullptr,
                       /*replicas=*/3);
  net.RunFor(3 * kSecond);
  ASSERT_GT(net.dht(owner)->router()->stats().not_owner_hints_sent, hints)
      << "test premise: the write went to the old owner";
  EXPECT_EQ(net.dht(joiner)->objects()->Get("sw", key).size(), 2u)
      << "the joiner never got the write";
  size_t visible = 0;
  for (uint32_t i = 0; i < net.size(); ++i)
    visible += ScanVisible(&net, i, "sw");
  EXPECT_EQ(visible, 2u) << "a write through a stale cache is hidden";
  // The joiner's replica set is the joiner, the old owner (its successor)
  // and the old owner's first successor: the old owner keeps its copy and
  // places the third.
  std::set<uint32_t> holders;
  for (uint32_t i = 0; i < net.size(); ++i) {
    for (const ObjectManager::Row* row : net.dht(i)->objects()->Get("sw", key))
      if (row->first.suffix == "new") holders.insert(i);
  }
  std::vector<NetAddress> owner_succs =
      net.dht(owner)->router()->protocol()->SuccessorSet(1);
  ASSERT_EQ(owner_succs.size(), 1u);
  EXPECT_EQ(holders, (std::set<uint32_t>{joiner, static_cast<uint32_t>(owner),
                                         NodeOf(owner_succs[0])}))
      << "the forwarded write lacks its third copy";
}

// A window that widens is a new baseline only for the successors it adds.
// When the first successor changes on the same repair tick, the objects
// that already used it are re-pushed to the new one.
TEST(Replication, AWindowThatWidensStillSeesItsFirstSuccessorChange) {
  SimOverlay net(8, SeededOptions(61));
  std::vector<std::string> keys;  // two keys node 0 owns
  for (int i = 0; keys.size() < 2 && i < 100000; ++i) {
    std::string k = "k" + std::to_string(i);
    if (OwnerOf(&net, "ws", k) == 0) keys.push_back(k);
  }
  ASSERT_EQ(keys.size(), 2u);
  net.dht(1)->Put("ws", keys[0], "s", "v", 300 * kSecond, nullptr,
                  /*replicas=*/2);
  net.RunFor(3 * kSecond);
  RoutingProtocol* proto = net.dht(0)->router()->protocol();
  std::vector<NetAddress> succs = proto->SuccessorSet(2);
  ASSERT_EQ(succs.size(), 2u);
  uint32_t second = NodeOf(succs[1]);
  ASSERT_EQ(net.dht(NodeOf(succs[0]))->objects()->Get("ws", keys[0]).size(),
            1u);
  ASSERT_TRUE(net.dht(second)->objects()->Get("ws", keys[0]).empty());

  // Just after a repair tick, the first successor dies (every node notices
  // at once) and a k = 3 write widens the window; the next tick sees both.
  const ReplicationManager* repl = net.dht(0)->replication();
  uint64_t ticks = repl->stats().repair_ticks;
  while (repl->stats().repair_ticks == ticks) net.RunFor(kMillisecond);
  net.harness()->FailNode(NodeOf(succs[0]));
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (net.harness()->IsAlive(i))
      net.dht(i)->router()->protocol()->OnPeerUnreachable(succs[0]);
  }
  net.dht(0)->Put("ws", keys[1], "s", "v", 300 * kSecond, nullptr,
                  /*replicas=*/3);
  net.RunFor(2 * kSecond);

  ASSERT_EQ(proto->SuccessorSet(1), std::vector<NetAddress>{succs[1]});
  EXPECT_EQ(net.dht(second)->objects()->Get("ws", keys[0]).size(), 1u)
      << "the new first successor never got the k = 2 object";
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
  // The owner copy is back, and it speaks for the object in scans again.
  auto repaired = net.dht(owner)->objects()->Get("rr", "k");
  ASSERT_EQ(repaired.size(), 1u) << "read repair never restored the owner";
  EXPECT_EQ(ScanVisible(&net, owner, "rr"), 1u);
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

  // On a ring smaller than k the walk stops where it comes back around:
  // both nodes are asked once.
  SimOverlay pair(2, SeededOptions(37, /*replication=*/3));
  called = false;
  pair.dht(0)->Get("ab", "missing",
                   [&](const Status& s, std::vector<DhtItem> items) {
                     called = true;
                     status = s;
                     got = std::move(items);
                   });
  pair.RunFor(3 * kSecond);
  ASSERT_TRUE(called);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(pair.dht(0)->stats().read_failovers, 1u);
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
                                   StoreOrigin::kHandoffPush, 1);
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
// dead owner's rows again: the copies that speak for them after the kill,
// and the re-pushes of the range the successor took over, were already
// answered, so none fires newData.
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
  net.RunFor(30 * kSecond);  // detection and repair, scan still open

  uint64_t pushes = 0;
  for (uint32_t i = 0; i < net.size(); ++i)
    pushes += net.dht(i)->stats().handoff_pushes;
  EXPECT_GE(pushes, 1u) << "the kill never moved ownership";
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
