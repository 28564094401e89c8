// Smoke tests: the DHT substrate end-to-end in simulation.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "overlay/dht.h"
#include "overlay/pht.h"
#include "overlay/routing_chord.h"
#include "qp/sim_pier.h"
#include "util/hash.h"

namespace pier {
namespace {

SimPier::Options SeededOptions(uint64_t seed = 42) {
  SimPier::Options opts;
  opts.sim.seed = seed;
  opts.seed_routing = true;
  opts.settle_time = 1 * kSecond;
  return opts;
}

TEST(OverlaySmoke, PutThenGetAcrossNodes) {
  SimPier net(16, SeededOptions());
  bool got = false;
  net.dht(3)->Put("tbl", "k1", "s1", "hello", 60 * kSecond);
  net.RunFor(2 * kSecond);
  net.dht(9)->Get("tbl", "k1",
                  [&](const Status& s, std::vector<DhtItem> items) {
                    ASSERT_TRUE(s.ok()) << s.ToString();
                    ASSERT_EQ(items.size(), 1u);
                    EXPECT_EQ(items[0].suffix, "s1");
                    EXPECT_EQ(items[0].value, "hello");
                    got = true;
                  });
  net.RunFor(5 * kSecond);
  EXPECT_TRUE(got);
}

TEST(OverlaySmoke, SendDeliversToOwnerWithNewData) {
  SimPier net(20, SeededOptions());
  // Find who owns ("t","key") and watch newData fire there.
  int delivered_at = -1;
  for (uint32_t i = 0; i < net.size(); ++i) {
    net.dht(i)->OnNewData(
        "t", [&, i](const ObjectName& name, std::string_view v) {
          if (name.key == "key" && v == "payload")
            delivered_at = static_cast<int>(i);
        });
  }
  net.dht(5)->Send("t", "key", "sfx", "payload", 30 * kSecond);
  net.RunFor(3 * kSecond);
  ASSERT_GE(delivered_at, 0);
  // The receiving node must actually be the owner of the routing id.
  Id target = RoutingId("t", "key");
  EXPECT_TRUE(net.dht(delivered_at)->router()->protocol()->IsOwner(target));
}

TEST(OverlaySmoke, LiveJoinConvergesWithoutSeeding) {
  // Joiners resolve their successor through node 0.
  SimPier::Options opts = SeededOptions(7);
  opts.seed_routing = false;
  opts.settle_time = 30 * kSecond;  // join + stabilize traffic
  SimPier net(12, opts);
  for (uint32_t i = 0; i < net.size(); ++i)
    EXPECT_TRUE(net.dht(i)->router()->protocol()->IsReady()) << i;

  bool got = false;
  net.dht(2)->Put("tbl", "a", "s", "joined", 120 * kSecond);
  net.RunFor(5 * kSecond);
  net.dht(11)->Get("tbl", "a",
                   [&](const Status& s, std::vector<DhtItem> items) {
                     ASSERT_TRUE(s.ok()) << s.ToString();
                     ASSERT_EQ(items.size(), 1u);
                     EXPECT_EQ(items[0].value, "joined");
                     got = true;
                   });
  net.RunFor(10 * kSecond);
  EXPECT_TRUE(got);
}

TEST(OverlaySmoke, AJoinThroughADeadBootstrapKeepsRetrying) {
  // Node 0 died before the joiner booted: every join attempt through it
  // times out and starts over a second later, and the joiner never claims a
  // place in the overlay.
  SimPier net(8, SeededOptions());
  net.harness()->FailNode(0);
  uint32_t joiner = net.AddNode();
  net.RunFor(20 * kSecond);
  auto* chord =
      static_cast<ChordProtocol*>(net.dht(joiner)->router()->protocol());
  EXPECT_FALSE(chord->IsReady());
  EXPECT_GE(chord->counters().join_resolves, 3u);
}

TEST(OverlaySmoke, SoftStateExpiresWithoutRenewal) {
  SimPier net(8, SeededOptions());
  net.dht(0)->Put("tbl", "k", "s", "ephemeral", 3 * kSecond);
  net.RunFor(1 * kSecond);
  bool seen_alive = false, seen_dead = false;
  net.dht(1)->Get("tbl", "k", [&](const Status& s, std::vector<DhtItem> items) {
    ASSERT_TRUE(s.ok());
    seen_alive = items.size() == 1;
  });
  net.RunFor(5 * kSecond);  // well past the 3s lifetime
  net.dht(1)->Get("tbl", "k", [&](const Status& s, std::vector<DhtItem> items) {
    ASSERT_TRUE(s.ok());
    seen_dead = items.empty();
  });
  net.RunFor(5 * kSecond);
  EXPECT_TRUE(seen_alive);
  EXPECT_TRUE(seen_dead);
}

TEST(OverlaySmoke, RenewExtendsLifetime) {
  SimPier net(8, SeededOptions());
  net.dht(0)->Put("tbl", "k", "s", "kept", 4 * kSecond);
  net.RunFor(2 * kSecond);
  Status renew_status = Status::Internal("not called");
  net.dht(0)->Renew("tbl", "k", "s", 60 * kSecond,
                    [&](const Status& s) { renew_status = s; });
  net.RunFor(8 * kSecond);  // past the original lifetime
  EXPECT_TRUE(renew_status.ok()) << renew_status.ToString();
  bool still_there = false;
  net.dht(3)->Get("tbl", "k", [&](const Status& s, std::vector<DhtItem> items) {
    ASSERT_TRUE(s.ok());
    still_there = items.size() == 1;
  });
  net.RunFor(5 * kSecond);
  EXPECT_TRUE(still_there);
}

TEST(OverlaySmoke, RenewFailsForUnknownObject) {
  SimPier net(8, SeededOptions());
  Status s = Status::Ok();
  bool called = false;
  net.dht(0)->Renew("tbl", "nope", "s", 60 * kSecond, [&](const Status& st) {
    s = st;
    called = true;
  });
  net.RunFor(5 * kSecond);
  EXPECT_TRUE(called);
  EXPECT_EQ(s.code(), StatusCode::kNotFound) << s.ToString();
}

// Broadcasts from every node in `originators` on a converged seeded ring:
// each node's handler runs once per broadcast, and no frame is a duplicate.
void ExpectBroadcastsOnce(uint32_t n,
                          const std::vector<uint32_t>& originators) {
  SimPier net(n, SeededOptions());
  std::vector<std::map<std::string, int>> hits(n);
  for (uint32_t i = 0; i < n; ++i) {
    net.dht(i)->router()->set_broadcast_handler(
        [&hits, i](std::string_view p) { hits[i][std::string(p)]++; });
  }
  // No formation wait: the routing state is all a broadcast needs.
  for (uint32_t o : originators)
    net.dht(o)->router()->Broadcast("from " + std::to_string(o));
  net.RunFor(5 * kSecond);
  uint64_t frames = 0, dups = 0;
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].size(), originators.size()) << "node " << i;
    for (const auto& [payload, count] : hits[i])
      EXPECT_EQ(count, 1) << payload << " at node " << i;
    frames += net.dht(i)->router()->stats().broadcast_frames;
    dups += net.dht(i)->router()->stats().broadcast_dups;
  }
  EXPECT_EQ(dups, 0u) << "a node received a second copy";
  EXPECT_EQ(frames, originators.size() * (n - 1));
}

TEST(OverlaySmoke, BroadcastReachesEveryNode) {
  std::vector<uint32_t> all(64);
  for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  ExpectBroadcastsOnce(64, all);
  ExpectBroadcastsOnce(1024, {0, 255, 511, 1000});
}

TEST(OverlaySmoke, BroadcastCoversADeadContactsInterval) {
  // The originator's contact whose interval holds the most nodes dies, and
  // the broadcast starts before any maintenance loop can notice: its frame
  // to the dead node fails, and the nodes that node would have covered are
  // reached through the owner of the id just past it.
  SimPier net(64, SeededOptions());
  constexpr uint32_t kOrigin = 7;
  OverlayRouter* origin = net.dht(kOrigin)->router();
  const Id self = origin->local_id();
  std::vector<RingPeer> contacts = origin->protocol()->Contacts();
  std::sort(contacts.begin(), contacts.end(),
            [&](const RingPeer& a, const RingPeer& b) {
              return RingDistance(self, a.id) < RingDistance(self, b.id);
            });
  // Nodes strictly between each contact and the next (the last: self).
  auto covered = [&](size_t c) {
    Id lo = contacts[c].id;
    Id hi = c + 1 < contacts.size() ? contacts[c + 1].id : self;
    int inside = 0;
    for (uint32_t i = 0; i < net.size(); ++i) {
      inside += RingDistance(lo, net.dht(i)->local_id()) - 1 <
                RingDistance(lo, hi) - 1;
    }
    return inside;
  };
  size_t largest = 0;
  for (size_t c = 1; c < contacts.size(); ++c) {
    if (covered(c) > covered(largest)) largest = c;
  }
  ASSERT_GT(covered(largest), 1) << "test premise: a contact covers others";
  uint32_t victim = net.size();
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (net.dht(i)->local_address() == contacts[largest].addr) victim = i;
  }
  ASSERT_LT(victim, net.size());

  std::vector<int> hits(net.size(), 0);
  for (uint32_t i = 0; i < net.size(); ++i) {
    net.dht(i)->router()->set_broadcast_handler(
        [&hits, i](std::string_view) { hits[i]++; });
  }
  net.harness()->FailNode(victim);
  origin->Broadcast("after a failure");
  // UdpCC gives up on the dead node after its whole retry schedule, 23 s
  // with no RTT sample (1 + 2 + 4 + 8 + 8); the re-cover takes a few hops.
  net.RunFor(30 * kSecond);
  for (uint32_t i = 0; i < net.size(); ++i) {
    EXPECT_EQ(hits[i], i == victim ? 0 : 1) << "node " << i;
  }
}

TEST(OverlaySmoke, BroadcastSplitsAlongAWarmOwnerCache) {
  // Lookups fill the originator's owner cache, and its broadcast splits the
  // ring along the cached owners as well as its contacts: it sends more
  // frames than it has contacts, and the broadcast still takes N - 1.
  SimPier net(64, SeededOptions());
  OverlayRouter* origin = net.dht(0)->router();
  for (uint64_t i = 0; i < 4 * net.size(); ++i)
    origin->Lookup(HashCombine(0x3a11, i),
                   [](const Result<OverlayRouter::Owner>&) {});
  net.RunFor(5 * kSecond);

  std::vector<int> hits(net.size(), 0);
  for (uint32_t i = 0; i < net.size(); ++i) {
    net.dht(i)->router()->set_broadcast_handler(
        [&hits, i](std::string_view) { hits[i]++; });
  }
  origin->Broadcast("over a warm cache");
  net.RunFor(5 * kSecond);
  uint64_t frames = 0;
  for (uint32_t i = 0; i < net.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "node " << i;
    frames += net.dht(i)->router()->stats().broadcast_frames;
  }
  EXPECT_EQ(frames, net.size() - 1);
  EXPECT_GT(origin->stats().broadcast_frames,
            origin->protocol()->Contacts().size())
      << "the broadcast did not read the owner cache";
}

TEST(OverlaySmoke, BroadcastCoversADeadCachedOwnersInterval) {
  // One lookup caches its owner and the owner's successors. The last of
  // them is no Chord contact of the originator, so its share of the
  // originator's interval runs up to the next contact. It dies before the
  // broadcast: its frame fails, and the owner of the id just past it covers
  // that share.
  SimPier net(64, SeededOptions());
  constexpr uint32_t kOrigin = 7;
  OverlayRouter* origin = net.dht(kOrigin)->router();
  const Id self = origin->local_id();
  const uint32_t n = net.size();
  // Every node in clockwise order from the originator, which comes first.
  std::vector<uint32_t> ring(n);
  for (uint32_t i = 0; i < n; ++i) ring[i] = i;
  std::sort(ring.begin(), ring.end(), [&](uint32_t a, uint32_t b) {
    return RingDistance(self, net.dht(a)->local_id()) <
           RingDistance(self, net.dht(b)->local_id());
  });
  std::vector<bool> contact(n + 1, false);
  contact[n] = true;  // the interval ends at the originator
  for (const RingPeer& p : origin->protocol()->Contacts())
    for (uint32_t k = 0; k < n; ++k)
      contact[k] = contact[k] || net.dht(ring[k])->local_address() == p.addr;
  // The lookup of the node at ring position `first` caches positions
  // first .. first + kMaxSuccessors; pick the one whose last cached node
  // leaves the most nodes before the next contact.
  constexpr uint32_t kArc = RoutingProtocol::kMaxSuccessors;
  uint32_t first = 0, share = 0;
  for (uint32_t p = 1; p + kArc < n; ++p) {
    if (contact[p + kArc]) continue;
    uint32_t q = p + kArc + 1;
    while (!contact[q]) ++q;
    if (q - p - kArc - 1 > share) first = p, share = q - p - kArc - 1;
  }
  ASSERT_GT(share, 0u) << "test premise: the dead owner's share holds nodes";
  origin->Lookup(net.dht(ring[first])->local_id(),
                 [](const Result<OverlayRouter::Owner>&) {});
  net.RunFor(2 * kSecond);
  const uint32_t victim = ring[first + kArc];
  bool cached = false;
  origin->Lookup(net.dht(victim)->local_id(),
                 [&](const Result<OverlayRouter::Owner>& o) {
                   cached = o.ok() && o->cached;
                 });
  ASSERT_TRUE(cached) << "test premise: the victim is a cached owner";

  std::vector<int> hits(n, 0);
  for (uint32_t i = 0; i < n; ++i) {
    net.dht(i)->router()->set_broadcast_handler(
        [&hits, i](std::string_view) { hits[i]++; });
  }
  net.harness()->FailNode(victim);
  origin->Broadcast("after a cached owner failed");
  // UdpCC gives up on the dead node after its whole retry schedule (at most
  // 23 s); the re-cover takes a few hops.
  net.RunFor(30 * kSecond);
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i], i == victim ? 0 : 1) << "node " << i;
  }
}

TEST(OverlaySmoke, PhtInsertLookupRange) {
  SimPier net(16, SeededOptions());
  Pht::Options popts;
  popts.key_bits = 16;
  popts.bucket_size = 4;
  Pht pht(net.dht(0), popts);
  int done = 0;
  for (uint64_t k : {100u, 200u, 300u, 400u, 500u, 600u, 700u, 800u, 900u}) {
    pht.Insert(k, "v" + std::to_string(k), [&](const Status& s) {
      ASSERT_TRUE(s.ok()) << s.ToString();
      done++;
    });
    net.RunFor(3 * kSecond);  // sequential inserts: splits settle in between
  }
  EXPECT_EQ(done, 9);

  // Point lookup from another node's PHT view.
  Pht pht2(net.dht(7), popts);
  bool found = false;
  pht2.LookupKey(500, [&](const Status& s, std::vector<PhtItem> items) {
    ASSERT_TRUE(s.ok());
    ASSERT_EQ(items.size(), 1u);
    EXPECT_EQ(items[0].value, "v500");
    found = true;
  });
  net.RunFor(5 * kSecond);
  EXPECT_TRUE(found);

  bool ranged = false;
  pht2.RangeQuery(250, 650, [&](const Status& s, std::vector<PhtItem> items) {
    ASSERT_TRUE(s.ok());
    std::vector<uint64_t> keys;
    for (auto& item : items) keys.push_back(item.key);
    EXPECT_EQ(keys, (std::vector<uint64_t>{300, 400, 500, 600}));
    ranged = true;
  });
  net.RunFor(5 * kSecond);
  EXPECT_TRUE(ranged);

  // A range past the key space probes nothing and answers at once.
  bool empty = false;
  pht2.RangeQuery(1 << 16, 1 << 17,
                  [&](const Status& s, std::vector<PhtItem> items) {
                    EXPECT_TRUE(s.ok());
                    EXPECT_TRUE(items.empty());
                    empty = true;
                  });
  EXPECT_TRUE(empty);
}

TEST(OverlaySmoke, NodeFailureLosesDataAndRenewDetectsIt) {
  SimPier net(16, SeededOptions());
  net.dht(1)->Put("tbl", "vk", "s", "victim", 300 * kSecond);
  net.RunFor(2 * kSecond);
  // Find the owner and kill it.
  Id target = RoutingId("tbl", "vk");
  int owner = -1;
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (net.dht(i)->router()->protocol()->IsOwner(target)) owner = i;
  }
  ASSERT_GE(owner, 0);
  net.harness()->FailNode(owner);
  net.SeedAll();  // repair routing instantly (churn handling tested elsewhere)
  net.RunFor(2 * kSecond);

  Status renew_status = Status::Ok();
  bool called = false;
  net.dht(1)->Renew("tbl", "vk", "s", 60 * kSecond, [&](const Status& st) {
    renew_status = st;
    called = true;
  });
  net.RunFor(10 * kSecond);
  EXPECT_TRUE(called);
  EXPECT_FALSE(renew_status.ok());  // new owner doesn't know the object
}

}  // namespace
}  // namespace pier
