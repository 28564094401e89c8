// DHT batching and wire-path tests: PutBatch grouping/ordering/fallback
// semantics, the guard that a Put is exactly a one-item PutBatch on the
// wire, router send coalescing, and the router's owner cache (warm puts and
// gets skip the routed lookup; joins, deaths and the capacity bound keep it
// correct).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "overlay/dht.h"
#include "overlay/sim_overlay.h"

namespace pier {
namespace {

SimOverlay::Options SeededOptions(uint64_t seed = 42,
                                  TimeUs coalesce_window = 0) {
  SimOverlay::Options opts;
  opts.sim.seed = seed;
  opts.dht.router.coalesce_window_us = coalesce_window;
  opts.seed_routing = true;
  opts.settle_time = 1 * kSecond;
  return opts;
}

DhtPutItem Item(const std::string& ns, const std::string& key,
                const std::string& suffix, const std::string& value) {
  DhtPutItem item;
  item.ns = ns;
  item.key = key;
  item.suffix = suffix;
  item.value = value;
  item.lifetime = 60 * kSecond;
  return item;
}

/// The live owner index of (ns, key) under the current routing state.
int OwnerOf(SimOverlay* net, const std::string& ns, const std::string& key) {
  Id target = RoutingId(ns, key);
  for (uint32_t i = 0; i < net->size(); ++i) {
    if (net->harness()->IsAlive(i) &&
        net->dht(i)->router()->protocol()->IsOwner(target))
      return static_cast<int>(i);
  }
  return -1;
}

TEST(DhtBatch, SplitAcrossTwoOwnersDeliversToBoth) {
  SimOverlay net(16, SeededOptions());
  // Two keys with distinct owners plus a same-key pair: the batch must fan
  // out to BOTH destinations, and the same-owner pair must ride one frame.
  std::string key_a = "a0", key_b;
  int owner_a = OwnerOf(&net, "bt", key_a);
  ASSERT_GE(owner_a, 0);
  for (int i = 1; i < 64; ++i) {
    std::string candidate = "b" + std::to_string(i);
    int owner = OwnerOf(&net, "bt", candidate);
    if (owner >= 0 && owner != owner_a) {
      key_b = candidate;
      break;
    }
  }
  ASSERT_FALSE(key_b.empty()) << "no second owner found in 64 candidates";

  Status done_status = Status::Internal("not called");
  net.dht(3)->PutBatch(
      {Item("bt", key_a, "s1", "v1"), Item("bt", key_a, "s2", "v2"),
       Item("bt", key_b, "s3", "v3")},
      [&](const Status& s) { done_status = s; });
  net.RunFor(5 * kSecond);
  EXPECT_TRUE(done_status.ok()) << done_status.ToString();

  // Both owners hold their share.
  std::vector<DhtItem> got_a, got_b;
  net.dht(9)->Get("bt", key_a, [&](const Status& s, std::vector<DhtItem> items) {
    ASSERT_TRUE(s.ok());
    got_a = std::move(items);
  });
  net.dht(9)->Get("bt", key_b, [&](const Status& s, std::vector<DhtItem> items) {
    ASSERT_TRUE(s.ok());
    got_b = std::move(items);
  });
  net.RunFor(5 * kSecond);
  EXPECT_EQ(got_a.size(), 2u);
  EXPECT_EQ(got_b.size(), 1u);

  // The same-key pair shared a multi-object frame; the lone item rode a
  // one-object frame, which is not counted as batched.
  Dht::Stats stats = net.dht(3)->stats();
  EXPECT_EQ(stats.puts, 3u);
  EXPECT_EQ(stats.batched_puts, 2u);
  EXPECT_EQ(stats.batch_msgs, 1u);
}

TEST(DhtBatch, OrderPreservedWithinKey) {
  SimOverlay net(12, SeededOptions(7));
  int owner = OwnerOf(&net, "ord", "k");
  ASSERT_GE(owner, 0);
  std::vector<std::string> arrivals;
  net.dht(owner)->OnNewData("ord",
                            [&](const ObjectName& name, std::string_view) {
                              arrivals.push_back(name.suffix);
                            });
  std::vector<DhtPutItem> items;
  for (int i = 0; i < 8; ++i)
    items.push_back(Item("ord", "k", "s" + std::to_string(i), "v"));
  net.dht(5)->PutBatch(std::move(items));
  net.RunFor(5 * kSecond);
  ASSERT_EQ(arrivals.size(), 8u);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(arrivals[i], "s" + std::to_string(i)) << "batch order broken";
}

TEST(DhtBatch, EmptyBatchCompletesImmediately) {
  SimOverlay net(4, SeededOptions(9));
  bool called = false;
  net.dht(0)->PutBatch({}, [&](const Status& s) {
    EXPECT_TRUE(s.ok());
    called = true;
  });
  EXPECT_TRUE(called);
  EXPECT_EQ(net.dht(0)->stats().puts, 0u);
}

TEST(DhtBatch, SingletonGroupsAreByteIdenticalToPlainPuts) {
  // With coalescing off and every destination getting exactly one object, a
  // PutBatch produces the very same wire traffic as the loose Put calls it
  // replaces (each Put is a one-item PutBatch) — byte for byte, message for
  // message — and a one-object frame is not counted as batched.
  SimOverlay::Options opts = SeededOptions(21);

  SimOverlay plain(12, opts);
  SimOverlay batched(12, opts);  // twin sim: same seed, same topology
  std::string key_a = "a0", key_b;
  int owner_a = OwnerOf(&plain, "tw", key_a);
  ASSERT_GE(owner_a, 0);
  for (int i = 1; i < 64 && key_b.empty(); ++i) {
    std::string candidate = "b" + std::to_string(i);
    int owner = OwnerOf(&plain, "tw", candidate);
    if (owner >= 0 && owner != owner_a) key_b = candidate;
  }
  ASSERT_FALSE(key_b.empty());

  plain.harness()->ResetStats();
  batched.harness()->ResetStats();
  plain.dht(2)->Put("tw", key_a, "s", "value-a", 60 * kSecond);
  plain.dht(2)->Put("tw", key_b, "s", "value-b", 60 * kSecond);
  batched.dht(2)->PutBatch(
      {Item("tw", key_a, "s", "value-a"), Item("tw", key_b, "s", "value-b")});
  plain.RunFor(10 * kSecond);
  batched.RunFor(10 * kSecond);

  EXPECT_EQ(plain.harness()->total_msgs(), batched.harness()->total_msgs());
  EXPECT_EQ(plain.harness()->total_bytes(), batched.harness()->total_bytes());
  EXPECT_EQ(batched.dht(2)->stats().batched_puts, 0u)
      << "one-object frames must not count as batched";
}

TEST(DhtBatch, PartialFailureReportsPerGroupStatus) {
  SimOverlay net(16, SeededOptions(77));
  // Two keys with distinct owners; then the second owner dies, so the batch
  // PARTIALLY fails — the report must say exactly which items were dropped,
  // not collapse everything into the first error.
  std::string key_a = "a0", key_b;
  int owner_a = OwnerOf(&net, "pf", key_a);
  ASSERT_GE(owner_a, 0);
  int owner_b = -1;
  for (int i = 1; i < 64 && key_b.empty(); ++i) {
    std::string candidate = "b" + std::to_string(i);
    int owner = OwnerOf(&net, "pf", candidate);
    if (owner > 0 && owner != owner_a) {
      key_b = candidate;
      owner_b = owner;
    }
  }
  ASSERT_FALSE(key_b.empty()) << "no second owner found in 64 candidates";
  uint32_t sender = 0;
  while (static_cast<int>(sender) == owner_a ||
         static_cast<int>(sender) == owner_b)
    sender++;

  net.harness()->FailNode(static_cast<uint32_t>(owner_b));

  bool reported = false;
  Status first = Status::Ok();
  std::vector<Dht::PutGroupStatus> groups;
  net.dht(sender)->PutBatch(
      {Item("pf", key_a, "s1", "v1"), Item("pf", key_b, "s2", "v2"),
       Item("pf", key_a, "s3", "v3")},
      [&](const Status& s, std::vector<Dht::PutGroupStatus> g) {
        reported = true;
        first = s;
        groups = std::move(g);
      });
  // Give the transport time to exhaust its retries against the dead owner.
  net.RunFor(60 * kSecond);

  ASSERT_TRUE(reported);
  EXPECT_FALSE(first.ok()) << "the legacy first-error contract still holds";
  ASSERT_EQ(groups.size(), 2u);
  size_t ok_items = 0, failed_items = 0;
  for (const Dht::PutGroupStatus& g : groups) {
    for (size_t idx : g.indices) {
      if (g.status.ok()) {
        ok_items++;
        EXPECT_TRUE(idx == 0 || idx == 2) << "ok group must be the a-items";
      } else {
        failed_items++;
        EXPECT_EQ(idx, 1u) << "dropped group must be the b-item";
      }
    }
  }
  EXPECT_EQ(ok_items, 2u);
  EXPECT_EQ(failed_items, 1u);

  // The live owner's items made it regardless of the dead group.
  std::vector<DhtItem> got_a;
  net.dht(sender)->Get("pf", key_a,
                       [&](const Status& s, std::vector<DhtItem> items) {
                         ASSERT_TRUE(s.ok());
                         got_a = std::move(items);
                       });
  net.RunFor(5 * kSecond);
  EXPECT_EQ(got_a.size(), 2u);
}

TEST(DhtCoalesce, MergesSendsAndUnframesTransparently) {
  SimOverlay net(12, SeededOptions(33, /*coalesce_window=*/1000));
  // A burst of puts within one coalescing window: same-destination wire
  // messages merge into bundles, yet every object lands normally.
  int done = 0;
  for (int i = 0; i < 20; ++i) {
    net.dht(4)->Put("cl", "k" + std::to_string(i % 4), "s" + std::to_string(i),
                    "v", 60 * kSecond, [&](const Status& s) {
                      EXPECT_TRUE(s.ok()) << s.ToString();
                      done++;
                    });
  }
  net.RunFor(10 * kSecond);
  EXPECT_EQ(done, 20);

  uint64_t stored = 0, coalesced = 0, bundles = 0;
  for (uint32_t i = 0; i < net.size(); ++i) {
    stored += net.dht(i)->stats().store_requests;
    coalesced += net.dht(i)->router()->stats().coalesced_msgs;
    bundles += net.dht(i)->router()->stats().bundles_sent;
  }
  EXPECT_EQ(stored, 20u);
  EXPECT_GT(coalesced, 0u) << "the burst never shared a bundle";
  EXPECT_GT(bundles, 0u);
  EXPECT_EQ(net.dht(4)->stats().coalesced_msgs,
            net.dht(4)->router()->stats().coalesced_msgs)
      << "Dht::Stats mirrors the router counter";
}

TEST(DhtCoalesce, DisabledByDefault) {
  SimOverlay net(8, SeededOptions(11));
  for (int i = 0; i < 10; ++i)
    net.dht(0)->Put("nc", "k" + std::to_string(i), "s", "v", 60 * kSecond);
  net.RunFor(5 * kSecond);
  for (uint32_t i = 0; i < net.size(); ++i) {
    EXPECT_EQ(net.dht(i)->router()->stats().coalesced_msgs, 0u);
    EXPECT_EQ(net.dht(i)->router()->stats().bundles_sent, 0u);
  }
}

// --- Owner cache ------------------------------------------------------------

/// Routed messages seen anywhere on the ring: a lookup is routed, a warm put
/// is not.
uint64_t RoutedTraffic(SimOverlay* net) {
  uint64_t n = 0;
  for (uint32_t i = 0; i < net->size(); ++i) {
    if (!net->harness()->IsAlive(i)) continue;
    const OverlayRouter::Stats& s = net->dht(i)->router()->stats();
    n += s.routed_forwarded + s.routed_delivered;
  }
  return n;
}

/// Does node `i` store an object (ns, key, suffix)?
bool Holds(SimOverlay* net, uint32_t i, const std::string& ns,
           const std::string& key, const std::string& suffix) {
  for (const ObjectManager::Object* o : net->dht(i)->objects()->Get(ns, key))
    if (o->name.suffix == suffix) return true;
  return false;
}

/// First key "<prefix><n>" whose routing id satisfies `pred`.
template <typename Pred>
std::string FindKey(const std::string& ns, const std::string& prefix,
                    Pred pred) {
  for (int i = 0; i < 1000000; ++i) {
    std::string key = prefix + std::to_string(i);
    if (pred(RoutingId(ns, key))) return key;
  }
  return "";
}

TEST(OwnerCache, WarmPutSkipsRoutedLookupAndLandsAtOwner) {
  SimOverlay net(16, SeededOptions(101));
  int owner = OwnerOf(&net, "oc", "k");
  ASSERT_GE(owner, 0);
  uint32_t sender = owner == 0 ? 1 : 0;
  OverlayRouter* router = net.dht(sender)->router();

  net.dht(sender)->Put("oc", "k", "cold", "v", 60 * kSecond);
  net.RunFor(2 * kSecond);
  EXPECT_EQ(router->stats().lookup_cache_hits, 0u);
  EXPECT_EQ(router->owner_cache_size(), 1u);

  uint64_t routed_before = RoutedTraffic(&net);
  Status done = Status::Internal("not called");
  net.dht(sender)->Put("oc", "k", "warm", "v", 60 * kSecond,
                       [&](const Status& s) { done = s; });
  net.RunFor(2 * kSecond);
  EXPECT_TRUE(done.ok()) << done.ToString();
  EXPECT_EQ(RoutedTraffic(&net), routed_before) << "a warm put was routed";
  EXPECT_EQ(router->stats().lookups_started, 2u) << "every resolve counts";
  EXPECT_EQ(router->stats().lookup_cache_hits, 1u);
  EXPECT_TRUE(Holds(&net, owner, "oc", "k", "warm"));
}

TEST(OwnerCache, RangeWrappingPastZeroHits) {
  SimOverlay net(16, SeededOptions(102));
  // The node with the smallest id owns (largest id, smallest id], the one
  // range that wraps past id 0.
  Id min_id = ~0ULL, max_id = 0;
  uint32_t wrap_owner = 0;
  for (uint32_t i = 0; i < net.size(); ++i) {
    Id id = net.dht(i)->local_id();
    if (id < min_id) {
      min_id = id;
      wrap_owner = i;
    }
    max_id = std::max(max_id, id);
  }
  std::string high = FindKey("wr", "h", [&](Id id) { return id > max_id; });
  std::string low = FindKey("wr", "l", [&](Id id) { return id <= min_id; });
  ASSERT_FALSE(high.empty());
  ASSERT_FALSE(low.empty());
  uint32_t sender = wrap_owner == 0 ? 1 : 0;
  OverlayRouter* router = net.dht(sender)->router();

  net.dht(sender)->Put("wr", high, "s", "v", 60 * kSecond);  // cold
  net.RunFor(2 * kSecond);
  net.dht(sender)->Put("wr", low, "s", "v", 60 * kSecond);   // other side of 0
  net.dht(sender)->Put("wr", high, "s2", "v", 60 * kSecond);
  net.RunFor(2 * kSecond);
  EXPECT_EQ(router->stats().lookup_cache_hits, 2u);
  EXPECT_TRUE(Holds(&net, wrap_owner, "wr", high, "s"));
  EXPECT_TRUE(Holds(&net, wrap_owner, "wr", low, "s"));
  EXPECT_TRUE(Holds(&net, wrap_owner, "wr", high, "s2"));
}

TEST(OwnerCache, ReplicatedBatchFromCachePlacesLikeColdLookup) {
  SimOverlay net(16, SeededOptions(103));
  int owner = OwnerOf(&net, "rb", "k");
  ASSERT_GE(owner, 0);
  uint32_t sender = owner == 0 ? 1 : 0;
  auto item = [](const std::string& suffix) {
    DhtPutItem it = Item("rb", "k", suffix, "v");
    it.replicas = 3;
    return it;
  };
  // An unreplicated put caches the range without successors, which cannot
  // serve a k=3 placement: the first replicated batch still goes over the
  // overlay.
  net.dht(sender)->Put("rb", "k", "plain", "v", 60 * kSecond);
  net.RunFor(2 * kSecond);
  uint64_t hits = net.dht(sender)->router()->stats().lookup_cache_hits;
  net.dht(sender)->PutBatch({item("cold")});
  net.RunFor(2 * kSecond);
  EXPECT_EQ(net.dht(sender)->router()->stats().lookup_cache_hits, hits);
  net.dht(sender)->PutBatch({item("warm1"), item("warm2")});
  net.RunFor(2 * kSecond);
  EXPECT_EQ(net.dht(sender)->router()->stats().lookup_cache_hits, hits + 1);

  std::vector<uint32_t> cold, warm;
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (Holds(&net, i, "rb", "k", "cold")) cold.push_back(i);
    if (Holds(&net, i, "rb", "k", "warm1") &&
        Holds(&net, i, "rb", "k", "warm2"))
      warm.push_back(i);
  }
  EXPECT_EQ(cold.size(), 3u);
  EXPECT_EQ(warm, cold) << "cached successors placed replicas elsewhere";
}

TEST(OwnerCache, JoinInsideCachedRangeDrawsNotOwnerHint) {
  SimOverlay net(16, SeededOptions(104));
  // The next node's address (and so its id) is known before it boots.
  const uint32_t joiner = static_cast<uint32_t>(net.size());
  NetAddress joiner_addr = net.harness()->AddressOf(joiner, kDhtPort);
  Id joiner_id = NodeIdFromAddress(joiner_addr.host, joiner_addr.port);
  // Its successor O owns (P, O] now; after the join it keeps only
  // (joiner, O]. Pick a key in (P, joiner].
  int succ = -1;
  for (uint32_t i = 0; i < net.size(); ++i)
    if (net.dht(i)->router()->protocol()->IsOwner(joiner_id)) succ = i;
  ASSERT_GE(succ, 0);
  Id pred = 0;
  ASSERT_TRUE(net.dht(succ)->router()->protocol()->PredecessorId(&pred));
  std::string key = FindKey("jn", "k", [&](Id id) {
    return InOpenClosed(pred, joiner_id, id);
  });
  ASSERT_FALSE(key.empty());
  uint32_t sender = succ == 0 ? 1 : 0;
  OverlayRouter* router = net.dht(sender)->router();

  // Caches (P, O].
  net.dht(sender)->Put("jn", key, "before", "v", 60 * kSecond);
  net.RunFor(2 * kSecond);
  ASSERT_TRUE(Holds(&net, succ, "jn", key, "before"));

  ASSERT_EQ(net.AddNode(), joiner);
  net.RunFor(10 * kSecond);
  ASSERT_EQ(net.dht(joiner)->local_id(), joiner_id);
  ASSERT_TRUE(
      net.dht(joiner)->router()->protocol()->IsOwner(RoutingId("jn", key)))
      << "the ring did not converge on the joiner";

  // The stale entry still sends the first put to O, which stores it as
  // before and hints back its shrunken range.
  uint64_t hits = router->stats().lookup_cache_hits;
  net.dht(sender)->Put("jn", key, "stale", "v", 60 * kSecond);
  net.RunFor(2 * kSecond);
  EXPECT_EQ(router->stats().lookup_cache_hits, hits + 1);
  EXPECT_TRUE(Holds(&net, succ, "jn", key, "stale"));
  EXPECT_EQ(net.dht(succ)->router()->stats().not_owner_hints_sent, 1u);

  // The next put resolves over the overlay and lands at the joiner.
  net.dht(sender)->Put("jn", key, "after", "v", 60 * kSecond);
  net.RunFor(2 * kSecond);
  EXPECT_EQ(router->stats().lookup_cache_hits, hits + 1);
  EXPECT_TRUE(Holds(&net, joiner, "jn", key, "after"));
  EXPECT_FALSE(Holds(&net, succ, "jn", key, "after"));
  EXPECT_EQ(net.dht(succ)->router()->stats().not_owner_hints_sent, 1u);
}

TEST(OwnerCache, DeadCachedOwnerIsReResolvedToItsSuccessor) {
  SimOverlay net(16, SeededOptions(105));
  int owner = OwnerOf(&net, "dd", "k");
  ASSERT_GE(owner, 0);
  uint32_t sender = owner == 0 ? 1 : 0;
  OverlayRouter* router = net.dht(sender)->router();
  NetAddress owner_addr = net.dht(owner)->local_address();
  net.dht(sender)->PutBatch({Item("dd", "k", "before", "v")});
  net.RunFor(2 * kSecond);

  net.harness()->FailNode(static_cast<uint32_t>(owner));
  Status first = Status::Internal("not called");
  std::vector<Dht::PutGroupStatus> groups;
  net.dht(sender)->PutBatch(
      {Item("dd", "k", "after", "v")},
      [&](const Status& s, std::vector<Dht::PutGroupStatus> g) {
        first = s;
        groups = std::move(g);
      });
  EXPECT_EQ(router->stats().lookup_cache_hits, 1u) << "served from the cache";
  net.RunFor(60 * kSecond);

  // Not a dropped item: the group was retried and delivered.
  EXPECT_TRUE(first.ok()) << first.ToString();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_TRUE(groups[0].status.ok());
  EXPECT_NE(groups[0].owner, owner_addr);
  int new_owner = OwnerOf(&net, "dd", "k");
  ASSERT_GE(new_owner, 0);
  ASSERT_NE(new_owner, owner);
  EXPECT_TRUE(Holds(&net, new_owner, "dd", "k", "after"));

  // The dead owner's entry is gone: a resolve now names the successor.
  EXPECT_GE(router->stats().lookup_cache_evictions, 1u);
  NetAddress resolved;
  router->Lookup(RoutingId("dd", "k"), 0,
                 [&](const Result<OverlayRouter::Owner>& o) {
                   ASSERT_TRUE(o.ok());
                   resolved = o->address;
                 });
  net.RunFor(5 * kSecond);
  EXPECT_EQ(resolved, net.dht(new_owner)->local_address());
}

TEST(OwnerCache, DeadCachedOwnerGetIsReResolvedToItsSuccessor) {
  SimOverlay net(16, SeededOptions(108));
  int owner = OwnerOf(&net, "dg", "k");
  ASSERT_GE(owner, 0);
  uint32_t sender = owner == 0 ? 1 : 0;
  OverlayRouter* router = net.dht(sender)->router();
  net.dht(sender)->Put("dg", "k", "before", "v", 60 * kSecond);
  net.RunFor(2 * kSecond);
  ASSERT_EQ(router->owner_cache_size(), 1u);

  // The owner's successor inherits the id once the owner dies; give it an
  // object of its own so the answer shows which node replied.
  std::vector<NetAddress> succs =
      net.dht(owner)->router()->protocol()->SuccessorSet(1);
  ASSERT_EQ(succs.size(), 1u);
  uint32_t succ = succs[0].host - 1;  // SimHarness: index = host - 1
  ASSERT_NE(succ, sender);
  net.dht(succ)->objects()->Put(ObjectName{"dg", "k", "after"}, "v2",
                                60 * kSecond);

  net.harness()->FailNode(static_cast<uint32_t>(owner));
  uint64_t hits = router->stats().lookup_cache_hits;
  bool called = false;
  Status status = Status::Internal("not called");
  std::vector<DhtItem> got;
  net.dht(sender)->Get("dg", "k",
                       [&](const Status& s, std::vector<DhtItem> items) {
                         called = true;
                         status = s;
                         got = std::move(items);
                       });
  EXPECT_EQ(router->stats().lookup_cache_hits, hits + 1)
      << "the get was not served from the cache";
  net.RunFor(20 * kSecond);

  ASSERT_TRUE(called);
  EXPECT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].suffix, "after");
  EXPECT_EQ(got[0].value, "v2");
  EXPECT_GE(router->stats().lookup_cache_evictions, 1u);
}

TEST(OwnerCache, PrefixRoutingNeverCaches) {
  SimOverlay::Options opts = SeededOptions(106);
  opts.dht.router.protocol = ProtocolKind::kPrefix;
  SimOverlay net(16, opts);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 8; ++i)
      net.dht(3)->Put("px", "k" + std::to_string(i),
                      "s" + std::to_string(round), "v", 60 * kSecond);
    net.RunFor(5 * kSecond);
  }
  for (uint32_t i = 0; i < net.size(); ++i) {
    EXPECT_EQ(net.dht(i)->router()->stats().lookup_cache_hits, 0u);
    EXPECT_EQ(net.dht(i)->router()->owner_cache_size(), 0u);
  }
}

TEST(OwnerCache, NeverGrowsPastCapacity) {
  // More owners than the cache holds: a lookup for each node's own id is
  // answered by that node, so every response is a distinct range.
  const uint32_t n = OverlayRouter::kOwnerCacheCapacity + 16;
  SimOverlay::Options opts = SeededOptions(107);
  opts.settle_time = 100 * kMillisecond;
  SimOverlay net(n, opts);
  OverlayRouter* router = net.dht(0)->router();
  size_t resolved = 0, peak = 0;
  for (uint32_t i = 1; i < n; ++i) {
    router->Lookup(net.dht(i)->local_id(), 0,
                   [&](const Result<OverlayRouter::Owner>& o) {
                     resolved += o.ok();
                     peak = std::max(peak, router->owner_cache_size());
                   });
  }
  net.RunFor(10 * kSecond);
  EXPECT_EQ(resolved, n - 1);
  EXPECT_EQ(peak, OverlayRouter::kOwnerCacheCapacity);
  EXPECT_EQ(router->owner_cache_size(), OverlayRouter::kOwnerCacheCapacity);
  EXPECT_EQ(router->stats().lookup_cache_evictions,
            n - 1 - OverlayRouter::kOwnerCacheCapacity);
}

}  // namespace
}  // namespace pier
