// DHT batching and wire-path tests: PutBatch grouping/ordering/fallback
// semantics, the guard that a Put is exactly a one-item PutBatch on the
// wire, one newData call per store frame, the store-frame decoder against
// cut and garbage frames, the direct get and renew requests (answered at
// the transport's source; cut and garbage requests), their responses (a cut
// one never finishes an op Ok, and one naming an op of the other kind
// finishes nothing) and the router's own frames against cut and
// garbage bodies, the object store (lifetime cap and sweep, exact namespace
// and key ranges, scan order, the liveness rule, newData only for local
// stores), and the router's owner cache (warm puts and gets skip the routed
// lookup, and a warm get or renew costs three datagrams; one reply caches
// the owner's arc and answers every pending lookup it covers; a warm group
// ships before a cold one resolves; a routed frame with no upcall jumps
// once to its cached owner; joins, deaths and the capacity bound keep it
// correct), and object names (one node's clients, operators and PHT
// inserts never mint the same suffix).

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "decoder_fuzz.h"
#include "overlay/dht.h"
#include "overlay/routing_chord.h"
#include "qp/sim_pier.h"
#include "qp/ufl.h"

namespace pier {
namespace {

SimPier::Options SeededOptions(uint64_t seed = 42) {
  SimPier::Options opts;
  opts.sim.seed = seed;
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

/// Send `to` a one-object store frame from `from`, as a copy the store
/// frame's origin and replica index describe.
void ShipCopy(Dht* from, Dht* to, const ObjectName& name, TimeUs lifetime,
              uint8_t replica_index, uint8_t desired_replicas,
              StoreOrigin origin) {
  WireWriter w = Dht::FrameStore(replica_index, origin, 1);
  Dht::EncodeStoreObject(&w, name, lifetime, 0, desired_replicas, "v");
  from->router()->SendFramed(to->local_address(), std::move(w).data(),
                             nullptr);
}

/// The live owner index of (ns, key) under the current routing state.
int OwnerOf(SimPier* net, const std::string& ns, const std::string& key) {
  Id target = RoutingId(ns, key);
  for (uint32_t i = 0; i < net->size(); ++i) {
    if (net->harness()->IsAlive(i) &&
        net->dht(i)->router()->protocol()->IsOwner(target))
      return static_cast<int>(i);
  }
  return -1;
}

/// Does node `i` store an object (ns, key, suffix)?
bool Holds(SimPier* net, uint32_t i, const std::string& ns,
           const std::string& key, const std::string& suffix) {
  for (const ObjectManager::Row* row : net->dht(i)->objects()->Get(ns, key))
    if (row->first.suffix == suffix) return true;
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

/// The index of the node at `addr` (SimHarness: index = host - 1).
uint32_t IndexOf(const NetAddress& addr) { return addr.host - 1; }

/// The index of the node that precedes node `i` on the ring.
uint32_t PredecessorOf(SimPier* net, uint32_t i) {
  RingPeer pred;
  EXPECT_TRUE(net->dht(i)->router()->protocol()->Predecessor(&pred));
  return IndexOf(pred.addr);
}

/// Entries one reply from `owner` leaves in `asker`'s owner cache: the
/// owner's range and one per successor in its arc, but the asker's own.
size_t CachedByOneReply(SimPier* net, uint32_t owner, uint32_t asker) {
  std::vector<RingPeer> arc =
      net->dht(owner)->router()->protocol()->SuccessorSet(
          RoutingProtocol::kMaxSuccessors);
  size_t n = 1;
  for (const RingPeer& p : arc) n += p.addr != net->dht(asker)->local_address();
  return n;
}

TEST(DhtBatch, SplitAcrossTwoOwnersDeliversToBoth) {
  SimPier net(16, SeededOptions());
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
      [&](const Status& s, std::vector<Dht::PutGroupStatus>) {
        done_status = s;
      });
  net.RunFor(5 * kSecond);
  EXPECT_TRUE(done_status.ok()) << done_status.ToString();

  // Both owners hold their share.
  std::vector<DhtItem> got_a, got_b;
  net.dht(9)->Get("bt", key_a,
                  [&](const Status& s, std::vector<DhtItem> items) {
                    ASSERT_TRUE(s.ok());
                    got_a = std::move(items);
                  });
  net.dht(9)->Get("bt", key_b,
                  [&](const Status& s, std::vector<DhtItem> items) {
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
  SimPier net(12, SeededOptions(7));
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
  SimPier net(4, SeededOptions(9));
  bool called = false;
  net.dht(0)->PutBatch({}, [&](const Status& s,
                              std::vector<Dht::PutGroupStatus> groups) {
    EXPECT_TRUE(groups.empty());
    EXPECT_TRUE(s.ok());
    called = true;
  });
  EXPECT_TRUE(called);
  EXPECT_EQ(net.dht(0)->stats().puts, 0u);
}

TEST(DhtBatch, SingletonGroupsAreByteIdenticalToPlainPuts) {
  // With coalescing off and every destination getting exactly one object, a
  // PutBatch sends the very same data frames as the loose Put calls it
  // replaces (each Put is a one-item PutBatch) — byte for byte, message for
  // message — and a one-object frame is not counted as batched. The check
  // reads UdpCc's data frames, not every datagram: ShipBatch sends its
  // frames in the last lookup's dispatch, so which ACKs ride a reply and
  // which go alone differs between the twins.
  SimPier::Options opts = SeededOptions(21);

  SimPier plain(12, opts);
  SimPier batched(12, opts);  // twin sim: same seed, same topology
  std::string key_a = "a0", key_b;
  int owner_a = OwnerOf(&plain, "tw", key_a);
  ASSERT_GE(owner_a, 0);
  for (int i = 1; i < 64 && key_b.empty(); ++i) {
    std::string candidate = "b" + std::to_string(i);
    int owner = OwnerOf(&plain, "tw", candidate);
    if (owner >= 0 && owner != owner_a) key_b = candidate;
  }
  ASSERT_FALSE(key_b.empty());

  // Data frames and their payload bytes first-transmitted by every node.
  auto sent = [](SimPier* net) {
    std::pair<uint64_t, uint64_t> total{0, 0};
    for (uint32_t i = 0; i < net->size(); ++i) {
      const UdpCc::Stats& st = net->dht(i)->router()->transport()->stats();
      total.first += st.msgs_sent;
      total.second += st.bytes_sent;
    }
    return total;
  };
  auto plain_before = sent(&plain), batched_before = sent(&batched);
  ASSERT_EQ(plain_before, batched_before);
  plain.dht(2)->Put("tw", key_a, "s", "value-a", 60 * kSecond);
  plain.dht(2)->Put("tw", key_b, "s", "value-b", 60 * kSecond);
  batched.dht(2)->PutBatch(
      {Item("tw", key_a, "s", "value-a"), Item("tw", key_b, "s", "value-b")});
  plain.RunFor(10 * kSecond);
  batched.RunFor(10 * kSecond);

  auto plain_after = sent(&plain), batched_after = sent(&batched);
  EXPECT_GT(plain_after.first, plain_before.first);
  EXPECT_EQ(plain_after.first, batched_after.first);    // msgs_sent
  EXPECT_EQ(plain_after.second, batched_after.second);  // bytes_sent
  EXPECT_EQ(batched.dht(2)->stats().batched_puts, 0u)
      << "one-object frames must not count as batched";
}

TEST(DhtBatch, PartialFailureReportsPerGroupStatus) {
  SimPier net(16, SeededOptions(77));
  // Two keys with distinct owners; then the second owner dies, so the batch
  // PARTIALLY fails — the report must say exactly which items were dropped,
  // not collapse everything into the first error. The sender has cached the
  // live owner's range, which a lookup reply caches with its successors'
  // ranges, never its predecessor's. The dead owner is that predecessor, so
  // nothing resolves its key: its lookup is lost with that node.
  std::string key_a = "a0";
  int owner_a = OwnerOf(&net, "pf", key_a);
  ASSERT_GE(owner_a, 0);
  uint32_t owner_b = PredecessorOf(&net, owner_a);
  std::string key_b = FindKey("pf", "b", [&](Id id) {
    return net.dht(owner_b)->router()->protocol()->IsOwner(id);
  });
  std::string key_w = FindKey("pf", "w", [&](Id id) {
    return net.dht(owner_a)->router()->protocol()->IsOwner(id);
  });
  ASSERT_FALSE(key_b.empty());
  ASSERT_FALSE(key_w.empty());
  uint32_t sender = 0;
  while (static_cast<int>(sender) == owner_a || sender == owner_b) sender++;
  net.dht(sender)->Put("pf", key_w, "s", "v", 60 * kSecond);
  net.RunFor(2 * kSecond);

  net.harness()->FailNode(owner_b);

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
  // Wait for the report: the dead owner's lookup times out.
  for (int i = 0; i < 60 && !reported; ++i) net.RunFor(kSecond);

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
        EXPECT_TRUE(g.owner.IsNull()) << "an owner was resolved";
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

TEST(DhtBatch, ReplicatedBatchReachesTheOwnersSubscriberAsOneCall) {
  // A k=3 batch of several objects in one namespace rides ONE store frame to
  // the owner, whose batch subscriber sees the whole frame as one call, in
  // batch order. The replica copies at the successors are not newData.
  SimPier net(12, SeededOptions(13));
  int owner = OwnerOf(&net, "nd", "k");
  ASSERT_GE(owner, 0);
  // Per node, the suffixes each newData call carried.
  std::vector<std::vector<std::vector<std::string>>> calls(net.size());
  for (uint32_t i = 0; i < net.size(); ++i) {
    net.dht(i)->OnNewDataBatch(
        "nd", [&calls, i](const std::vector<Dht::NewDataEvent>& events) {
          calls[i].emplace_back();
          for (const Dht::NewDataEvent& e : events)
            calls[i].back().push_back(e.name.suffix);
        });
  }
  std::vector<DhtPutItem> items;
  for (int i = 0; i < 5; ++i) {
    items.push_back(Item("nd", "k", "s" + std::to_string(i), "v"));
    items.back().replicas = 3;
  }
  net.dht((owner + 1) % net.size())->PutBatch(std::move(items));
  net.RunFor(5 * kSecond);

  EXPECT_EQ(calls[owner], (std::vector<std::vector<std::string>>{
                              {"s0", "s1", "s2", "s3", "s4"}}))
      << "one call per frame, in batch order";
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (static_cast<int>(i) == owner) continue;
    EXPECT_TRUE(calls[i].empty()) << "node " << i << " announced a copy";
  }
  EXPECT_EQ(net.dht(owner)->stats().store_requests, 5u);
}

TEST(DhtBatch, AMixedNamespaceFrameIsOneCallPerNamespace) {
  // A store frame whose client writes span namespaces reaches each
  // namespace's subscriber in one call: namespaces in first-seen order, each
  // one's objects in frame order.
  SimPier net(2, SeededOptions(57));
  std::vector<std::string> calls;
  for (const char* ns : {"na", "nb"}) {
    net.dht(1)->OnNewDataBatch(
        ns, [&calls](const std::vector<Dht::NewDataEvent>& events) {
          std::string call;
          for (const Dht::NewDataEvent& e : events)
            call += e.name.ns + "/" + e.name.suffix + " ";
          calls.push_back(call);
        });
  }
  const std::vector<ObjectName> names = {
      {"nb", "k", "s0"}, {"na", "k", "s1"}, {"nb", "k", "s2"}};
  WireWriter w = Dht::FrameStore(0, StoreOrigin::kWrite, names.size());
  for (const ObjectName& name : names)
    Dht::EncodeStoreObject(&w, name, 60 * kSecond, 0, 1, "v");
  net.dht(0)->router()->SendFramed(net.dht(1)->local_address(),
                                   std::move(w).data(), nullptr);
  net.RunFor(500 * kMillisecond);
  EXPECT_EQ(calls, (std::vector<std::string>{"nb/s0 nb/s2 ", "na/s1 "}));
}

/// A store frame of `n` client writes under ("cut", "k"); `ends` receives
/// the frame length after each object.
std::string CutFrame(int n, std::vector<size_t>* ends) {
  WireWriter w = Dht::FrameStore(0, StoreOrigin::kWrite, n);
  for (int i = 0; i < n; ++i) {
    Dht::EncodeStoreObject(&w, ObjectName{"cut", "k", "s" + std::to_string(i)},
                           60 * kSecond, 0, 1, "value-" + std::to_string(i));
    ends->push_back(w.size());
  }
  return std::move(w).data();
}

TEST(StoreFrame, DecoderKeepsWhatDecodedAndDropsTheRest) {
  SimPier net(4, SeededOptions(31));
  Dht* to = net.dht(1);
  OverlayRouter* from = net.dht(0)->router();
  auto stored = [&](const std::string& ns, int i) {
    return to->objects()->Find(ObjectName{ns, "k", "s" + std::to_string(i)}) !=
           nullptr;
  };

  // The frame cut at every byte offset: exactly the objects wholly before
  // the cut are stored.
  std::vector<size_t> ends;
  std::string frame = CutFrame(3, &ends);
  for (size_t cut = 1; cut <= frame.size(); ++cut) {
    to->objects()->DropNamespace("cut");
    from->SendFramed(to->local_address(), frame.substr(0, cut), nullptr);
    net.RunFor(kSecond);
    for (int i = 0; i < 3; ++i)
      EXPECT_EQ(stored("cut", i), ends[i] <= cut)
          << "cut at byte " << cut << ", object " << i;
  }

  // A count above the frame cap is malformed: nothing is stored, not even
  // the well-formed object behind it.
  WireWriter over = Dht::FrameStore(0, StoreOrigin::kWrite,
                                    Dht::kMaxStoreObjectsPerFrame + 1);
  Dht::EncodeStoreObject(&over, ObjectName{"over", "k", "s0"}, 60 * kSecond, 0,
                         1, "v");
  from->SendFramed(to->local_address(), std::move(over).data(), nullptr);
  net.RunFor(kSecond);
  EXPECT_FALSE(stored("over", 0));
  EXPECT_EQ(to->objects()->NamespaceObjects("over"), 0u);

  // Seeded random bodies behind the store type byte: each is decoded or
  // dropped, and the node keeps serving.
  std::mt19937 rng(1234);
  for (int i = 0; i < 1000; ++i) {
    std::string body(1, frame[0]);
    size_t len = rng() % 96;
    for (size_t j = 0; j < len; ++j) body.push_back(static_cast<char>(rng()));
    from->SendFramed(to->local_address(), std::move(body), nullptr);
  }
  net.RunFor(10 * kSecond);
  bool got = false;
  net.dht(0)->Put("after", "k", "s", "v", 60 * kSecond);
  net.RunFor(2 * kSecond);
  net.dht(2)->Get("after", "k",
                  [&](const Status& s, std::vector<DhtItem> items) {
                    got = s.ok() && items.size() == 1;
                  });
  net.RunFor(2 * kSecond);
  EXPECT_TRUE(got);
}

// A get and a renew carry no requester address: each is answered at the
// transport's source. Cut at any byte, neither is answered or changes
// anything; of the seeded garbage bodies, one that is not answered changes
// nothing either.
TEST(DirectRequests, AnswerTheSenderAndIgnoreCutAndGarbageFrames) {
  SimPier net(4, SeededOptions(37));
  Dht* asker = net.dht(0);
  Dht* to = net.dht(1);
  const ObjectName plain{"fz", "k", "s"};
  auto restore = [&] {
    to->StoreLocal(plain, "v", ObjectManager::kMaxLifetime);
  };
  restore();

  // The asker's handlers for the two reply types only record the reply.
  struct Reply {
    uint8_t type;
    NetAddress from;
    std::string body;
  };
  std::vector<Reply> replies;
  for (uint8_t type : {Dht::kMsgGetRespEx, Dht::kMsgRenewResp}) {
    asker->router()->RegisterDirectType(
        type, [&replies, type](const NetAddress& from, std::string_view body) {
          replies.push_back(Reply{type, from, std::string(body)});
        });
  }
  auto state = [&] {
    const ObjectManager::Object* o = to->objects()->Find(plain);
    return std::make_tuple(to->objects()->TotalObjects(),
                           o == nullptr ? TimeUs{-1} : o->expires_at);
  };
  auto ask = [&](uint8_t type, const std::string& body) {
    const size_t before = replies.size();
    const auto was = state();
    WireWriter w = OverlayRouter::FrameMessage(type);
    w.PutRaw(body);
    asker->router()->SendFramed(to->local_address(), std::move(w).data());
    net.RunFor(200 * kMillisecond);
    for (size_t i = before; i < replies.size(); ++i)
      EXPECT_EQ(replies[i].from, to->local_address());
    if (replies.size() > before) return true;
    EXPECT_EQ(state(), was) << "an unanswered request changed the store";
    return false;
  };

  WireWriter get;
  get.PutVarint(77);
  get.PutBytes("fz");
  get.PutBytes("k");
  get.PutU8(0);
  WireWriter renew;
  renew.PutVarint(78);
  renew.PutBytes("fz");
  renew.PutBytes("k");
  renew.PutBytes("s");
  renew.PutVarint(20 * 60 * kSecond);

  // Whole, each request is answered once, at the sender.
  ASSERT_TRUE(ask(Dht::kMsgGetReqEx, get.data()));
  EXPECT_EQ(replies.back().type, Dht::kMsgGetRespEx);
  EXPECT_EQ(replies.back().body.substr(0, 3), std::string("\x4d\x00\x01", 3))
      << "op 77, attempt 0, one item";
  const TimeUs expiry = std::get<1>(state());
  ASSERT_TRUE(ask(Dht::kMsgRenewReq, renew.data()));
  EXPECT_EQ(replies.back().type, Dht::kMsgRenewResp);
  EXPECT_EQ(replies.back().body, std::string("\x4e\x01", 2)) << "op 78, ok";
  EXPECT_LT(std::get<1>(state()), expiry) << "renewed to 20 minutes";
  const size_t answered = replies.size();

  uint64_t seed = 41;
  for (const auto& [type, frame] :
       {std::make_pair(Dht::kMsgGetReqEx, get.data()),
        std::make_pair(Dht::kMsgRenewReq, renew.data())}) {
    size_t cuts = FuzzDecoder(frame, seed++, [&, type = type](
                                                  const std::string& body) {
      bool decoded = ask(type, body);
      if (decoded) restore();  // a renew that decoded may move the lifetime
      return decoded;
    });
    EXPECT_EQ(cuts, 0u) << "type " << int{type};
  }
  EXPECT_GT(replies.size(), answered) << "some garbage bodies decode";
}

// A get response and a renew response, sent through the owner's transport
// against an outstanding get and renew at the asker. Each body goes out
// behind the live op's id. Whole, each finishes its op Ok, the get with
// every item. Cut at any byte, neither finishes its op Ok: a get response
// that does not decode whole is that candidate's failure, never a shorter
// answer. The seeded garbage bodies must only fail cleanly.
TEST(DirectResponses, ACutResponseNeverFinishesAnOpOk) {
  SimPier net(4, SeededOptions(43));
  const int owner = OwnerOf(&net, "fr", "k");
  ASSERT_GE(owner, 0);
  Dht* to = net.dht(owner);
  Dht* asker = net.dht(owner == 0 ? 1 : 0);
  // The owner records each request's op id and answers none.
  uint64_t get_op = 0, renew_op = 0;
  auto record = [&](uint8_t type, uint64_t* op) {
    to->router()->RegisterDirectType(
        type, [op](const NetAddress&, std::string_view body) {
          WireReader r(body);
          if (!r.GetVarint(op).ok()) *op = 0;
        });
  };
  record(Dht::kMsgGetReqEx, &get_op);
  record(Dht::kMsgRenewReq, &renew_op);

  // One op of each kind is outstanding at a time; a finished one is issued
  // again before the next body.
  struct Outcome {
    bool done = true;
    Status status;
    std::vector<DhtItem> items;
  };
  Outcome get, renew;
  auto outstanding = [&](uint8_t type) {
    bool is_get = type == Dht::kMsgGetRespEx;
    Outcome& o = is_get ? get : renew;
    uint64_t& op = is_get ? get_op : renew_op;
    if (!o.done) return op;
    o = Outcome{false, Status::Ok(), {}};
    op = 0;
    if (is_get) {
      asker->Get("fr", "k", [&o](const Status& s, std::vector<DhtItem> items) {
        o = Outcome{true, s, std::move(items)};
      });
    } else {
      asker->Renew("fr", "k", "s", 60 * kSecond,
                   [&o](const Status& s) { o = Outcome{true, s, {}}; });
    }
    for (int i = 0; i < 40 && op == 0; ++i) net.RunFor(50 * kMillisecond);
    return op;
  };
  // Sends `rest` behind the outstanding op's id; true if that finished the
  // op Ok.
  auto answer = [&](uint8_t type, const std::string& rest) {
    uint64_t op = outstanding(type);
    EXPECT_NE(op, 0u) << "the request never reached the owner";
    WireWriter w = OverlayRouter::FrameMessage(type);
    w.PutVarint(op);
    w.PutRaw(rest);
    to->router()->SendFramed(asker->local_address(), std::move(w).data());
    net.RunFor(200 * kMillisecond);
    const Outcome& o = type == Dht::kMsgGetRespEx ? get : renew;
    return o.done && o.status.ok();
  };

  WireWriter items;  // attempt 0, two items
  items.PutU8(0);
  items.PutVarint(2);
  for (const char* suffix : {"s1", "s2"}) {
    items.PutBytes(suffix);
    items.PutBytes("value");
    items.PutVarint(60 * kSecond);
  }
  WireWriter renewed;
  renewed.PutU8(1);

  // Whole, each response finishes its op Ok.
  ASSERT_TRUE(answer(Dht::kMsgGetRespEx, items.data()));
  ASSERT_EQ(get.items.size(), 2u);
  EXPECT_EQ(get.items[1].suffix, "s2");
  ASSERT_TRUE(answer(Dht::kMsgRenewResp, renewed.data()));

  uint64_t seed = 43;
  for (const auto& [type, frame] :
       {std::make_pair(Dht::kMsgGetRespEx, items.data()),
        std::make_pair(Dht::kMsgRenewResp, renewed.data())}) {
    size_t cuts = FuzzDecoder(frame, seed++, [&, type = type](
                                                  const std::string& body) {
      return answer(type, body);
    });
    EXPECT_EQ(cuts, 0u) << "type " << int{type};
  }
}

// A response names only an op id. A get response naming a renew's id, and
// a renew response naming a get's, finish nothing: each op then ends
// TimedOut at Dht::kOpTimeout, as if no answer had come.
TEST(DirectResponses, AResponseFinishesOnlyAnOpOfItsOwnKind) {
  SimPier net(4, SeededOptions(47));
  const int owner = OwnerOf(&net, "fr", "k");
  ASSERT_GE(owner, 0);
  Dht* to = net.dht(owner);
  Dht* asker = net.dht(owner == 0 ? 1 : 0);
  // The owner records each request's op id and answers none.
  uint64_t get_op = 0, renew_op = 0;
  for (auto [type, op] : {std::make_pair(Dht::kMsgGetReqEx, &get_op),
                          std::make_pair(Dht::kMsgRenewReq, &renew_op)}) {
    to->router()->RegisterDirectType(
        type, [op = op](const NetAddress&, std::string_view body) {
          WireReader r(body);
          if (!r.GetVarint(op).ok()) *op = 0;
        });
  }
  const TimeUs start = net.loop()->now();
  bool get_done = false, renew_done = false;
  Status get_status, renew_status;
  asker->Get("fr", "k", [&](const Status& s, std::vector<DhtItem>) {
    get_done = true;
    get_status = s;
  });
  asker->Renew("fr", "k", "s", 60 * kSecond, [&](const Status& s) {
    renew_done = true;
    renew_status = s;
  });
  for (int i = 0; i < 40 && (get_op == 0 || renew_op == 0); ++i)
    net.RunFor(50 * kMillisecond);
  ASSERT_NE(get_op, 0u);
  ASSERT_NE(renew_op, 0u);

  WireWriter empty_get = OverlayRouter::FrameMessage(Dht::kMsgGetRespEx);
  empty_get.PutVarint(renew_op);
  empty_get.PutU8(0);  // attempt 0, no items
  empty_get.PutVarint(0);
  WireWriter renewed = OverlayRouter::FrameMessage(Dht::kMsgRenewResp);
  renewed.PutVarint(get_op);
  renewed.PutU8(1);
  to->router()->SendFramed(asker->local_address(),
                           std::move(empty_get).data());
  to->router()->SendFramed(asker->local_address(), std::move(renewed).data());
  net.RunFor(200 * kMillisecond);
  EXPECT_FALSE(get_done) << "a renew response finished a get";
  EXPECT_FALSE(renew_done) << "a get response finished a renew";

  net.RunFor(start + Dht::kOpTimeout - 100 * kMillisecond - net.loop()->now());
  EXPECT_FALSE(get_done);
  EXPECT_FALSE(renew_done);
  net.RunFor(200 * kMillisecond);
  ASSERT_TRUE(get_done);
  ASSERT_TRUE(renew_done);
  EXPECT_EQ(get_status.code(), StatusCode::kTimedOut) << get_status.ToString();
  EXPECT_EQ(renew_status.code(), StatusCode::kTimedOut)
      << renew_status.ToString();
}

// The router's own frames, sent through a node's transport: a routed frame,
// a lookup request (riding a routed frame to its owner), a lookup response,
// a not-owner hint and a broadcast. Cut at any byte, none is delivered,
// forwarded or answered, and none changes an owner cache; the seeded garbage
// bodies must only fail cleanly. A broadcast's payload runs to the end of
// its frame, so only a cut inside its 16-byte header can be refused here.
TEST(DirectRequests, RouterFramesIgnoreCutAndGarbageFrames) {
  SimPier net(4, SeededOptions(39));
  Dht* asker = net.dht(0);
  Dht* to = net.dht(1);
  const Id asker_id = asker->local_id();
  const Id to_id = to->local_id();
  int broadcasts = 0;
  to->router()->set_broadcast_handler(
      [&broadcasts](std::string_view) { broadcasts++; });

  auto routed = [&] {
    uint64_t n = 0;
    for (uint32_t i = 0; i < net.size(); ++i) {
      const OverlayRouter::Stats& s = net.dht(i)->router()->stats();
      n += s.routed_delivered + s.routed_forwarded + s.upcall_drops;
    }
    return n;
  };
  // Everything else a router frame can change: broadcast handling and
  // fan-out, and either node's owner cache.
  auto state = [&] {
    uint64_t fanned = 0;
    for (uint32_t i = 0; i < net.size(); ++i) {
      const OverlayRouter::Stats& s = net.dht(i)->router()->stats();
      fanned += s.broadcast_frames + s.broadcast_dups;
    }
    return std::make_tuple(fanned, broadcasts,
                           asker->router()->owner_cache_size(),
                           asker->router()->stats().lookup_cache_evictions,
                           to->router()->owner_cache_size(),
                           to->router()->stats().lookup_cache_evictions);
  };
  // Frames `body` as `type` from the asker to `to`; true if it had an
  // effect (a routed lookup request counts only once answered).
  auto send = [&](uint8_t type, const std::string& body, bool lookup) {
    const uint64_t routed_was = routed();
    const auto was = state();
    WireWriter w = OverlayRouter::FrameMessage(type);
    w.PutRaw(body);
    asker->router()->SendFramed(to->local_address(), std::move(w).data());
    net.RunFor(200 * kMillisecond);
    return state() != was || (!lookup && routed() != routed_was);
  };
  auto routed_to_self = [&](const std::string& ns, std::string_view payload,
                            uint8_t hops = 0) {
    WireWriter w;
    w.PutU64(to_id);  // `to` owns its own id
    w.PutU8(hops);
    w.PutBytes(ns);
    w.PutBytes(payload);
    return std::move(w).data();
  };

  const std::string route = routed_to_self("fz", "p");
  // Bit 7 of `hops`: the frame took its one jump to a cached owner; bit 6:
  // the jump's landing node has hinted.
  const std::string shortcut = routed_to_self("fz", "p", 0x80 | 3);
  const std::string hinted = routed_to_self("fz", "p", 0xc0 | 3);
  WireWriter lookup = OverlayRouter::FrameMessage(OverlayRouter::kMsgLookupReq);
  lookup.PutVarint(5);
  lookup.PutU32(asker->local_address().host);
  lookup.PutU16(asker->local_address().port);
  // The asker owns (asker_id - 1000, asker_id]. Its arc names a full
  // successor list of made-up peers past it, each owning 1000 ids.
  std::vector<RingPeer> arc;
  for (uint32_t i = 1; i <= ChordProtocol::kSuccessorListLen + 1; ++i)
    arc.push_back(RingPeer{asker_id + 1000 * i, NetAddress{0x0a000000 + i, 1}});
  auto owner_reply = [&](size_t count, const std::vector<RingPeer>& peers) {
    WireWriter w;
    w.PutVarint(6);
    w.PutU64(asker_id);
    w.PutU32(asker->local_address().host);
    w.PutU16(asker->local_address().port);
    w.PutU8(1);
    w.PutU64(asker_id - 1000);
    w.PutVarint(count);
    for (size_t i = 0; i < count && i < peers.size(); ++i)
      PutPeer(&w, peers[i]);
    return std::move(w).data();
  };
  const size_t full = ChordProtocol::kSuccessorListLen;
  const std::string owner = owner_reply(full, arc);
  const size_t range_end = owner_reply(0, {}).size() - 1;  // before `count`
  WireWriter hint;  // the asker owns nothing it can name
  hint.PutU64(asker_id);
  hint.PutU8(0);
  hint.PutU64(0);
  WireWriter bcast;
  bcast.PutU64(99);
  bcast.PutU64(to_id + 1);  // `to` covers an empty interval: no fan-out
  bcast.PutRaw("payload");

  // Empties both owner caches: every ring node's entry and every made-up
  // peer's.
  auto forget = [&] {
    for (uint32_t i = 0; i < net.size(); ++i) {
      for (Dht* d : {asker, to})
        d->router()->EvictOwner(net.dht(i)->local_id(),
                                net.dht(i)->local_address());
    }
    for (const RingPeer& p : arc) to->router()->EvictOwner(p.id, p.addr);
  };

  // Whole, each frame has its effect once. The asker caches the range and
  // arc `to` answers its lookup with; `to` caches the asker's reply.
  ASSERT_TRUE(send(OverlayRouter::kMsgRoute, route, false));
  const uint64_t hops_was = to->stats().routed_delivery_hops;
  ASSERT_TRUE(send(OverlayRouter::kMsgRoute, shortcut, false));
  EXPECT_EQ(to->stats().routed_delivery_hops, hops_was + 4)
      << "bit 7 counted as hops";
  ASSERT_TRUE(send(OverlayRouter::kMsgRoute, hinted, false));
  EXPECT_EQ(to->stats().routed_delivery_hops, hops_was + 8)
      << "bit 6 counted as hops";
  ASSERT_TRUE(send(OverlayRouter::kMsgRoute,
                   routed_to_self("\x01lookup", lookup.data()), true));
  ASSERT_EQ(asker->router()->owner_cache_size(), CachedByOneReply(&net, 1, 0))
      << "not answered";
  ASSERT_TRUE(send(OverlayRouter::kMsgLookupResp, owner, false));
  ASSERT_EQ(to->router()->owner_cache_size(), 1 + full);
  ASSERT_TRUE(send(OverlayRouter::kMsgNotOwner, hint.data(), false));
  ASSERT_EQ(to->router()->owner_cache_size(), full) << "the hint evicts one";
  ASSERT_TRUE(send(OverlayRouter::kMsgBroadcast, bcast.data(), false));
  ASSERT_EQ(broadcasts, 1);

  // A reply caches its range and then each arc peer that decoded whole, in
  // ring order. A count longer than any successor list caches no arc, and
  // a peer behind the one before it ends the arc (one that skips ahead is
  // a successor list that missed a node, and a not-owner hint narrows it).
  auto cached_at_to = [&](const std::string& body) {
    forget();
    send(OverlayRouter::kMsgLookupResp, body, false);
    return to->router()->owner_cache_size();
  };
  for (size_t len = 0; len < owner.size(); ++len) {
    size_t whole = len > range_end ? (len - range_end - 1) / 14 : 0;
    EXPECT_EQ(cached_at_to(owner.substr(0, len)),
              len < range_end ? 0 : 1 + whole)
        << "cut at " << len;
  }
  EXPECT_EQ(cached_at_to(owner_reply(full + 1, arc)), 1u);
  std::vector<RingPeer> swapped = arc;
  std::swap(swapped[2], swapped[3]);
  EXPECT_EQ(cached_at_to(owner_reply(full, swapped)), 4u);

  // Each decoded body is undone, so the next one starts from the same state:
  // the asker has cached nothing, and `to` has cached the asker's reply.
  auto restore = [&] {
    forget();
    send(OverlayRouter::kMsgLookupResp, owner, false);
  };
  restore();
  uint64_t seed = 51;
  auto sweep = [&](uint8_t type, const std::string& frame, bool is_lookup) {
    return FuzzDecoder(frame, seed++, [&](const std::string& body) {
      bool decoded =
          is_lookup
              ? send(type, routed_to_self("\x01lookup", body), true)
              : send(type, body, false);
      if (decoded) restore();
      return decoded;
    });
  };
  EXPECT_EQ(sweep(OverlayRouter::kMsgRoute, route, false), 0u);
  EXPECT_EQ(sweep(OverlayRouter::kMsgRoute, shortcut, false), 0u);
  EXPECT_EQ(sweep(OverlayRouter::kMsgRoute, hinted, false), 0u);
  EXPECT_EQ(sweep(OverlayRouter::kMsgRoute, lookup.data(), true), 0u);
  EXPECT_EQ(FuzzDecoder(owner, seed++,
                        [&](const std::string& body) {
                          return cached_at_to(body) > 0;
                        }),
            owner.size() - range_end)
      << "only cuts that keep the whole range decode";
  restore();
  EXPECT_EQ(sweep(OverlayRouter::kMsgNotOwner, hint.data(), false), 0u);
  EXPECT_EQ(sweep(OverlayRouter::kMsgBroadcast, bcast.data(), false),
            bcast.data().size() - 16)
      << "only cuts that keep the whole header decode";
}

}  // namespace

// ObjectManager befriends this test (it writes to the store directly), so it
// lives outside the anonymous namespace.

// A put asking for 2 hours is stored for the 30-minute cap. An expired
// object still counts in TotalObjects() until the next 2 s sweep.
TEST(ObjectStore, CapsALongLifetimeAndTheSweepDropsItAfterExpiry) {
  SimOptions opts;
  opts.seed = 12;
  SimHarness sim(opts);
  sim.AddNodes(1);
  ObjectManager store(sim.vri(0));  // sweeps at 2, 4, 6, ... s
  sim.RunFor(kSecond);
  const ObjectName name{"ns", "k", "s"};
  ASSERT_TRUE(store.Put(name, "v", 2 * 60 * 60 * kSecond));
  // Live until 1 s + 30 min = 1,801 s.
  sim.RunFor(30 * 60 * kSecond - 100 * kMillisecond);
  ASSERT_NE(store.Find(name), nullptr);
  EXPECT_EQ(store.Find(name)->expires_at, 1801 * kSecond);
  // At 1,801.5 s it has expired, and the sweep at 1,802 s has not run.
  sim.RunFor(600 * kMillisecond);
  EXPECT_EQ(store.TotalObjects(), 1u);
  // At 1,802.5 s the sweep has dropped it.
  sim.RunFor(kSecond);
  EXPECT_EQ(store.TotalObjects(), 0u);
}

namespace {

// The rows a namespace scan visits, as "key/suffix".
std::vector<std::string> ScanNames(const ObjectManager& store,
                                   const std::string& ns) {
  std::vector<std::string> out;
  store.Scan(ns, [&](const ObjectManager::Row& row) {
    out.push_back(row.first.key + "/" + row.first.suffix);
  });
  return out;
}

// "flows" is a prefix of "flows_by_src", and key "k" of "k2": every read
// and the namespace drop still see exactly their own range, in (key,
// suffix) order.
TEST(ObjectStore, ANamespaceOrKeyThatPrefixesAnotherStaysExact) {
  SimPier net(2, SeededOptions(51));
  Dht* dht = net.dht(0);
  const ObjectManager& store = *dht->objects();
  // Stored out of order; "10" sorts before "9".
  const std::vector<std::pair<std::string, std::string>> names = {
      {"k2", "1"}, {"k", "9"}, {"k2", "0"}, {"k", "10"}};
  for (const char* ns : {"flow", "flows", "flows_by_src"}) {
    for (const auto& [key, suffix] : names)
      dht->StoreLocal(ObjectName{ns, key, suffix}, ns, 60 * kSecond);
  }
  EXPECT_EQ(ScanNames(store, "flows"),
            (std::vector<std::string>{"k/10", "k/9", "k2/0", "k2/1"}));
  std::vector<std::string> got;
  for (const ObjectManager::Row* row : store.Get("flows", "k"))
    got.push_back(row->second.value + ":" + row->first.suffix);
  EXPECT_EQ(got, (std::vector<std::string>{"flows:10", "flows:9"}));
  EXPECT_TRUE(store.Get("flows", "").empty());
  EXPECT_TRUE(store.Get("flows_", "k").empty());
  EXPECT_EQ(store.NamespaceObjects("flows"), 4u);
  EXPECT_EQ(store.NamespaceObjects("flows_by"), 0u);

  dht->objects()->DropNamespace("flows");
  EXPECT_EQ(store.NamespaceObjects("flows"), 0u);
  EXPECT_TRUE(ScanNames(store, "flows").empty());
  EXPECT_EQ(store.NamespaceObjects("flow"), 4u);
  EXPECT_EQ(ScanNames(store, "flows_by_src"),
            (std::vector<std::string>{"k/10", "k/9", "k2/0", "k2/1"}));
  EXPECT_EQ(store.TotalObjects(), 8u);
}

// An expired copy is gone for every read, and Renew fails on it, but it
// stays in the table and its counts until the sweep.
TEST(ObjectStore, AnExpiredCopyIsInvisibleButCountedUntilTheSweep) {
  SimPier net(2, SeededOptions(53));  // sweeps at 2, 4, 6, ... s
  Dht* dht = net.dht(0);
  ObjectManager* store = dht->objects();
  const ObjectName live{"ex", "k", "live"};
  const ObjectName primary{"ex", "k", "primary"};
  const ObjectName replica{"ex", "k", "replica"};
  ASSERT_LT(dht->vri()->Now(), 1100 * kMillisecond);
  dht->StoreLocal(live, "v", 60 * kSecond);
  dht->StoreLocal(primary, "v", 500 * kMillisecond);
  ShipCopy(net.dht(1), dht, replica, 500 * kMillisecond, 1, 2,
           StoreOrigin::kWrite);
  net.RunFor(200 * kMillisecond);
  ASSERT_NE(store->Find(replica), nullptr);

  net.RunFor(1800 * kMillisecond - dht->vri()->Now());
  for (const ObjectName& dead : {primary, replica}) {
    EXPECT_EQ(store->Find(dead), nullptr);
    EXPECT_EQ(store->FindRow(dead), nullptr);
  }
  EXPECT_EQ(ScanNames(*store, "ex"), (std::vector<std::string>{"k/live"}));
  ASSERT_EQ(store->Get("ex", "k").size(), 1u);
  EXPECT_EQ(store->Get("ex", "k")[0]->first, live);
  size_t all = 0;
  store->ScanAll([&](const ObjectManager::Row&) { all++; });
  EXPECT_EQ(all, 1u);
  EXPECT_FALSE(store->Renew(primary, 60 * kSecond).ok());
  EXPECT_FALSE(store->Renew(replica, 60 * kSecond).ok());
  EXPECT_EQ(store->TotalObjects(), 3u);
  EXPECT_EQ(store->NamespaceObjects("ex"), 3u);

  net.RunFor(300 * kMillisecond);  // past the 2 s sweep
  EXPECT_EQ(store->TotalObjects(), 1u);
  EXPECT_EQ(store->NamespaceObjects("ex"), 1u);
}

// A local store announces itself once; replica copies in a store frame are
// stored silently.
TEST(ObjectStore, ALocalStoreIsNewDataOnceAndReplicaCopiesNever) {
  SimPier net(2, SeededOptions(55));
  Dht* dht = net.dht(0);
  std::vector<std::string> seen;
  size_t calls = 0;
  dht->OnNewDataBatch("nd", [&](const std::vector<Dht::NewDataEvent>& evs) {
    calls++;
    for (const Dht::NewDataEvent& e : evs)
      seen.push_back(e.name.suffix + "=" + std::string(e.value));
  });
  dht->StoreLocal(ObjectName{"nd", "k", "local"}, "v", 60 * kSecond);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(seen, (std::vector<std::string>{"local=v"}));

  for (const char* suffix : {"r1", "r2"})
    ShipCopy(net.dht(1), dht, ObjectName{"nd", "k", suffix}, 60 * kSecond, 1,
             3, StoreOrigin::kWrite);
  net.RunFor(500 * kMillisecond);
  EXPECT_EQ(dht->objects()->NamespaceObjects("nd"), 3u);
  EXPECT_EQ(calls, 1u) << "a replica copy was announced";
}

// --- Owner cache ------------------------------------------------------------

/// Routed messages seen anywhere on the ring: a lookup is routed, a warm put
/// is not.
uint64_t RoutedTraffic(SimPier* net) {
  uint64_t n = 0;
  for (uint32_t i = 0; i < net->size(); ++i) {
    if (!net->harness()->IsAlive(i)) continue;
    const OverlayRouter::Stats& s = net->dht(i)->router()->stats();
    n += s.routed_forwarded + s.routed_delivered;
  }
  return n;
}

TEST(OwnerCache, WarmPutSkipsRoutedLookupAndLandsAtOwner) {
  SimPier net(16, SeededOptions(101));
  int owner = OwnerOf(&net, "oc", "k");
  ASSERT_GE(owner, 0);
  uint32_t sender = owner == 0 ? 1 : 0;
  OverlayRouter* router = net.dht(sender)->router();

  net.dht(sender)->Put("oc", "k", "cold", "v", 60 * kSecond);
  net.RunFor(2 * kSecond);
  EXPECT_EQ(router->stats().lookup_cache_hits, 0u);
  EXPECT_EQ(router->owner_cache_size(), CachedByOneReply(&net, owner, sender));

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
  SimPier net(16, SeededOptions(102));
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
  SimPier net(16, SeededOptions(103));
  int owner = OwnerOf(&net, "rb", "k");
  ASSERT_GE(owner, 0);
  std::vector<uint32_t> senders;
  for (uint32_t i = 0; senders.size() < 2; ++i)
    if (static_cast<int>(i) != owner) senders.push_back(i);
  auto item = [](const std::string& suffix) {
    DhtPutItem it = Item("rb", "k", suffix, "v");
    it.replicas = 3;
    return it;
  };
  // One sender places a replicated batch through a routed lookup.
  OverlayRouter* cold_router = net.dht(senders[0])->router();
  net.dht(senders[0])->PutBatch({item("cold")});
  net.RunFor(2 * kSecond);
  EXPECT_EQ(cold_router->stats().lookup_cache_hits, 0u);
  // The other caches the range with an unreplicated put. The owner places
  // the copies, so that entry serves a replicated batch as it is.
  OverlayRouter* warm_router = net.dht(senders[1])->router();
  net.dht(senders[1])->Put("rb", "k", "plain", "v", 60 * kSecond);
  net.RunFor(2 * kSecond);
  uint64_t hits = warm_router->stats().lookup_cache_hits;
  net.dht(senders[1])->PutBatch({item("warm1"), item("warm2")});
  net.RunFor(2 * kSecond);
  EXPECT_EQ(warm_router->stats().lookup_cache_hits, hits + 1);

  std::vector<uint32_t> cold, warm;
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (Holds(&net, i, "rb", "k", "cold")) cold.push_back(i);
    if (Holds(&net, i, "rb", "k", "warm1") &&
        Holds(&net, i, "rb", "k", "warm2"))
      warm.push_back(i);
  }
  EXPECT_EQ(cold.size(), 3u);
  EXPECT_EQ(warm, cold) << "a cache hit placed the copies elsewhere";
}

TEST(OwnerCache, JoinInsideCachedRangeDrawsNotOwnerHint) {
  SimPier net(16, SeededOptions(104));
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
  RingPeer pred;
  ASSERT_TRUE(net.dht(succ)->router()->protocol()->Predecessor(&pred));
  std::string key = FindKey("jn", "k", [&](Id id) {
    return InOpenClosed(pred.id, joiner_id, id);
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

TEST(OwnerCache, AnArcLearnedJoinDrawsNotOwnerHintAndTheNextPutFindsJoiner) {
  SimPier net(16, SeededOptions(110));
  const uint32_t joiner = static_cast<uint32_t>(net.size());
  NetAddress joiner_addr = net.harness()->AddressOf(joiner, kDhtPort);
  Id joiner_id = NodeIdFromAddress(joiner_addr.host, joiner_addr.port);
  // The joiner's successor O owns (P, O] now. The sender learns that range
  // only from P's arc, by a put to a key P owns; the joiner then takes
  // (P, joiner] out of it.
  int succ = -1;
  for (uint32_t i = 0; i < net.size(); ++i)
    if (net.dht(i)->router()->protocol()->IsOwner(joiner_id)) succ = i;
  ASSERT_GE(succ, 0);
  uint32_t pred = PredecessorOf(&net, succ);
  Id pred_id = net.dht(pred)->local_id();
  std::string key = FindKey("ja", "k", [&](Id id) {
    return InOpenClosed(pred_id, joiner_id, id);
  });
  std::string pred_key = FindKey("ja", "p", [&](Id id) {
    return net.dht(pred)->router()->protocol()->IsOwner(id);
  });
  ASSERT_FALSE(key.empty());
  ASSERT_FALSE(pred_key.empty());
  uint32_t sender = 0;
  while (static_cast<int>(sender) == succ || sender == pred) sender++;
  OverlayRouter* router = net.dht(sender)->router();

  net.dht(sender)->Put("ja", pred_key, "s", "v", 60 * kSecond);
  net.RunFor(2 * kSecond);
  NetAddress cached;
  router->Lookup(RoutingId("ja", key),
                 [&](const Result<OverlayRouter::Owner>& o) {
                   ASSERT_TRUE(o.ok() && o->cached);
                   cached = o->address;
                 });
  ASSERT_EQ(cached, net.dht(succ)->local_address())
      << "P's reply did not cache O's range";

  ASSERT_EQ(net.AddNode(), joiner);
  net.RunFor(10 * kSecond);
  ASSERT_TRUE(
      net.dht(joiner)->router()->protocol()->IsOwner(RoutingId("ja", key)))
      << "the ring did not converge on the joiner";

  // The arc's entry still sends the first put to O, which stores it as
  // before and hints back its shrunken range.
  uint64_t hits = router->stats().lookup_cache_hits;
  net.dht(sender)->Put("ja", key, "stale", "v", 60 * kSecond);
  net.RunFor(2 * kSecond);
  EXPECT_EQ(router->stats().lookup_cache_hits, hits + 1);
  EXPECT_TRUE(Holds(&net, succ, "ja", key, "stale"));
  EXPECT_EQ(net.dht(succ)->router()->stats().not_owner_hints_sent, 1u);

  // The next put resolves over the overlay and lands at the joiner.
  net.dht(sender)->Put("ja", key, "after", "v", 60 * kSecond);
  net.RunFor(2 * kSecond);
  EXPECT_EQ(router->stats().lookup_cache_hits, hits + 1);
  EXPECT_TRUE(Holds(&net, joiner, "ja", key, "after"));
  EXPECT_FALSE(Holds(&net, succ, "ja", key, "after"));
  EXPECT_EQ(net.dht(succ)->router()->stats().not_owner_hints_sent, 1u);
}

TEST(OwnerCache, OneReplyCachesTheOwnersArc) {
  SimPier net(16, SeededOptions(111));
  int owner = OwnerOf(&net, "ar", "k");
  ASSERT_GE(owner, 0);
  uint32_t sender = owner == 0 ? 1 : 0;
  Dht* self = net.dht(sender);
  OverlayRouter* router = self->router();
  std::vector<RingPeer> arc =
      net.dht(owner)->router()->protocol()->SuccessorSet(
          RoutingProtocol::kMaxSuccessors);
  ASSERT_EQ(arc.size(), static_cast<size_t>(ChordProtocol::kSuccessorListLen));

  net.dht(sender)->Put("ar", "k", "s", "v", 60 * kSecond);
  net.RunFor(2 * kSecond);
  EXPECT_EQ(router->stats().lookups_started, 1u);
  EXPECT_EQ(router->owner_cache_size(), CachedByOneReply(&net, owner, sender));

  // Each successor's range, (previous id, its id], resolves from the cache
  // at both ends, to that successor.
  const uint64_t routed_before = RoutedTraffic(&net);
  Id lower = net.dht(owner)->local_id();
  size_t asked = 0;
  for (const RingPeer& p : arc) {
    if (p.addr == self->local_address()) {  // the sender's own range
      lower = p.id;
      continue;
    }
    for (Id target : {lower + 1, p.id}) {
      bool answered = false;
      router->Lookup(target, [&](const Result<OverlayRouter::Owner>& o) {
        answered = true;
        EXPECT_TRUE(o.ok() && o->cached);
        EXPECT_EQ(o->address, p.addr);
        EXPECT_EQ(o->id, p.id);
      });
      EXPECT_TRUE(answered) << "not answered from the cache";
      asked++;
    }
    lower = p.id;
  }
  EXPECT_EQ(router->stats().lookup_cache_hits, asked);
  EXPECT_EQ(RoutedTraffic(&net), routed_before);
  // The arc ends at the owner's last successor.
  if (!self->router()->protocol()->IsOwner(lower + 1)) {
    bool answered = false;
    router->Lookup(lower + 1, [&](const Result<OverlayRouter::Owner>&) {
      answered = true;
    });
    EXPECT_FALSE(answered) << "the arc reached past the last successor";
    net.RunFor(2 * kSecond);
    EXPECT_TRUE(answered);
  }
}

TEST(OwnerCache, APendingLookupCompletesAtAReplyThatCoversIt) {
  SimPier net(16, SeededOptions(112));
  int owner = OwnerOf(&net, "cv", "k");
  ASSERT_GE(owner, 0);
  uint32_t sender = owner == 0 ? 1 : 0;
  OverlayRouter* router = net.dht(sender)->router();
  const Id first = RoutingId("cv", "k");
  const Id second = RoutingId("cv", FindKey("cv", "j", [&](Id id) {
    return id != first && net.dht(owner)->router()->protocol()->IsOwner(id);
  }));

  // Two lookups for ids of one owner, both routed at once: whichever reply
  // comes first caches the owner's range and completes the other lookup
  // too, as a cached resolve; the later reply finds nothing pending.
  std::vector<OverlayRouter::Owner> got;
  for (Id target : {first, second}) {
    router->Lookup(target, [&](const Result<OverlayRouter::Owner>& o) {
      ASSERT_TRUE(o.ok());
      got.push_back(*o);
    });
  }
  EXPECT_TRUE(got.empty());
  net.RunFor(2 * kSecond);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(router->stats().lookups_covered, 1u);
  EXPECT_EQ(router->stats().lookups_ok, 2u);
  for (const OverlayRouter::Owner& o : got)
    EXPECT_EQ(o.address, net.dht(owner)->local_address());
  EXPECT_NE(got[0].cached, got[1].cached) << "one routed, one covered";
}

TEST(OwnerCache, AWarmGroupIsStoredBeforeAColdOwnerInItsBatchAnswers) {
  SimPier net(16, SeededOptions(113));
  int warm = OwnerOf(&net, "wc", "w");
  ASSERT_GE(warm, 0);
  // The cold owner is the warm one's predecessor, which no reply from the
  // warm owner covers.
  uint32_t cold = PredecessorOf(&net, warm);
  std::string cold_key = FindKey("wc", "c", [&](Id id) {
    return net.dht(cold)->router()->protocol()->IsOwner(id);
  });
  ASSERT_FALSE(cold_key.empty());
  uint32_t sender = 0;
  while (static_cast<int>(sender) == warm || sender == cold) sender++;
  OverlayRouter* router = net.dht(sender)->router();
  net.dht(sender)->Put("wc", "w", "first", "v", 60 * kSecond);
  net.RunFor(2 * kSecond);

  bool done = false;
  Status status = Status::Internal("not called");
  uint64_t hits = router->stats().lookup_cache_hits;
  net.dht(sender)->PutBatch(
      {Item("wc", cold_key, "cold", "v"), Item("wc", "w", "warm", "v")},
      [&](const Status& s, std::vector<Dht::PutGroupStatus>) {
        done = true;
        status = s;
      });
  EXPECT_EQ(router->stats().lookup_cache_hits, hits + 1);
  for (int ms = 0; ms < 1000 && !Holds(&net, warm, "wc", "w", "warm"); ++ms)
    net.RunFor(kMillisecond);
  ASSERT_TRUE(Holds(&net, warm, "wc", "w", "warm"));
  const OverlayRouter::Stats& st = router->stats();
  EXPECT_EQ(st.lookups_started - st.lookups_ok - st.lookups_failed, 1u)
      << "the cold lookup has answered already";
  EXPECT_FALSE(Holds(&net, cold, "wc", cold_key, "cold"));
  EXPECT_FALSE(done);

  net.RunFor(2 * kSecond);
  EXPECT_TRUE(done);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(Holds(&net, cold, "wc", cold_key, "cold"));
}

TEST(OwnerCache, DeadCachedOwnerIsReResolvedToItsSuccessor) {
  SimPier net(16, SeededOptions(105));
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
  router->Lookup(RoutingId("dd", "k"),
                 [&](const Result<OverlayRouter::Owner>& o) {
                   ASSERT_TRUE(o.ok());
                   resolved = o->address;
                 });
  net.RunFor(5 * kSecond);
  EXPECT_EQ(resolved, net.dht(new_owner)->local_address());
}

TEST(OwnerCache, DeadCachedOwnerGetIsReResolvedToItsSuccessor) {
  SimPier net(16, SeededOptions(108));
  int owner = OwnerOf(&net, "dg", "k");
  ASSERT_GE(owner, 0);
  uint32_t sender = owner == 0 ? 1 : 0;
  OverlayRouter* router = net.dht(sender)->router();
  net.dht(sender)->Put("dg", "k", "before", "v", 60 * kSecond);
  net.RunFor(2 * kSecond);
  ASSERT_EQ(router->owner_cache_size(), CachedByOneReply(&net, owner, sender));

  // The owner's successor inherits the id once the owner dies; give it an
  // object of its own so the answer shows which node replied.
  std::vector<RingPeer> succs =
      net.dht(owner)->router()->protocol()->SuccessorSet(1);
  ASSERT_EQ(succs.size(), 1u);
  uint32_t succ = IndexOf(succs[0].addr);
  ASSERT_NE(succ, sender);
  net.dht(succ)->StoreLocal(ObjectName{"dg", "k", "after"}, "v2",
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

/// Hops a routed frame from node `from` takes to `target`'s owner by the
/// ring alone, following each node's NextHop.
int RingHops(SimPier* net, uint32_t from, Id target) {
  int hops = 0;
  for (uint32_t i = from;
       hops < OverlayRouter::kMaxHops &&
       !net->dht(i)->router()->protocol()->IsOwner(target);
       ++hops)
    i = IndexOf(net->dht(i)->router()->protocol()->NextHop(target));
  return hops;
}

/// A node whose ring path to `target`'s owner takes at least `hops` hops,
/// or -1.
int FarFrom(SimPier* net, Id target, int hops) {
  for (uint32_t i = 0; i < net->size(); ++i)
    if (RingHops(net, i, target) >= hops) return static_cast<int>(i);
  return -1;
}

/// Every node but `except` caches the range that holds `target`.
void WarmEveryCache(SimPier* net, Id target, int except = -1) {
  for (uint32_t i = 0; i < net->size(); ++i)
    if (static_cast<int>(i) != except)
      net->dht(i)->router()->Lookup(target,
                                    [](const Result<OverlayRouter::Owner>&) {});
  net->RunFor(2 * kSecond);
}

/// Routed frames that reached an owner anywhere on the ring, and their hops.
std::pair<uint64_t, uint64_t> RoutedDeliveries(SimPier* net) {
  std::pair<uint64_t, uint64_t> n;
  for (uint32_t i = 0; i < net->size(); ++i) {
    Dht::Stats s = net->dht(i)->stats();
    n.first += s.routed_deliveries;
    n.second += s.routed_delivery_hops;
  }
  return n;
}

uint64_t RouteDeadEnds(SimPier* net) {
  uint64_t n = 0;
  for (uint32_t i = 0; i < net->size(); ++i)
    n += net->dht(i)->router()->stats().route_dead_ends;
  return n;
}

uint64_t NotOwnerHints(SimPier* net) {
  uint64_t n = 0;
  for (uint32_t i = 0; i < net->size(); ++i)
    n += net->dht(i)->router()->stats().not_owner_hints_sent;
  return n;
}

// An equality query's opgraph rides a routed frame to the owner of its key.
// From a node far from that owner on the ring, a warm cache delivers it in
// one hop, and the answer is the same.
TEST(OwnerCache, AWarmEqualityDisseminationIsDeliveredInOneHop) {
  SimPier net(32, SeededOptions(114));
  ASSERT_TRUE(net.catalog()->Register(TableSpec("t").PartitionBy({"k"})).ok());
  Tuple row("t");
  row.Append("k", Value::Int64(7));
  row.Append("v", Value::Int64(70));
  ASSERT_TRUE(net.client(0)->Publish("t", row).ok());
  net.RunFor(1 * kSecond);

  const char* sql = "SELECT * FROM t WHERE k = 7 TIMEOUT 2s";
  auto plan = net.client(0)->Compile(Sql(sql));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->graphs[0].dissem, DissemKind::kEquality);
  const Id target =
      RoutingId(plan->graphs[0].dissem_ns, plan->graphs[0].dissem_key);
  int sender = FarFrom(&net, target, 3);
  ASSERT_GE(sender, 0);
  WarmEveryCache(&net, target);

  const auto before = RoutedDeliveries(&net);
  auto q = net.client(sender)->Query(Sql(sql));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<Tuple> rows = q->Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].Get("v")->int64_unchecked(), 70);
  const auto after = RoutedDeliveries(&net);
  EXPECT_EQ(after.first, before.first + 1);
  EXPECT_EQ(after.second, before.second + 1) << "not one hop";
}

// The joiner takes (P, joiner] out of O's range while every other node still
// caches (P, O]. A frame to the joiner's part jumps to O, which no longer
// owns it and routes it on by the ring. Every later hop also holds the stale
// entry, so a second jump would send the frame back to O; it takes none, and
// O's hint narrows the sender's entry to what O still owns. O is the only
// node that hints: the later ring hops see the frame's hinted bit.
TEST(OwnerCache, AFrameToAJoinersRangeJumpsOnceAndDrawsTheHint) {
  SimPier net(32, SeededOptions(115));
  const uint32_t joiner = static_cast<uint32_t>(net.size());
  NetAddress joiner_addr = net.harness()->AddressOf(joiner, kDhtPort);
  Id joiner_id = NodeIdFromAddress(joiner_addr.host, joiner_addr.port);
  int succ = -1;
  for (uint32_t i = 0; i < net.size(); ++i)
    if (net.dht(i)->router()->protocol()->IsOwner(joiner_id)) succ = i;
  ASSERT_GE(succ, 0);
  const Id pred_id = net.dht(PredecessorOf(&net, succ))->local_id();
  const Id succ_id = net.dht(succ)->local_id();
  const std::string key = FindKey("jf", "k", [&](Id id) {
    return InOpenClosed(pred_id, joiner_id, id);
  });
  ASSERT_FALSE(key.empty());
  const Id target = RoutingId("jf", key);
  WarmEveryCache(&net, target, succ);

  ASSERT_EQ(net.AddNode(), joiner);
  net.RunFor(10 * kSecond);
  ASSERT_TRUE(net.dht(joiner)->router()->protocol()->IsOwner(target))
      << "the ring did not converge on the joiner";
  int sender = FarFrom(&net, target, 2);
  ASSERT_GE(sender, 0);
  ASSERT_NE(sender, succ);
  OverlayRouter* router = net.dht(sender)->router();

  const auto before = RoutedDeliveries(&net);
  const uint64_t forwarded_at_succ =
      net.dht(succ)->router()->stats().routed_forwarded;
  const uint64_t hints = NotOwnerHints(&net);
  net.dht(sender)->SendToId(target, "jf", key, "s", "v", 60 * kSecond);
  net.RunFor(2 * kSecond);
  EXPECT_EQ(NotOwnerHints(&net), hints + 1) << "a later ring hop hinted too";
  EXPECT_TRUE(Holds(&net, joiner, "jf", key, "s"));
  EXPECT_FALSE(Holds(&net, succ, "jf", key, "s"));
  EXPECT_EQ(RoutedDeliveries(&net).first, before.first + 1);
  EXPECT_EQ(net.dht(succ)->router()->stats().routed_forwarded,
            forwarded_at_succ + 1)
      << "the frame reached O more than once";
  EXPECT_EQ(RouteDeadEnds(&net), 0u);

  // The hint narrowed the sender's entry to (joiner, O].
  bool cached = false;
  router->Lookup(target, [&](const Result<OverlayRouter::Owner>& o) {
    cached = o.ok() && o->cached;
  });
  EXPECT_FALSE(cached) << "the stale range still covers the joiner's ids";
  NetAddress owner;
  router->Lookup(succ_id, [&](const Result<OverlayRouter::Owner>& o) {
    if (o.ok() && o->cached) owner = o->address;
  });
  EXPECT_EQ(owner, net.dht(succ)->local_address());
}

// A jump to a dead cached owner fails at the transport's give-up, which has
// evicted the entry; the frame then goes by the ring to the dead owner's
// successor, once.
TEST(OwnerCache, AFrameWhoseCachedOwnerDiedGoesByTheRing) {
  SimPier net(16, SeededOptions(116));
  const Id target = RoutingId("fd", "k");
  const int owner = OwnerOf(&net, "fd", "k");
  ASSERT_GE(owner, 0);
  int sender = FarFrom(&net, target, 2);
  ASSERT_GE(sender, 0);
  OverlayRouter* router = net.dht(sender)->router();
  WarmEveryCache(&net, target);

  net.harness()->FailNode(static_cast<uint32_t>(owner));
  const auto before = RoutedDeliveries(&net);
  net.dht(sender)->SendToId(target, "fd", "k", "s", "v", 60 * kSecond);
  net.RunFor(60 * kSecond);
  const int new_owner = OwnerOf(&net, "fd", "k");
  ASSERT_GE(new_owner, 0);
  ASSERT_NE(new_owner, owner);
  EXPECT_TRUE(Holds(&net, new_owner, "fd", "k", "s"));
  EXPECT_EQ(RoutedDeliveries(&net).first, before.first + 1);
  EXPECT_EQ(RouteDeadEnds(&net), 0u);
  EXPECT_GE(router->stats().lookup_cache_evictions, 1u);
}

// Frames in a namespace with an upcall here keep the ring path, where the
// upcalls combine them, and so do the router's own `\x01` namespaces (a
// routed lookup here). An application namespace from the same node jumps.
TEST(OwnerCache, UpcallAndRouterNamespacesKeepTheRingPath) {
  SimPier net(32, SeededOptions(117));
  std::string key;
  Id target = 0;
  int sender = -1;
  for (int i = 0; sender < 0 && i < 100; ++i) {
    key = "k" + std::to_string(i);
    target = RoutingId("up", key);
    sender = FarFrom(&net, target, 3);
  }
  ASSERT_GE(sender, 0);
  const int ring = RingHops(&net, sender, target);
  OverlayRouter* router = net.dht(sender)->router();
  int upcalls = 0;
  for (uint32_t i = 0; i < net.size(); ++i) {
    net.dht(i)->RegisterUpcall("up", [&](const RouteInfo&, std::string*) {
      upcalls++;
      return UpcallAction::kContinue;
    });
  }
  WarmEveryCache(&net, target);

  auto hops_of = [&](const std::string& ns) {
    const auto before = RoutedDeliveries(&net);
    router->Route(ns, target, "p");
    net.RunFor(1 * kSecond);
    const auto after = RoutedDeliveries(&net);
    EXPECT_EQ(after.first, before.first + 1) << ns;
    return after.second - before.second;
  };
  EXPECT_EQ(hops_of("up"), static_cast<uint64_t>(ring));
  EXPECT_EQ(upcalls, ring - 1);
  EXPECT_EQ(hops_of("app"), 1u);

  // A routed lookup from a node that has not cached the owner passes only
  // through nodes that have: each forwards it by the ring.
  Dht* owner = net.dht(OwnerOf(&net, "up", key));
  router->EvictOwner(owner->local_id(), owner->local_address());
  const uint64_t routed_before = RoutedTraffic(&net);
  NetAddress resolved;
  router->Lookup(target, [&](const Result<OverlayRouter::Owner>& o) {
    ASSERT_TRUE(o.ok() && !o->cached);
    resolved = o->address;
  });
  net.RunFor(1 * kSecond);
  EXPECT_EQ(resolved, owner->local_address());
  EXPECT_EQ(RoutedTraffic(&net), routed_before + ring);
}

TEST(OwnerCache, NeverGrowsPastCapacity) {
  // More owners than the cache holds: a lookup for each node's own id is
  // answered by that node, or by an earlier reply whose range or arc holds
  // that id, so every node's range but the asker's is cached at least once.
  const uint32_t n = OverlayRouter::kOwnerCacheCapacity + 16;
  SimPier::Options opts = SeededOptions(107);
  opts.settle_time = 100 * kMillisecond;
  SimPier net(n, opts);
  OverlayRouter* router = net.dht(0)->router();
  size_t resolved = 0, peak = 0;
  for (uint32_t i = 1; i < n; ++i) {
    router->Lookup(net.dht(i)->local_id(),
                   [&, i](const Result<OverlayRouter::Owner>& o) {
                     resolved +=
                         o.ok() && o->address == net.dht(i)->local_address();
                     peak = std::max(peak, router->owner_cache_size());
                   });
  }
  net.RunFor(10 * kSecond);
  EXPECT_EQ(resolved, n - 1);
  EXPECT_EQ(peak, OverlayRouter::kOwnerCacheCapacity);
  EXPECT_EQ(router->owner_cache_size(), OverlayRouter::kOwnerCacheCapacity);
  // n - 1 distinct ranges passed through the cache; an arc may also cache
  // again a range evicted before, which costs one more eviction.
  EXPECT_GE(router->stats().lookup_cache_evictions,
            n - 1 - OverlayRouter::kOwnerCacheCapacity);
  EXPECT_GT(router->stats().lookups_covered, 0u);
}

// A reply sent from inside its request's handler carries that request's ACK
// (UdpCC frame type 2), so a warm get and a renew each cost three datagrams:
// the request, the reply with the ACK, and the reply's own ACK, which goes
// out as the reply is handled. A layer that held the reply past its handler
// would make it four. Ring maintenance only adds datagrams, so the cheapest
// of several tries is the exchange alone.
TEST(OwnerCache, AWarmGetAndARenewCostThreeDatagrams) {
  SimPier net(8, SeededOptions(43));
  Dht* asker = net.dht(0);
  const std::string key = FindKey("ak", "k", [&](Id id) {
    return !asker->router()->protocol()->IsOwner(id);
  });
  Dht* owner = net.dht(OwnerOf(&net, "ak", key));
  auto datagrams = [&] {
    const UdpCc::Stats& a = asker->router()->transport()->stats();
    const UdpCc::Stats& o = owner->router()->transport()->stats();
    return a.msgs_sent + a.acks_sent + o.msgs_sent + o.acks_sent;
  };
  // Starts an operation, runs until it is done, and returns the datagrams
  // sent meanwhile.
  auto cost = [&](const std::function<void(bool*)>& start) {
    const uint64_t before = datagrams();
    bool done = false;
    start(&done);
    for (int ms = 0; ms < 1000 && !done; ++ms) net.RunFor(kMillisecond);
    EXPECT_TRUE(done);
    return datagrams() - before;
  };
  auto get = [&](bool* done) {
    asker->Get("ak", key, [done](const Status& s, std::vector<DhtItem> items) {
      EXPECT_TRUE(s.ok() && items.size() == 1) << s.ToString();
      *done = true;
    });
  };
  auto renew = [&](bool* done) {
    asker->Renew("ak", key, "s", 60 * kSecond, [done](const Status& s) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      *done = true;
    });
  };
  asker->Put("ak", key, "s", "v", 60 * kSecond);
  net.RunFor(1 * kSecond);
  uint64_t get_cost = UINT64_MAX, renew_cost = UINT64_MAX;
  for (int i = 0; i < 8; ++i) {
    get_cost = std::min(get_cost, cost(get));
    renew_cost = std::min(renew_cost, cost(renew));
    net.RunFor((37 + 53 * i) * kMillisecond);  // a new phase of maintenance
  }
  EXPECT_EQ(get_cost, 3u);
  EXPECT_EQ(renew_cost, 3u);
}

// Every writer on a node names its objects with Dht::NextSuffix: two
// clients, a running query's put and the PHT inserts of a range index all
// draw from one sequence, so none of their objects replaces another's.
TEST(DhtSuffix, NeverRepeatsAcrossClientsOperatorsAndPhtInserts) {
  SimPier::Options opts;
  opts.sim.seed = 61;
  SimPier net(4, opts);
  ASSERT_TRUE(net.catalog()->Register(TableSpec("lt").LocalOnly()).ok());
  ASSERT_TRUE(net.catalog()
                  ->Register(TableSpec("r").PartitionBy({"k"}).RangeIndex("v"))
                  .ok());
  PierClient second(net.qp(0), net.catalog());
  constexpr int kPerClient = 3;
  int next = 0;
  for (PierClient* client : {net.client(0), &second}) {
    for (int i = 0; i < kPerClient; ++i, ++next) {
      Tuple t("lt");
      t.Append("k", Value::Int64(1));  // one key for every local row
      ASSERT_TRUE(client->Publish("lt", t).ok());
      Tuple r("r");
      r.Append("k", Value::Int64(next));
      r.Append("v", Value::Int64(next));
      ASSERT_TRUE(client->Publish("r", r).ok());
    }
  }
  net.RunFor(2 * kSecond);

  // An operator on the same node copies every local row under one key.
  auto copy = ParseUfl(
      "query { timeout = 10s; }\n"
      "graph g1 local {\n"
      "  src: scan [ns=lt];\n"
      "  out: put [ns=\"q77.copy\", key=k];\n"
      "  src -> out;\n"
      "}\n");
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  copy->query_id = 77;
  ASSERT_TRUE(net.client(0)->Query(std::move(*copy)).ok());
  net.RunFor(2 * kSecond);

  const std::string tail =
      "@" + std::to_string(net.dht(0)->local_address().host);
  std::vector<std::string> minted;
  for (uint32_t i = 0; i < net.size(); ++i) {
    for (const char* ns : {"lt", "r", "r_rng_v", "q77.copy"}) {
      net.dht(i)->LocalScan(
          ns, [&](const ObjectName& name, std::string_view, TimeUs) {
            const std::string& sfx = name.suffix;
            if (sfx.size() > tail.size() &&
                sfx.compare(sfx.size() - tail.size(), tail.size(), tail) == 0)
              minted.push_back(sfx);
          });
    }
  }
  // Local rows, their copies, primary rows and PHT items: 2 x 3 of each.
  constexpr size_t kWrites = 4 * 2 * kPerClient;
  EXPECT_EQ(minted.size(), kWrites);
  EXPECT_EQ(std::set<std::string>(minted.begin(), minted.end()).size(),
            minted.size())
      << "a suffix was minted twice";
}

}  // namespace
}  // namespace pier
