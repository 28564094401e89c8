// Chord maintenance: a quiet ring goes quiet, and a changed ring reacts.
// A seeded ring never re-runs its join, sends no Notify or Ping, answers
// each stabilize in the one-byte unchanged form, and backs its finger repair
// off to the cap; a changed neighbour list is sent in full and a dead entry
// leaves it as fast as before; a dead predecessor is dropped within
// check_pred_period + rpc_timeout plus one tick of jitter; a dead neighbour
// snaps the finger loop back to its base period, and after the ring goes
// quiet again each node still runs exactly one finger loop. Truncated or
// corrupted Chord frames change nothing, and an unanswered request is sent
// once more before its RPC fails.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "decoder_fuzz.h"
#include "overlay/routing_chord.h"
#include "qp/sim_pier.h"
#include "util/hash.h"
#include "util/wire.h"

namespace pier {
namespace {

SimPier::Options Seeded(uint64_t seed) {
  SimPier::Options opts;
  opts.sim.seed = seed;
  opts.seed_routing = true;
  opts.settle_time = 1 * kSecond;
  return opts;
}

ChordProtocol* Chord(SimPier* net, uint32_t i) {
  return static_cast<ChordProtocol*>(net->dht(i)->router()->protocol());
}

/// Node index behind an address (SimHarness maps index <-> host - 1).
uint32_t NodeOf(const NetAddress& a) { return a.host - 1; }

/// Index of node `i`'s predecessor.
uint32_t PredecessorOf(SimPier* net, uint32_t i) {
  return NodeOf(Chord(net, i)->predecessor().addr);
}

const ChordProtocol::Options kDefaults;

TEST(Chord, SeededRingMakesNoJoinsAndOnlyStabilizeTraffic) {
  constexpr uint32_t kNodes = 64;
  SimPier net(kNodes, Seeded(3));
  net.RunFor(20 * kSecond);  // let the finger loops back off

  std::vector<ChordProtocol::Counters> before;
  std::vector<UdpCc::Stats> net_before;
  for (uint32_t i = 0; i < kNodes; ++i) {
    before.push_back(Chord(&net, i)->counters());
    net_before.push_back(net.dht(i)->router()->transport()->stats());
  }
  constexpr TimeUs kWindow = 60 * kSecond;
  net.RunFor(kWindow);

  // Each stabilize is one GetNbrs exchange: a request from this node and a
  // reply to its predecessor's, two frames per stabilize_period on average.
  // The 1% covers the sampling noise of 7,680 jittered ticks (sd ~0.2%).
  const double exchange_frames =
      1.01 * 2.0 * kWindow / kDefaults.stabilize_period;
  uint64_t frames = 0, bytes = 0, unchanged = 0, datagrams = 0;
  for (uint32_t i = 0; i < kNodes; ++i) {
    const ChordProtocol::Counters& now = Chord(&net, i)->counters();
    EXPECT_EQ(now.join_resolves, before[i].join_resolves)
        << "node " << i << " re-ran its join on a seeded ring";
    EXPECT_EQ(now.notifies_sent, before[i].notifies_sent) << "node " << i;
    EXPECT_EQ(now.pings_sent, before[i].pings_sent) << "node " << i;
    EXPECT_EQ(now.nbrs_full, before[i].nbrs_full)
        << "node " << i << " was sent a full neighbour list on a quiet ring";
    frames += now.frames_sent - before[i].frames_sent;
    bytes += now.bytes_sent - before[i].bytes_sent;
    unchanged += now.nbrs_unchanged - before[i].nbrs_unchanged;
    const UdpCc::Stats& st = net.dht(i)->router()->transport()->stats();
    datagrams += st.msgs_sent + st.acks_sent -
                 net_before[i].msgs_sent - net_before[i].acks_sent;
  }
  double per_node = static_cast<double>(frames) / kNodes;
  EXPECT_LE(per_node, exchange_frames)
      << "Chord sent more than stabilize's GetNbrs exchange per node";

  // Every reply is the one-byte unchanged form: each node's exchanges in the
  // window, give or take the one in flight at either edge.
  const double exchanges = frames / 2.0;
  EXPECT_GE(unchanged + kNodes, exchanges);
  // An exchange is a request (header, digest u64) and an unchanged reply
  // (header, one byte). A header is the sender id u64, the subtype u8 and a
  // nonce varint, at most 3 bytes for the nonces a node reaches here. It was
  // 23 + 151 bytes when the header carried the sender's address and a fixed
  // 8-byte nonce and every reply the whole list.
  constexpr double kHeader = 8 + 1 + 3;
  EXPECT_LE(bytes / exchanges, 2 * kHeader + 8 + 1);
  // Two datagrams: the request and the reply carrying its ACK, which is a
  // UdpCC reply and so acknowledged by nothing; the edges of the window may
  // cut an exchange.
  EXPECT_LE(datagrams, 2 * exchanges + kNodes);
}

TEST(Chord, ChangedNeighboursAreSentInFullAndADeadEntryAgesOutAsBefore) {
  constexpr uint32_t kNodes = 16;
  SimPier net(kNodes, Seeded(13));
  net.RunFor(10 * kSecond);
  const uint32_t node = 6;
  const std::vector<ChordProtocol::Peer> list = Chord(&net, node)->successors();
  ASSERT_GE(list.size(), 2u);
  const uint32_t succ = NodeOf(list[0].addr);
  const uint32_t victim = NodeOf(list[1].addr);  // two hops ahead
  auto lists = [&](uint32_t i, uint32_t whom) {
    for (const ChordProtocol::Peer& p : Chord(&net, i)->successors())
      if (p.addr == net.dht(whom)->local_address()) return true;
    return false;
  };
  ASSERT_GT(Chord(&net, node)->counters().nbrs_unchanged, 0u);

  net.harness()->FailNode(victim);
  const TimeUs killed = net.loop()->now();
  // The successor drops the victim when its stabilize RPC times out, within
  // one jittered tick plus rpc_timeout (src/overlay/README.md, "Detection
  // bounds"). Replies it built before that still list the victim and may be
  // the unchanged form.
  while (lists(succ, victim) && net.loop()->now() - killed < 10 * kSecond)
    net.RunFor(5 * kMillisecond);
  ASSERT_FALSE(lists(succ, victim));
  const TimeUs succ_dropped = net.loop()->now() - killed;
  EXPECT_LE(succ_dropped, kDefaults.stabilize_period * 5 / 4 +
                              kDefaults.rpc_timeout + 50 * kMillisecond);
  const ChordProtocol::Counters at_drop = Chord(&net, node)->counters();
  while (lists(node, victim) &&
         net.loop()->now() - killed < succ_dropped + 5 * kSecond)
    net.RunFor(5 * kMillisecond);
  ASSERT_FALSE(lists(node, victim)) << "the dead entry never left the list";
  const ChordProtocol::Counters& now = Chord(&net, node)->counters();
  // The first reply the successor built after its list changed is the full
  // form, and it removes the entry: the node takes no more rounds than when
  // every reply carried the whole list. At most one reply was in flight when
  // the successor dropped the victim.
  EXPECT_LE(net.loop()->now() - killed - succ_dropped,
            kDefaults.stabilize_period * 5 / 4 + 50 * kMillisecond);
  EXPECT_EQ(now.nbrs_full, at_drop.nbrs_full + 1);
  EXPECT_LE(now.nbrs_unchanged, at_drop.nbrs_unchanged + 1);
  // The list stays full: the next node along takes the dead entry's place.
  EXPECT_EQ(Chord(&net, node)->successors().size(), list.size());
}

/// Records what one Chord instance sends; nothing is delivered, so every
/// RPC stays pending until the test answers it.
struct RecordingHost : ProtocolHost {
  SimHarness* sim = nullptr;
  Id id = 0;
  NetAddress addr;
  std::vector<std::pair<NetAddress, std::string>> sent;

  void SendProtocolMessage(const NetAddress& to, std::string payload,
                           std::function<void(const Status&)>) override {
    sent.emplace_back(to, std::move(payload));
  }
  void ReplyProtocolMessage(const NetAddress& to,
                            std::string_view payload) override {
    sent.emplace_back(to, std::string(payload));
  }
  Vri* vri() override { return sim->vri(0); }
  Id local_id() const override { return id; }
  NetAddress local_address() const override { return addr; }
};

std::string ChordFrame(Id sender, uint8_t subtype, uint64_t nonce,
                       std::string_view body) {
  WireWriter w;
  w.PutU64(sender);
  w.PutU8(subtype);
  w.PutVarint(nonce);
  w.PutRaw(body);
  return std::move(w).data();
}

/// The nonce in a recorded Chord frame's header (0 if it has none).
uint64_t NonceOf(const std::string& frame) {
  WireReader r(frame);
  Id id;
  uint8_t subtype;
  uint64_t nonce = 0;
  if (!r.GetU64(&id).ok() || !r.GetU8(&subtype).ok() ||
      !r.GetVarint(&nonce).ok())
    return 0;
  return nonce;
}

/// Every routing entry, comparable.
std::vector<std::pair<Id, uint32_t>> ContactView(const ChordProtocol& chord) {
  std::vector<std::pair<Id, uint32_t>> view;
  for (const ChordProtocol::Peer& p : chord.Contacts())
    view.emplace_back(p.id, p.addr.host);
  return view;
}

/// Successors and predecessor, comparable.
std::vector<std::pair<Id, uint32_t>> RingView(const ChordProtocol& chord) {
  std::vector<std::pair<Id, uint32_t>> view;
  view.emplace_back(chord.predecessor().id, chord.predecessor().addr.host);
  for (const ChordProtocol::Peer& p : chord.successors())
    view.emplace_back(p.id, p.addr.host);
  return view;
}

TEST(Chord, HostileFramesAndNeighbourRepliesChangeNothing) {
  SimOptions sim_opts;
  sim_opts.seed = 21;
  SimHarness sim(sim_opts);
  sim.AddNodes(1);
  RecordingHost host;
  host.sim = &sim;
  host.id = 1000;
  host.addr = NetAddress{1, 7000};
  // Stabilize often; nothing else runs or times out during the test.
  ChordProtocol::Options opts;
  opts.stabilize_period = 10 * kMillisecond;
  opts.fix_finger_period = opts.check_pred_period = opts.rpc_timeout =
      3600 * kSecond;
  ChordProtocol chord(&host, opts);
  std::vector<ChordProtocol::Peer> ring;
  for (Id i = 0; i < 6; ++i)
    ring.push_back(
        {1000 * (i + 1), NetAddress{static_cast<uint32_t>(i + 1), 7000}});
  chord.Start(NetAddress{});
  chord.SeedRoutingState(ring);
  const ChordProtocol::Peer self = ring[0], succ0 = ring[1], pred = ring[5];

  // The successor's full reply: its predecessor (this node) and the rest of
  // the ring.
  WireWriter full_w;
  full_w.PutU8(1);
  PutPeer(&full_w, self);
  full_w.PutU8(4);
  for (size_t i = 2; i < ring.size(); ++i) PutPeer(&full_w, ring[i]);
  const std::string full = std::move(full_w).data();
  const std::string unchanged(
      1, static_cast<char>(ChordProtocol::kNbrsUnchanged));

  // Runs until the next GetNbrs request goes out and returns its nonce;
  // `digest` gets the request's digest.
  uint64_t digest = 0;
  auto next_request = [&]() {
    size_t seen = host.sent.size();
    uint64_t nonce = 0;
    for (int step = 0; step < 100 && nonce == 0; ++step) {
      sim.RunFor(kMillisecond);
      for (size_t i = seen; i < host.sent.size(); ++i) {
        WireReader r(host.sent[i].second);
        Id id;
        uint8_t subtype;
        if (r.GetU64(&id).ok() && r.GetU8(&subtype).ok() &&
            subtype == ChordProtocol::kGetNbrs && r.GetVarint(&nonce).ok() &&
            r.GetU64(&digest).ok()) {
          EXPECT_EQ(host.sent[i].first, succ0.addr);
          EXPECT_TRUE(r.AtEnd());
        }
      }
    }
    EXPECT_NE(nonce, 0u) << "no GetNbrs request went out";
    return nonce;
  };
  // Answers request `nonce` with `body`; reports whether it was applied.
  auto reply = [&](uint64_t nonce, std::string_view body) {
    const ChordProtocol::Counters before = chord.counters();
    size_t seen = host.sent.size();
    chord.HandleProtocolMessage(
        succ0.addr,
        ChordFrame(succ0.id, ChordProtocol::kGetNbrsResp, nonce, body));
    const ChordProtocol::Counters& after = chord.counters();
    bool applied = after.nbrs_full + after.nbrs_unchanged >
                   before.nbrs_full + before.nbrs_unchanged;
    if (!applied) {
      EXPECT_EQ(host.sent.size(), seen) << "sent on a bad reply";
    }
    return applied;
  };
  auto answer = [&](std::string_view body) {
    return reply(next_request(), body);
  };

  ASSERT_TRUE(answer(full));
  EXPECT_EQ(digest, 0u) << "the first request holds no reply";
  const auto view = RingView(chord);
  ASSERT_EQ(view.size(), ring.size());
  ASSERT_TRUE(answer(unchanged));
  EXPECT_EQ(digest, Fnv1a64(full) | 1);
  EXPECT_EQ(chord.counters().nbrs_unchanged, 1u);

  // "Unchanged" stands for the body its request named: once a later full
  // reply (here: the successor lost its predecessor) has replaced that body,
  // an unchanged reply to the earlier request is ignored.
  const uint64_t early = next_request();
  const uint64_t late = next_request();
  std::string other = full;
  other[0] = 0;
  ASSERT_TRUE(reply(late, other));
  EXPECT_FALSE(reply(early, unchanged));
  ASSERT_TRUE(answer(full));
  EXPECT_EQ(RingView(chord), view);

  // Both reply forms, cut at every byte and corrupted: a body that does not
  // decode changes nothing. One that does is undone with the full reply.
  uint64_t seed = 31;
  for (const std::string& form : {full, unchanged}) {
    size_t cuts = FuzzDecoder(form, seed++, [&](const std::string& body) {
      bool applied = answer(body);
      if (!applied) {
        EXPECT_EQ(RingView(chord), view);
      } else {
        EXPECT_TRUE(answer(full));
      }
      return applied;
    });
    EXPECT_EQ(cuts, 0u);
  }
  EXPECT_EQ(RingView(chord), view);

  // Requests from the predecessor, through HandleProtocolMessage: a cut
  // frame is not answered, and no frame, cut or corrupted, touches the
  // successor list.
  WireWriter target;
  target.PutU64(4500);
  WireWriter no_digest;
  no_digest.PutU64(0);
  for (const std::string& frame :
       {ChordFrame(pred.id, ChordProtocol::kGetNbrs, 7, no_digest.data()),
        ChordFrame(pred.id, ChordProtocol::kFindSucc, 8, target.data()),
        ChordFrame(pred.id, ChordProtocol::kPing, 300, {})}) {
    size_t cuts = FuzzDecoder(frame, seed++, [&](const std::string& body) {
      size_t seen = host.sent.size();
      chord.HandleProtocolMessage(pred.addr, body);
      return host.sent.size() > seen;
    });
    EXPECT_EQ(cuts, 0u);
    EXPECT_EQ(chord.successors().size(), ring.size() - 1);
  }

  // A resolve's reply, each answering a fresh resolve through the successor.
  // A cut one fails its resolve and changes no routing entry.
  WireWriter found_w;
  found_w.PutU8(1);
  PutPeer(&found_w, ring[3]);
  const std::string found = std::move(found_w).data();
  size_t cuts = FuzzDecoder(found, seed++, [&](const std::string& body) {
    const size_t seen = host.sent.size();
    bool called = false, ok = false;
    chord.ResolveSuccessor(3500, succ0.addr,
                           [&](const Result<ChordProtocol::Peer>& r) {
                             called = true;
                             ok = r.ok();
                           });
    EXPECT_EQ(host.sent.size(), seen + 1);
    const auto before = ContactView(chord);
    chord.HandleProtocolMessage(
        succ0.addr, ChordFrame(succ0.id, ChordProtocol::kFindSuccResp,
                               NonceOf(host.sent[seen].second), body));
    if (found.compare(0, body.size(), body) == 0) {
      EXPECT_TRUE(called && !ok) << "a cut reply must fail its resolve";
    }
    if (called && !ok) {
      EXPECT_EQ(ContactView(chord), before);
    }
    return ok;
  });
  EXPECT_EQ(cuts, 0u);

  // A pong is a bare header. Cut, it completes no RPC: here, the resolve its
  // nonce names.
  bool completed = false;
  const size_t resolve_at = host.sent.size();
  chord.ResolveSuccessor(3500, succ0.addr,
                         [&](const Result<ChordProtocol::Peer>&) {
                           completed = true;
                         });
  const std::string pong =
      ChordFrame(succ0.id, ChordProtocol::kPong,
                 NonceOf(host.sent[resolve_at].second), {});
  cuts = FuzzDecoder(pong, seed++, [&](const std::string& frame) {
    const bool before = completed;
    chord.HandleProtocolMessage(succ0.addr, frame);
    return completed && !before;
  });
  EXPECT_EQ(cuts, 0u);

  // A Notify from a node between the predecessor and this one moves the
  // predecessor; cut, it changes nothing. A moved predecessor is reset, as
  // is whatever the corrupted frames above moved.
  chord.SeedRoutingState(ring);
  const NetAddress newcomer{9, 7000};
  const std::string notify = ChordFrame(500, ChordProtocol::kNotify, 0, {});
  cuts = FuzzDecoder(notify, seed++, [&](const std::string& frame) {
    chord.HandleProtocolMessage(newcomer, frame);
    if (chord.predecessor().addr == pred.addr) return false;
    chord.SeedRoutingState(ring);
    return true;
  });
  EXPECT_EQ(cuts, 0u);
  chord.HandleProtocolMessage(newcomer, notify);
  EXPECT_EQ(chord.predecessor().addr, newcomer) << "the whole frame is valid";
}

// UdpCC never retransmits a reply, so the RPC layer recovers a lost one: a
// request still unanswered at rpc_timeout / 2 goes out once more under the
// same nonce, and an answer to it completes the RPC with no peer removed.
// Unanswered, the RPC still fails at rpc_timeout, the detection bounds' term.
TEST(Chord, AnUnansweredRequestIsResentOnceUnderItsNonce) {
  SimOptions sim_opts;
  sim_opts.seed = 23;
  SimHarness sim(sim_opts);
  sim.AddNodes(1);
  RecordingHost host;
  host.sim = &sim;
  host.id = 1000;
  host.addr = NetAddress{1, 7000};
  ChordProtocol::Options opts;  // only the RPC's own timer runs
  opts.stabilize_period = opts.fix_finger_period = opts.check_pred_period =
      3600 * kSecond;
  ChordProtocol chord(&host, opts);
  std::vector<ChordProtocol::Peer> ring;
  for (Id i = 0; i < 6; ++i)
    ring.push_back(
        {1000 * (i + 1), NetAddress{static_cast<uint32_t>(i + 1), 7000}});
  chord.Start(NetAddress{});
  chord.SeedRoutingState(ring);
  const auto view = RingView(chord);
  const TimeUs half = opts.rpc_timeout / 2;

  for (bool answer : {true, false}) {
    const NetAddress via = ring[answer ? 3 : 4].addr;
    const size_t seen = host.sent.size();
    bool called = false;
    Result<ChordProtocol::Peer> result = Status::Internal("no result");
    chord.ResolveSuccessor(3500, via,
                           [&](const Result<ChordProtocol::Peer>& r) {
                             called = true;
                             result = r;
                           });
    ASSERT_EQ(host.sent.size(), seen + 1);
    sim.RunFor(half - kMillisecond);
    EXPECT_EQ(host.sent.size(), seen + 1) << "re-sent early";
    sim.RunFor(kMillisecond);
    ASSERT_EQ(host.sent.size(), seen + 2) << "not re-sent at rpc_timeout/2";
    EXPECT_EQ(host.sent[seen + 1], host.sent[seen]) << "the same frame";
    sim.RunFor(opts.rpc_timeout - half - kMillisecond);
    EXPECT_FALSE(called) << "failed before rpc_timeout";
    if (answer) {
      WireWriter body;
      body.PutU8(1);
      PutPeer(&body, ring[3]);
      chord.HandleProtocolMessage(
          via, ChordFrame(ring[3].id, ChordProtocol::kFindSuccResp,
                          NonceOf(host.sent[seen + 1].second), body.data()));
      ASSERT_TRUE(called);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->addr, ring[3].addr);
      sim.RunFor(opts.rpc_timeout);
      EXPECT_EQ(host.sent.size(), seen + 2) << "sent after the answer";
      EXPECT_EQ(RingView(chord), view) << "a peer was removed";
    } else {
      sim.RunFor(kMillisecond);
      ASSERT_TRUE(called);
      EXPECT_EQ(result.status().code(), StatusCode::kTimedOut);
      EXPECT_EQ(host.sent.size(), seen + 2) << "re-sent more than once";
    }
  }
}

TEST(Chord, FingerPeriodBacksOffOnAQuietRingAndResetsOnAFailure) {
  constexpr uint32_t kNodes = 16;
  SimPier net(kNodes, Seeded(5));
  const TimeUs base = kDefaults.fix_finger_period;
  const TimeUs cap = ChordProtocol::kFingerBackoffCap * base;
  net.RunFor(20 * kSecond);
  for (uint32_t i = 0; i < kNodes; ++i) {
    EXPECT_EQ(Chord(&net, i)->finger_period(), cap) << "node " << i;
  }

  // Kill a node: its predecessor's stabilize loses it and the finger loop
  // snaps back to the base period.
  uint32_t victim = 9;
  uint32_t pred = PredecessorOf(&net, victim);
  net.harness()->FailNode(victim);
  bool reset = false;
  for (TimeUs t = 0; t < kDefaults.rpc_timeout + 2 * kSecond && !reset;
       t += 50 * kMillisecond) {
    net.RunFor(50 * kMillisecond);
    reset = Chord(&net, pred)->finger_period() == base;
  }
  EXPECT_TRUE(reset) << "the finger loop did not notice the dead successor";

  // Once the ring is quiet again, the loop backs off again.
  net.RunFor(30 * kSecond);
  EXPECT_EQ(Chord(&net, pred)->finger_period(), cap);
}

TEST(Chord, FingerRepairReturnsToOneCappedLoopAfterRingChanges) {
  constexpr uint32_t kNodes = 64;
  SimPier net(kNodes, Seeded(11));
  const TimeUs cap =
      ChordProtocol::kFingerBackoffCap * kDefaults.fix_finger_period;
  net.RunFor(20 * kSecond);

  // Several ring changes, each followed by a quiet spell: every change
  // snaps the finger loops of the nodes around it back to the base period,
  // and the loops back off again while the table holds still.
  std::vector<bool> dead(kNodes, false);
  for (uint32_t victim : {5u, 17u, 30u, 42u, 58u}) {
    net.harness()->FailNode(victim);
    dead[victim] = true;
    net.RunFor(40 * kSecond);
  }

  std::vector<uint64_t> before(kNodes);
  for (uint32_t i = 0; i < kNodes; ++i)
    before[i] = Chord(&net, i)->counters().finger_ticks;
  // A late change (a stale low finger found on the slow capped sweep) may
  // still reset a node in the window; only nodes whose loop stayed at the
  // cap throughout are judged. Leaked loops tick at the cap too.
  std::vector<bool> capped(kNodes, true);
  constexpr TimeUs kWindow = 80 * kSecond;
  for (TimeUs t = 0; t < kWindow; t += 500 * kMillisecond) {
    net.RunFor(500 * kMillisecond);
    for (uint32_t i = 0; i < kNodes; ++i)
      if (Chord(&net, i)->finger_period() != cap) capped[i] = false;
  }
  // One loop at the cap ticks every 0.75..1.25 x cap, so at most this many
  // times in the window; a second loop left running would double it.
  const uint64_t one_loop = kWindow / (cap * 3 / 4) + 1;
  uint32_t judged = 0;
  for (uint32_t i = 0; i < kNodes; ++i) {
    if (dead[i] || !capped[i]) continue;
    judged++;
    EXPECT_LE(Chord(&net, i)->counters().finger_ticks - before[i], one_loop)
        << "node " << i << " runs more than one finger loop";
  }
  EXPECT_GE(judged, kNodes / 2);
}

TEST(Chord, DeadPredecessorIsDroppedWithinCheckPeriodPlusRpcTimeout) {
  constexpr uint32_t kNodes = 16;
  SimPier net(kNodes, Seeded(7));
  net.RunFor(10 * kSecond);
  uint32_t victim = 4;
  uint32_t succ = NodeOf(Chord(&net, victim)->successors().front().addr);
  ASSERT_EQ(PredecessorOf(&net, succ), victim);

  net.harness()->FailNode(victim);
  TimeUs killed = net.loop()->now();
  // The last frame from the victim came at or before the kill; the first
  // check-predecessor tick a full period after it is at most one jittered
  // tick (1.25 periods) later, and its ping times out after rpc_timeout.
  const TimeUs bound = kDefaults.check_pred_period + kDefaults.rpc_timeout +
                       kDefaults.check_pred_period * 5 / 4;
  TimeUs detected = -1;
  while (net.loop()->now() - killed <= bound + kSecond) {
    net.RunFor(20 * kMillisecond);
    if (Chord(&net, succ)->predecessor().addr !=
        net.dht(victim)->local_address()) {
      detected = net.loop()->now() - killed;
      break;
    }
  }
  ASSERT_GE(detected, 0) << "the dead predecessor was never dropped";
  EXPECT_LE(detected, bound);
  EXPECT_GE(Chord(&net, succ)->counters().pings_sent, 1u)
      << "a silent predecessor must be probed, not trusted";
}

TEST(Chord, NotifyOnlyWhenTheSuccessorDoesNotNameUs) {
  constexpr uint32_t kNodes = 16;
  SimPier net(kNodes, Seeded(9));
  net.RunFor(5 * kSecond);
  std::vector<uint64_t> notifies;
  for (uint32_t i = 0; i < kNodes; ++i)
    notifies.push_back(Chord(&net, i)->counters().notifies_sent);
  net.RunFor(20 * kSecond);
  for (uint32_t i = 0; i < kNodes; ++i) {
    EXPECT_EQ(Chord(&net, i)->counters().notifies_sent, notifies[i])
        << "node " << i << " notified a successor that already names it";
  }

  // Control: once a node's successor dies, the next one does not name it,
  // so it notifies — and is adopted as that node's predecessor.
  uint32_t victim = 11;
  uint32_t pred = PredecessorOf(&net, victim);
  uint32_t next = NodeOf(Chord(&net, victim)->successors().front().addr);
  net.harness()->FailNode(victim);
  net.RunFor(10 * kSecond);
  EXPECT_GT(Chord(&net, pred)->counters().notifies_sent, notifies[pred]);
  EXPECT_EQ(Chord(&net, next)->predecessor().addr,
            net.dht(pred)->local_address());
}

}  // namespace
}  // namespace pier
