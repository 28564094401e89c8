// Chord maintenance: a quiet ring goes quiet, and a changed ring reacts.
// A seeded ring never re-runs its join, sends no Notify or Ping, and backs
// its finger repair off to the cap; a dead predecessor is dropped within
// check_pred_period + rpc_timeout plus one tick of jitter; a dead neighbour
// snaps the finger loop back to its base period, and after the ring goes
// quiet again each node still runs exactly one finger loop.

#include <gtest/gtest.h>

#include <vector>

#include "overlay/routing_chord.h"
#include "overlay/sim_overlay.h"

namespace pier {
namespace {

SimOverlay::Options Seeded(uint64_t seed) {
  SimOverlay::Options opts;
  opts.sim.seed = seed;
  opts.seed_routing = true;
  opts.settle_time = 1 * kSecond;
  return opts;
}

ChordProtocol* Chord(SimOverlay* net, uint32_t i) {
  auto* chord = dynamic_cast<ChordProtocol*>(net->dht(i)->router()->protocol());
  EXPECT_NE(chord, nullptr);
  return chord;
}

/// Node index behind an address (SimHarness maps index <-> host - 1).
uint32_t NodeOf(const NetAddress& a) { return a.host - 1; }

/// Index of node `i`'s predecessor.
uint32_t PredecessorOf(SimOverlay* net, uint32_t i) {
  return NodeOf(Chord(net, i)->predecessor().addr);
}

const ChordProtocol::Options kDefaults;

TEST(Chord, SeededRingMakesNoJoinsAndOnlyStabilizeTraffic) {
  constexpr uint32_t kNodes = 64;
  SimOverlay net(kNodes, Seeded(3));
  net.RunFor(20 * kSecond);  // let the finger loops back off

  std::vector<ChordProtocol::Counters> before;
  for (uint32_t i = 0; i < kNodes; ++i)
    before.push_back(Chord(&net, i)->counters());
  constexpr TimeUs kWindow = 60 * kSecond;
  net.RunFor(kWindow);

  // Each stabilize is one GetNbrs exchange: a request from this node and a
  // reply to its predecessor's, two frames per stabilize_period on average.
  // The 1% covers the sampling noise of 7,680 jittered ticks (sd ~0.2%).
  const double exchange_frames =
      1.01 * 2.0 * kWindow / kDefaults.stabilize_period;
  uint64_t frames = 0;
  for (uint32_t i = 0; i < kNodes; ++i) {
    const ChordProtocol::Counters& now = Chord(&net, i)->counters();
    EXPECT_EQ(now.join_resolves, before[i].join_resolves)
        << "node " << i << " re-ran its join on a seeded ring";
    EXPECT_EQ(now.notifies_sent, before[i].notifies_sent) << "node " << i;
    EXPECT_EQ(now.pings_sent, before[i].pings_sent) << "node " << i;
    frames += now.frames_sent - before[i].frames_sent;
  }
  double per_node = static_cast<double>(frames) / kNodes;
  EXPECT_LE(per_node, exchange_frames)
      << "Chord sent more than stabilize's GetNbrs exchange per node";
}

TEST(Chord, FingerPeriodBacksOffOnAQuietRingAndResetsOnAFailure) {
  constexpr uint32_t kNodes = 16;
  SimOverlay net(kNodes, Seeded(5));
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
  SimOverlay net(kNodes, Seeded(11));
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
  SimOverlay net(kNodes, Seeded(7));
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
  SimOverlay net(kNodes, Seeded(9));
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
