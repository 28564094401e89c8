// Unit and property tests for the runtime substrate (event loop, simulated
// network, UdpCC) and the utility layer (wire codec, Bloom filter, RNG/Zipf,
// hashing).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "decoder_fuzz.h"
#include "runtime/event_loop.h"
#include "runtime/sim_runtime.h"
#include "runtime/udpcc.h"
#include "util/bloom.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/wire.h"

namespace pier {
namespace {

// ---------------------------------------------------------------------------
// EventLoop
// ---------------------------------------------------------------------------

TEST(EventLoop, FiresInTimeOrderWithStableTies) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(20, [&] { order.push_back(3); });
  loop.ScheduleAt(10, [&] { order.push_back(1); });
  loop.ScheduleAt(10, [&] { order.push_back(2); });  // same time: FIFO by seq
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 20);
}

TEST(EventLoop, CancelIsBestEffort) {
  EventLoop loop;
  int fired = 0;
  uint64_t a = loop.ScheduleAt(5, [&] { fired++; });
  loop.ScheduleAt(6, [&] { fired++; });
  loop.Cancel(a);
  loop.RunUntilIdle();
  EXPECT_EQ(fired, 1);
  loop.Cancel(a);  // double-cancel: no-op
  loop.Cancel(12345678);  // unknown token: no-op
}

TEST(EventLoop, RunUntilAdvancesClockExactly) {
  EventLoop loop;
  int fired = 0;
  loop.ScheduleAt(100, [&] { fired++; });
  loop.ScheduleAt(300, [&] { fired++; });
  EXPECT_EQ(loop.RunUntil(200), 1u);
  EXPECT_EQ(loop.now(), 200);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, HandlersMayScheduleMoreEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) loop.ScheduleAfter(1, chain);
  };
  loop.ScheduleAfter(1, chain);
  loop.RunUntilIdle();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(loop.now(), 10);
}

TEST(EventLoop, PastEventsClampToNow) {
  EventLoop loop;
  loop.ScheduleAt(50, [] {});
  loop.RunUntilIdle();
  bool fired = false;
  loop.ScheduleAt(10, [&] { fired = true; });  // in the past
  loop.RunUntilIdle();
  EXPECT_TRUE(fired);
  EXPECT_EQ(loop.now(), 50) << "clock must never run backwards";
}

TEST(EventLoop, CancelAfterRunLeavesNothingPending) {
  EventLoop loop;
  uint64_t a = loop.ScheduleAt(5, [] {});
  uint64_t b = loop.ScheduleAt(6, [] {});
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  loop.RunUntilIdle();
  loop.Cancel(a);
  loop.Cancel(b);
  loop.Cancel(b);
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.NextEventTime(), -1);
}

TEST(EventLoop, StaleTokenCannotCancelReusedSlot) {
  EventLoop loop;
  uint64_t ran = loop.ScheduleAt(1, [] {});
  loop.RunUntilIdle();
  uint64_t cancelled = loop.ScheduleAt(2, [] {});
  loop.Cancel(cancelled);
  // Both freed slots are reused by these events; the old tokens must not
  // reach them.
  int fired = 0;
  uint64_t c = loop.ScheduleAt(3, [&] { fired++; });
  uint64_t d = loop.ScheduleAt(4, [&] { fired++; });
  EXPECT_NE(c, ran);
  EXPECT_NE(c, cancelled);
  EXPECT_NE(d, ran);
  EXPECT_NE(d, cancelled);
  loop.Cancel(ran);
  loop.Cancel(cancelled);
  EXPECT_EQ(loop.pending(), 2u);
  loop.RunUntilIdle();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, CancelFreesCapturesImmediately) {
  EventLoop loop;
  auto payload = std::make_shared<int>(7);
  uint64_t token = loop.ScheduleAt(1000, [payload] { (void)payload; });
  EXPECT_EQ(payload.use_count(), 2);
  loop.Cancel(token);
  EXPECT_EQ(payload.use_count(), 1)
      << "the closure must die at Cancel, not at its due time";
  EXPECT_EQ(loop.RunUntilIdle(), 0u);

  // A fired event's closure is gone once it has run, too.
  loop.ScheduleAfter(1, [payload] { (void)payload; });
  loop.RunUntilIdle();
  EXPECT_EQ(payload.use_count(), 1);
}

// Mass cancellation makes the loop rebuild its heap without the cancelled
// keys; the survivors must still fire in (when, seq) order.
TEST(EventLoop, MassCancelKeepsSurvivorOrder) {
  EventLoop loop;
  Rng rng(77);
  std::vector<std::pair<TimeUs, int>> expected;  // (when, schedule index)
  std::vector<std::pair<TimeUs, int>> fired;
  std::vector<uint64_t> tokens;
  for (int i = 0; i < 20000; ++i) {
    TimeUs when = rng.UniformRange(0, 1000);
    tokens.push_back(loop.ScheduleAt(when, [&fired, when, i] {
      fired.emplace_back(when, i);
    }));
    if (rng.Uniform(10) == 0) {
      expected.emplace_back(when, i);
    } else {
      loop.Cancel(tokens.back());
    }
  }
  EXPECT_EQ(loop.pending(), expected.size());
  std::sort(expected.begin(), expected.end());
  loop.RunUntilIdle();
  EXPECT_EQ(fired, expected);
  EXPECT_TRUE(loop.empty());
}

// Differential test: the loop against a (when, seq) reference model over a
// seeded mix of schedules, cancels (top-level and from inside callbacks),
// events scheduled from callbacks, RunOne and RunUntil.
TEST(EventLoop, MatchesReferenceModelUnderRandomOps) {
  constexpr uint64_t kSeed = 20240611;
  // What event `id` does when it fires, identical for loop and model:
  // maybe cancel some event (possibly itself, one that ran, or a later
  // one), maybe schedule a child after `spawn_delay`.
  struct Action {
    int64_t cancel = -1;
    int64_t spawn_delay = -1;
  };
  auto action_of = [](uint64_t id, uint64_t num_ids) {
    uint64_t h = Mix64(kSeed ^ (id * 0x9e3779b97f4a7c15ull));
    Action a;
    if (h % 4 == 0) a.cancel = static_cast<int64_t>((h >> 8) % num_ids);
    if ((h >> 4) % 8 == 0) a.spawn_delay = static_cast<int64_t>((h >> 32) % 20);
    return a;
  };

  struct Real {
    EventLoop loop;
    std::vector<uint64_t> tokens;
    std::vector<uint64_t> fired;
  } real;
  std::function<uint64_t(TimeUs)> real_schedule = [&](TimeUs when) {
    uint64_t id = real.tokens.size();
    real.tokens.push_back(0);
    real.tokens[id] = real.loop.ScheduleAt(when, [&, id] {
      real.fired.push_back(id);
      Action a = action_of(id, real.tokens.size());
      if (a.cancel >= 0) real.loop.Cancel(real.tokens[a.cancel]);
      if (a.spawn_delay >= 0) real_schedule(real.loop.now() + a.spawn_delay);
    });
    return id;
  };

  struct Model {
    TimeUs now = 0;
    uint64_t next_seq = 0;
    uint64_t num_ids = 0;
    std::map<std::pair<TimeUs, uint64_t>, uint64_t> queue;  // -> id
    std::map<uint64_t, std::pair<TimeUs, uint64_t>> pending;  // id -> key
    std::vector<uint64_t> fired;
  } model;
  auto model_schedule = [&](TimeUs when) {
    std::pair<TimeUs, uint64_t> key{std::max(when, model.now),
                                    model.next_seq++};
    uint64_t id = model.num_ids++;
    model.queue.emplace(key, id);
    model.pending.emplace(id, key);
  };
  auto model_cancel = [&](uint64_t id) {
    auto it = model.pending.find(id);
    if (it == model.pending.end()) return;
    model.queue.erase(it->second);
    model.pending.erase(it);
  };
  auto model_fire_first = [&] {
    auto [key, id] = *model.queue.begin();
    model.queue.erase(model.queue.begin());
    model.pending.erase(id);
    model.now = std::max(model.now, key.first);
    model.fired.push_back(id);
    Action a = action_of(id, model.num_ids);
    if (a.cancel >= 0) model_cancel(static_cast<uint64_t>(a.cancel));
    if (a.spawn_delay >= 0) model_schedule(model.now + a.spawn_delay);
  };

  Rng rng(kSeed);
  for (int op = 0; op < 10000; ++op) {
    uint64_t kind = rng.Uniform(10);
    if (kind < 4) {
      // Some times land in the past and clamp to now.
      TimeUs when = real.loop.now() + rng.UniformRange(-10, 100);
      real_schedule(when);
      model_schedule(when);
    } else if (kind < 6) {
      uint64_t id = rng.Uniform(model.num_ids + 1);
      if (id < real.tokens.size()) real.loop.Cancel(real.tokens[id]);
      model_cancel(id);
    } else if (kind < 8) {
      bool ran = real.loop.RunOne();
      ASSERT_EQ(ran, !model.queue.empty()) << "op " << op;
      if (ran) model_fire_first();
    } else {
      TimeUs t = real.loop.now() + rng.UniformRange(0, 50);
      size_t ran = real.loop.RunUntil(t);
      size_t expect = 0;
      while (!model.queue.empty() && model.queue.begin()->first.first <= t) {
        model_fire_first();
        ++expect;
      }
      model.now = std::max(model.now, t);
      ASSERT_EQ(ran, expect) << "op " << op;
    }
    ASSERT_EQ(real.loop.now(), model.now) << "op " << op;
    ASSERT_EQ(real.loop.pending(), model.queue.size()) << "op " << op;
    ASSERT_EQ(real.loop.empty(), model.queue.empty()) << "op " << op;
    ASSERT_EQ(real.loop.NextEventTime(),
              model.queue.empty() ? -1 : model.queue.begin()->first.first)
        << "op " << op;
  }
  EXPECT_EQ(real.fired, model.fired);
  EXPECT_GT(real.fired.size(), 1000u);
  real.loop.RunUntilIdle();
  EXPECT_TRUE(real.loop.empty());
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

TEST(Wire, VarintBoundaries) {
  for (uint64_t v : std::vector<uint64_t>{0, 1, 127, 128, 16383, 16384,
                                          UINT64_MAX}) {
    WireWriter w;
    w.PutVarint(v);
    WireReader r(w.data());
    uint64_t back;
    ASSERT_TRUE(r.GetVarint(&back).ok()) << v;
    EXPECT_EQ(back, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(Wire, TruncationYieldsCorruptionNotUB) {
  WireWriter w;
  w.PutU64(42);
  w.PutBytes("payload");
  std::string full = std::move(w).data();
  for (size_t len = 0; len < full.size(); ++len) {
    WireReader r(std::string_view(full).substr(0, len));
    uint64_t x;
    std::string_view s;
    Status st = r.GetU64(&x);
    if (st.ok()) st = r.GetBytes(&s);
    EXPECT_FALSE(st.ok()) << "prefix of length " << len << " must not parse";
  }
}

TEST(Wire, MixedRoundTripProperty) {
  Rng rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    WireWriter w;
    std::vector<uint64_t> u64s;
    std::vector<std::string> blobs;
    int n = 1 + static_cast<int>(rng.Uniform(10));
    for (int i = 0; i < n; ++i) {
      uint64_t v = rng.Next();
      u64s.push_back(v);
      w.PutU64(v);
      std::string b;
      for (uint64_t j = rng.Uniform(32); j > 0; --j)
        b.push_back(static_cast<char>(rng.Uniform(256)));
      blobs.push_back(b);
      w.PutBytes(b);
    }
    WireReader r(w.data());
    for (int i = 0; i < n; ++i) {
      uint64_t v;
      std::string b;
      ASSERT_TRUE(r.GetU64(&v).ok());
      ASSERT_TRUE(r.GetBytes(&b).ok());
      EXPECT_EQ(v, u64s[i]);
      EXPECT_EQ(b, blobs[i]);
    }
    EXPECT_TRUE(r.AtEnd());
  }
}

// ---------------------------------------------------------------------------
// Bloom filter
// ---------------------------------------------------------------------------

TEST(Bloom, NoFalseNegativesAndBoundedFalsePositives) {
  // Sized for 1,000 items at 1% false positives: m = -n ln p / ln²2 bits
  // and k = (m / n) ln 2 hashes.
  BloomFilter f(9586, 7);
  for (int i = 0; i < 1000; ++i) f.Add("member" + std::to_string(i));
  for (int i = 0; i < 1000; ++i)
    EXPECT_TRUE(f.MayContain("member" + std::to_string(i)));
  int fp = 0;
  for (int i = 0; i < 10000; ++i)
    fp += f.MayContain("other" + std::to_string(i));
  EXPECT_LT(fp, 300) << "~1% target, allow 3x slack";
}

TEST(Bloom, SerializeRoundTripAndMerge) {
  BloomFilter a(4096, 3), b(4096, 3);
  a.Add("only-a");
  b.Add("only-b");
  Result<BloomFilter> back = BloomFilter::Deserialize(a.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->MayContain("only-a"));
  ASSERT_TRUE(back->Merge(b).ok());
  EXPECT_TRUE(back->MayContain("only-a"));
  EXPECT_TRUE(back->MayContain("only-b"));
  BloomFilter other_geometry(8192, 3);
  EXPECT_FALSE(back->Merge(other_geometry).ok());
  EXPECT_FALSE(BloomFilter::Deserialize("garbage").ok());
}

TEST(Bloom, DeserializeRejectsHostileGeometry) {
  std::string wire = BloomFilter(4096, 3).Serialize();
  for (size_t len = 0; len < wire.size(); ++len)
    EXPECT_FALSE(BloomFilter::Deserialize(wire.substr(0, len)).ok()) << len;
  // A header claiming 2^60 bits over an 8-byte body is refused before any
  // bit array is allocated; so are hash counts outside 1..16.
  for (auto [bits, hashes] : {std::pair<uint64_t, uint64_t>{1ULL << 60, 3},
                              {64, 0},
                              {64, 17}}) {
    WireWriter w;
    w.PutVarint(bits);
    w.PutVarint(hashes);
    w.PutU64(0);
    EXPECT_FALSE(BloomFilter::Deserialize(w.data()).ok())
        << bits << " bits, " << hashes << " hashes";
  }
}

// ---------------------------------------------------------------------------
// RNG / Zipf / hashing
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  bool differs = false;
  Rng a2(7);
  for (int i = 0; i < 100; ++i) differs |= a2.Next() != c.Next();
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, ExponentialIsPositiveWithTheGivenMean) {
  Rng rng(5);
  const int kSamples = 20000;
  double sum = 0;
  for (int i = 0; i < kSamples; ++i) {
    double x = rng.Exponential(250.0);
    EXPECT_GT(x, 0);
    sum += x;
  }
  // The sample mean's standard error is 250 / sqrt(20000), about 1.8.
  EXPECT_NEAR(sum / kSamples, 250.0, 10.0);
}

TEST(Zipf, HeadDominates) {
  ZipfGenerator zipf(1000, 1.1);
  Rng rng(11);
  std::map<uint64_t, int> counts;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) counts[zipf.Sample(&rng)]++;
  EXPECT_GT(counts[0], counts[50] * 5) << "rank 0 must dominate rank 50";
  EXPECT_GT(counts[0], kSamples / 20) << "head gets a large share";
}

TEST(Hash, StableAndSensitive) {
  // Values are part of the wire protocol: keys must hash identically on
  // every node, so the function must be deterministic across processes.
  EXPECT_EQ(Fnv1a64("chained-naming"), Fnv1a64("chained-naming"));
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
  EXPECT_NE(HashNamespaceKey("ns", "key"), HashNamespaceKey("nsk", "ey"))
      << "namespace/key boundary must matter";
  EXPECT_NE(Mix64(1), Mix64(2));
}

TEST(Logging, TheLevelGatesWhatIsWritten) {
  ASSERT_EQ(GetLogLevel(), LogLevel::kWarn) << "quiet by default";
  testing::internal::CaptureStderr();
  PIER_LOG(kInfo) << "hidden at the default level";
  SetLogLevel(LogLevel::kDebug);
  PIER_LOG(kDebug) << "shown once lowered";
  SetLogLevel(LogLevel::kOff);
  PIER_LOG(kError) << "hidden when off";
  SetLogLevel(LogLevel::kWarn);
  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.find("hidden"), std::string::npos) << err;
  EXPECT_NE(err.find("[D test_runtime_util.cc:"), std::string::npos) << err;
  EXPECT_NE(err.find("shown once lowered"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// Simulation harness + UdpCC
// ---------------------------------------------------------------------------

TEST(NetAddress, PrintsNodeIndexOrDottedQuad) {
  EXPECT_EQ((NetAddress{3, 7000}).ToString(), "n3:7000");
  EXPECT_EQ((NetAddress{0x7f000001, 37200}).ToString(), "127.0.0.1:37200");
}

struct Capture : UdpHandler {
  std::vector<std::pair<NetAddress, std::string>> got;
  void HandleUdp(const NetAddress& src, std::string_view p) override {
    got.emplace_back(src, std::string(p));
  }
};

TEST(SimHarness, UdpDeliversWithTopologyLatency) {
  SimOptions opts;
  opts.seed = 5;
  SimHarness sim(opts);
  sim.AddNodes(2);
  Capture rx;
  ASSERT_TRUE(sim.vri(1)->UdpListen(9, &rx).ok());
  ASSERT_TRUE(sim.vri(0)->UdpSend(9, sim.AddressOf(1, 9), "ping").ok());
  TimeUs before = sim.loop()->now();
  sim.loop()->RunUntilIdle();
  ASSERT_EQ(rx.got.size(), 1u);
  EXPECT_EQ(rx.got[0].second, "ping");
  EXPECT_GT(sim.loop()->now(), before) << "delivery takes nonzero latency";
}

TEST(SimHarness, FailedNodeReceivesNothingAndSendsNothing) {
  SimOptions opts;
  opts.seed = 6;
  SimHarness sim(opts);
  sim.AddNodes(3);
  Capture rx;
  ASSERT_TRUE(sim.vri(2)->UdpListen(9, &rx).ok());
  sim.FailNode(2);
  // The send itself is accepted; what the test asserts is that nothing is
  // DELIVERED to the dead node.
  (void)sim.vri(0)->UdpSend(9, sim.AddressOf(2, 9), "into the void");
  sim.loop()->RunUntilIdle();
  EXPECT_TRUE(rx.got.empty());
  EXPECT_FALSE(sim.IsAlive(2));
  EXPECT_EQ(sim.num_alive(), 2u);
}

TEST(SimHarness, DeterministicGivenSeed) {
  auto run = [](uint64_t seed) {
    SimOptions opts;
    opts.seed = seed;
    SimHarness sim(opts);
    sim.AddNodes(4);
    Capture rx;
    EXPECT_TRUE(sim.vri(3)->UdpListen(9, &rx).ok());
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(sim.vri(i % 3)
                      ->UdpSend(9, sim.AddressOf(3, 9), std::to_string(i))
                      .ok());
    }
    sim.loop()->RunUntilIdle();
    std::string log;
    for (auto& [src, p] : rx.got)
      log += std::to_string(src.host) + ":" + p + ";";
    return log + "@" + std::to_string(sim.loop()->now());
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(SimHarness, TcpFramedRoundTrip) {
  SimOptions opts;
  opts.seed = 8;
  SimHarness sim(opts);
  sim.AddNodes(2);

  struct Server : TcpHandler {
    Vri* vri = nullptr;
    std::vector<std::string> got;
    void HandleTcpNew(uint64_t, const NetAddress&) override {}
    void HandleTcpData(uint64_t conn, std::string_view d) override {
      got.emplace_back(d);
      EXPECT_TRUE(vri->TcpWrite(conn, "ack:" + std::string(d)).ok());
    }
    void HandleTcpError(uint64_t) override {}
  } server;
  server.vri = sim.vri(1);

  struct Client : TcpHandler {
    std::vector<std::string> got;
    bool connected = false;
    void HandleTcpNew(uint64_t, const NetAddress&) override {
      connected = true;
    }
    void HandleTcpData(uint64_t, std::string_view d) override {
      got.emplace_back(d);
    }
    void HandleTcpError(uint64_t) override {}
  } client;

  ASSERT_TRUE(sim.vri(1)->TcpListen(7000, &server).ok());
  Result<uint64_t> conn =
      sim.vri(0)->TcpConnect(sim.AddressOf(1, 7000), &client);
  ASSERT_TRUE(conn.ok());
  sim.loop()->RunUntilIdle();
  ASSERT_TRUE(client.connected);
  ASSERT_TRUE(sim.vri(0)->TcpWrite(*conn, "query").ok());
  ASSERT_TRUE(sim.vri(0)->TcpWrite(*conn, "plan").ok());
  sim.loop()->RunUntilIdle();
  ASSERT_EQ(server.got, (std::vector<std::string>{"query", "plan"}));
  ASSERT_EQ(client.got, (std::vector<std::string>{"ack:query", "ack:plan"}));
}

TEST(SimHarness, FailedNodesTcpPeerSeesAnError) {
  SimOptions opts;
  opts.seed = 10;
  SimHarness sim(opts);
  sim.AddNodes(2);
  struct Side : TcpHandler {
    bool open = false;
    std::vector<uint64_t> errors;
    void HandleTcpNew(uint64_t, const NetAddress&) override { open = true; }
    void HandleTcpData(uint64_t, std::string_view) override {}
    void HandleTcpError(uint64_t conn) override { errors.push_back(conn); }
  } server, client;
  ASSERT_TRUE(sim.vri(1)->TcpListen(7000, &server).ok());
  Result<uint64_t> conn =
      sim.vri(0)->TcpConnect(sim.AddressOf(1, 7000), &client);
  ASSERT_TRUE(conn.ok());
  sim.loop()->RunUntilIdle();
  ASSERT_TRUE(client.open && server.open);

  sim.FailNode(1);
  sim.loop()->RunUntilIdle();
  EXPECT_EQ(client.errors, (std::vector<uint64_t>{*conn}));
  EXPECT_TRUE(server.errors.empty()) << "a dead node hears nothing";
  EXPECT_EQ(sim.vri(0)->TcpWrite(*conn, "late").code(), StatusCode::kNotFound)
      << "the connection is gone";
}

TEST(UdpCc, ReliableDeliveryAndDuplicateSuppression) {
  SimOptions opts;
  opts.seed = 9;
  SimHarness sim(opts);
  sim.AddNodes(2);
  UdpCc a(sim.vri(0), 5000);
  UdpCc b(sim.vri(1), 5000);
  std::vector<std::string> received;
  b.set_message_handler([&](const NetAddress&, std::string_view p) {
    received.emplace_back(p);
  });
  int delivered = 0;
  for (int i = 0; i < 20; ++i) {
    a.Send(sim.AddressOf(1, 5000), "m" + std::to_string(i),
           [&](const Status& s) { delivered += s.ok(); });
  }
  sim.RunFor(5 * kSecond);
  EXPECT_EQ(delivered, 20);
  EXPECT_EQ(received.size(), 20u);
  EXPECT_EQ(b.stats().duplicates_dropped, 0u);
}

TEST(UdpCc, HandleUdpSurvivesTruncationGarbageAndOverCapSeqs) {
  SimOptions opts;
  opts.seed = 12;
  SimHarness sim(opts);
  sim.AddNodes(2);
  UdpCc a(sim.vri(0), 5000);
  UdpCc b(sim.vri(1), 5000);
  // Bodies dispatched from type-0 datagrams. Any dispatched body must be the
  // tail of its datagram: a random datagram that happens to parse as a data
  // frame or a reply is delivered, but nothing is read past its end.
  std::string datagram, last;
  std::vector<std::string> bodies;
  b.set_message_handler([&](const NetAddress&, std::string_view p) {
    last = std::string(p);
    EXPECT_LT(p.size(), datagram.size());
    EXPECT_EQ(std::string_view(datagram).substr(datagram.size() - p.size()), p);
    if (datagram[0] == 0) bodies.emplace_back(p);
  });
  NetAddress from = sim.AddressOf(0, 5000);
  auto handle = [&](const std::string& d) {
    datagram = d;
    b.HandleUdp(from, d);
  };
  // A data frame: type byte, seq 300 (a two-byte varint), then the payload.
  WireWriter w;
  w.PutU8(0);
  w.PutVarint(300);
  w.PutRaw("payload");
  const std::string frame = std::move(w).data();
  handle(frame);
  ASSERT_EQ(bodies, std::vector<std::string>{"payload"});
  // Every cut from the end of the seq on is a whole datagram with a shorter
  // body (a duplicate of seq 300 by now); shorter cuts are dropped unparsed.
  auto parsed = [&](const std::string& body) {
    const UdpCc::Stats& st = b.stats();
    uint64_t before = st.msgs_received + st.duplicates_dropped;
    handle(body);
    return st.msgs_received + st.duplicates_dropped > before;
  };
  EXPECT_EQ(FuzzDecoder(frame, 6, parsed), frame.size() - 3);
  for (const std::string& body : bodies)
    EXPECT_LE(body.size(), std::string("payload").size() + 3);
  // Over-cap seqs: a tenth varint byte past bit 63, and an eleventh byte.
  for (char tenth : {'\x02', '\x80'}) {
    std::string over(1, '\0');
    over.append(9, '\xff');
    over.push_back(tenth);
    over.append("xy");
    EXPECT_FALSE(parsed(over)) << int{tenth};
  }

  // A data + ACK frame from a fresh peer (its own seq space; nothing listens
  // for the ACKs): seq 300, an ACK of seq 7 (which `b` never sent), then the
  // payload. Every cut from the end of the ACK on is whole.
  from = sim.AddressOf(0, 5001);
  WireWriter w2;
  w2.PutU8(2);
  w2.PutVarint(300);
  w2.PutVarint(7);
  w2.PutRaw("payload");
  const std::string frame2 = std::move(w2).data();
  uint64_t received = b.stats().msgs_received;
  handle(frame2);
  EXPECT_EQ(b.stats().msgs_received, received + 1);
  EXPECT_EQ(last, "payload");
  EXPECT_EQ(FuzzDecoder(frame2, 7, parsed), frame2.size() - 4);
  // Over-cap ACKs, after a fresh one-byte seq.
  for (char tenth : {'\x02', '\x80'}) {
    std::string over("\x02\x05");
    over.append(9, '\xff');
    over.push_back(tenth);
    over.append("xy");
    EXPECT_FALSE(parsed(over)) << int{tenth};
  }

  // A reply: an ACK of seq 300 (which `b` never sent), then the payload.
  // Replies are not deduplicated, so every cut from the end of the ACK on is
  // dispatched.
  WireWriter w3;
  w3.PutU8(3);
  w3.PutVarint(300);
  w3.PutRaw("payload");
  const std::string frame3 = std::move(w3).data();
  received = b.stats().msgs_received;
  handle(frame3);
  handle(frame3);
  EXPECT_EQ(b.stats().msgs_received, received + 2);
  EXPECT_EQ(last, "payload");
  EXPECT_EQ(FuzzDecoder(frame3, 8, parsed), frame3.size() - 3);
  // Over-cap ACKs.
  for (char tenth : {'\x02', '\x80'}) {
    std::string over("\x03");
    over.append(9, '\xff');
    over.push_back(tenth);
    over.append("xy");
    EXPECT_FALSE(parsed(over)) << int{tenth};
  }
  EXPECT_EQ(b.stats().msgs_sent + b.stats().acks_piggybacked, 0u)
      << "a reply is never acknowledged";
  sim.RunFor(5 * kSecond);  // the ACKs reach `a`, which expects none
  EXPECT_EQ(a.stats().msgs_delivered, 0u);
  EXPECT_EQ(b.stats().msgs_delivered, 0u);
}

// A request answered inside its handler costs three datagrams: the request,
// the reply carrying the request's ACK, and the reply's ACK.
TEST(UdpCc, RequestAnsweredInItsHandlerCostsThreeDatagrams) {
  SimOptions opts;
  opts.seed = 16;
  SimHarness sim(opts);
  sim.AddNodes(2);
  UdpCc a(sim.vri(0), 5000);
  UdpCc b(sim.vri(1), 5000);
  Status request_report = Status::Internal("no report");
  Status reply_report = Status::Internal("no report");
  b.set_message_handler([&](const NetAddress& src, std::string_view p) {
    b.Send(src, "re:" + std::string(p),
           [&](const Status& s) { reply_report = s; });
  });
  std::vector<std::string> replies;
  a.set_message_handler([&](const NetAddress&, std::string_view p) {
    replies.emplace_back(p);
  });
  a.Send(sim.AddressOf(1, 5000), "req",
         [&](const Status& s) { request_report = s; });
  sim.RunFor(5 * kSecond);
  EXPECT_EQ(replies, std::vector<std::string>{"re:req"});
  EXPECT_TRUE(request_report.ok()) << request_report.ToString();
  EXPECT_TRUE(reply_report.ok()) << reply_report.ToString();
  EXPECT_EQ(sim.total_msgs(), 3u);
  EXPECT_EQ(b.stats().acks_piggybacked, 1u);
  EXPECT_EQ(b.stats().acks_sent, 0u);
  EXPECT_EQ(a.stats().acks_piggybacked, 0u);
  EXPECT_EQ(a.stats().acks_sent, 1u);
  EXPECT_EQ(a.stats().retransmits + b.stats().retransmits, 0u);
}

// A request answered by a UdpCC reply inside its handler costs two
// datagrams: the request and the reply carrying its ACK. Nothing
// acknowledges the reply.
TEST(UdpCc, RequestAnsweredByAReplyCostsTwoDatagrams) {
  SimOptions opts;
  opts.seed = 16;
  SimHarness sim(opts);
  sim.AddNodes(2);
  UdpCc a(sim.vri(0), 5000);
  UdpCc b(sim.vri(1), 5000);
  b.set_message_handler([&](const NetAddress& src, std::string_view p) {
    b.Reply(src, "re:" + std::string(p));
  });
  std::vector<std::string> replies;
  a.set_message_handler([&](const NetAddress&, std::string_view p) {
    replies.emplace_back(p);
  });
  Status report = Status::Internal("no report");
  a.Send(sim.AddressOf(1, 5000), "req", [&](const Status& s) { report = s; });
  sim.RunFor(5 * kSecond);
  EXPECT_EQ(replies, std::vector<std::string>{"re:req"});
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(sim.total_msgs(), 2u);
  EXPECT_EQ(b.stats().msgs_sent, 1u) << "a reply counts as a message";
  EXPECT_EQ(b.stats().bytes_sent, std::string("re:req").size());
  EXPECT_EQ(b.stats().acks_piggybacked, 1u);
  EXPECT_EQ(a.stats().acks_sent + b.stats().acks_sent, 0u);
  EXPECT_EQ(a.stats().retransmits, 0u);
}

// A handler that sends only to a third peer leaves the ACK to go alone, once
// it has returned.
TEST(UdpCc, HandlerThatSendsElsewhereIsAckedAloneAfterItReturns) {
  SimOptions opts;
  opts.seed = 17;
  SimHarness sim(opts);
  sim.AddNodes(3);
  UdpCc a(sim.vri(0), 5000);
  UdpCc b(sim.vri(1), 5000);
  UdpCc c(sim.vri(2), 5000);
  uint64_t acks_in_handler = ~0ULL;
  b.set_message_handler([&](const NetAddress&, std::string_view p) {
    b.Send(sim.AddressOf(2, 5000), std::string(p));
    acks_in_handler = b.stats().acks_sent + b.stats().acks_piggybacked;
  });
  std::vector<std::string> at_c;
  c.set_message_handler([&](const NetAddress&, std::string_view p) {
    at_c.emplace_back(p);
  });
  Status report = Status::Internal("no report");
  a.Send(sim.AddressOf(1, 5000), "fwd", [&](const Status& s) { report = s; });
  sim.RunFor(5 * kSecond);
  EXPECT_EQ(at_c, std::vector<std::string>{"fwd"});
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(acks_in_handler, 0u);
  EXPECT_EQ(b.stats().acks_sent, 1u);
  EXPECT_EQ(b.stats().acks_piggybacked, 0u);
  // a -> b, b -> c, then the two standalone ACKs.
  EXPECT_EQ(sim.total_msgs(), 4u);
}

// A duplicate is acknowledged at once, alone, and not dispatched again.
TEST(UdpCc, DuplicateIsAckedAloneAndNotDispatched) {
  SimOptions opts;
  opts.seed = 18;
  SimHarness sim(opts);
  sim.AddNodes(2);
  UdpCc a(sim.vri(0), 5000);
  UdpCc b(sim.vri(1), 5000);
  int dispatched = 0;
  Status reply_report = Status::Internal("no report");
  b.set_message_handler([&](const NetAddress& src, std::string_view) {
    dispatched++;
    b.Send(src, "reply", [&](const Status& s) { reply_report = s; });
  });
  WireWriter w;
  w.PutU8(0);
  w.PutVarint(1);
  w.PutRaw("req");
  const std::string frame = std::move(w).data();
  b.HandleUdp(sim.AddressOf(0, 5000), frame);
  EXPECT_EQ(b.stats().acks_piggybacked, 1u);
  EXPECT_EQ(b.stats().acks_sent, 0u);
  b.HandleUdp(sim.AddressOf(0, 5000), frame);
  EXPECT_EQ(dispatched, 1);
  EXPECT_EQ(b.stats().duplicates_dropped, 1u);
  EXPECT_EQ(b.stats().acks_sent, 1u);
  EXPECT_EQ(b.stats().acks_piggybacked, 1u);
  EXPECT_EQ(b.stats().msgs_sent, 1u);
  sim.RunFor(5 * kSecond);
  EXPECT_TRUE(reply_report.ok()) << reply_report.ToString();
  EXPECT_EQ(dispatched, 1);
}

// An ACK riding a data frame for a seq the receiver never sent is ignored;
// the frame's payload is still delivered, and real ACKs still count.
TEST(UdpCc, PiggybackedAckForUnknownSeqIsIgnored) {
  SimOptions opts;
  opts.seed = 19;
  SimHarness sim(opts);
  sim.AddNodes(2);
  UdpCc a(sim.vri(0), 5000);
  UdpCc b(sim.vri(1), 5000);
  std::vector<std::string> at_a;
  a.set_message_handler([&](const NetAddress&, std::string_view p) {
    at_a.emplace_back(p);
  });
  int ok = 0, failed = 0;
  a.Send(sim.AddressOf(1, 5000), "m",
         [&](const Status& s) { (s.ok() ? ok : failed)++; });
  WireWriter w;
  w.PutU8(2);
  w.PutVarint(40);
  w.PutVarint(99);  // `a` has sent only seq 1
  w.PutRaw("x");
  a.HandleUdp(sim.AddressOf(1, 5000), std::move(w).data());
  EXPECT_EQ(at_a, std::vector<std::string>{"x"});
  EXPECT_EQ(ok + failed, 0);
  EXPECT_EQ(a.stats().msgs_delivered, 0u);
  sim.RunFor(5 * kSecond);
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(a.stats().msgs_delivered, 1u);
  EXPECT_EQ(a.stats().retransmits, 0u);
}

TEST(UdpCc, SenderNotifiedWhenPeerIsDead) {
  SimOptions opts;
  opts.seed = 10;
  SimHarness sim(opts);
  sim.AddNodes(2);
  UdpCc a(sim.vri(0), 5000);
  sim.FailNode(1);
  Status failure = Status::Ok();
  TimeUs reported_at = -1;
  const TimeUs sent_at = sim.vri(0)->Now();
  a.Send(sim.AddressOf(1, 5000), "doomed", [&](const Status& s) {
    failure = s;
    reported_at = sim.vri(0)->Now();
  });
  sim.RunFor(60 * kSecond);  // retries, then gives up
  EXPECT_FALSE(failure.ok()) << "reliable-or-notify contract (§3.1.3)";
  // Four retransmissions with no RTT sample: timeouts of 1, 2, 4 and 8 s,
  // then 8 s more (the RTO cap) before the give-up.
  EXPECT_EQ(a.stats().retransmits, 4u);
  EXPECT_EQ(a.stats().msgs_failed, 1u);
  EXPECT_EQ(reported_at - sent_at, 23 * kSecond);
}

// A peer with no RTT sample of its own times out from the node's estimate,
// once the node has one: an ACK from a live peer shortens the give-up
// toward a dead one from 23 s to the doubling ladder of that estimate.
TEST(UdpCc, DeadPeerGivesUpSoonerOnceTheNodeHasAnRttSample) {
  SimOptions opts;
  opts.seed = 10;
  SimHarness sim(opts);
  sim.AddNodes(3);
  UdpCc a(sim.vri(0), 5000);
  UdpCc b(sim.vri(1), 5000);
  sim.FailNode(2);
  TimeUs rtt = -1;
  TimeUs sent_at = sim.vri(0)->Now();
  a.Send(sim.AddressOf(1, 5000), "sample",
         [&](const Status&) { rtt = sim.vri(0)->Now() - sent_at; });
  sim.RunFor(5 * kSecond);
  ASSERT_GT(rtt, 0);
  // One sample: srtt = rtt and rttvar = rtt / 2, so the RTO is 3 x rtt.
  const TimeUs rto =
      std::clamp(3 * rtt, UdpCc::kMinRto, UdpCc::kMaxRto);
  TimeUs give_up = 0;
  for (int i = 0; i <= UdpCc::kMaxRetries; ++i)
    give_up += std::min(UdpCc::kMaxRto, rto << i);
  Status failure = Status::Ok();
  TimeUs reported_at = -1;
  sent_at = sim.vri(0)->Now();
  a.Send(sim.AddressOf(2, 5000), "doomed", [&](const Status& s) {
    failure = s;
    reported_at = sim.vri(0)->Now();
  });
  sim.RunFor(60 * kSecond);
  EXPECT_FALSE(failure.ok());
  EXPECT_EQ(a.stats().retransmits, 4u);
  EXPECT_EQ(reported_at - sent_at, give_up);
  EXPECT_LT(give_up, 23 * kSecond);
}

// A message first sent at virtual time 0 and retransmitted once is one send
// and one retransmission, not two sends.
TEST(UdpCc, RetransmissionOfTimeZeroSendCountsAsRetransmit) {
  SimOptions opts;
  opts.seed = 15;
  SimHarness sim(opts);
  sim.AddNodes(2);
  UdpCc a(sim.vri(0), 5000);
  ASSERT_EQ(sim.vri(0)->Now(), 0);
  Status report = Status::Internal("no report");
  a.Send(sim.AddressOf(1, 5000), "late listener",
         [&](const Status& s) { report = s; });
  // The receiver binds after the first transmission was lost and before the
  // retransmission (initial RTO 1 s) goes out.
  sim.RunFor(500 * kMillisecond);
  UdpCc b(sim.vri(1), 5000);
  sim.RunFor(5 * kSecond);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(a.stats().msgs_sent, 1u);
  EXPECT_EQ(a.stats().retransmits, 1u);
  EXPECT_EQ(a.stats().bytes_sent, std::string("late listener").size());
}

// 200 sends at the initial window of 4 park all but the first four in the
// per-peer send queue, which must drain each message exactly once, FIFO.
TEST(UdpCc, SendQueueDrainsInOrder) {
  SimOptions opts;
  opts.seed = 13;
  SimHarness sim(opts);
  sim.AddNodes(2);
  UdpCc a(sim.vri(0), 5000);
  UdpCc b(sim.vri(1), 5000);
  std::vector<std::string> received;
  b.set_message_handler([&](const NetAddress&, std::string_view p) {
    received.emplace_back(p);
  });
  std::vector<std::string> sent;
  int ok = 0, failed = 0;
  for (int i = 0; i < 200; ++i) {
    sent.push_back("m" + std::to_string(i));
    a.Send(sim.AddressOf(1, 5000), sent.back(),
           [&](const Status& s) { (s.ok() ? ok : failed)++; });
  }
  sim.RunFor(30 * kSecond);
  EXPECT_EQ(received, sent);
  EXPECT_EQ(ok, 200);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(a.stats().retransmits, 0u);
  EXPECT_EQ(b.stats().duplicates_dropped, 0u);
}

// The receiver binds its port only after the first transmissions timed out:
// the window collapses and backs off, and the queue still drains FIFO.
TEST(UdpCc, SendQueueDrainsInOrderAfterTimeouts) {
  SimOptions opts;
  opts.seed = 14;
  SimHarness sim(opts);
  sim.AddNodes(2);
  UdpCc a(sim.vri(0), 5000);
  std::vector<std::string> sent;
  int ok = 0, failed = 0;
  for (int i = 0; i < 200; ++i) {
    sent.push_back("m" + std::to_string(i));
    a.Send(sim.AddressOf(1, 5000), sent.back(),
           [&](const Status& s) { (s.ok() ? ok : failed)++; });
  }
  sim.RunFor(1500 * kMillisecond);
  ASSERT_GT(a.stats().retransmits, 0u) << "first transmissions must time out";
  ASSERT_EQ(ok + failed, 0);

  UdpCc b(sim.vri(1), 5000);
  std::vector<std::string> received;
  b.set_message_handler([&](const NetAddress&, std::string_view p) {
    received.emplace_back(p);
  });
  sim.RunFor(60 * kSecond);
  EXPECT_EQ(received, sent);
  EXPECT_EQ(ok, 200);
  EXPECT_EQ(failed, 0);
}

TEST(SimHarness, ClockSkewBoundsHold) {
  SimOptions opts;
  opts.seed = 12;
  opts.max_clock_skew = 50 * kMillisecond;
  SimHarness sim(opts);
  sim.AddNodes(8);
  sim.loop()->RunUntil(kSecond);
  for (uint32_t i = 0; i < 8; ++i) {
    TimeUs diff = sim.vri(i)->Now() - sim.loop()->now();
    EXPECT_LE(diff, 50 * kMillisecond) << "node " << i;
    EXPECT_GE(diff, -50 * kMillisecond) << "node " << i;
  }
}

}  // namespace
}  // namespace pier
