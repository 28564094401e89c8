// Smoke tests for the Physical Runtime Environment (§3.1.3): the same node
// code that runs in simulation runs against real sockets on localhost.
// These tests exercise the loopback only and use ephemeral-ish ports; they
// keep wall-clock waits short.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "obs/metrics.h"
#include "obs/scrape.h"
#include "overlay/dht.h"
#include "runtime/physical_runtime.h"
#include "runtime/udpcc.h"

namespace pier {
namespace {

uint16_t TestPort(int offset) {
  // Spread across runs to dodge TIME_WAIT collisions.
  return static_cast<uint16_t>(36200 + (::getpid() % 500) + offset);
}

TEST(PhysicalRuntime, UdpRoundTripOverLoopback) {
  PhysicalRuntime::Options opts;
  opts.rng_seed = 1;
  PhysicalRuntime rt(opts);

  struct Echo : UdpHandler {
    PhysicalRuntime* rt = nullptr;
    uint16_t port = 0;
    void HandleUdp(const NetAddress& src, std::string_view p) override {
      EXPECT_TRUE(rt->UdpSend(port, src, "echo:" + std::string(p)).ok());
    }
  } echo;
  echo.rt = &rt;
  echo.port = TestPort(0);

  struct Client : UdpHandler {
    PhysicalRuntime* rt = nullptr;
    std::string got;
    void HandleUdp(const NetAddress&, std::string_view p) override {
      got = std::string(p);
      rt->Stop();
    }
  } client;
  client.rt = &rt;

  ASSERT_TRUE(rt.UdpListen(echo.port, &echo).ok());
  uint16_t client_port = TestPort(1);
  ASSERT_TRUE(rt.UdpListen(client_port, &client).ok());

  NetAddress echo_addr{0x7f000001, echo.port};
  rt.ScheduleEvent(0, [&]() {
    ASSERT_TRUE(rt.UdpSend(client_port, echo_addr, "ping").ok());
  });
  // Watchdog so a lost datagram cannot hang the test binary.
  rt.ScheduleEvent(3 * kSecond, [&]() { rt.Stop(); });
  rt.Run();
  EXPECT_EQ(client.got, "echo:ping");
}

TEST(PhysicalRuntime, TimersFireInOrderOnWallClock) {
  PhysicalRuntime rt;
  std::vector<int> order;
  rt.ScheduleEvent(20 * kMillisecond, [&]() { order.push_back(2); });
  rt.ScheduleEvent(5 * kMillisecond, [&]() { order.push_back(1); });
  rt.ScheduleEvent(40 * kMillisecond, [&]() {
    order.push_back(3);
    rt.Stop();
  });
  TimeUs before = rt.Now();
  rt.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_GE(rt.Now() - before, 40 * kMillisecond);
}

TEST(PhysicalRuntime, UdpCcReliabilityRunsUnmodifiedOnRealSockets) {
  // The point of the VRI: UdpCc is the exact same code the simulator runs.
  PhysicalRuntime::Options aopts;
  aopts.advertised_port = TestPort(2);
  PhysicalRuntime rt(aopts);

  UdpCc a(&rt, TestPort(2));
  UdpCc b(&rt, TestPort(3));
  std::vector<std::string> got;
  b.set_message_handler([&](const NetAddress&, std::string_view p) {
    got.emplace_back(p);
  });
  int delivered = 0;
  rt.ScheduleEvent(0, [&]() {
    for (int i = 0; i < 5; ++i) {
      a.Send(NetAddress{0x7f000001, b.port()}, "m" + std::to_string(i),
             [&](const Status& s) {
               delivered += s.ok();
               if (delivered == 5) rt.Stop();
             });
    }
  });
  rt.ScheduleEvent(5 * kSecond, [&]() { rt.Stop(); });  // watchdog
  rt.Run();
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(got.size(), 5u);
}

TEST(PhysicalRuntime, ADhtBootsOnRealSockets) {
  // A single-node DHT (its own bootstrap) over the Physical Runtime: put,
  // then get through the full two-phase protocol on loopback.
  PhysicalRuntime::Options opts;
  opts.advertised_port = TestPort(4);
  PhysicalRuntime rt(opts);

  Dht::Options dopts;
  dopts.router.port = TestPort(4);
  Dht dht(&rt, dopts);
  dht.Join(NetAddress{});  // first node

  std::string got;
  rt.ScheduleEvent(50 * kMillisecond, [&]() {
    dht.Put("tbl", "k", "s", "physical", 60 * kSecond);
    rt.ScheduleEvent(200 * kMillisecond, [&]() {
      dht.Get("tbl", "k", [&](const Status& s, std::vector<DhtItem> items) {
        if (s.ok() && !items.empty()) got = items[0].value;
        rt.Stop();
      });
    });
  });
  rt.ScheduleEvent(5 * kSecond, [&]() { rt.Stop(); });  // watchdog
  rt.Run();
  EXPECT_EQ(got, "physical");
}

TEST(PhysicalRuntime, DhtsSharingAHostMintDistinctSuffixes) {
  // Two nodes on 127.0.0.1 differ only by their ports, so their object
  // names must carry the port: otherwise their writes under one (ns, key)
  // replace each other.
  PhysicalRuntime rt;
  Dht::Options aopts, bopts;
  aopts.router.port = TestPort(7);
  bopts.router.port = TestPort(8);
  Dht a(&rt, aopts), b(&rt, bopts);
  EXPECT_EQ(a.local_address().host, b.local_address().host);
  EXPECT_NE(a.NextSuffix(), b.NextSuffix());
}

TEST(PhysicalRuntime, FramedTcpDeliversEachFrameAndSurfacesAClose) {
  // One runtime, both ends of one loopback connection. Two frames written
  // back to back leave in one buffer; the receiver's framing splits them
  // into two deliveries. The dialer's close reaches the listener's side as
  // an error.
  PhysicalRuntime rt;
  struct Listener : TcpHandler {
    PhysicalRuntime* rt = nullptr;
    int accepted = 0;
    std::vector<std::string> frames;
    bool closed = false;
    void HandleTcpNew(uint64_t, const NetAddress&) override { accepted++; }
    void HandleTcpData(uint64_t, std::string_view data) override {
      frames.emplace_back(data);
    }
    void HandleTcpError(uint64_t) override {
      closed = true;
      rt->Stop();
    }
  } listener;
  listener.rt = &rt;
  struct Dialer : TcpHandler {
    PhysicalRuntime* rt = nullptr;
    bool opened = false;
    bool failed = false;
    void HandleTcpNew(uint64_t conn, const NetAddress&) override {
      opened = true;
      EXPECT_TRUE(rt->TcpWrite(conn, "first").ok());
      EXPECT_TRUE(rt->TcpWrite(conn, std::string(3000, 'x')).ok());
    }
    void HandleTcpData(uint64_t, std::string_view) override {}
    void HandleTcpError(uint64_t) override { failed = true; }
  } dialer;
  dialer.rt = &rt;

  const uint16_t port = TestPort(5);
  ASSERT_TRUE(rt.TcpListen(port, &listener).ok());
  uint64_t conn = 0;
  rt.ScheduleEvent(0, [&]() {
    Result<uint64_t> c = rt.TcpConnect(NetAddress{0x7f000001, port}, &dialer);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    conn = *c;
  });
  // Close once both frames are in; the watchdog bounds a lost close.
  std::function<void()> close_when_delivered = [&]() {
    if (listener.frames.size() >= 2) {
      rt.TcpClose(conn);
      return;
    }
    rt.ScheduleEvent(5 * kMillisecond, close_when_delivered);
  };
  rt.ScheduleEvent(5 * kMillisecond, close_when_delivered);
  rt.ScheduleEvent(5 * kSecond, [&]() { rt.Stop(); });
  rt.Run();
  rt.TcpRelease(port);

  EXPECT_TRUE(dialer.opened);
  EXPECT_FALSE(dialer.failed) << "the dialer closed its own end";
  EXPECT_EQ(listener.accepted, 1);
  ASSERT_EQ(listener.frames.size(), 2u);
  EXPECT_EQ(listener.frames[0], "first");
  EXPECT_EQ(listener.frames[1], std::string(3000, 'x'));
  EXPECT_TRUE(listener.closed) << "the close surfaced as an error";
}

TEST(PhysicalRuntime, MetricsEndpointAnswersAScrapeFromAnotherRuntime) {
  // The endpoint's runtime runs on its own thread; the scraper's runs here.
  MetricsRegistry registry;
  registry.GetCounter("pier_test_scrapes_total", {}, "scrape test")->Inc(3);
  PhysicalRuntime served;
  MetricsEndpoint endpoint(&served, &registry);
  const uint16_t port = TestPort(6);
  ASSERT_TRUE(endpoint.Listen(port).ok());
  std::thread serving([&served]() { served.Run(); });

  PhysicalRuntime scraper;
  std::string body;
  bool answered = false;
  scraper.ScheduleEvent(0, [&]() {
    ScrapeMetrics(&scraper, NetAddress{0x7f000001, port},
                  [&](std::string b) {
                    body = std::move(b);
                    answered = true;
                    scraper.Stop();
                  });
  });
  scraper.ScheduleEvent(5 * kSecond, [&]() { scraper.Stop(); });  // watchdog
  scraper.Run();
  served.Stop();
  serving.join();
  endpoint.Shutdown();

  EXPECT_TRUE(answered);
  EXPECT_NE(body.find("pier_test_scrapes_total 3"), std::string::npos)
      << body;
  EXPECT_EQ(body.find("HTTP/"), std::string::npos) << "header stripped";
  EXPECT_EQ(endpoint.stats().scrapes, 1u);
}

}  // namespace
}  // namespace pier
