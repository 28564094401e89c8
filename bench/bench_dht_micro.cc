// Experiment E4 — Table 2's surface, measured: per-operation latency
// (virtual time) and message cost of the overlay wrapper's four inter-node
// operations on a 32-node seeded network.
//
//   put    lookup + direct store (two-phase, Figure 6)
//   get    lookup + request + response
//   send   hop-by-hop routing (one call, more hops, bigger messages)
//   renew  lookup + lightweight refresh

#include <cstdlib>

#include "bench/bench_common.h"
#include "qp/sim_pier.h"

namespace pier {
namespace {

constexpr uint32_t kNodes = 32;
// PIER_BENCH_SMOKE=1 shrinks the op count for CI smoke runs.
const int kOps = std::getenv("PIER_BENCH_SMOKE") != nullptr ? 20 : 100;

struct OpCost {
  double latency_ms = 0;
  double msgs = 0;
  double bytes = 0;
};

void Report(const char* name, const OpCost& c) {
  std::vector<int> w = {10, 14, 12, 12};
  bench::Row({name, bench::Fmt(c.latency_ms), bench::Fmt(c.msgs),
              bench::Fmt(c.bytes, 0)},
             w);
}

void Run() {
  bench::Title("E4: overlay wrapper operation costs (Table 2 surface)");
  bench::Note("N=" + std::to_string(kNodes) + ", " + std::to_string(kOps) +
              " ops each, seeded routing, idle-baseline subtracted");

  SimPier::Options opts;
  opts.sim.seed = 21;
  opts.seed_routing = true;
  opts.settle_time = 2 * kSecond;
  SimPier net(kNodes, opts);
  Rng rng(5);

  // Preload objects for get/renew.
  for (int i = 0; i < kOps; ++i) {
    net.dht(i % kNodes)->Put("mb", "key" + std::to_string(i), "s", "value",
                             10LL * 60 * kSecond);
  }
  net.RunFor(5 * kSecond);

  // The op window lasts kOps*200ms + 3s; measure the maintenance baseline
  // over an identical adjacent window so the periodic bursts cancel.
  const TimeUs kWindow = kOps * 200 * kMillisecond + 3 * kSecond;
  auto idle_window = [&]() {
    net.harness()->ResetStats();
    net.RunFor(kWindow);
    return std::pair<uint64_t, uint64_t>(net.harness()->total_msgs(),
                                         net.harness()->total_bytes());
  };

  auto measure = [&](auto issue) {
    auto [idle_msgs, idle_bytes] = idle_window();
    net.harness()->ResetStats();
    TimeUs total_latency = 0;
    int done = 0;
    for (int i = 0; i < kOps; ++i) {
      issue(i, [&, start = net.loop()->now()]() {
        total_latency += net.loop()->now() - start;
        done++;
      });
      net.RunFor(200 * kMillisecond);
    }
    net.RunFor(3 * kSecond);
    OpCost c;
    c.latency_ms =
        done ? static_cast<double>(total_latency) / done / kMillisecond : -1;
    c.msgs = (static_cast<double>(net.harness()->total_msgs()) - idle_msgs) /
             kOps;
    c.bytes = (static_cast<double>(net.harness()->total_bytes()) - idle_bytes) /
              kOps;
    return c;
  };

  std::vector<int> w = {10, 14, 12, 12};
  bench::Row({"op", "latency ms", "msgs/op", "bytes/op"}, w);

  OpCost put = measure([&](int i, auto done) {
    net.dht(rng.Uniform(kNodes))
        ->Put("mb2", "put" + std::to_string(i), "s", "value",
              10LL * 60 * kSecond, [done](const Status&) { done(); });
  });
  Report("put", put);

  OpCost get = measure([&](int i, auto done) {
    net.dht(rng.Uniform(kNodes))
        ->Get("mb", "key" + std::to_string(i),
              [done](const Status&, std::vector<DhtItem>) { done(); });
  });
  Report("get", get);

  // Send has no completion callback (one-way); measure arrival via newData
  // at every node.
  {
    auto arrivals = std::make_shared<std::vector<TimeUs>>();
    std::vector<uint64_t> subs;
    for (uint32_t i = 0; i < kNodes; ++i) {
      subs.push_back(net.dht(i)->OnNewData(
          "mb3", [arrivals, &net](const ObjectName&, std::string_view) {
            arrivals->push_back(net.loop()->now());
          }));
    }
    const TimeUs kSendWindow = kOps * 500 * kMillisecond;
    net.harness()->ResetStats();
    net.RunFor(kSendWindow);
    uint64_t idle_msgs = net.harness()->total_msgs();
    uint64_t idle_bytes = net.harness()->total_bytes();
    net.harness()->ResetStats();
    TimeUs total_latency = 0;
    for (int i = 0; i < kOps; ++i) {
      TimeUs start = net.loop()->now();
      arrivals->clear();
      net.dht(rng.Uniform(kNodes))
          ->Send("mb3", "send" + std::to_string(i), "s", "value",
                 10LL * 60 * kSecond);
      net.RunFor(500 * kMillisecond);
      if (!arrivals->empty()) total_latency += arrivals->front() - start;
    }
    OpCost c;
    c.latency_ms = static_cast<double>(total_latency) / kOps / kMillisecond;
    c.msgs = (static_cast<double>(net.harness()->total_msgs()) - idle_msgs) /
             kOps;
    c.bytes = (static_cast<double>(net.harness()->total_bytes()) - idle_bytes) /
              kOps;
    Report("send", c);
    for (uint32_t i = 0; i < kNodes; ++i) net.dht(i)->CancelNewData(subs[i]);
  }

  OpCost renew = measure([&](int i, auto done) {
    net.dht(rng.Uniform(kNodes))
        ->Renew("mb", "key" + std::to_string(i), "s", 10LL * 60 * kSecond,
                [done](const Status&) { done(); });
  });
  Report("renew", renew);

  // Batched put, reported per ITEM so the row compares against "put"
  // directly: one PutBatch of kBatch objects counts as kBatch ops.
  {
    constexpr int kBatch = 8;
    uint64_t batched_before = 0, batch_msgs_before = 0;
    for (uint32_t i = 0; i < kNodes; ++i) {
      Dht::Stats s = net.dht(i)->stats();
      batched_before += s.batched_puts;
      batch_msgs_before += s.batch_msgs;
    }
    OpCost batch = measure([&](int i, auto done) {
      std::vector<DhtPutItem> items;
      items.reserve(kBatch);
      for (int j = 0; j < kBatch; ++j) {
        DhtPutItem item;
        item.ns = "mb4";
        item.key = "bk" + std::to_string(i * kBatch + j);
        item.suffix = "s";
        item.value = "value";
        item.lifetime = 10LL * 60 * kSecond;
        items.push_back(std::move(item));
      }
      net.dht(rng.Uniform(kNodes))
          ->PutBatch(std::move(items),
                     [done](const Status&, std::vector<Dht::PutGroupStatus>) {
                       done();
                     });
    });
    batch.msgs /= kBatch;
    batch.bytes /= kBatch;
    Report("put(b=8)", batch);
    uint64_t batched = 0, batch_msgs = 0;
    for (uint32_t i = 0; i < kNodes; ++i) {
      Dht::Stats s = net.dht(i)->stats();
      batched += s.batched_puts;
      batch_msgs += s.batch_msgs;
    }
    bench::Note("dht stats: " + std::to_string(batched - batched_before) +
                " objects rode " +
                std::to_string(batch_msgs - batch_msgs_before) +
                " multi-object frames (rest were singleton-owner puts)");
  }

  bench::Note(
      "expected shape: put ≈ get ≈ renew (lookup-dominated, two-phase); "
      "send completes in one routed pass (lower latency, fewer round "
      "trips); put(b=8) amortizes headers/acks across the batch, so its "
      "per-item msgs and bytes land below put's.");
}

}  // namespace
}  // namespace pier

int main() {
  pier::Run();
  return 0;
}
