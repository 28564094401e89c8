// Experiment E5 — §2.1.1's scalability claim: per-operation overhead grows
// only logarithmically with the number of nodes.
//
// For each network size we issue routed sends between random (node,
// identifier) pairs and report the mean delivery hop count, plus the mean
// virtual-time latency of a two-phase get. The hop counts should track
// log2(N)/2-ish on the Chord ring.

#include <cmath>

#include "bench/bench_common.h"
#include "qp/sim_pier.h"

namespace pier {
namespace {

struct Point {
  double mean_hops = 0;
  double get_ms = 0;
};

Point Measure(uint32_t n, uint64_t seed) {
  SimPier::Options opts;
  opts.sim.seed = seed;
  opts.seed_routing = true;
  opts.settle_time = 2 * kSecond;
  SimPier net(n, opts);

  const int kOps = 200;
  Rng rng(seed * 7 + 1);
  // Routed sends: hop counts are recorded by the owner's Dht stats.
  for (int i = 0; i < kOps; ++i) {
    uint32_t src = static_cast<uint32_t>(rng.Uniform(n));
    net.dht(src)->Send("scale", "k" + std::to_string(rng.Next()), "s", "x",
                       60 * kSecond);
  }
  net.RunFor(10 * kSecond);

  uint64_t deliveries = 0, hops = 0;
  for (uint32_t i = 0; i < n; ++i) {
    deliveries += net.dht(i)->stats().routed_deliveries;
    hops += net.dht(i)->stats().routed_delivery_hops;
  }

  // Two-phase gets: measure virtual latency (issued concurrently so large
  // networks don't spend hundreds of virtual seconds on maintenance).
  TimeUs total_get = 0;
  int got = 0;
  TimeUs start = net.loop()->now();
  for (int i = 0; i < 50; ++i) {
    uint32_t src = static_cast<uint32_t>(rng.Uniform(n));
    net.dht(src)->Get("scale", "probe" + std::to_string(i),
                      [&, start](const Status&, std::vector<DhtItem>) {
                        total_get += net.loop()->now() - start;
                        got++;
                      });
  }
  net.RunFor(8 * kSecond);

  Point p;
  p.mean_hops = deliveries ? static_cast<double>(hops) / deliveries : 0;
  p.get_ms = got ? static_cast<double>(total_get) / got / kMillisecond : -1;
  return p;
}

void Run() {
  bench::Title("E5: DHT per-op overhead vs network size (log-N claim)");
  std::vector<int> w = {8, 14, 14, 10};
  bench::Row({"N", "chord hops", "chord get ms", "log2(N)"}, w);
  for (uint32_t n : {16u, 64u, 256u, 1024u, 4096u}) {
    Point chord = Measure(n, 11);
    bench::Row({std::to_string(n), bench::Fmt(chord.mean_hops, 2),
                bench::Fmt(chord.get_ms),
                bench::Fmt(std::log2(static_cast<double>(n)), 1)},
               w);
  }
  bench::Note("expected shape: hop counts grow ~logarithmically.");
}

}  // namespace
}  // namespace pier

int main() {
  pier::Run();
  return 0;
}
