// Experiment E12 — §3.1.4's simulator scalability: "capable of simulating
// thousands of virtual nodes on a single physical machine".
//
// For each N we boot a seeded DHT network, apply a light put/get workload,
// run 30 virtual seconds, and report wall-clock time, executed events, and
// events per wall second. The claim holds if wall time grows roughly
// linearly in total event count (no super-linear blowup with N).

#include <chrono>

#include "bench/bench_common.h"
#include "qp/sim_pier.h"

namespace pier {
namespace {

void Measure(uint32_t n) {
  auto t0 = std::chrono::steady_clock::now();

  SimPier::Options opts;
  opts.sim.seed = 23;
  opts.seed_routing = true;
  opts.settle_time = 1 * kSecond;
  SimPier net(n, opts);

  // One put and one get per node, spread over the run.
  Rng rng(99);
  for (uint32_t i = 0; i < n; ++i) {
    net.dht(i)->Put("load", "k" + std::to_string(rng.Next() % (n * 4)), "s",
                    "value", 60 * kSecond);
  }
  net.RunFor(10 * kSecond);
  for (uint32_t i = 0; i < n; ++i) {
    net.dht(i)->Get("load", "k" + std::to_string(rng.Next() % (n * 4)),
                    [](const Status&, std::vector<DhtItem>) {});
  }
  net.RunFor(20 * kSecond);

  auto t1 = std::chrono::steady_clock::now();
  double wall_s = std::chrono::duration<double>(t1 - t0).count();
  uint64_t events = net.loop()->events_executed();

  std::vector<int> w = {8, 12, 14, 16, 16};
  bench::Row({std::to_string(n), bench::Fmt(wall_s, 2),
              std::to_string(events),
              bench::Fmt(events / wall_s / 1000.0, 0) + "k/s",
              bench::Fmt(wall_s / 30.0, 3)},
             w);
}

void Run() {
  bench::Title("E12: simulator scalability (30 virtual seconds per N)");
  std::vector<int> w = {8, 12, 14, 16, 16};
  bench::Row({"N", "wall s", "events", "events/wall-s", "wall-s/sim-s"}, w);
  for (uint32_t n : {100u, 500u, 1000u, 2000u, 4000u}) Measure(n);
  bench::Note(
      "expected shape: events grow ~linearly with N (maintenance dominates); "
      "events/wall-second stays in the same order of magnitude, i.e. "
      "thousands of nodes are simulable on one machine.");
}

}  // namespace
}  // namespace pier

int main() {
  pier::Run();
  return 0;
}
