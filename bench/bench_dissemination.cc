// Experiment E10 — §3.3.3 query dissemination: broadcast reach, cover time
// and cost.
//
// A broadcast splits the ring along each node's routing contacts and cached
// owners, with no root and no JOIN maintenance (src/overlay/README.md,
// "Broadcast"), so its shape is inherited from the DHT's routing state. For
// each N we report reach (nodes covered), time to full coverage, broadcast
// frames, and the shape of who forwarded to whom: the largest fan-out and
// the share of nodes that forwarded at all. The "chord+c" row broadcasts
// from an originator whose owner cache 4N lookups warmed first; the "chord"
// row starts from cold caches.
//
// Self-checking: exits 1 unless every node is reached, no node's handler
// runs twice, and the broadcast takes exactly N-1 frames.
// PIER_BENCH_SMOKE=1 runs only N=64.

#include <algorithm>
#include <cstdlib>

#include "bench/bench_common.h"
#include "qp/sim_pier.h"
#include "util/hash.h"

namespace pier {
namespace {

bool Measure(uint32_t n, const char* name, uint32_t warm_lookups = 0) {
  SimPier::Options opts;
  opts.sim.seed = 13;
  opts.seed_routing = true;
  opts.settle_time = 1 * kSecond;
  SimPier net(n, opts);

  std::vector<TimeUs> arrival(n, -1);
  std::vector<int> runs(n, 0);
  for (uint32_t i = 0; i < n; ++i) {
    net.dht(i)->router()->set_broadcast_handler([&, i](std::string_view) {
      if (runs[i]++ == 0) arrival[i] = net.loop()->now();
    });
  }

  OverlayRouter* origin = net.dht(0)->router();
  for (uint32_t i = 0; i < warm_lookups; ++i)
    origin->Lookup(HashCombine(0x3a11, i),
                   [](const Result<OverlayRouter::Owner>&) {});
  if (warm_lookups > 0) net.RunFor(5 * kSecond);

  TimeUs start = net.loop()->now();
  origin->Broadcast("opgraph");
  net.RunFor(15 * kSecond);

  uint32_t reached = 0, twice = 0;
  TimeUs last = 0;
  uint64_t frames = 0, max_fanout = 0;
  size_t interior = 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (arrival[i] >= 0) {
      reached++;
      last = std::max(last, arrival[i] - start);
    }
    twice += runs[i] > 1;
    uint64_t fanout = net.dht(i)->router()->stats().broadcast_frames;
    frames += fanout;
    interior += fanout > 0;
    max_fanout = std::max(max_fanout, fanout);
  }

  std::vector<int> w = {8, 8, 10, 14, 14, 10, 12};
  bench::Row({name, std::to_string(n),
              std::to_string(reached) + "/" + std::to_string(n),
              bench::Ms(last) + "ms", std::to_string(frames),
              std::to_string(max_fanout),
              bench::Fmt(100.0 * interior / n, 0) + "%"},
             w);
  bool ok = reached == n && twice == 0 && frames == n - 1;
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL %s N=%u: reached %u, %u handlers ran twice, %llu "
                 "frames (want N-1)\n",
                 name, n, reached, twice,
                 static_cast<unsigned long long>(frames));
  }
  return ok;
}

int Run() {
  bench::Title("E10: broadcast over the routing state — reach, latency, shape");
  std::vector<int> w = {8, 8, 10, 14, 14, 10, 12};
  bench::Row({"proto", "N", "reach", "cover time", "bcast frames", "max fan",
              "interior%"},
             w);
  std::vector<uint32_t> sizes = {64u, 256u, 512u};
  if (std::getenv("PIER_BENCH_SMOKE") != nullptr) sizes = {64u};
  bool ok = true;
  for (uint32_t n : sizes) {
    ok &= Measure(n, "chord");
    ok &= Measure(n, "chord+c", 4 * n);
  }
  bench::Note(
      "expected shape: full reach in exactly N-1 frames. From cold caches "
      "cover time grows with log N (each hop halves the interval left) and "
      "the originator's fan-out is about its distinct contacts. With a warm "
      "cache (chord+c) the originator sends to about every node itself, "
      "one hop deep; this network has no uplink queue, so the cover time "
      "leaves out what that fan-out costs the originator's uplink.");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace pier

int main() { return pier::Run(); }
