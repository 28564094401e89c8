// Experiment E11 — §3.3.3 range predicates: Prefix Hash Tree range queries
// vs the broadcast alternative.
//
// 2000 integer keys are inserted into a PHT over a 2^20 key space. For each
// range width we issue range queries and report result counts, messages and
// virtual latency. The broadcast comparison point is the true-predicate
// index: reaching all N nodes costs ~N messages before any node even scans,
// while the PHT touches only the trie nodes overlapping the range.

#include "bench/bench_common.h"
#include "overlay/pht.h"
#include "qp/sim_pier.h"

namespace pier {
namespace {

constexpr uint32_t kNodes = 64;
constexpr int kKeys = 800;
constexpr uint64_t kSpace = 1ULL << 20;

void Run() {
  bench::Title("E11: PHT range queries vs broadcast scan");
  SimPier::Options opts;
  opts.sim.seed = 77;
  opts.seed_routing = true;
  opts.settle_time = 2 * kSecond;
  SimPier net(kNodes, opts);

  Pht::Options popts;
  popts.table = "ridx";
  popts.key_bits = 20;
  popts.bucket_size = 16;
  // The whole experiment spans ~6 virtual minutes; out-live it rather than
  // renewing (a real deployment would renew, §3.2.3 — the default 5-minute
  // lifetime otherwise garbage-collects the trie mid-measurement).
  popts.lifetime = 30LL * 60 * kSecond;
  Pht pht(net.dht(0), popts);

  // Inserts are paced: the PHT's split protocol is resilient to the races a
  // handful of concurrent inserts cause, but an unthrottled burst of
  // thousands (all against the same initial leaf) thrashes the trie — the
  // PHT paper [59] leaves high-concurrency splitting to future work, and so
  // do we (DESIGN.md §6).
  Rng rng(13);
  int inserted = 0;
  for (int i = 0; i < kKeys; ++i) {
    pht.Insert(rng.Uniform(kSpace), "v" + std::to_string(i),
               [&](const Status& s) { inserted += s.ok(); });
    if (i % 4 == 3) net.RunFor(1 * kSecond);  // let splits settle
  }
  net.RunFor(20 * kSecond);
  bench::Note("inserted " + std::to_string(inserted) + "/" +
              std::to_string(kKeys) + " keys into key space 2^20, bucket=16");

  Pht reader(net.dht(5), popts);
  std::vector<int> w = {14, 10, 12, 14, 16};
  bench::Row({"range width", "results", "msgs", "latency ms",
              "broadcast msgs>="},
             w);
  for (uint64_t width : {256ULL, 4096ULL, 65536ULL, 262144ULL}) {
    uint64_t lo = rng.Uniform(kSpace - width);
    // Idle baseline over an identical window (maintenance traffic), then
    // the query window; the difference is the query's own message cost.
    net.harness()->ResetStats();
    net.RunFor(15 * kSecond);
    uint64_t idle = net.harness()->total_msgs();
    net.harness()->ResetStats();
    TimeUs start = net.loop()->now();
    size_t results = 0;
    TimeUs lat = -1;
    reader.RangeQuery(lo, lo + width - 1,
                      [&](const Status& s, std::vector<PhtItem> items) {
                        if (s.ok()) results = items.size();
                        lat = net.loop()->now() - start;
                      });
    net.RunFor(15 * kSecond);
    uint64_t msgs = net.harness()->total_msgs();
    bench::Row({std::to_string(width), std::to_string(results),
                std::to_string(msgs > idle ? msgs - idle : 0), bench::Ms(lat),
                std::to_string(kNodes)},
               w);
  }
  bench::Note(
      "expected shape: narrow ranges touch a handful of trie leaves (message "
      "cost << N); cost grows with range width and approaches the broadcast "
      "cost only for ranges covering much of the key space.");
}

}  // namespace
}  // namespace pier

int main() {
  pier::Run();
  return 0;
}
