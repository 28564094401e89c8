// Range-index demo (§3.3.3): the Prefix Hash Tree as PIER's range-predicate
// index, driven through a hand-written UFL plan.
//
//   $ build/range_scan_demo
//
// The catalog declares a PHT range index on readings.temp, so ONE
// client.Publish call lands each tuple in both the primary index and the
// trie. A range query's opgraph is disseminated only to the proxy, which
// pulls the matching tuples out of the trie and injects them into the local
// dataflow (source[inject=1] is the range access method).

#include <cstdio>

#include "qp/sim_pier.h"
#include "util/logging.h"

using namespace pier;

int main() {
  SimPier::Options options;
  options.sim.seed = 23;
  options.settle_time = 6 * kSecond;
  SimPier net(24, options);

  // readings(temp, sensor): primary index on sensor, plus a PHT range index
  // on temp over a 10-bit key space.
  PIER_CHECK(net.catalog()
                 ->Register(TableSpec("readings")
                                .PartitionBy({"sensor"})
                                .RangeIndex("temp", /*key_bits=*/10,
                                            "readings_by_temp"))
                 .ok());

  Rng rng(9);
  std::printf(
      "publishing 120 sensor readings (primary + PHT range index)...\n");
  for (int i = 0; i < 120; ++i) {
    Tuple t("readings");
    t.Append("temp", Value::Int64(static_cast<int64_t>(rng.Uniform(1024))));
    t.Append("sensor", Value::Int64(i));
    PIER_CHECK(net.client(i % net.size())->Publish("readings", t).ok());
    if (i % 4 == 3) net.RunFor(500 * kMillisecond);  // pace the trie splits
  }
  net.RunFor(10 * kSecond);

  // A UFL plan: range dissemination over [700, 800], local selection for a
  // residual predicate, and the result handler.
  auto q = net.client(3)->Query(Ufl(R"(
    query { timeout = 10s; }
    graph g1 range(readings_by_temp, 700, 800) {
      src: source    [inject=1, pht_key_bits=10];
      sel: selection [pred="sensor % 2 = 0"];
      out: result;
      src -> sel -> out;
    }
  )"));
  if (!q.ok()) {
    std::printf("query error: %s\n", q.status().ToString().c_str());
    return 1;
  }
  std::vector<Tuple> rows = q->Collect();
  for (const Tuple& t : rows) std::printf("  %s\n", t.ToString().c_str());
  std::printf("%zu readings with temp in [700, 800] from even sensors\n",
              rows.size());
  return 0;
}
