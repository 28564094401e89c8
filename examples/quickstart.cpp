// Quickstart: boot a simulated PIER network, declare a table in the client
// catalog, publish tuples, and run SQL through the PierClient façade.
//
//   $ build/quickstart
//
// Everything happens in virtual time inside one process — the same node code
// would run unmodified on the Physical Runtime (the paper's "native
// simulation" design, §2.1.3).

#include <cstdio>

#include "qp/sim_pier.h"
#include "util/logging.h"

using namespace pier;

int main() {
  // 1. A 20-node PIER network: each node runs a DHT (Chord by default) and a
  //    query processor. seed_routing=true installs converged routing state so
  //    the example starts instantly; settle_time lets ring maintenance
  //    settle.
  SimPier::Options options;
  options.sim.seed = 42;
  options.settle_time = 8 * kSecond;
  SimPier net(20, options);
  std::printf("booted %zu PIER nodes\n", net.size());

  // 2. Declare the table ONCE in the shared client catalog. PIER's core has
  //    no system catalog (§4.2.1) — this is client-side metadata that both
  //    publishing and SQL compilation read, so the partitioning attributes
  //    can never drift between the two.
  PIER_CHECK(net.catalog()
                 ->Register(TableSpec("deploy").PartitionBy({"service"}))
                 .ok());

  // 3. Publish a little table of service deployments. The catalog routes
  //    each tuple to its primary index (partitioned by "service", §3.3.3);
  //    had the spec declared secondary or range indexes, the same Publish
  //    would fan out to those too. Tuples are still self-describing — no
  //    schema is declared anywhere.
  const char* services[] = {"web", "web", "cache", "db", "web", "cache"};
  for (int i = 0; i < 6; ++i) {
    Tuple t("deploy");
    t.Append("service", Value::String(services[i]));
    t.Append("instance", Value::Int64(i));
    t.Append("cpu", Value::Double(0.1 * (i + 1)));
    // Publish from different nodes: data enters wherever it lives.
    PIER_CHECK(net.client(i % net.size())->Publish("deploy", t).ok());
  }
  net.RunFor(2 * kSecond);  // let the puts route

  // 4. Submit SQL at any node — that node becomes the query's proxy.
  //    Equality on the partition key -> the opgraph is routed only to the
  //    one node owning that partition (no broadcast). Collect() drives the
  //    simulation until the query's timeout and returns the answers.
  auto q = net.client(7)->Query(
      Sql("SELECT instance, cpu FROM deploy WHERE service = 'web' TIMEOUT 5s"));
  if (!q.ok()) {
    std::printf("query error: %s\n", q.status().ToString().c_str());
    return 1;
  }
  std::vector<Tuple> rows = q->Collect();
  for (const Tuple& t : rows)
    std::printf("  answer: %s\n", t.ToString().c_str());
  std::printf("%zu rows, done=%s, first answer after %.1f ms\n", rows.size(),
              q->done() ? "true" : "false",
              static_cast<double>(q->stats().first_tuple_latency) /
                  kMillisecond);

  // 5. An aggregate over the whole network, disseminated by broadcast and
  //    collected with the two-phase (partial/final) strategy — this time
  //    streaming results through OnTuple instead of collecting.
  auto agg = net.client(3)->Query(
      Sql("SELECT service, count(*) AS n, avg(cpu) AS load FROM deploy "
          "GROUP BY service TIMEOUT 10s"));
  if (!agg.ok()) {
    std::printf("query error: %s\n", agg.status().ToString().c_str());
    return 1;
  }
  std::printf("\naggregate:\n");
  agg->OnTuple([](const Tuple& t) {
    std::printf("  %s\n", t.ToString().c_str());
  });
  PIER_CHECK(agg->Wait().ok());

  // 6. EXPLAIN: the client compiles the query through the cost-based
  //    optimizer (fed by the statistics Publish accrued) and reports the
  //    chosen physical plan with a per-operator network-cost breakdown —
  //    without running anything. Submit result->plan to run exactly what
  //    was explained.
  auto explain = net.client(7)->Explain(
      Sql("SELECT service, count(*) AS n FROM deploy GROUP BY service "
          "TIMEOUT 10s"));
  if (explain.ok()) {
    std::printf("\n%s", explain->ToString().c_str());
  }

  // 7. The catalog also catches mistakes the old interface let time out
  //    silently: querying a table nobody ever declared fails at submission.
  auto bad = net.client(0)->Query(Sql("SELECT * FROM nosuch TIMEOUT 5s"));
  std::printf("\nquerying an undeclared table: %s\n",
              bad.status().ToString().c_str());
  return 0;
}
