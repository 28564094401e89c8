// Experiment E6 — §3.3.4 hierarchical aggregation: distributing the
// collection point's in-bandwidth.
//
// Three physical strategies for the same GROUP BY COUNT query over in-situ
// logs, swept over network size:
//
//   central  every node ships raw partials to ONE collection key
//   flat     two-phase: local partials rehashed by group key (many owners)
//   hier     partials combined in-network on the aggregation tree
//
// Reported: messages, bytes and max per-node inbound messages attributable
// to the query (idle-baseline subtracted), plus answer completeness. The
// paper's claim: hierarchical computation bounds the in-bandwidth at the root
// ("in the optimal case, each node sends exactly one partial aggregate").
//
// Self-checking: exits nonzero unless, at every N, the three strategies return
// identical per-src counts that sum to the number of events loaded.
// PIER_BENCH_SMOKE=1 runs only N=32.

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>

#include "apps/netmon.h"
#include "apps/workloads.h"
#include "bench/bench_common.h"

namespace pier {
namespace {

struct Cost {
  uint64_t total_msgs = 0;
  uint64_t total_bytes = 0;
  uint64_t max_in_msgs = 0;
  uint64_t events_loaded = 0;
  std::map<std::string, int64_t> counts;  // src -> cnt, the query's answer
};

/// Measure a strategy on a fresh network of `n` nodes.
Cost Measure(uint32_t n, const std::string& strategy, uint64_t seed) {
  SimPier::Options popts;
  popts.sim.seed = seed;
  popts.settle_time = 8 * kSecond;
  SimPier net(n, popts);

  FirewallOptions fopts;
  fopts.num_sources = 100;
  fopts.events_per_node = 25;
  fopts.seed = seed + 1;
  FirewallWorkload wl(fopts);
  NetmonApp app(&net);
  app.LoadLogs(wl);
  net.RunFor(1 * kSecond);
  Cost cost;
  for (uint32_t i = 0; i < n; ++i)
    cost.events_loaded += wl.EventsForNode(i).size();

  const TimeUs kQueryTime = 16 * kSecond;

  // Idle baseline over the same horizon (DHT + tree maintenance).
  net.harness()->ResetStats();
  net.RunFor(kQueryTime + 2 * kSecond);
  uint64_t base_total = net.harness()->total_msgs();
  uint64_t base_bytes = net.harness()->total_bytes();
  std::vector<uint64_t> base_in(n);
  for (uint32_t i = 0; i < n; ++i)
    base_in[i] = net.harness()->node_stats(i).msgs_recv;

  net.harness()->ResetStats();
  // Hier roots may re-emit refined totals; the latest row per src wins.
  auto on_tuple = [&](const Tuple& t) {
    const Value* s = t.Get("src");
    const Value* c = t.Get("cnt");
    if (s && c && c->type() == ValueType::kInt64)
      cost.counts[std::string(*s->AsString())] = c->int64_unchecked();
  };

  if (strategy == "central") {
    // scan -> put(const key)  +  newdata -> groupby(local) -> result.
    QueryPlan plan;
    plan.query_id = 0xC0FFEE ^ seed ^ n;
    plan.timeout = kQueryTime;
    std::string ns = "q" + std::to_string(plan.query_id) + ".central";
    OpGraph& g1 = plan.AddGraph();
    OpSpec& scan = g1.AddOp(OpKind::kScan);
    scan.Set("ns", "fw");
    uint32_t scan_id = scan.id;
    OpSpec& put = g1.AddOp(OpKind::kPut);
    put.Set("ns", ns);
    put.Set("key", "");
    g1.Connect(scan_id, put.id, 0);

    OpGraph& g2 = plan.AddGraph();
    g2.dissem = DissemKind::kEquality;
    g2.dissem_ns = ns;
    g2.dissem_key = Tuple().PartitionKey({});
    g2.flush_stage = 1;
    OpSpec& nd = g2.AddOp(OpKind::kNewData);
    nd.Set("ns", ns);
    uint32_t nd_id = nd.id;
    OpSpec& agg = g2.AddOp(OpKind::kGroupBy);
    agg.Set("keys", "src");
    agg.Set("aggs", "count::cnt");
    uint32_t agg_id = agg.id;
    g2.Connect(nd_id, agg_id, 0);
    OpSpec& res = g2.AddOp(OpKind::kResult);
    g2.Connect(agg_id, res.id, 0);

    auto q = net.client(0)->Query(std::move(plan));
    bench::Check(q, "central query").OnTuple(on_tuple);
  } else {
    auto q = net.client(0)->Query(
        Sql("SELECT src, count(*) AS cnt FROM fw GROUP BY src TIMEOUT " +
            std::to_string(kQueryTime / kMillisecond) + "ms")
            .WithAggStrategy(strategy));
    bench::Check(q, "aggregation query").OnTuple(on_tuple);
  }
  net.RunFor(kQueryTime + 2 * kSecond);

  uint64_t total = net.harness()->total_msgs();
  cost.total_msgs = total > base_total ? total - base_total : 0;
  uint64_t bytes = net.harness()->total_bytes();
  cost.total_bytes = bytes > base_bytes ? bytes - base_bytes : 0;
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t in = net.harness()->node_stats(i).msgs_recv;
    uint64_t delta = in > base_in[i] ? in - base_in[i] : 0;
    cost.max_in_msgs = std::max(cost.max_in_msgs, delta);
  }
  return cost;
}

/// Run the sweep; returns false when the strategies' answers disagree.
bool Run() {
  bench::Title("E6: aggregation strategies — in-bandwidth at the collector");
  std::vector<int> w = {6, 10, 12, 12, 13, 8, 8};
  bench::Row({"N", "strategy", "query msgs", "query KB", "max in-msgs",
              "groups", "counted"},
             w);
  std::vector<uint32_t> sizes = {32u, 64u, 128u};
  if (std::getenv("PIER_BENCH_SMOKE") != nullptr) sizes = {32u};
  bool ok = true;
  for (uint32_t n : sizes) {
    std::map<std::string, int64_t> central_counts;
    for (const char* strategy : {"central", "flat", "hier"}) {
      Cost c = Measure(n, strategy, 71);
      int64_t answered = 0;
      for (const auto& [src, cnt] : c.counts) {
        (void)src;
        answered += cnt;
      }
      bench::Row({std::to_string(n), strategy, std::to_string(c.total_msgs),
                  bench::Fmt(c.total_bytes / 1024.0, 0),
                  std::to_string(c.max_in_msgs),
                  std::to_string(c.counts.size()), std::to_string(answered)},
                 w);
      if (answered != static_cast<int64_t>(c.events_loaded)) {
        std::fprintf(stderr,
                     "FAIL: N=%u %s counted %lld events, %llu were loaded\n",
                     n, strategy, static_cast<long long>(answered),
                     static_cast<unsigned long long>(c.events_loaded));
        ok = false;
      }
      if (std::string(strategy) == "central") {
        central_counts = c.counts;
      } else if (c.counts != central_counts) {
        std::fprintf(stderr,
                     "FAIL: N=%u %s per-src counts differ from central's\n",
                     n, strategy);
        ok = false;
      }
    }
  }
  bench::Note(
      "expected shape: 'central' concentrates ~N partial batches on one "
      "node (max in-msgs grows with N); 'flat' spreads group partitions; "
      "'hier' combines partials in-network so the root's in-bandwidth stays "
      "nearly flat as N grows. Every strategy counts every loaded event.");
  return ok;
}

}  // namespace
}  // namespace pier

int main() { return pier::Run() ? 0 : 1; }
