// Experiment E17 — the continuous-query lifecycle: does live replanning pay?
//
// A continuous aggregation query (GROUP BY over a NON-partition column, so
// every data-holding node must rehash its per-window partials) is submitted
// while the table is nearly empty — the optimizer's only sound choice is
// flat two-phase aggregation. Mid-run the workload shifts: the table grows
// dense (tuples >> nodes, most nodes holding data), the regime where the
// aggregation tree wins (§3.3.4, src/opt/README.md). A frozen plan keeps
// paying the flat rehash every window forever; `replan=auto` notices the
// shifted statistics, re-runs the optimizer, and swaps to hierarchical
// aggregation at a window boundary.
//
// Four runs share the SAME publish schedule on the SAME seed:
//   no-query      publishes only — the maintenance + publish baseline
//   frozen-flat   what you get today: plan fixed at submission (flat)
//   replan-auto   starts flat, expected to swap to hier after the shift
//   frozen-hier   the post-shift oracle, wrong for the sparse start
// Measured: network bytes during a post-shift steady-state tail, minus the
// no-query baseline — i.e. the query's own per-window aggregation cost —
// plus answers delivered and swap count.
//
// The bench FAILS (nonzero exit) if replan-auto never swaps, or if its tail
// cost is strictly the worst of the three query configurations.
//
// E17b (appended): swap-time catch-up. A running flat continuous query over
// a table with history is plan-swapped mid-stream; the swapped-in Scans
// re-read live soft state, and without the swap-time high-water mark the
// first post-swap window re-counts the whole table. The bench FAILS unless
// the first post-swap window's count matches the steady-state window count.
//
// E17c (appended): window latency. A flat windowed GROUP BY over a Poisson
// stream of single publishes, the shape of the repository benchmark's
// continuous workload. Each answer row's delay is measured from the newest
// tuple it counts, which is never later than its window's end. The bench
// FAILS unless that delay is at most 1.5 windows at p99, and the windows'
// counts add up to the tuples published.

#include <cstdio>
#include <limits>
#include <map>
#include <string>

#include "bench/bench_common.h"
#include "qp/sim_pier.h"
#include "util/logging.h"
#include "util/random.h"

namespace pier {
namespace {

constexpr uint32_t kNodes = 24;
constexpr int kCats = 32;           // distinct group keys (not the partition)
constexpr int kShiftTuples = 1536;  // the mid-run cardinality shift

struct Outcome {
  uint64_t answers = 0;
  uint32_t replans = 0;
  uint64_t tail_bytes = 0;
};

/// Publish one event: unique id (the partition key — tuples spread across
/// every node), rotating category (the group key).
void PublishOne(SimPier* net, int64_t* next_id) {
  int64_t id = (*next_id)++;
  Tuple e("ev");
  e.Append("id", Value::Int64(id));
  e.Append("cat", Value::String("c" + std::to_string(id % kCats)));
  Status s = net->client(static_cast<uint32_t>(id % kNodes))->Publish("ev", e);
  if (!s.ok()) {
    std::fprintf(stderr, "publish failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
}

Outcome RunConfig(const std::string& config, uint64_t seed) {
  SimPier::Options popts;
  popts.sim.seed = seed;
  popts.settle_time = 8 * kSecond;
  SimPier net(kNodes, popts);
  PIER_CHECK(net.catalog()->Register(TableSpec("ev").PartitionBy({"id"})).ok());
  net.RunFor(1 * kSecond);
  int64_t next_id = 0;

  Outcome out;
  QueryHandle handle;
  if (config != "no-query") {
    Sql query(
        "SELECT cat, count(*) AS cnt FROM ev GROUP BY cat "
        "TIMEOUT 120s WINDOW 3s CONTINUOUS");
    if (config == "frozen-hier") query.WithAggStrategy("hier");
    if (config == "replan-auto") query.WithReplan("auto");
    auto q = net.client(0)->Query(query);
    handle = bench::Check(q, "continuous query").OnTuple([&](const Tuple&) {
      out.answers++;
    });
  }
  net.RunFor(2 * kSecond);

  // Sparse phase: a trickle, far below the optimizer's trust threshold.
  for (int i = 0; i < 10; ++i) {
    PublishOne(&net, &next_id);
    net.RunFor(2 * kSecond);
  }

  // The shift: the table becomes dense (64 tuples per node), flipping the
  // flat-vs-hier crossover.
  for (int i = 0; i < kShiftTuples; ++i) {
    PublishOne(&net, &next_id);
    if (i % 96 == 95) net.RunFor(1 * kSecond);
  }
  net.RunFor(6 * kSecond);  // replan ticks + re-dissemination settle here

  // Steady-state tail: a heavy live stream (one tuple per node per tick, so
  // every node's partial state flushes every window); identical in every
  // configuration, so the byte delta against the no-query baseline is the
  // query's own per-window aggregation cost.
  uint64_t answers_before_tail = out.answers;
  net.harness()->ResetStats();
  for (int i = 0; i < 160; ++i) {
    for (uint32_t n = 0; n < kNodes; ++n) PublishOne(&net, &next_id);
    net.RunFor(250 * kMillisecond);
  }
  out.tail_bytes = net.harness()->total_bytes();
  if (handle.valid()) out.replans = handle.stats().replans;
  if (std::getenv("E10_DEBUG") && handle.valid()) {
    int flat_nodes = 0, hier_nodes = 0, none = 0;
    for (uint32_t n = 0; n < kNodes; ++n) {
      Operator* op = net.qp(n)->executor()->FindOp(handle.id(), 1, 2);
      if (op == nullptr) none++;
      else if (op->spec().kind == OpKind::kHierAgg) hier_nodes++;
      else flat_nodes++;
    }
    std::fprintf(stderr,
                 "[debug] %s: flat=%d hier=%d none=%d answers pre-tail=%llu "
                 "tail=%llu msgs=%llu\n",
                 config.c_str(), flat_nodes, hier_nodes, none,
                 static_cast<unsigned long long>(answers_before_tail),
                 static_cast<unsigned long long>(out.answers -
                                                 answers_before_tail),
                 static_cast<unsigned long long>(
                     net.harness()->total_msgs()));
  }
  return out;
}

/// E17b — swap-time catch-up suppression, measured on tumbling windows
/// (flat aggregation both sides of the swap, so per-window counts are
/// directly comparable; hier's cumulative refinement would not be).
int RunCatchupCheck(uint64_t seed) {
  bench::Title("E17b: swap-time catch-up — first post-swap window");
  constexpr int kHistory = 400;
  constexpr TimeUs kWindow = 3 * kSecond;
  constexpr int kPerWindow = 9;  // steady stream: 3 tuples/s

  SimPier::Options popts;
  popts.sim.seed = seed;
  popts.settle_time = 8 * kSecond;
  constexpr uint32_t kCheckNodes = 16;
  SimPier net(kCheckNodes, popts);
  PIER_CHECK(net.catalog()->Register(TableSpec("ev").PartitionBy({"id"})).ok());
  net.RunFor(1 * kSecond);
  int64_t next_id = 0;
  auto publish_one = [&]() {
    int64_t id = next_id++;
    Tuple e("ev");
    e.Append("id", Value::Int64(id));
    e.Append("cat", Value::String("c" + std::to_string(id % 4)));
    Status ps =
        net.client(static_cast<uint32_t>(id % kCheckNodes))->Publish("ev", e);
    if (!ps.ok()) {
      std::fprintf(stderr, "publish failed: %s\n", ps.ToString().c_str());
      std::exit(1);
    }
  };

  const char* text =
      "SELECT cat, count(*) AS cnt FROM ev GROUP BY cat "
      "TIMEOUT 90s WINDOW 3s CONTINUOUS";
  auto q = net.client(0)->Query(Sql(text).WithAggStrategy("flat"));
  QueryHandle handle = bench::Check(q, "catch-up query");
  std::map<int64_t, int64_t> window_sums;  // 3s virtual-time buckets
  handle.OnTuple([&](const Tuple& t) {
    const Value* cnt = t.Get("cnt");
    if (cnt != nullptr)
      window_sums[net.loop()->now() / kWindow] += cnt->int64_unchecked();
  });

  // History, fully counted by the pre-swap windows.
  for (int i = 0; i < kHistory; ++i) publish_one();
  net.RunFor(9 * kSecond);

  // Steady stream, one window of which calibrates "steady state".
  auto stream_windows = [&](int n) {
    for (int i = 0; i < n * kPerWindow; ++i) {
      publish_one();
      net.RunFor(kWindow / kPerWindow);
    }
  };
  stream_windows(3);
  // The newest complete bucket is a typical stream window — the yardstick
  // the post-swap windows are held to.
  int64_t last_full = window_sums.empty() ? 0 : window_sums.rbegin()->second;

  // The swap: same strategy, new generation — the swapped-in Scans re-read
  // every live tuple unless the high-water mark stops them.
  auto fresh = net.client(0)->Compile(Sql(text).WithAggStrategy("flat"));
  QueryPlan plan = bench::Check(fresh, "recompile");
  Status s = net.qp(0)->SwapQuery(handle.id(), std::move(plan));
  if (!s.ok()) {
    std::fprintf(stderr, "FAIL: SwapQuery: %s\n", s.ToString().c_str());
    return 1;
  }
  int64_t swap_bucket = net.loop()->now() / kWindow;
  stream_windows(3);

  int64_t worst_post = 0;
  for (const auto& [bucket, sum] : window_sums) {
    if (bucket >= swap_bucket) worst_post = std::max(worst_post, sum);
  }
  std::vector<int> w = {26, 12};
  bench::Row({"history at swap", std::to_string(next_id - 3 * kPerWindow)},
             w);
  bench::Row({"steady window (pre-swap)", std::to_string(last_full)}, w);
  bench::Row({"worst window post-swap", std::to_string(worst_post)}, w);

  // Self-check: the first post-swap window must look like a steady window
  // (one window's arrivals, plus the swap-boundary sliver), nowhere near
  // the table's history.
  if (worst_post > 3 * kPerWindow + kPerWindow) {
    std::fprintf(stderr,
                 "FAIL: first post-swap window counted %lld tuples — "
                 "swapped-in scans re-read history (steady window is ~%d)\n",
                 static_cast<long long>(worst_post), kPerWindow);
    return 1;
  }
  bench::Note("ok: post-swap windows match steady state (no double-count)");
  return 0;
}

/// E17c — how long after its window a windowed GROUP BY's row arrives.
int RunWindowLatencyCheck(uint64_t seed) {
  bench::Title("E17c: window latency — a windowed GROUP BY's rows");
  constexpr uint32_t kLatencyNodes = 16;
  constexpr TimeUs kWindow = 2 * kSecond;
  constexpr TimeUs kSpan = 24 * kSecond;
  constexpr double kPerSecond = 80;  // Poisson publishes, all nodes together
  constexpr int kSources = 50;

  SimPier::Options popts;
  popts.sim.seed = seed;
  popts.settle_time = 8 * kSecond;
  SimPier net(kLatencyNodes, popts);
  PIER_CHECK(net.catalog()
                 ->Register(TableSpec("ev").PartitionBy({"id"}).Lifetime(
                     30 * kSecond))
                 .ok());
  auto q = net.client(0)->Query(
      Sql("SELECT src, count(*) AS cnt, max(ts) AS last_ts FROM ev "
          "GROUP BY src TIMEOUT 120s WINDOW 2s CONTINUOUS")
          .WithAggStrategy("flat"));
  QueryHandle handle = bench::Check(q, "windowed query");
  bench::LatencyCdf delay;
  int64_t counted = 0;
  handle.OnTuple([&](const Tuple& t) {
    counted += t.Get("cnt")->int64_unchecked();
    delay.Add(net.loop()->now() - t.Get("last_ts")->int64_unchecked());
  });
  net.RunFor(3 * kSecond);  // dissemination reaches every node

  Rng rng(seed);
  int64_t published = 0;
  const TimeUs end = net.loop()->now() + kSpan;
  for (;;) {
    TimeUs gap = static_cast<TimeUs>(rng.Exponential(kSecond / kPerSecond));
    if (net.loop()->now() + gap >= end) break;
    net.RunFor(gap);
    Tuple e("ev");
    e.Append("id", Value::Int64(published));
    e.Append("src", Value::String("s" + std::to_string(rng.Uniform(kSources))));
    e.Append("ts", Value::Int64(net.loop()->now()));
    uint32_t node = static_cast<uint32_t>(rng.Uniform(kLatencyNodes));
    PIER_CHECK(net.client(node)->Publish("ev", e).ok());
    published++;
  }
  net.RunFor(3 * kWindow);  // the last windows flush

  const TimeUs p50 = delay.Percentile(50), p99 = delay.Percentile(99);
  std::vector<int> w = {26, 12};
  bench::Row({"tuples published", std::to_string(published)}, w);
  bench::Row({"tuples counted", std::to_string(counted)}, w);
  bench::Row({"answer rows", std::to_string(delay.latencies.size())}, w);
  bench::Row({"row delay p50 (ms)", bench::Ms(p50)}, w);
  bench::Row({"row delay p99 (ms)", bench::Ms(p99)}, w);
  bench::Row({"p99 / window",
              bench::Fmt(static_cast<double>(p99) / kWindow, 2)},
             w);
  int failures = 0;
  if (counted != published) {
    std::fprintf(stderr, "FAIL: windows counted %lld of %lld tuples\n",
                 static_cast<long long>(counted),
                 static_cast<long long>(published));
    failures++;
  }
  if (p99 < 0 || p99 > 3 * kWindow / 2) {
    std::fprintf(stderr,
                 "FAIL: windowed rows arrive %s ms after their newest tuple "
                 "at p99, past 1.5 windows (%s ms)\n",
                 bench::Ms(p99).c_str(), bench::Ms(3 * kWindow / 2).c_str());
    failures++;
  }
  if (failures == 0)
    bench::Note("ok: rows arrive within 1.5 windows of their window's end");
  return failures;
}

int Run() {
  bench::Title("E17: continuous-query replanning under a cardinality shift");
  bench::Note("query submitted over a near-empty table (flat aggregation is "
              "the only sound choice), then " +
              std::to_string(kShiftTuples) + " tuples arrive across " +
              std::to_string(kNodes) +
              " nodes; tail = 40s steady stream after the shift");
  std::vector<int> w = {14, 10, 9, 12, 14};
  bench::Row({"config", "answers", "replans", "tail KB", "query KB"}, w);

  int failures = 0;
  uint64_t baseline = RunConfig("no-query", 707).tail_bytes;
  bench::Row({"no-query", "-", "-", bench::Fmt(baseline / 1024.0, 0), "0"},
             w);
  std::map<std::string, int64_t> query_cost;
  uint32_t auto_replans = 0;
  for (const char* config : {"frozen-flat", "replan-auto", "frozen-hier"}) {
    Outcome o = RunConfig(config, 707);
    int64_t cost = static_cast<int64_t>(o.tail_bytes) -
                   static_cast<int64_t>(baseline);
    query_cost[config] = cost;
    if (std::string(config) == "replan-auto") auto_replans = o.replans;
    bench::Row({config, std::to_string(o.answers),
                std::to_string(o.replans),
                bench::Fmt(o.tail_bytes / 1024.0, 0),
                bench::Fmt(cost / 1024.0, 0)},
               w);
  }

  if (auto_replans == 0) {
    std::fprintf(stderr,
                 "FAIL: replan=auto never swapped the plan after the shift\n");
    failures++;
  }
  std::string worst;
  int64_t worst_bytes = std::numeric_limits<int64_t>::min();
  bool unique_worst = false;
  for (const auto& [name, bytes] : query_cost) {
    if (bytes > worst_bytes) {
      worst = name;
      worst_bytes = bytes;
      unique_worst = true;
    } else if (bytes == worst_bytes) {
      unique_worst = false;
    }
  }
  if (unique_worst && worst == "replan-auto") {
    std::fprintf(stderr,
                 "FAIL: replan-auto is the worst measured configuration "
                 "(%lld query tail bytes)\n",
                 static_cast<long long>(worst_bytes));
    failures++;
  }

  bench::Note(
      "expected shape: frozen-flat pays the full per-window partial rehash "
      "forever; replan-auto swaps to hier once the shifted stats clear the "
      "cost-ratio threshold and then tracks frozen-hier's tail cost; "
      "frozen-hier is the post-shift oracle (but was the wrong plan for the "
      "sparse start).");
  failures += RunCatchupCheck(709);
  failures += RunWindowLatencyCheck(711);
  return failures;
}

}  // namespace
}  // namespace pier

int main() { return pier::Run(); }
