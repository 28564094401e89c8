// Experiment E14 — §3.2.2 churn: lookup success under node arrival and
// departure, with the routing protocols' own maintenance doing the repair
// (no oracle reseeding).
//
// Nodes join live through a bootstrap. A churn process kills a random node
// and adds a fresh one every `interval`; publishers keep re-putting a
// working set; readers sample gets. We sweep the churn interval (mean node
// lifetime = N * interval / 2-ish) and report get success rates and routing
// dead-ends.
//
// E14b (appended, self-checking): the churn-hardened QUERY lifecycle. A
// continuous aggregation query's proxy is killed mid-run, and the ring owner
// of its id (its successor) adopts the proxy role:
//   * with a client re-attaching at the adopter, the bench FAILS unless the
//     kill costs at most ~one window of answers (measured against a no-kill
//     control run on the same schedule);
//   * with no client re-attaching, the bench FAILS unless the adopter
//     cancels the query after its attach grace and every surviving executor
//     tears the opgraphs down.
//
// E15 (appended, self-checking): replicated soft state under node kills.
// 200 rows are published once, then repeated snapshot scans straddle one
// node kill per round. With k=3 successor-set replication the handoff
// repair keeps the answer set whole; with k=1 every kill permanently loses
// the victim's partition. The bench FAILS unless the final k=3 round loses
// < 1% of answers, k=1 loses strictly more, the churn-free runs return
// exactly 200 rows at BOTH factors (the scan-time replica merge must never
// double-count), and no config's final round returns a row twice (the
// copies that speak for a dead owner's rows, and the repair re-pushes, must
// not re-emit answered rows).
// PIER_BENCH_JSON=<path> additionally writes the E15 metrics as JSON
// (virtual-time deterministic; CI diffs it against the committed
// BENCH_churn.json).
//
// E14c (appended, runs last): equality queries under E14's churn. Each key
// holds two rows (k = 3 replication), republished every 10s; three
// `WHERE k = …` queries run every 2s, each routed to its key's owner.
// Reports the share of queries that returned both rows, and routing dead
// ends, over seeds 1–3; FAILS unless the churn-free ring answers every query
// fully with no dead end. It writes nothing to PIER_BENCH_JSON.
//
// Last, E14's get success and E14c's fully-answered share are each
// averaged over 12 seeds (301–312 and 1–12): one seed's reading under churn
// moves by more than most changes do.
//
// PIER_BENCH_SMOKE=1 shrinks the E14 and E14c sweeps for CI; E14b and E15
// always run whole (they ARE the regression gates).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "util/logging.h"
#include "qp/sim_pier.h"

namespace pier {
namespace {

const bool kSmoke = std::getenv("PIER_BENCH_SMOKE") != nullptr;
constexpr uint32_t kNodes = 40;
const TimeUs kRunTime = (kSmoke ? 120 : 240) * kSecond;
constexpr int kObjects = 60;

struct Outcome {
  double get_success = 0;
  uint64_t dead_ends = 0;
  uint32_t failed_nodes = 0;
};

/// A random live node, at index `from` or above (1 skips node 0, the
/// bootstrap).
uint32_t LiveNode(SimPier* net, Rng* rng, uint32_t from = 0) {
  uint32_t i;
  do {
    i = from + static_cast<uint32_t>(rng->Uniform(net->size() - from));
  } while (!net->harness()->IsAlive(i));
  return i;
}

/// Kill one random live node (never node 0, the bootstrap) and add a fresh
/// one that joins through node 0.
void ChurnOnce(SimPier* net, Rng* rng) {
  net->harness()->FailNode(LiveNode(net, rng, 1));
  net->AddNode();
}

struct ChurnCase {
  const char* name;
  TimeUs interval;  // 0: no churn
};

/// The churn intervals E14 and E14c sweep.
std::vector<ChurnCase> ChurnCases() {
  if (kSmoke) return {{"none", 0}, {"20s", 20 * kSecond}};
  return {{"none", 0},
          {"60s", 60 * kSecond},
          {"20s", 20 * kSecond},
          {"10s", 10 * kSecond}};
}

/// Routing dead ends on the live nodes.
uint64_t DeadEnds(SimPier* net) {
  uint64_t n = 0;
  for (uint32_t i = 0; i < net->size(); ++i) {
    if (net->harness()->IsAlive(i))
      n += net->dht(i)->router()->stats().route_dead_ends;
  }
  return n;
}

/// E14's live-join ring: maintenance, not an oracle, does the repair.
SimPier::Options ChurnOptions(uint64_t seed) {
  SimPier::Options opts;
  opts.sim.seed = seed;
  opts.seed_routing = false;        // live joins; maintenance must do the work
  opts.settle_time = 40 * kSecond;  // initial convergence
  return opts;
}

Outcome Measure(TimeUs churn_interval, uint64_t seed) {
  SimPier net(kNodes, ChurnOptions(seed));

  auto key = [](int i) { return "c" + std::to_string(i); };
  Rng rng(seed + 17);
  uint64_t probes = 0, hits = 0;
  uint32_t failed = 0;

  TimeUs next_churn = churn_interval > 0 ? churn_interval : kRunTime + kSecond;
  for (TimeUs t = 0; t < kRunTime; t += kSecond) {
    // Publishers continuously refresh the working set with short lifetimes,
    // so ownership moves with the ring as churn proceeds.
    if (t % (10 * kSecond) == 0) {
      for (int i = 0; i < kObjects; ++i) {
        net.dht(LiveNode(&net, &rng))
            ->Put("churn", key(i), "s", "x", 30 * kSecond);
      }
    }
    if (t >= next_churn) {
      next_churn += churn_interval;
      ChurnOnce(&net, &rng);
      failed++;
    }
    if (t % (2 * kSecond) == 0 && t > 20 * kSecond) {
      for (int s = 0; s < 3; ++s) {
        uint32_t reader = LiveNode(&net, &rng);
        int i = static_cast<int>(rng.Uniform(kObjects));
        probes++;
        net.dht(reader)->Get("churn", key(i),
                             [&](const Status& st, std::vector<DhtItem> items) {
                               if (st.ok() && !items.empty()) hits++;
                             });
      }
    }
    net.RunFor(kSecond);
  }
  net.RunFor(10 * kSecond);

  Outcome out;
  out.get_success = probes ? static_cast<double>(hits) / probes : 0;
  out.dead_ends = DeadEnds(&net);
  out.failed_nodes = failed;
  return out;
}

// ---------------------------------------------------------------------------
// E14c: equality queries under churn
// ---------------------------------------------------------------------------

struct EqualityOutcome {
  double fully = 0;  // share of queries that returned both of their rows
  uint64_t dead_ends = 0;
};

/// One E14c run: E14's ring, churn and schedule, with two rows per key of a
/// k = 3 table in place of E14's objects, and equality queries in place of
/// its gets.
EqualityOutcome MeasureEquality(TimeUs churn_interval, uint64_t seed) {
  SimPier net(kNodes, ChurnOptions(seed));
  PIER_CHECK(net.catalog()
                 ->Register(TableSpec("eq").PartitionBy({"k"}).Replicas(3))
                 .ok());
  Rng rng(seed + 17);
  // Per query, bit r is set once row r arrived. The handles stay open to
  // the end, so each query runs to its timeout.
  std::vector<int> seen;
  std::vector<QueryHandle> handles;

  TimeUs next_churn = churn_interval > 0 ? churn_interval : kRunTime + kSecond;
  for (TimeUs t = 0; t < kRunTime; t += kSecond) {
    if (t % (10 * kSecond) == 0) {
      for (int k = 0; k < kObjects; ++k) {
        for (int r = 0; r < 2; ++r) {
          Tuple row("eq");
          row.Append("k", Value::Int64(k));
          row.Append("r", Value::Int64(r));
          PIER_CHECK(net.client(LiveNode(&net, &rng))
                         ->Publish("eq", row, 30 * kSecond)
                         .ok());
        }
      }
    }
    if (t >= next_churn) {
      next_churn += churn_interval;
      ChurnOnce(&net, &rng);
    }
    if (t % (2 * kSecond) == 0 && t > 20 * kSecond) {
      for (int s = 0; s < 3; ++s) {
        uint32_t reader = LiveNode(&net, &rng);
        int k = static_cast<int>(rng.Uniform(kObjects));
        auto q = net.client(reader)->Query(Sql(
            "SELECT * FROM eq WHERE k = " + std::to_string(k) + " TIMEOUT 3s"));
        QueryHandle& h =
            handles.emplace_back(std::move(bench::Check(q, "E14c query")));
        h.OnTuple([&seen, i = seen.size()](const Tuple& row) {
          seen[i] |= 1 << row.Get("r")->int64_unchecked();
        });
        seen.push_back(0);
      }
    }
    net.RunFor(kSecond);
  }
  net.RunFor(10 * kSecond);

  EqualityOutcome out;
  out.fully = static_cast<double>(std::count(seen.begin(), seen.end(), 3)) /
              static_cast<double>(seen.size());
  out.dead_ends = DeadEnds(&net);
  return out;
}

int RunEqualityCheck() {
  bench::Title("E14c: churn — equality queries under live join/fail");
  bench::Note("N=" + std::to_string(kNodes) + " run=" +
              std::to_string(kRunTime / kSecond) + "s, " +
              std::to_string(kObjects) +
              " keys of 2 rows (k=3) republished every 10s with 30s "
              "lifetime, 3 TIMEOUT 3s queries every 2s");
  const std::vector<uint64_t> seeds =
      kSmoke ? std::vector<uint64_t>{1} : std::vector<uint64_t>{1, 2, 3};
  std::vector<std::string> header = {"churn interval"};
  for (uint64_t seed : seeds)
    header.push_back("full% s=" + std::to_string(seed));
  header.insert(header.end(), {"mean full%", "dead ends"});
  std::vector<int> w(header.size(), 14);
  w[0] = 18;
  bench::Row(header, w);
  // Under churn a publish warns of every index entry it drops; the full
  // shares already count what they cost.
  const LogLevel level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  int failures = 0;
  for (const ChurnCase& c : ChurnCases()) {
    std::vector<std::string> cells = {c.name};
    double sum = 0;
    uint64_t dead_ends = 0;
    for (uint64_t seed : seeds) {
      EqualityOutcome o = MeasureEquality(c.interval, seed);
      cells.push_back(bench::Fmt(100 * o.fully));
      sum += o.fully;
      dead_ends += o.dead_ends;
      if (c.interval == 0 && (o.fully < 1 || o.dead_ends > 0)) {
        std::fprintf(stderr,
                     "FAIL: seed %llu answered %.1f%% of equality queries "
                     "fully with %llu dead ends on a churn-free ring (want "
                     "100%% and 0)\n",
                     static_cast<unsigned long long>(seed), 100 * o.fully,
                     static_cast<unsigned long long>(o.dead_ends));
        failures++;
      }
    }
    cells.push_back(bench::Fmt(100 * sum / static_cast<double>(seeds.size())));
    cells.push_back(std::to_string(dead_ends));
    bench::Row(cells, w);
  }
  SetLogLevel(level);
  if (failures == 0)
    bench::Note("ok: every equality query on a churn-free ring is answered "
                "fully, with no dead end");
  return failures;
}

// ---------------------------------------------------------------------------
// E14b: the churn-hardened continuous-query lifecycle (self-checking)
// ---------------------------------------------------------------------------

constexpr uint32_t kFNodes = 16;
constexpr uint32_t kProxy = 2;
constexpr TimeUs kWindow = 5 * kSecond;
/// Chord drops a dead node within this (src/overlay/README.md, "Detection
/// bounds"); the node's successor then owns its id.
constexpr TimeUs kChordDetection = 4250 * kMillisecond;
constexpr int kCats = 4;
constexpr int kPreTicks = 100;   // 25s of 4 tuples/s before the kill
constexpr int kPostTicks = 120;  // 30s after it

struct FailoverOutcome {
  uint64_t rows = 0;          // answer rows over the whole run
  TimeUs max_gap = 0;         // longest silence between answers
  uint64_t tail_rows = 0;     // rows in the last 4 full windows (recovery)
};

/// The live node that has adopted a query, or -1.
int Adopter(SimPier* net) {
  for (uint32_t i = 0; i < net->size(); ++i) {
    if (net->harness()->IsAlive(i) && net->qp(i)->stats().adoptions > 0)
      return static_cast<int>(i);
  }
  return -1;
}

/// One failover run: a continuous GROUP BY at kProxy; `kill` fells the proxy
/// mid-stream. Measures answer rows seen by the client (original handle +
/// the handle re-attached at the adopter), the longest answer outage, and
/// the recovered steady-state tail.
FailoverOutcome MeasureFailover(bool kill, uint64_t seed) {
  SimPier::Options popts;
  popts.sim.seed = seed;
  popts.settle_time = 8 * kSecond;
  SimPier net(kFNodes, popts);
  PIER_CHECK(net.catalog()->Register(TableSpec("ev").PartitionBy({"id"})).ok());
  net.RunFor(1 * kSecond);

  int64_t next_id = 0;
  auto publish_one = [&]() {
    int64_t id = next_id++;
    Tuple e("ev");
    e.Append("id", Value::Int64(id));
    e.Append("cat", Value::String("c" + std::to_string(id % kCats)));
    uint32_t pub = static_cast<uint32_t>(id % kFNodes);
    if (!net.harness()->IsAlive(pub)) pub = (pub + 1) % kFNodes;
    Status s = net.client(pub)->Publish("ev", e);
    if (!s.ok()) {
      std::fprintf(stderr, "publish failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  };

  auto q = net.client(kProxy)->Query(
      Sql("SELECT cat, count(*) AS cnt FROM ev GROUP BY cat TIMEOUT 90s "
          "WINDOW 5s CONTINUOUS"));
  QueryHandle handle = bench::Check(q, "failover query");
  uint64_t qid = handle.id();
  FailoverOutcome out;
  TimeUs first_answer = 0, last_answer = 0;
  std::map<int64_t, uint64_t> window_rows;
  auto on_row = [&](const Tuple&) {
    out.rows++;
    TimeUs now = net.loop()->now();
    if (first_answer == 0) first_answer = now;
    if (last_answer > 0) out.max_gap = std::max(out.max_gap, now - last_answer);
    last_answer = now;
    window_rows[now / kWindow]++;
  };
  handle.OnTuple(on_row);

  for (int i = 0; i < kPreTicks; ++i) {
    publish_one();
    net.RunFor(250 * kMillisecond);
  }
  if (kill) net.harness()->FailNode(kProxy);

  QueryHandle attached;
  for (int i = 0; i < kPostTicks; ++i) {
    publish_one();
    net.RunFor(250 * kMillisecond);
    // Re-attach at the adopter as soon as one owns the query (the backlog
    // it buffered while the query had no client replays here).
    const int adopter = Adopter(&net);
    if (kill && !attached.valid() && adopter >= 0) {
      auto a = net.client(static_cast<uint32_t>(adopter))->Attach(qid);
      attached = bench::Check(a, "re-attach at the adopted proxy");
      attached.OnTuple(on_row);
    }
  }
  net.RunFor(2 * kSecond);
  if (kill && !attached.valid()) {
    std::fprintf(stderr, "FAIL: no node adopted the query\n");
    std::exit(1);
  }
  int64_t last_full = net.loop()->now() / kWindow - 1;
  for (int64_t b = last_full - 3; b <= last_full; ++b) {
    auto it = window_rows.find(b);
    if (it != window_rows.end()) out.tail_rows += it->second;
  }
  return out;
}

int RunFailoverCheck() {
  bench::Title("E14b: proxy kill mid-query — failover and orphan reaping");
  int failures = 0;

  // (1) A client re-attaches at the adopter. Two claims, measured against a
  // no-kill control on the same schedule:
  //   * the answer OUTAGE across the kill is at most ~one window — i.e. at
  //     most one window's flush is forwarded into the void before failover
  //     re-targets answers (gap between answers <= 2 windows + detection
  //     slack, where the control's gap is ~1 window);
  //   * the stream RECOVERS: the last 4 windows deliver what the control
  //     does (the dead node's rehash partitions re-home with routing
  //     repair; that data-plane loss must not be permanent).
  FailoverOutcome control = MeasureFailover(/*kill=*/false, 404);
  FailoverOutcome survived = MeasureFailover(/*kill=*/true, 404);
  std::vector<int> w = {30, 12};
  bench::Row({"answer rows (control/kill)", std::to_string(control.rows) +
                                                "/" +
                                                std::to_string(survived.rows)},
             w);
  bench::Row({"max answer gap, control", bench::Ms(control.max_gap) + "ms"},
             w);
  bench::Row({"max answer gap, kill", bench::Ms(survived.max_gap) + "ms"}, w);
  bench::Row({"tail rows (control/kill)",
              std::to_string(control.tail_rows) + "/" +
                  std::to_string(survived.tail_rows)},
             w);
  // Losing at most ONE flush round bounds the answer gap by two windows of
  // phase (the round before the kill + the first round after failover) plus
  // proxy-death detection: the ring's detection bound and the notify that
  // hands the dead node's range on, rounded up to 6 s.
  const TimeUs gap_budget = 2 * kWindow + 6 * kSecond;
  if (survived.max_gap > gap_budget) {
    std::fprintf(stderr,
                 "FAIL: the proxy kill silenced answers for %.1fms — more "
                 "than one lost flush round (budget: %.1fms)\n",
                 static_cast<double>(survived.max_gap) / kMillisecond,
                 static_cast<double>(gap_budget) / kMillisecond);
    failures++;
  }
  // Row loss: one window's flush is forwarded into the void before failover
  // re-targets; the dead node's rehash partitions add a transient sliver
  // until routing re-homes them. Anything past ~2.5 windows means answers
  // kept draining into the dead proxy.
  double per_window = static_cast<double>(control.tail_rows) / 4.0;
  double lost_windows =
      per_window > 0
          ? static_cast<double>(control.rows -
                                std::min(control.rows, survived.rows)) /
                per_window
          : 0;
  bench::Row({"windows of rows lost", bench::Fmt(lost_windows, 2)}, w);
  if (lost_windows > 2.5) {
    std::fprintf(stderr,
                 "FAIL: proxy kill lost %.2f windows of answer rows "
                 "(budget: ~1 failover window + re-homing sliver)\n",
                 lost_windows);
    failures++;
  }
  if (survived.tail_rows * 10 < control.tail_rows * 9) {
    std::fprintf(stderr,
                 "FAIL: the stream never recovered after failover "
                 "(%llu tail rows vs %llu in the control)\n",
                 static_cast<unsigned long long>(survived.tail_rows),
                 static_cast<unsigned long long>(control.tail_rows));
    failures++;
  }

  // (2) No client re-attaches: the adopter cancels the orphan after its
  // attach grace, and the cancel broadcast stops every executor.
  {
    SimPier::Options popts;
    popts.sim.seed = 405;
    popts.settle_time = 8 * kSecond;
    SimPier net(kFNodes, popts);
    PIER_CHECK(
        net.catalog()->Register(TableSpec("ev").PartitionBy({"id"})).ok());
    net.RunFor(1 * kSecond);
    auto q = net.client(kProxy)->Query(
        Sql("SELECT cat, count(*) AS cnt FROM ev GROUP BY cat TIMEOUT 90s "
            "WINDOW 5s CONTINUOUS"));
    QueryHandle handle = bench::Check(q, "orphan query");
    int64_t id = 0;
    for (int i = 0; i < 20; ++i) {
      Tuple e("ev");
      e.Append("id", Value::Int64(id++));
      e.Append("cat", Value::String("c0"));
      (void)net.client(static_cast<uint32_t>(id % kFNodes))->Publish("ev", e);
      net.RunFor(500 * kMillisecond);
    }
    net.harness()->FailNode(kProxy);
    // Detection, the adopter's next clock tick (at most one window), the
    // attach grace, and a second for the cancel broadcast.
    net.RunFor(kChordDetection + kWindow + QueryProcessor::kAttachGrace +
               kSecond);
    size_t still_running = 0, proxies = 0;
    for (uint32_t i = 0; i < net.size(); ++i) {
      if (!net.harness()->IsAlive(i)) continue;
      if (net.qp(i)->executor()->HasQuery(handle.id())) still_running++;
      if (net.qp(i)->HasClientQuery(handle.id())) proxies++;
    }
    const int adopter = Adopter(&net);
    bench::Row({"adopted (no client)", adopter >= 0 ? "yes" : "no"}, w);
    bench::Row({"executors still running", std::to_string(still_running)}, w);
    if (adopter < 0) {
      std::fprintf(stderr, "FAIL: no node adopted the orphaned query\n");
      failures++;
    }
    if (still_running > 0 || proxies > 0) {
      std::fprintf(stderr,
                   "FAIL: %zu executors and %zu proxies still run the "
                   "orphaned query past its attach grace\n",
                   still_running, proxies);
      failures++;
    }
  }
  if (failures == 0)
    bench::Note("ok: kill costs <= ~1 window with a client re-attached; "
                "orphans end after the attach grace without one");
  return failures;
}

// ---------------------------------------------------------------------------
// E15: replicated soft state — node kills with k-way replication
// ---------------------------------------------------------------------------

constexpr uint32_t kRNodes = 20;
constexpr int kRIds = 200;
constexpr int kRRounds = 3;

struct ReplicationOutcome {
  uint64_t rows_final = 0;      // raw answer rows in the final round
  size_t distinct_final = 0;    // distinct ids in the final round
  size_t distinct_min = 0;      // worst round
  // Replication health, summed across all nodes (dead ones frozen at death).
  uint64_t replica_stores = 0;
  uint64_t read_failovers = 0;
  uint64_t suppressed_scan_rows = 0;
  double LossPct() const {
    return 100.0 * (kRIds - static_cast<double>(distinct_final)) / kRIds;
  }
};

/// One E15 run: publish kRIds rows once, then kRRounds snapshot scans, each
/// straddling one node kill (`kill`). Node 0 always proxies and never dies;
/// each round's victim is the highest-index live node, so the kill schedule
/// is identical at every replication factor.
ReplicationOutcome MeasureReplication(int k, bool kill, uint64_t seed) {
  SimPier::Options popts;
  popts.sim.seed = seed;
  popts.seed_routing = true;
  popts.settle_time = 8 * kSecond;
  popts.dht.replication_factor = k;
  SimPier net(kRNodes, popts);
  PIER_CHECK(net.catalog()->Register(TableSpec("ev").PartitionBy({"id"})).ok());
  net.RunFor(1 * kSecond);

  for (int i = 0; i < kRIds; ++i) {
    Tuple e("ev");
    e.Append("id", Value::Int64(i));
    e.Append("src", Value::String("live"));
    Status s = net.client(static_cast<uint32_t>(i) % kRNodes)->Publish("ev", e);
    if (!s.ok()) {
      std::fprintf(stderr, "E15 publish failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  net.RunFor(2 * kSecond);

  ReplicationOutcome out;
  out.distinct_min = kRIds;
  for (int round = 0; round < kRRounds; ++round) {
    auto q = net.client(0)->Query(Sql("SELECT * FROM ev TIMEOUT 6s"));
    QueryHandle handle = bench::Check(q, "E15 snapshot scan");
    uint64_t rows = 0;
    std::set<int64_t> ids;
    handle.OnTuple([&](const Tuple& t) {
      rows++;
      ids.insert(t.Get("id")->int64_unchecked());
    });
    net.RunFor(500 * kMillisecond);
    if (kill) {
      uint32_t victim = net.size() - 1;
      while (victim > 0 && !net.harness()->IsAlive(victim)) victim--;
      net.harness()->FailNode(victim);
    }
    // To the query's end, plus slack for stabilization and handoff repair
    // before the next round scans.
    net.RunFor(8 * kSecond);
    out.rows_final = rows;
    out.distinct_final = ids.size();
    out.distinct_min = std::min(out.distinct_min, ids.size());
  }
  for (uint32_t i = 0; i < net.size(); ++i) {
    Dht::Stats s = net.dht(i)->stats();
    out.replica_stores += s.replica_stores;
    out.read_failovers += s.read_failovers;
    out.suppressed_scan_rows += s.suppressed_scan_rows;
  }
  return out;
}

int RunReplicationCheck() {
  bench::Title("E15: node kills vs k-way replicated soft state");
  bench::Note("N=" + std::to_string(kRNodes) + " ids=" + std::to_string(kRIds) +
              " rounds=" + std::to_string(kRRounds) +
              ", one kill per round straddling a snapshot scan");
  struct Config {
    int k;
    bool kill;
    ReplicationOutcome out;
  };
  std::vector<Config> configs = {{1, false, {}}, {1, true, {}},
                                 {3, false, {}}, {3, true, {}}};
  for (Config& c : configs) c.out = MeasureReplication(c.k, c.kill, 501);

  std::vector<int> w = {10, 8, 12, 14, 12, 10};
  bench::Row({"config", "rows", "distinct", "distinct_min", "loss%", "stores"},
             w);
  for (const Config& c : configs) {
    bench::Row({"k=" + std::to_string(c.k) + (c.kill ? " kill" : ""),
                std::to_string(c.out.rows_final),
                std::to_string(c.out.distinct_final),
                std::to_string(c.out.distinct_min),
                bench::Fmt(c.out.LossPct(), 2),
                std::to_string(c.out.replica_stores)},
               w);
  }

  int failures = 0;
  const ReplicationOutcome& k1 = configs[0].out;
  const ReplicationOutcome& k1_kill = configs[1].out;
  const ReplicationOutcome& k3 = configs[2].out;
  const ReplicationOutcome& k3_kill = configs[3].out;
  if (k3_kill.LossPct() >= 1.0) {
    std::fprintf(stderr,
                 "FAIL: k=3 lost %.2f%% of answers across %d node kills "
                 "(budget: < 1%%)\n",
                 k3_kill.LossPct(), kRRounds);
    failures++;
  }
  if (k1_kill.distinct_final >= k3_kill.distinct_final) {
    std::fprintf(stderr,
                 "FAIL: k=1 kept %zu answers vs %zu at k=3 — replication "
                 "never paid for itself\n",
                 k1_kill.distinct_final, k3_kill.distinct_final);
    failures++;
  }
  for (const ReplicationOutcome* o : {&k1, &k3}) {
    if (o->rows_final != kRIds || o->distinct_min != kRIds) {
      std::fprintf(stderr,
                   "FAIL: a churn-free scan returned %llu rows / %zu distinct "
                   "(want exactly %d — the replica merge double- or "
                   "under-counted)\n",
                   static_cast<unsigned long long>(o->rows_final),
                   o->distinct_min, kRIds);
      failures++;
    }
  }
  for (const Config& c : configs) {
    if (c.out.rows_final != c.out.distinct_final) {
      std::fprintf(stderr,
                   "FAIL: k=%d%s returned %llu rows for %zu distinct ids — "
                   "a row was answered twice\n",
                   c.k, c.kill ? " kill" : "",
                   static_cast<unsigned long long>(c.out.rows_final),
                   c.out.distinct_final);
      failures++;
    }
  }
  if (failures == 0)
    bench::Note("ok: k=3 survives the kills whole, k=1 pays for every one, "
                "replication never changes a churn-free answer, and no row "
                "is answered twice");

  if (const char* path = std::getenv("PIER_BENCH_JSON")) {
    std::FILE* f = std::fopen(path, "w");
    if (!f) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", path);
      return failures + 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"churn_replication\",\n");
    std::fprintf(f, "  \"nodes\": %u, \"ids\": %d, \"rounds\": %d,\n", kRNodes,
                 kRIds, kRRounds);
    std::fprintf(f, "  \"configs\": [\n");
    for (size_t i = 0; i < configs.size(); ++i) {
      const Config& c = configs[i];
      std::fprintf(
          f,
          "    {\"k\": %d, \"kill\": %s, \"rows_final\": %llu, "
          "\"distinct_final\": %zu, \"distinct_min\": %zu, "
          "\"loss_final_pct\": %.2f, \"replica_stores\": %llu, "
          "\"read_failovers\": %llu, \"suppressed_scan_rows\": %llu}%s\n",
          c.k, c.kill ? "true" : "false",
          static_cast<unsigned long long>(c.out.rows_final),
          c.out.distinct_final, c.out.distinct_min, c.out.LossPct(),
          static_cast<unsigned long long>(c.out.replica_stores),
          static_cast<unsigned long long>(c.out.read_failovers),
          static_cast<unsigned long long>(c.out.suppressed_scan_rows),
          i + 1 < configs.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    bench::Note(std::string("wrote ") + path);
  }
  return failures;
}

/// E14 and E14c, each averaged over 12 seeds. A run takes its query ids
/// from a process-wide counter, so it shifts every later run's readings:
/// these run last, and leave the tables above as they were.
void RunSeedMeans() {
  bench::Title("E14 and E14c: means over 12 seeds");
  const uint64_t seeds = kSmoke ? 1 : 12;
  std::vector<int> w = {18, 22, 22};
  bench::Row({"churn interval", "E14 get% s=301-" + std::to_string(300 + seeds),
              "E14c full% s=1-" + std::to_string(seeds)},
             w);
  const LogLevel level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  for (const ChurnCase& c : ChurnCases()) {
    double gets = 0, fully = 0;
    for (uint64_t i = 0; i < seeds; ++i) {
      gets += Measure(c.interval, 301 + i).get_success;
      fully += MeasureEquality(c.interval, 1 + i).fully;
    }
    bench::Row({c.name, bench::Fmt(100 * gets / seeds, 2),
                bench::Fmt(100 * fully / seeds, 2)},
               w);
  }
  SetLogLevel(level);
}

int Run() {
  bench::Title("E14: churn — get success under live join/fail (no oracle)");
  bench::Note("N=" + std::to_string(kNodes) + " run=" +
              std::to_string(kRunTime / kSecond) +
              "s, objects republished every 10s with 30s lifetime");
  std::vector<int> w = {18, 14, 14, 12};
  bench::Row({"churn interval", "get success%", "dead ends", "failures"}, w);
  for (const ChurnCase& c : ChurnCases()) {
    Outcome o = Measure(c.interval, 301);
    bench::Row({c.name, bench::Fmt(100 * o.get_success),
                std::to_string(o.dead_ends), std::to_string(o.failed_nodes)},
               w);
  }
  bench::Note(
      "expected shape: success degrades gracefully as churn accelerates; "
      "most misses come from objects whose owner died inside a republish "
      "window, not from routing failures (dead ends stay low).");
  // In this order, so that E14c's runs leave E14b's and E15's unchanged.
  int failures = RunFailoverCheck();
  failures += RunReplicationCheck();
  failures += RunEqualityCheck();
  RunSeedMeans();
  return failures;
}

}  // namespace
}  // namespace pier

int main() { return pier::Run(); }
