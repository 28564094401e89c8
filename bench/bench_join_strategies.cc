// Experiment E8 — §2.1.1 / §3.3.4 join strategies (the [32] trade-off recap):
// symmetric-hash rehash vs Fetch Matches vs Bloom-filtered rehash, swept
// over join selectivity.
//
// R has 600 rows; S has 600 rows published on the join attribute; a fraction
// sigma of R's keys have matches in S. Reported per strategy: result count,
// total network bytes attributable to the query, and last-result latency.
// Expected: FM wins when the inner is indexed on the join key (one lookup
// per outer row); the Bloom rewrite prunes the rehash traffic of
// non-matching R rows, winning at low sigma; plain rehash ships everything.
//
// An extra "optimizer" row runs whatever the cost-based optimizer picks from
// the statistics accrued while the tables loaded. The bench FAILS (nonzero
// exit) if the three strategies' result counts differ at any sigma, or if
// the optimizer's pick is ever strictly the worst measured strategy.

#include <cstdio>
#include <cstdlib>
#include <map>

#include "bench/bench_common.h"
#include "util/logging.h"
#include "qp/sim_pier.h"

namespace pier {
namespace {

constexpr uint32_t kNodes = 40;
constexpr int kRows = 600;

void LoadTables(SimPier* net, double sigma, uint64_t seed) {
  Rng rng(seed);
  // S published on join attr y (the primary index); R is in-situ.
  PIER_CHECK(net->catalog()->Register(TableSpec("s").PartitionBy({"y"})).ok());
  PIER_CHECK(net->catalog()->Register(TableSpec("r").LocalOnly()).ok());
  // S keys: 0..kRows-1.
  for (int i = 0; i < kRows; ++i) {
    Tuple s("s");
    s.Append("y", Value::Int64(i));
    s.Append("b", Value::Int64(1000 + i));
    PIER_CHECK(net->client(rng.Uniform(kNodes))->Publish("s", s).ok());
  }
  // R keys: fraction sigma inside S's key range, the rest far outside.
  // R rows carry a fat payload — the regime where Bloom pruning pays: the
  // filter costs a few KB once, each pruned tuple saves a full shipment
  // (Mackert & Lohman's semijoin/Bloom-join economics [44]).
  std::string payload(200, 'x');
  for (int i = 0; i < kRows; ++i) {
    bool match = rng.NextDouble() < sigma;
    int64_t x = match ? static_cast<int64_t>(rng.Uniform(kRows))
                      : static_cast<int64_t>(1000000 + rng.Uniform(1000000));
    Tuple r("r");
    r.Append("x", Value::Int64(x));
    r.Append("a", Value::Int64(i));
    r.Append("blob", Value::Bytes(payload));
    PIER_CHECK(net->client(rng.Uniform(kNodes))->Publish("r", r).ok());
  }
}

struct Outcome {
  uint64_t results = 0;
  uint64_t bytes = 0;
  TimeUs last_result = -1;
};

Outcome RunStrategy(const std::string& strategy, double sigma, uint64_t seed,
                    std::string* optimizer_pick = nullptr) {
  SimPier::Options popts;
  popts.sim.seed = seed;
  popts.settle_time = 8 * kSecond;
  SimPier net(kNodes, popts);
  LoadTables(&net, sigma, seed + 2);
  net.RunFor(2 * kSecond);

  const TimeUs kTimeout = 16 * kSecond;
  QueryPlan plan;
  plan.query_id = 886600 + static_cast<uint64_t>(sigma * 100);
  plan.timeout = kTimeout;
  std::string qns = "q" + std::to_string(plan.query_id);

  if (strategy == "optimizer") {
    // The runtime rehashes batch-at-a-time (PutOp ships one DHT batch per
    // input batch), so the optimizer must price puts with the batching
    // discount — per-message overhead amortized by the effective batch
    // size — or it overestimates rehash traffic relative to what the fixed
    // strategies actually measure. 8 is a conservative effective batch for
    // scan-fed rehash on this topology.
    CostParams cp = net.client(0)->cost_params();
    cp.put_batch = 8;
    net.client(0)->set_cost_params(cp);
    // Compile through the client: the optimizer sees the publish-time stats
    // the loads accrued and picks the join strategy itself.
    auto ex = net.client(0)->Explain(
        Sql("SELECT * FROM r rr, s ss WHERE rr.x = ss.y TIMEOUT 16s"));
    if (!ex.ok()) {
      std::fprintf(stderr, "explain failed: %s\n",
                   ex.status().ToString().c_str());
      std::exit(1);
    }
    plan = std::move(ex->plan);
    std::string pick = "rehash";
    for (const OpGraph& g : plan.graphs) {
      for (const OpSpec& op : g.ops) {
        if (op.kind == OpKind::kBloomProbe) pick = "bloom";
        if (op.kind == OpKind::kFetchMatches && pick == "rehash")
          pick = "fetch-matches";
      }
    }
    if (optimizer_pick != nullptr) *optimizer_pick = pick;
  } else if (strategy == "fetch-matches") {
    OpGraph& g = plan.AddGraph();
    OpSpec& scan = g.AddOp(OpKind::kScan);
    scan.Set("ns", "r");
    uint32_t scan_id = scan.id;
    OpSpec& fm = g.AddOp(OpKind::kFetchMatches);
    fm.Set("table", "s");
    fm.SetExpr("key_expr", Expr::Column("x"));
    uint32_t fm_id = fm.id;
    g.Connect(scan_id, fm_id, 0);
    OpSpec& res = g.AddOp(OpKind::kResult);
    g.Connect(fm_id, res.id, 0);
  } else {
    // Rehash plan; optionally Bloom-filter R against S's keys first.
    std::string jns = qns + ".join";
    std::string fns = qns + ".bloom";
    {
      OpGraph& g = plan.AddGraph();  // S side: scan the published partitions
      OpSpec& scan = g.AddOp(OpKind::kScan);
      scan.Set("ns", "s");
      uint32_t tail = scan.id;
      if (strategy == "bloom") {
        OpSpec& bc = g.AddOp(OpKind::kBloomCreate);
        bc.Set("col", "y");
        bc.Set("ns", fns);
        bc.SetInt("bits", 4096);
        g.Connect(tail, bc.id, 0);
        // The filter publishes on flush; S tuples also flow to the rehash.
      }
      OpSpec& put = g.AddOp(OpKind::kPut);
      put.Set("ns", jns);
      put.Set("key", "y");
      g.Connect(tail, put.id, 0);
    }
    {
      OpGraph& g = plan.AddGraph();  // R side
      OpSpec& scan = g.AddOp(OpKind::kScan);
      scan.Set("ns", "r");
      uint32_t tail = scan.id;
      if (strategy == "bloom") {
        // The probe fetches the filter at its graph's first flush: stage 1,
        // a stage after the S side's flush put the filter.
        g.flush_stage = 1;
        OpSpec& bp = g.AddOp(OpKind::kBloomProbe);
        bp.Set("col", "x");
        bp.Set("ns", fns);
        g.Connect(tail, bp.id, 0);
        tail = bp.id;
      }
      OpSpec& put = g.AddOp(OpKind::kPut);
      put.Set("ns", jns);
      put.Set("key", "x");
      g.Connect(tail, put.id, 0);
    }
    {
      OpGraph& g = plan.AddGraph();
      g.flush_stage = 1;
      OpSpec& nd = g.AddOp(OpKind::kNewData);
      nd.Set("ns", jns);
      uint32_t nd_id = nd.id;
      OpSpec& shj = g.AddOp(OpKind::kSymHashJoin);
      shj.Set("l_key", "x");
      shj.Set("r_key", "y");
      shj.Set("l_table", "r");
      shj.Set("r_table", "s");
      uint32_t shj_id = shj.id;
      g.Connect(nd_id, shj_id, 0);
      OpSpec& res = g.AddOp(OpKind::kResult);
      g.Connect(shj_id, res.id, 0);
    }
  }

  net.harness()->ResetStats();
  Outcome out;
  TimeUs start = net.loop()->now();
  auto q = net.client(0)->Query(std::move(plan));
  bench::Check(q, "join query").OnTuple([&](const Tuple&) {
    out.results++;
    out.last_result = net.loop()->now() - start;
  });
  net.RunFor(kTimeout + 2 * kSecond);
  out.bytes = net.harness()->total_bytes();
  return out;
}

int Run() {
  bench::Title("E8: join strategies vs selectivity");
  bench::Note(std::to_string(kRows) +
              " rows/side; S published on the join attribute; sigma = "
              "fraction of R rows with a match");
  std::vector<int> w = {8, 18, 10, 14, 14};
  bench::Row({"sigma", "strategy", "results", "total KB", "last result ms"}, w);
  int failures = 0;
  for (double sigma : {0.05, 0.25, 1.0}) {
    std::map<std::string, uint64_t> measured;  // fixed strategy -> bytes
    std::map<std::string, uint64_t> results;   // fixed strategy -> answers
    for (const char* strategy : {"rehash", "bloom", "fetch-matches"}) {
      Outcome o = RunStrategy(strategy, sigma, 401);
      measured[strategy] = o.bytes;
      results[strategy] = o.results;
      bench::Row({bench::Fmt(sigma, 2), strategy, std::to_string(o.results),
                  bench::Fmt(o.bytes / 1024.0, 0), bench::Ms(o.last_result)},
                 w);
    }
    // Every strategy computes the same join: the counts must agree.
    for (const auto& [name, count] : results) {
      if (count == results.begin()->second) continue;
      std::fprintf(stderr,
                   "FAIL: sigma=%.2f %s returned %llu results, %s %llu\n",
                   sigma, name.c_str(), static_cast<unsigned long long>(count),
                   results.begin()->first.c_str(),
                   static_cast<unsigned long long>(results.begin()->second));
      failures++;
    }
    std::string pick;
    Outcome o = RunStrategy("optimizer", sigma, 401, &pick);
    bench::Row({bench::Fmt(sigma, 2), "optimizer=" + pick,
                std::to_string(o.results), bench::Fmt(o.bytes / 1024.0, 0),
                bench::Ms(o.last_result)},
               w);
    // The pick must never be strictly the worst measured strategy.
    std::string worst;
    uint64_t worst_bytes = 0;
    bool unique_worst = false;
    for (const auto& [name, bytes] : measured) {
      if (bytes > worst_bytes) {
        worst = name;
        worst_bytes = bytes;
        unique_worst = true;
      } else if (bytes == worst_bytes) {
        unique_worst = false;
      }
    }
    if (unique_worst && pick == worst) {
      std::fprintf(stderr,
                   "FAIL: sigma=%.2f optimizer picked '%s', the worst "
                   "measured strategy (%llu bytes)\n",
                   sigma, pick.c_str(),
                   static_cast<unsigned long long>(worst_bytes));
      failures++;
    }
  }
  bench::Note(
      "expected shape (result counts agreeing across strategies at each "
      "sigma is checked above): bloom's byte cost tracks sigma (it prunes "
      "non-matching R rows before the rehash); rehash pays full shipping "
      "regardless; fetch-matches costs one DHT get per R row, independent of "
      "sigma; the optimizer row replays whatever the cost model picked from "
      "the accrued stats.");
  return failures;
}

}  // namespace
}  // namespace pier

int main() { return pier::Run(); }
