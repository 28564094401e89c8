// Experiment E7 — §3.3.4 hierarchical joins: offloading the hot bucket's
// out-bandwidth under key skew.
//
// Both tables' join keys are Zipf-skewed, so one hash bucket receives a
// majority of the tuples. In the plain rehash join, that bucket's owner
// produces (and ships to the proxy) most of the join results; in the
// hierarchical join, nodes on the paths to the owner cache in-flight tuples,
// emit matches "early", and the owner suppresses the pairs already produced.
// We report where results were produced and the peak per-node out-bytes.
// The bench FAILS (nonzero exit) unless both joins return exactly the join
// size computed from the loaded rows.

#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"
#include "util/logging.h"
#include "qp/sim_pier.h"

namespace pier {
namespace {

constexpr uint32_t kNodes = 48;
constexpr int kRowsPerSide = 300;
constexpr double kSkew = 1.2;
constexpr int kKeys = 40;

/// Stores skewed rows of l(k, a) and r(k, b) in situ on random nodes.
/// Key/node draws follow one fixed rng sequence so GroundTruth() below can
/// replay it.
void LoadTables(SimPier* net, uint64_t seed) {
  PIER_CHECK(net->catalog()->Register(TableSpec("l").LocalOnly()).ok());
  PIER_CHECK(net->catalog()->Register(TableSpec("r").LocalOnly()).ok());
  Rng rng(seed);
  ZipfGenerator zipf(kKeys, kSkew);
  for (int i = 0; i < kRowsPerSide; ++i) {
    Tuple l("l");
    l.Append("k", Value::Int64(static_cast<int64_t>(zipf.Sample(&rng))));
    l.Append("a", Value::Int64(i));
    PIER_CHECK(net->client(rng.Uniform(kNodes))->Publish("l", l).ok());
    Tuple r("r");
    r.Append("k", Value::Int64(static_cast<int64_t>(zipf.Sample(&rng))));
    r.Append("b", Value::Int64(i));
    PIER_CHECK(net->client(rng.Uniform(kNodes))->Publish("r", r).ok());
  }
}

struct Outcome {
  uint64_t results = 0;
  uint64_t max_out_bytes = 0;   // peak per-node sent bytes during the query
  int64_t early = -1, owner = -1;  // hierjoin production split
};

Outcome RunJoin(bool hierarchical, uint64_t seed) {
  SimPier::Options popts;
  popts.sim.seed = seed;
  popts.settle_time = 8 * kSecond;
  SimPier net(kNodes, popts);
  LoadTables(&net, seed + 1);
  net.RunFor(1 * kSecond);

  QueryPlan plan;
  plan.query_id = 424200 + hierarchical;
  const TimeUs kTimeout = 16 * kSecond;
  plan.timeout = kTimeout;

  uint32_t join_op_id = 0;
  if (hierarchical) {
    OpGraph& g = plan.AddGraph();
    OpSpec& sl = g.AddOp(OpKind::kScan);
    sl.Set("ns", "l");
    uint32_t sl_id = sl.id;
    OpSpec& sr = g.AddOp(OpKind::kScan);
    sr.Set("ns", "r");
    uint32_t sr_id = sr.id;
    OpSpec& hj = g.AddOp(OpKind::kHierJoin);
    hj.Set("l_key", "k");
    hj.Set("r_key", "k");
    join_op_id = hj.id;
    g.Connect(sl_id, join_op_id, 0);
    g.Connect(sr_id, join_op_id, 1);
  } else {
    // Plain rehash: both sides put into one namespace, owner joins.
    std::string jns = "q" + std::to_string(plan.query_id) + ".join";
    for (const char* side : {"l", "r"}) {
      OpGraph& g = plan.AddGraph();
      OpSpec& scan = g.AddOp(OpKind::kScan);
      scan.Set("ns", side);
      uint32_t scan_id = scan.id;
      OpSpec& put = g.AddOp(OpKind::kPut);
      put.Set("ns", jns);
      put.Set("key", "k");
      g.Connect(scan_id, put.id, 0);
    }
    OpGraph& g3 = plan.AddGraph();
    g3.flush_stage = 1;
    OpSpec& nd = g3.AddOp(OpKind::kNewData);
    nd.Set("ns", jns);
    uint32_t nd_id = nd.id;
    OpSpec& shj = g3.AddOp(OpKind::kSymHashJoin);
    shj.Set("l_key", "k");
    shj.Set("r_key", "k");
    shj.Set("l_table", "l");
    shj.Set("r_table", "r");
    uint32_t shj_id = shj.id;
    g3.Connect(nd_id, shj_id, 0);
    OpSpec& res = g3.AddOp(OpKind::kResult);
    g3.Connect(shj_id, res.id, 0);
  }

  net.harness()->ResetStats();
  Outcome out;
  uint64_t query_id = plan.query_id;
  auto q = net.client(0)->Query(std::move(plan));
  bench::Check(q, "join query").OnTuple([&](const Tuple&) { out.results++; });
  // Sample operator metrics just before the timeout tears the query down.
  net.RunFor(kTimeout - kSecond);
  if (hierarchical) {
    out.early = 0;
    out.owner = 0;
    for (uint32_t i = 0; i < kNodes; ++i) {
      Operator* op =
          net.qp(i)->executor()->FindOp(query_id, 1, join_op_id);
      if (op == nullptr) continue;
      out.early += std::max<int64_t>(0, op->Metric("early_results"));
      out.owner += std::max<int64_t>(0, op->Metric("owner_results"));
    }
  }
  net.RunFor(3 * kSecond);

  for (uint32_t i = 1; i < kNodes; ++i) {  // exclude the proxy (node 0)
    out.max_out_bytes =
        std::max(out.max_out_bytes, net.harness()->node_stats(i).bytes_sent);
  }
  return out;
}

/// The exact join size for the deterministic load (replays LoadTables' rng
/// draw sequence: zipf, node, zipf, node per row pair).
uint64_t GroundTruth(uint64_t seed) {
  Rng rng(seed);
  ZipfGenerator zipf(kKeys, kSkew);
  std::vector<uint64_t> nl(kKeys, 0), nr(kKeys, 0);
  for (int i = 0; i < kRowsPerSide; ++i) {
    nl[zipf.Sample(&rng)]++;
    rng.Uniform(kNodes);
    nr[zipf.Sample(&rng)]++;
    rng.Uniform(kNodes);
  }
  uint64_t total = 0;
  for (int k = 0; k < kKeys; ++k) total += nl[k] * nr[k];
  return total;
}

int Run() {
  bench::Title("E7: hierarchical join under Zipf(" + bench::Fmt(kSkew) +
               ") key skew");
  bench::Note(std::to_string(kRowsPerSide) + " rows/side over " +
              std::to_string(kKeys) + " keys on " + std::to_string(kNodes) +
              " nodes");
  Outcome rehash = RunJoin(false, 31);
  Outcome hier = RunJoin(true, 31);
  const uint64_t truth = GroundTruth(32);  // RunJoin loads with seed + 1
  bench::Note("exact join size (ground truth): " + std::to_string(truth));

  std::vector<int> w = {12, 10, 18, 12, 12};
  bench::Row({"strategy", "results", "max node out-bytes", "early", "owner"},
             w);
  bench::Row({"rehash", std::to_string(rehash.results),
              std::to_string(rehash.max_out_bytes), "-", "-"},
             w);
  bench::Row({"hier", std::to_string(hier.results),
              std::to_string(hier.max_out_bytes), std::to_string(hier.early),
              std::to_string(hier.owner)},
             w);
  bench::Note(
      "expected shape (both counts equal to the ground truth is checked "
      "below): the hierarchical join produces a meaningful share of results "
      "early (at path nodes), lowering the hottest node's out-bytes relative "
      "to rehash.");
  int failures = 0;
  for (const auto& [name, o] :
       {std::make_pair("rehash", rehash), std::make_pair("hier", hier)}) {
    if (o.results == truth) continue;
    std::fprintf(stderr, "FAIL: %s join returned %llu results, expected %llu\n",
                 name, static_cast<unsigned long long>(o.results),
                 static_cast<unsigned long long>(truth));
    failures++;
  }
  return failures;
}

}  // namespace
}  // namespace pier

int main() { return pier::Run(); }
