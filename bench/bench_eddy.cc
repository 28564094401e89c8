// Experiment E13 — §4.2.2 eddies: adaptive predicate ordering under a
// mid-query selectivity shift.
//
// Three predicates gate a stream whose data distribution flips halfway: in
// phase one predicate P0 is the most selective, in phase two it is P2. A
// static order pays for the wrong ordering in one of the phases; the eddy's
// observation-driven policy re-learns the ordering online. The work metric
// is total predicate evaluations.

#include "bench/bench_common.h"
#include "util/logging.h"
#include "qp/sim_pier.h"

namespace pier {
namespace {

constexpr int kTuplesPerPhase = 4000;

/// Build a local single-node query around an eddy (or fixed chain) and pump
/// two phases of tuples through it. Returns {evaluations, survivors}.
std::pair<int64_t, uint64_t> RunPolicy(const std::string& policy,
                                       bool reversed_static, uint64_t seed) {
  SimPier::Options popts;
  popts.sim.seed = seed;
  popts.settle_time = 2 * kSecond;
  SimPier net(1, popts);

  // Predicates over columns c0, c1, c2 (each uniform in [0, 100)):
  //   P0: c0 < t0    P1: c1 < 50    P2: c2 < t2
  // Phase 1: t0=5 (selective), t2=95 (loose). Phase 2 swaps them.
  QueryPlan plan;
  plan.query_id = 131313;
  plan.timeout = 60 * kSecond;
  OpGraph& g = plan.AddGraph();
  g.dissem = DissemKind::kLocal;
  OpSpec& src = g.AddOp(OpKind::kSource);
  src.SetInt("inject", 1);
  uint32_t src_id = src.id;
  OpSpec& eddy = g.AddOp(OpKind::kEddy);
  eddy.SetInt("n", 3);
  auto pred = [](const std::string& col, int64_t bound) {
    return Expr::Cmp(CmpOp::kLt, Expr::Column(col),
                     Expr::Const(Value::Int64(bound)));
  };
  // Module exprs reference per-tuple thresholds so the same predicate text
  // changes selectivity when the data shifts.
  std::vector<std::string> cols = {"c0", "c1", "c2"};
  if (reversed_static) std::swap(cols[0], cols[2]);
  eddy.SetExpr("mexpr0", pred(cols[0], 50));
  eddy.SetExpr("mexpr1", pred(cols[1], 50));
  eddy.SetExpr("mexpr2", pred(cols[2], 50));
  eddy.Set("policy", policy);
  uint32_t eddy_id = eddy.id;
  g.Connect(src_id, eddy_id, 0);
  OpSpec& res = g.AddOp(OpKind::kResult);
  g.Connect(eddy_id, res.id, 0);

  uint64_t survivors = 0;
  uint64_t query_id = plan.query_id;
  uint32_t graph_id = g.id;
  auto q = net.client(0)->Query(std::move(plan));
  bench::Check(q, "eddy query").OnTuple([&](const Tuple&) { survivors++; });
  net.RunFor(1 * kSecond);

  Rng rng(seed + 9);
  auto inject = [&](int phase) {
    for (int i = 0; i < kTuplesPerPhase; ++i) {
      Tuple t("stream");
      // Phase 1: c0 rarely < 50, c2 usually < 50 => evaluating c0 first is
      // best. Phase 2 flips the distributions.
      int64_t tight = static_cast<int64_t>(rng.Uniform(100));       // ~50% pass
      int64_t low = static_cast<int64_t>(rng.Uniform(100)) + 45;    // ~5% pass
      int64_t high = static_cast<int64_t>(rng.Uniform(100)) - 45;   // ~95% pass
      t.Append("c0", Value::Int64(phase == 1 ? low : high));
      t.Append("c1", Value::Int64(tight));
      t.Append("c2", Value::Int64(phase == 1 ? high : low));
      PIER_CHECK(net.qp(0)
                     ->executor()
                     ->InjectBatch(query_id, graph_id, src_id,
                                   TupleBatch::FromTuples({t}))
                     .ok());
      if (i % 512 == 511) net.RunFor(100 * kMillisecond);
    }
    net.RunFor(1 * kSecond);
  };
  inject(1);
  inject(2);

  Operator* op = net.qp(0)->executor()->FindOp(query_id, graph_id, eddy_id);
  int64_t evals = op ? op->Metric("evaluations") : -1;
  return {evals, survivors};
}

void Run() {
  bench::Title("E13: eddy vs static orders under a selectivity shift");
  bench::Note(std::to_string(2 * kTuplesPerPhase) +
              " tuples; the most selective predicate flips mid-stream");
  std::vector<int> w = {26, 16, 12};
  bench::Row({"policy", "evaluations", "survivors"}, w);
  auto [e1, s1] = RunPolicy("fixed", false, 61);
  bench::Row({"static (best for phase 1)", std::to_string(e1),
              std::to_string(s1)}, w);
  auto [e2, s2] = RunPolicy("fixed", true, 61);
  bench::Row({"static (best for phase 2)", std::to_string(e2),
              std::to_string(s2)}, w);
  auto [e3, s3] = RunPolicy("adaptive", false, 61);
  bench::Row({"eddy (adaptive)", std::to_string(e3), std::to_string(s3)}, w);
  bench::Note(
      "expected shape: both static orders pay for the wrong phase; the eddy "
      "tracks the shift and lands near the per-phase optimum (identical "
      "survivor counts prove result equivalence).");
}

}  // namespace
}  // namespace pier

int main() {
  pier::Run();
  return 0;
}
