// Experiment E3 — Table 1's substrate, measured: microbenchmarks of the
// runtime primitives every PIER operation is built from (Main Scheduler
// event dispatch, timer cancellation, simulated UDP delivery, wire codec,
// tuple codec), plus the headline batch-dataflow comparison: the same
// selection+projection pipeline driven with 1-row batches (one push per
// tuple) vs 1024-row batches.
//
// Self-contained harness (no external benchmark dependency). Self-checking:
// both feeds must produce identical row counts and checksums, and the
// 1024-row feed must sustain >= 2x the 1-row feed's single-thread
// throughput; either violation exits nonzero. PIER_BENCH_JSON=<path> writes
// the deterministic fields (counts, checksums, pass booleans — never
// timings) for the CI golden diff.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "data/tuple.h"
#include "data/tuple_batch.h"
#include "qp/dataflow.h"
#include "qp/expr.h"
#include "runtime/event_loop.h"
#include "runtime/sim_runtime.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/wire.h"

namespace pier {
namespace {

// --- Tiny timing harness -----------------------------------------------------

volatile uint64_t g_sink = 0;  // defeats dead-code elimination

double NowSec() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

/// Runs `fn` (which performs `ops_per_call` operations) repeatedly for at
/// least `min_sec` wall seconds and returns nanoseconds per operation.
template <typename Fn>
double NsPerOp(uint64_t ops_per_call, Fn&& fn, double min_sec = 0.2) {
  fn();  // warm-up
  uint64_t calls = 0;
  double start = NowSec(), elapsed = 0;
  do {
    fn();
    calls++;
    elapsed = NowSec() - start;
  } while (elapsed < min_sec);
  return elapsed * 1e9 / (static_cast<double>(calls) * ops_per_call);
}

void MicroRow(const std::string& name, double ns) {
  bench::Row({name, bench::Fmt(ns, 1) + " ns/op"}, {34, 16});
}

// --- Runtime primitive micros (the seed's E3 rows) ---------------------------

double BenchEventLoopScheduleRun() {
  EventLoop loop;
  return NsPerOp(1024, [&loop]() {
    for (int i = 0; i < 1024; ++i) {
      loop.ScheduleAfter(1, []() { g_sink++; });
      loop.RunOne();
    }
  });
}

double BenchEventLoopCancel() {
  EventLoop loop;
  double ns = NsPerOp(1024, [&loop]() {
    for (int i = 0; i < 1024; ++i) {
      uint64_t token = loop.ScheduleAfter(1000000, []() {});
      loop.Cancel(token);
    }
  });
  loop.RunUntilIdle();  // drops the cancelled keys
  return ns;
}

double BenchEventLoopCancelAfterRun() {
  // The common timer pattern: the event fired, then its owner cancels the
  // now-stale token. It must be a no-op that leaves nothing behind.
  EventLoop loop;
  std::vector<uint64_t> tokens;
  for (int i = 0; i < 1024; ++i)
    tokens.push_back(loop.ScheduleAfter(i, []() { g_sink++; }));
  loop.RunUntilIdle();
  double ns = NsPerOp(1024, [&loop, &tokens]() {
    for (uint64_t token : tokens) loop.Cancel(token);
  });
  PIER_CHECK(loop.pending() == 0);
  return ns;
}

double BenchSimUdpRoundtrip() {
  // One datagram delivered between two virtual nodes through the topology
  // and congestion models, per op.
  SimOptions opts;
  opts.seed = 3;
  SimHarness sim(opts);
  sim.AddNodes(2);
  struct Sink : UdpHandler {
    void HandleUdp(const NetAddress&, std::string_view) override { g_sink++; }
  };
  Sink sink;
  PIER_CHECK(sim.vri(1)->UdpListen(9, &sink).ok());
  PIER_CHECK(sim.vri(0)->UdpListen(9, &sink).ok());
  NetAddress dst = sim.AddressOf(1, 9);
  return NsPerOp(256, [&sim, &dst]() {
    for (int i = 0; i < 256; ++i) {
      PIER_CHECK(sim.vri(0)
                     ->UdpSend(9, dst, "payload-of-a-plausible-size-1234567890")
                     .ok());
      sim.loop()->RunUntilIdle();
    }
  });
}

double BenchWireCodec() {
  return NsPerOp(1024, []() {
    for (int i = 0; i < 1024; ++i) {
      WireWriter w;
      w.PutU64(0x12345678);
      w.PutVarint(123456);
      w.PutBytes("hello wire format");
      w.PutDouble(3.14159);
      std::string buf = std::move(w).data();
      WireReader r(buf);
      uint64_t a, b;
      std::string_view s;
      double d = 0;
      PIER_CHECK(r.GetU64(&a).ok() && r.GetVarint(&b).ok() &&
                 r.GetBytes(&s).ok() && r.GetDouble(&d).ok());
      g_sink += static_cast<uint64_t>(d);
    }
  });
}

double BenchTupleCodec() {
  Tuple t("fw");
  t.Append("src", Value::String("10.1.2.3"));
  t.Append("dst_port", Value::Int64(445));
  t.Append("proto", Value::String("tcp"));
  t.Append("ts", Value::Int64(1234567));
  return NsPerOp(1024, [&t]() {
    for (int i = 0; i < 1024; ++i) {
      std::string wire = t.Encode();
      Result<Tuple> back = Tuple::Decode(wire);
      g_sink += back.ok() ? 1 : 0;
    }
  });
}

double BenchRoutingIdHash() {
  uint64_t i = 0;
  return NsPerOp(1024, [&i]() {
    for (int k = 0; k < 1024; ++k) {
      g_sink += HashNamespaceKey("some_table", "key" + std::to_string(i++));
    }
  });
}

// --- 1-row vs 1024-row batches ----------------------------------------------

constexpr size_t kRows = 65536;
constexpr size_t kBatchRows = 1024;

/// Terminal sink: counts rows and chains their content hashes in arrival
/// order, so the two feeds must agree exactly.
class CollectorOp : public Operator {
 public:
  using Operator::Operator;
  void ProcessBatch(int, uint32_t, const TupleBatch& batch) override {
    const size_t n = batch.num_rows();
    count_ += n;
    for (size_t r = 0; r < n; ++r)
      checksum_ = checksum_ * 1099511628211ull ^ batch.RowHash(r);
  }
  void Reset() { count_ = 0, checksum_ = 0; }
  uint64_t count() const { return count_; }
  uint64_t checksum() const { return checksum_; }

 private:
  uint64_t count_ = 0;
  uint64_t checksum_ = 0;
};

std::vector<Tuple> MakeRows() {
  std::vector<Tuple> rows;
  rows.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    Tuple t("flows");
    t.Append("a", Value::Int64(static_cast<int64_t>(i)));
    t.Append("b", Value::Int64(static_cast<int64_t>(i * 2654435761ull % 997)));
    t.Append("src", Value::String("10.0." + std::to_string(i % 256) + "." +
                                  std::to_string(i % 97)));
    rows.push_back(std::move(t));
  }
  return rows;
}

struct PipelineResult {
  uint64_t count = 0;
  uint64_t checksum = 0;
  double ns_per_row = 0;
};

/// Builds selection[b < 499] -> projection[a, src; twice = a * 2] ->
/// collector, then drives `batches` through it.
PipelineResult RunPipeline(const std::vector<TupleBatch>& batches) {
  Result<ExprPtr> pred = ParseExpr("b < 499");
  Result<ExprPtr> twice = ParseExpr("a * 2");
  PIER_CHECK(pred.ok() && twice.ok());
  OpSpec sel_spec(1, OpKind::kSelection);
  sel_spec.SetExpr("pred", *pred);
  OpSpec proj_spec(2, OpKind::kProjection);
  proj_spec.SetStrings("cols", {"a", "src"});
  proj_spec.Set("out0", "twice");
  proj_spec.SetExpr("expr0", *twice);

  Result<std::unique_ptr<Operator>> sel_r = MakeOperator(sel_spec);
  Result<std::unique_ptr<Operator>> proj_r = MakeOperator(proj_spec);
  PIER_CHECK(sel_r.ok() && proj_r.ok());
  std::unique_ptr<Operator> sel = std::move(*sel_r);
  std::unique_ptr<Operator> proj = std::move(*proj_r);
  CollectorOp collector(OpSpec(3, OpKind::kResult));

  ExecContext cx;
  PIER_CHECK(sel->Init(&cx).ok());
  PIER_CHECK(proj->Init(&cx).ok());
  PIER_CHECK(collector.Init(&cx).ok());
  sel->AddOutput(proj.get(), 0);
  proj->AddOutput(&collector, 0);

  Operator* head = sel.get();
  PipelineResult out;
  out.ns_per_row = NsPerOp(kRows, [&]() {
    collector.Reset();
    for (const TupleBatch& b : batches) head->ProcessBatch(0, 0, b);
  });
  out.count = collector.count();
  out.checksum = collector.checksum();
  return out;
}

int Run() {
  bench::Title("E3: runtime micro-benchmarks");
  bench::Note("primitive costs (wall-clock; not part of the golden):");
  MicroRow("event loop schedule+run", BenchEventLoopScheduleRun());
  MicroRow("event loop cancel", BenchEventLoopCancel());
  MicroRow("event loop cancel-after-run", BenchEventLoopCancelAfterRun());
  MicroRow("sim UDP roundtrip", BenchSimUdpRoundtrip());
  MicroRow("wire codec roundtrip", BenchWireCodec());
  MicroRow("tuple codec roundtrip", BenchTupleCodec());
  MicroRow("routing id hash", BenchRoutingIdHash());

  bench::Title("1-row vs 1024-row batches");
  bench::Note("selection+projection pipeline over " + std::to_string(kRows) +
              " rows; batch rows = " + std::to_string(kBatchRows));

  // Both feeds are built outside the timed loop.
  std::vector<Tuple> rows = MakeRows();
  std::vector<TupleBatch> singles, batches;
  singles.reserve(rows.size());
  for (const Tuple& t : rows) singles.push_back(TupleBatch::FromTuples({t}));
  for (size_t off = 0; off < rows.size(); off += kBatchRows) {
    size_t n = std::min(kBatchRows, rows.size() - off);
    batches.push_back(TupleBatch::FromTuples(std::vector<Tuple>(
        rows.begin() + static_cast<long>(off),
        rows.begin() + static_cast<long>(off + n))));
  }

  PipelineResult single = RunPipeline(singles);
  PipelineResult batch = RunPipeline(batches);
  double speedup = single.ns_per_row / batch.ns_per_row;

  std::vector<int> w = {14, 12, 18, 10, 10};
  bench::Row({"path", "rows out", "checksum", "ns/row", "Mrow/s"}, w);
  for (const auto* p : {&single, &batch}) {
    char sum[20];
    std::snprintf(sum, sizeof sum, "%016" PRIx64, p->checksum);
    bench::Row({p == &single ? "1-row" : "batch",
                std::to_string(p->count), sum, bench::Fmt(p->ns_per_row, 1),
                bench::Fmt(1e3 / p->ns_per_row, 1)},
               w);
  }
  bench::Note("batch speedup: " + bench::Fmt(speedup, 2) + "x");

  int failures = 0;
  if (single.count != batch.count || single.checksum != batch.checksum) {
    std::fprintf(stderr,
                 "FAIL: 1-row and batch feeds disagree (%llu/%016" PRIx64
                 " vs %llu/%016" PRIx64 ")\n",
                 static_cast<unsigned long long>(single.count), single.checksum,
                 static_cast<unsigned long long>(batch.count), batch.checksum);
    failures++;
  }
  if (speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: batch speedup %.2fx < 2x over 1-row batches "
                 "(%.1f vs %.1f ns/row)\n",
                 speedup, batch.ns_per_row, single.ns_per_row);
    failures++;
  }
  if (failures == 0)
    bench::Note("ok: identical answers, batch path >= 2x 1-row batches");

  if (const char* path = std::getenv("PIER_BENCH_JSON")) {
    std::FILE* f = std::fopen(path, "w");
    if (!f) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", path);
      return failures + 1;
    }
    // Deterministic fields only: counts and checksums are fixed by the input
    // generator; timings never appear here.
    std::fprintf(f, "{\n  \"bench\": \"runtime_micro\",\n");
    std::fprintf(f, "  \"rows\": %zu, \"batch_rows\": %zu,\n", kRows,
                 kBatchRows);
    std::fprintf(f,
                 "  \"pipeline_rows_out\": %llu,\n"
                 "  \"pipeline_checksum\": \"%016" PRIx64 "\",\n",
                 static_cast<unsigned long long>(single.count),
                 single.checksum);
    std::fprintf(f, "  \"paths_identical\": %s,\n",
                 single.count == batch.count &&
                         single.checksum == batch.checksum
                     ? "true"
                     : "false");
    std::fprintf(f, "  \"batch_speedup_ge_2x\": %s\n}\n",
                 speedup >= 2.0 ? "true" : "false");
    std::fclose(f);
  }
  return failures;
}

}  // namespace
}  // namespace pier

int main() {
  int failures = pier::Run();
  if (pier::g_sink == ~0ull) std::printf("(unreachable)\n");
  return failures;
}
