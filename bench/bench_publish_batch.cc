// Experiment E18 — cross-layer message batching on the ingest path.
//
// One node bulk-publishes a table with a secondary index into a 32-node
// network under the FIFO queueing network model (the sender's uplink
// serializes messages, so per-message overhead — headers, acks, congestion-
// window round trips — is paid in both bytes and wall-clock). The sweep
// compares per-tuple Publish (batch=1) against client auto-batching at 8 and
// 64 tuples.
//
// SELF-CHECKING: the run FAILS (exit 1) unless batch=64 beats batch=1 on
// BOTH total bytes and ingest wall-clock. A regression that quietly unbatches
// the pipeline turns the bench red instead of printing a slower table.
//
// E18b (appended, self-checking): per-query cost metering rides the operator
// hot path (PushBatch and the base Operator's Put/Send/Get are a few plain
// adds per batch or row).
// The same snapshot-query workload runs on two identical networks, executor
// metering off in one and on in the other, timed in process CPU time in 101
// interleaved pairs; the run FAILS if the median per-pair on/off ratio says
// the metered pipeline costs 3% or more than the metering-free one.
//
// PIER_BENCH_SMOKE=1 shrinks the workload for CI smoke runs.

#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "qp/sim_pier.h"

namespace pier {
namespace {

struct Config {
  uint32_t nodes = 32;
  int tuples = 1024;
  int distinct_keys = 128;
  int distinct_tags = 32;
  TimeUs cap = 300 * kSecond;  // give up waiting for ingest past this
};

struct RunResult {
  double ingest_ms = -1;  // virtual time until every object is stored
  uint64_t bytes = 0;
  uint64_t msgs = 0;
  uint64_t batched_puts = 0;
};

RunResult RunOnce(const Config& cfg, size_t batch) {
  SimPier::Options opts;
  opts.sim.seed = 77;
  opts.sim.congestion = CongestionKind::kFifo;
  opts.seed_routing = true;
  opts.settle_time = 8 * kSecond;
  SimPier net(cfg.nodes, opts);
  if (!net.catalog()
           ->Register(TableSpec("ev").PartitionBy({"k"}).SecondaryIndex("tag"))
           .ok()) {
    std::fprintf(stderr, "catalog registration failed\n");
    std::exit(1);
  }
  PierClient* client = net.client(0);
  if (batch > 1) client->SetPublishBatching(batch, 50 * kMillisecond);

  // Every tuple lands as a primary row AND a secondary-index entry. Count
  // per-namespace objects (background tree maintenance stores objects too,
  // which would otherwise pollute the completion check).
  uint64_t expected = static_cast<uint64_t>(cfg.tuples) * 2;
  auto stored = [&net]() {
    uint64_t n = 0;
    for (uint32_t i = 0; i < net.size(); ++i) {
      n += net.dht(i)->objects()->NamespaceObjects("ev");
      n += net.dht(i)->objects()->NamespaceObjects("ev_by_tag");
    }
    return n;
  };
  uint64_t base = stored();
  net.harness()->ResetStats();
  TimeUs t0 = net.loop()->now();

  for (int i = 0; i < cfg.tuples; ++i) {
    Tuple t("ev");
    t.Append("k", Value::Int64(i % cfg.distinct_keys));
    t.Append("tag", Value::String("t" + std::to_string(i % cfg.distinct_tags)));
    t.Append("payload", Value::String(std::string(64, 'x')));
    Status s = client->Publish("ev", t);
    if (!s.ok()) {
      std::fprintf(stderr, "publish failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  if (batch > 1) {
    Status s = client->Flush();
    if (!s.ok()) {
      std::fprintf(stderr, "flush failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }

  RunResult r;
  while (stored() < base + expected && net.loop()->now() - t0 < cfg.cap)
    net.RunFor(10 * kMillisecond);
  if (stored() < base + expected) {
    std::fprintf(stderr, "ingest never completed (%llu of %llu objects)\n",
                 static_cast<unsigned long long>(stored() - base),
                 static_cast<unsigned long long>(expected));
    std::exit(1);
  }
  r.ingest_ms = static_cast<double>(net.loop()->now() - t0) / kMillisecond;
  r.bytes = net.harness()->total_bytes();
  r.msgs = net.harness()->total_msgs();
  for (uint32_t i = 0; i < net.size(); ++i)
    r.batched_puts += net.dht(i)->stats().batched_puts;
  return r;
}

void Run() {
  Config cfg;
  if (std::getenv("PIER_BENCH_SMOKE") != nullptr) {
    cfg.nodes = 16;
    cfg.tuples = 192;
    cfg.distinct_keys = 48;
    cfg.distinct_tags = 12;
  }
  bench::Title("E18: batched publish under the FIFO queueing network model");
  bench::Note("N=" + std::to_string(cfg.nodes) + ", " +
              std::to_string(cfg.tuples) +
              " tuples (primary + secondary index fan-out) published from one "
              "node; FIFO uplink queueing");

  std::vector<int> w = {12, 12, 14, 10, 14};
  bench::Row({"batch", "ingest ms", "total bytes", "msgs", "batched_puts"}, w);

  auto report = [&](const char* name, const RunResult& r) {
    bench::Row({name, bench::Fmt(r.ingest_ms), std::to_string(r.bytes),
                std::to_string(r.msgs), std::to_string(r.batched_puts)},
               w);
  };

  RunResult b1 = RunOnce(cfg, 1);
  report("1", b1);
  RunResult b8 = RunOnce(cfg, 8);
  report("8", b8);
  RunResult b64 = RunOnce(cfg, 64);
  report("64", b64);

  bench::Note(
      "expected shape: larger batches cut both bytes (fewer headers/acks, "
      "deduped lookups) and ingest time (fewer congestion-window round "
      "trips on the sender's uplink).");

  // --- Self-check: batching must actually win -------------------------------
  if (b64.batched_puts == 0) {
    std::fprintf(stderr,
                 "FAIL: batch=64 run shows batched_puts == 0 — batching never "
                 "engaged\n");
    std::exit(1);
  }
  if (b64.bytes >= b1.bytes || b64.ingest_ms >= b1.ingest_ms) {
    std::fprintf(stderr,
                 "FAIL: batch=64 (%llu bytes, %.1f ms) does not beat batch=1 "
                 "(%llu bytes, %.1f ms) on both axes\n",
                 static_cast<unsigned long long>(b64.bytes), b64.ingest_ms,
                 static_cast<unsigned long long>(b1.bytes), b1.ingest_ms);
    std::exit(1);
  }
  bench::Note("self-check passed: batch=64 beats batch=1 on bytes AND "
              "wall-clock.");

  // --- E18b: metering overhead on the operator hot path --------------------
  bench::Title("E18b: per-tuple cost-metering overhead (must stay < 3%)");
  // One run is one snapshot query over 1,024 rows (about 1.5 ms of CPU in a
  // Release build), so a pair's two runs sit close enough in time for machine
  // noise to hit both alike; the median over 101 pairs makes the verdict
  // repeatable. The workload does NOT shrink under PIER_BENCH_SMOKE.
  const int rows = 1024;
  const int pairs = 101;

  // Two identical networks, metering off in one and on in the other. A
  // pair's two runs execute the same queries over the same stretch of
  // virtual time, so the background work they share (maintenance, soft-state
  // sweeps) is the same on both sides: a single network's runs differ by up
  // to a third in cost between neighbouring stretches, far more than the 3%
  // this gate resolves.
  auto make_net = [&](bool metering) {
    SimPier::Options mopts;
    mopts.sim.seed = 99;
    mopts.seed_routing = true;
    mopts.settle_time = 8 * kSecond;
    auto net = std::make_unique<SimPier>(8, mopts);
    if (!net->catalog()->Register(TableSpec("mt").PartitionBy({"k"})).ok()) {
      std::fprintf(stderr, "catalog registration failed\n");
      std::exit(1);
    }
    for (int i = 0; i < rows; ++i) {
      Tuple t("mt");
      t.Append("k", Value::Int64(i));
      t.Append("payload", Value::String(std::string(48, 'y')));
      // The longest life the store allows: the pairs take ~9 virtual minutes,
      // close to the 10-minute default.
      if (!net->client(i % 8)->Publish("mt", t, 30 * 60 * kSecond).ok()) {
        std::fprintf(stderr, "publish failed\n");
        std::exit(1);
      }
    }
    net->RunFor(2 * kSecond);
    for (uint32_t i = 0; i < net->size(); ++i)
      net->qp(i)->executor()->set_metering(metering);
    return net;
  };
  std::unique_ptr<SimPier> off_net = make_net(false);
  std::unique_ptr<SimPier> on_net = make_net(true);

  // Every scanned tuple crosses PushBatch and the rehash-free answer path,
  // and a run is one full snapshot-query lifecycle, proxied by each node in
  // turn. Runs are timed in process CPU time, which a descheduled process
  // does not accrue.
  int run = 0;
  auto measure = [&](SimPier* net) -> double {
    timespec t0{}, t1{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t0);
    auto h = net->client((run++ / 2) % 8)
                 ->Query(Sql("SELECT * FROM mt TIMEOUT 4s"));
    size_t got = bench::Check(h, "metering workload query").Collect().size();
    if (got != static_cast<size_t>(rows)) {
      std::fprintf(stderr, "FAIL: workload query returned %zu of %d rows\n",
                   got, rows);
      std::exit(1);
    }
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t1);
    return static_cast<double>(t1.tv_sec - t0.tv_sec) +
           static_cast<double>(t1.tv_nsec - t0.tv_nsec) * 1e-9;
  };

  // Warm-up: page in code and sim state for both networks.
  measure(off_net.get());
  measure(on_net.get());
  // The order within a pair alternates so neither side always runs second,
  // and the median ignores the pairs a scheduler hiccup hit.
  std::vector<double> ratios, offs;
  for (int p = 0; p < pairs; ++p) {
    bool on_first = p % 2 == 1;
    double first = measure(on_first ? on_net.get() : off_net.get());
    double second = measure(on_first ? off_net.get() : on_net.get());
    double on = on_first ? first : second, off = on_first ? second : first;
    ratios.push_back(on / off);
    offs.push_back(off);
  }
  std::sort(ratios.begin(), ratios.end());
  std::sort(offs.begin(), offs.end());
  double overhead = ratios[pairs / 2] - 1;
  bench::Note("metering off: " + bench::Fmt(offs[pairs / 2] * 1e3) +
              " ms CPU (median); median on/off ratio over " +
              std::to_string(pairs) + " pairs: overhead " +
              bench::Fmt(overhead * 100, 2) + "% (pairs range " +
              bench::Fmt((ratios.front() - 1) * 100, 2) + "% to " +
              bench::Fmt((ratios.back() - 1) * 100, 2) + "%)");
  if (overhead >= 0.03) {
    std::fprintf(stderr,
                 "FAIL: per-tuple metering costs %.2f%% CPU (>= 3%%) "
                 "against the metering-free pipeline\n",
                 overhead * 100);
    std::exit(1);
  }
  bench::Note("self-check passed: metering overhead under 3%.");
}

}  // namespace
}  // namespace pier

int main() {
  pier::Run();
  return 0;
}
