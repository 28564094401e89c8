// Experiment E16 — first-class observability, end to end and self-checking.
//
// One 6-node simulated PIER cluster exercises every export path the metrics
// registry has, and the bench FAILS (exit nonzero) if any of the three
// disagree with an independent count:
//
//   1. SCRAPE: after ingest and a snapshot query, node 0's Prometheus-text
//      endpoint is scraped twice (over the VRI's framed TCP, mid-run) with
//      more work between the scrapes. FAIL if any family in the registry's
//      own snapshot is missing from the scrape body, if any counter series
//      moved backwards between the scrapes, or if the scraped
//      pier_dht_puts_total disagrees with the Dht's own Stats bracket.
//
//   2. SYS.METRICS: node 0 publishes its registry snapshot into the
//      catalog-declared sys.metrics soft-state table; node 2 queries it
//      back with plain SQL. FAIL unless every published counter/gauge
//      sample comes back with exactly the published value.
//
//   3. EXPLAIN ANALYZE: a rehash symmetric-hash join, a hierarchical
//      GROUP BY (whose partials travel as hop-by-hop DHT sends), then a
//      Bloom join (filter puts, one filter get per probing node), run to
//      completion, and each per-query cost report is checked against wire
//      traffic counted by the DHT and query processor themselves (Δputs +
//      Δsends + Δgets + Δ forwarded answer frames, and the answer-bytes
//      histogram's frame count and sum) — ledgers the operator meters never
//      touch. FAIL if messages or answer bytes disagree by more than 10%
//      for any of the three.
//
// PIER_BENCH_JSON=<path> writes the (virtual-time deterministic) metrics as
// JSON; CI diffs it against the committed bench/BENCH_metrics.json.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "obs/metrics.h"
#include "obs/scrape.h"
#include "qp/sim_pier.h"

namespace pier {
namespace {

constexpr uint32_t kNodes = 6;
constexpr int kRows = 48;

int failures = 0;

void Fail(const std::string& what) {
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  failures++;
}

// Parse a Prometheus text body into {series line key -> value}, collecting
// the families declared by # TYPE lines along the way.
struct ScrapeBody {
  std::map<std::string, double> series;           // "name{labels}" -> value
  std::map<std::string, std::string> family_type; // name -> counter|gauge|...
};

ScrapeBody Parse(const std::string& body) {
  ScrapeBody out;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.rfind("# TYPE ", 0) == 0) {
        std::string rest = line.substr(7);
        size_t sp = rest.find(' ');
        if (sp != std::string::npos)
          out.family_type[rest.substr(0, sp)] = rest.substr(sp + 1);
      }
      continue;
    }
    size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    out.series[line.substr(0, sp)] = std::atof(line.c_str() + sp + 1);
  }
  return out;
}

// The family a series line belongs to: strip labels, then fold histogram
// sub-series back onto their parent name.
std::string FamilyOf(const std::string& key) {
  std::string name = key.substr(0, key.find('{'));
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    size_t n = std::strlen(suffix);
    if (name.size() > n && name.compare(name.size() - n, n, suffix) == 0)
      return name.substr(0, name.size() - n);
  }
  return name;
}

std::string Scrape(SimPier* net, uint32_t from, uint32_t target) {
  std::string body;
  bool done = false;
  ScrapeMetrics(net->qp(from)->vri(), net->metrics_address(target),
                [&](std::string b) {
                  body = std::move(b);
                  done = true;
                });
  for (int i = 0; i < 200 && !done; ++i) net->RunFor(10 * kMillisecond);
  if (!done) Fail("scrape of node " + std::to_string(target) + " timed out");
  return body;
}

/// Wire traffic counted outside the operator meters: DHT puts, sends and
/// gets, and the forwarded answer frames and their bytes (the answer-bytes
/// histogram observes one sample per frame).
struct WireCount {
  uint64_t puts = 0, sends = 0, gets = 0, answer_frames = 0;
  double answer_bytes = 0;
};

WireCount CountWire(SimPier* net) {
  WireCount w;
  for (uint32_t i = 0; i < net->size(); ++i) {
    Dht::Stats d = net->dht(i)->stats();
    w.puts += d.puts;
    w.sends += d.sends;
    w.gets += d.gets;
    for (const MetricSample& s : net->metrics(i)->Snapshot()) {
      if (s.name != "pier_query_answer_bytes") continue;
      w.answer_frames += s.count;
      w.answer_bytes += s.sum;
    }
  }
  return w;
}

struct MeterCheck {
  uint64_t meter_msgs = 0, independent_msgs = 0;
  double answer_bytes = 0;  // the meter's answer pseudo-op bytes
};

/// Check a finished query's cost report against the wire traffic the DHT
/// and query processor counted between `before` and `after`: messages and
/// answer bytes must agree within 10%.
MeterCheck CheckMeter(const std::string& what,
                      const Result<ExplainAnalyzeResult>& ea,
                      const WireCount& before, const WireCount& after) {
  MeterCheck m;
  if (!ea.ok()) {
    Fail(what + " ExplainAnalyze: " + ea.status().ToString());
    return m;
  }
  if (!ea->final) Fail(what + " cost report not final after completion");
  m.meter_msgs = ea->actual.total.msgs;
  m.independent_msgs = (after.puts - before.puts) +
                       (after.sends - before.sends) +
                       (after.gets - before.gets) +
                       (after.answer_frames - before.answer_frames);
  for (const QueryCostOp& op : ea->actual.ops)
    if (op.graph_id == QueryMeter::kAnswerSlot.first &&
        op.op_id == QueryMeter::kAnswerSlot.second)
      m.answer_bytes = static_cast<double>(op.cost.bytes);
  double independent_answer_bytes = after.answer_bytes - before.answer_bytes;

  auto within10 = [](double a, double b) {
    double hi = std::max(a, b);
    return hi == 0 || std::abs(a - b) / hi <= 0.10;
  };
  if (!within10(static_cast<double>(m.meter_msgs),
                static_cast<double>(m.independent_msgs)))
    Fail(what + ": meter says " + std::to_string(m.meter_msgs) +
         " wire msgs; DHT+QP ledgers counted " +
         std::to_string(m.independent_msgs) + " (>10% apart)");
  if (!within10(m.answer_bytes, independent_answer_bytes))
    Fail(what + ": meter says " + bench::Fmt(m.answer_bytes, 0) +
         " answer bytes on the wire; the answer-bytes histogram saw " +
         bench::Fmt(independent_answer_bytes, 0) + " (>10% apart)");
  bench::Note("explain-analyze (" + what + "): meter " +
              std::to_string(m.meter_msgs) + " msgs vs independent " +
              std::to_string(m.independent_msgs) + "; answer bytes " +
              bench::Fmt(m.answer_bytes, 0) + " vs histogram " +
              bench::Fmt(independent_answer_bytes, 0));
  std::printf("%s", ea->ToString().c_str());
  return m;
}

void Run() {
  bench::Title("E16: observability — scrape, sys.metrics and explain-analyze "
               "against independent counts");

  SimPier::Options opts;
  opts.sim.seed = 616;
  opts.seed_routing = true;
  opts.settle_time = 8 * kSecond;
  opts.metrics_port = 9100;
  SimPier net(kNodes, opts);

  if (!net.catalog()->Register(TableSpec("ev").PartitionBy({"k"})).ok() ||
      !net.catalog()->Register(TableSpec("r").PartitionBy({"a"})).ok() ||
      !net.catalog()->Register(TableSpec("s").PartitionBy({"b"})).ok()) {
    std::fprintf(stderr, "catalog registration failed\n");
    std::exit(1);
  }
  for (int i = 0; i < kRows; ++i) {
    Tuple t("ev");
    t.Append("k", Value::Int64(i));
    t.Append("v", Value::Int64(i * 7));
    if (!net.client(i % kNodes)->Publish("ev", t).ok()) {
      std::fprintf(stderr, "publish failed\n");
      std::exit(1);
    }
  }
  net.RunFor(2 * kSecond);

  // A first query moves the query-processor counters before the scrape.
  auto warm = net.client(1)->Query(Sql("SELECT * FROM ev TIMEOUT 5s"));
  size_t warm_rows = bench::Check(warm, "warm query").Collect().size();
  if (warm_rows != static_cast<size_t>(kRows))
    Fail("warm snapshot returned " + std::to_string(warm_rows) + " of " +
         std::to_string(kRows) + " rows");

  // --- Check 1: scrape completeness, bracket, monotonicity ---------------
  uint64_t puts_before = net.dht(0)->stats().puts;
  std::string body1 = Scrape(&net, 2, 0);
  uint64_t puts_after = net.dht(0)->stats().puts;
  ScrapeBody s1 = Parse(body1);

  std::set<std::string> scraped_families;
  for (const auto& [key, value] : s1.series)
    scraped_families.insert(FamilyOf(key));
  std::set<std::string> registered;
  for (const MetricSample& s : net.metrics(0)->Snapshot())
    registered.insert(s.name);
  for (const std::string& fam : registered)
    if (!scraped_families.count(fam))
      Fail("registered family " + fam + " missing from the scrape body");
  for (const char* fam :
       {"pier_dht_puts_total", "pier_repl_repair_ticks_total",
        "pier_query_submitted_total", "pier_net_msgs_sent_total"})
    if (!scraped_families.count(fam))
      Fail(std::string("expected family ") + fam + " absent");

  auto puts_it = s1.series.find("pier_dht_puts_total");
  if (puts_it == s1.series.end()) {
    Fail("pier_dht_puts_total has no series in the scrape");
  } else {
    double v = puts_it->second;
    if (v < static_cast<double>(puts_before) ||
        v > static_cast<double>(puts_after))
      Fail("scraped pier_dht_puts_total=" + bench::Fmt(v, 0) +
           " outside the Dht's own Stats bracket [" +
           std::to_string(puts_before) + ", " + std::to_string(puts_after) +
           "]");
  }

  // More work between the scrapes, then every counter must be monotone.
  for (int i = 0; i < 8; ++i) {
    Tuple t("ev");
    t.Append("k", Value::Int64(1000 + i));
    t.Append("v", Value::Int64(i));
    (void)net.client(0)->Publish("ev", t);
  }
  net.RunFor(2 * kSecond);
  ScrapeBody s2 = Parse(Scrape(&net, 2, 0));
  size_t counters_checked = 0;
  for (const auto& [key, v1] : s1.series) {
    auto type = s1.family_type.find(FamilyOf(key));
    bool monotone =
        type != s1.family_type.end() &&
        (type->second == "counter" || type->second == "histogram");
    if (!monotone) continue;
    auto it2 = s2.series.find(key);
    if (it2 == s2.series.end()) {
      Fail("series " + key + " vanished between scrapes");
    } else if (it2->second + 1e-9 < v1) {
      Fail("series " + key + " went backwards: " + bench::Fmt(v1, 0) + " -> " +
           bench::Fmt(it2->second, 0));
    }
    counters_checked++;
  }
  bench::Note("scrape: " + std::to_string(registered.size()) +
              " families present, " + std::to_string(counters_checked) +
              " monotone series checked across two scrapes");

  // --- Check 2: sys.metrics round trip -----------------------------------
  std::vector<MetricSample> published;
  Status ps = net.client(0)->PublishMetrics(&published, 60 * kSecond);
  if (!ps.ok()) Fail("PublishMetrics: " + ps.ToString());
  net.RunFor(2 * kSecond);

  auto mq = net.client(2)->Query(Sql("SELECT * FROM sys.metrics TIMEOUT 5s"));
  std::vector<Tuple> rows = bench::Check(mq, "sys.metrics query").Collect();
  // Newest row per (metric, labels, origin): republished snapshots pile up
  // under fresh suffixes until their lifetime expires.
  std::map<std::string, std::pair<int64_t, double>> latest;
  for (const Tuple& t : rows) {
    const Value *m = t.Get("metric"), *l = t.Get("labels"),
                *o = t.Get("origin"), *v = t.Get("value"),
                *u = t.Get("updated_us");
    if (!m || !l || !o || !v || !u) continue;
    std::string key = std::string(*m->AsString()) + "|" +
                      std::string(*l->AsString()) + "|" +
                      std::string(*o->AsString());
    int64_t at = *u->AsInt64();
    auto it = latest.find(key);
    if (it == latest.end() || at > it->second.first)
      latest[key] = {at, *v->AsDouble()};
  }
  size_t matched = 0;
  for (const MetricSample& s : published) {
    if (s.kind == MetricKind::kHistogram) continue;
    std::string key =
        s.name + "|" + RenderLabels(s.labels) + "|" + "0.0.0.0:0";
    // Origin is node 0's address as the client renders it; recover it from
    // any row instead of guessing the format.
    bool found = false;
    for (const auto& [k, tv] : latest) {
      if (k.rfind(s.name + "|" + RenderLabels(s.labels) + "|", 0) != 0)
        continue;
      found = true;
      if (tv.second != s.value)
        Fail("sys.metrics " + s.name + RenderLabels(s.labels) + " = " +
             bench::Fmt(tv.second, 2) + ", published " +
             bench::Fmt(s.value, 2));
      break;
    }
    (void)key;
    if (!found)
      Fail("published sample " + s.name + RenderLabels(s.labels) +
           " not queryable from sys.metrics");
    else
      matched++;
  }
  if (matched < 10)
    Fail("sys.metrics round trip matched only " + std::to_string(matched) +
         " samples");
  bench::Note("sys.metrics: " + std::to_string(matched) + " of " +
              std::to_string(published.size()) +
              " published samples queried back equal from another node");

  // --- Check 3: explain-analyze vs independently counted wire traffic ----
  for (int i = 0; i < 16; ++i) {
    Tuple t("r");
    t.Append("a", Value::Int64(i));
    t.Append("x", Value::Int64(i));
    (void)net.client(i % kNodes)->Publish("r", t);
  }
  for (int i = 0; i < 8; ++i) {
    Tuple t("s");
    t.Append("b", Value::Int64(100 + i));
    t.Append("y", Value::Int64(i));
    (void)net.client((i + 3) % kNodes)->Publish("s", t);
  }
  net.RunFor(2 * kSecond);

  WireCount before = CountWire(&net);
  auto jq = net.client(4)->Query(
      Sql("SELECT * FROM r r1, s s1 WHERE r1.x = s1.y TIMEOUT 10s"));
  size_t join_matches = bench::Check(jq, "join query").Collect().size();
  if (join_matches != 8)
    Fail("rehash join returned " + std::to_string(join_matches) +
         " matches, expected 8");
  MeterCheck join =
      CheckMeter("join", net.client(4)->ExplainAnalyze(*jq), before,
                 CountWire(&net));

  // The hierarchical GROUP BY routes its partials hop by hop with DHT
  // sends; the meter must count those too.
  if (!net.catalog()->Register(TableSpec("h").PartitionBy({"k"})).ok())
    Fail("catalog registration of h failed");
  for (int i = 0; i < 24; ++i) {
    Tuple t("h");
    t.Append("k", Value::Int64(i));
    t.Append("g", Value::Int64(i % 4));
    (void)net.client(i % kNodes)->Publish("h", t);
  }
  net.RunFor(2 * kSecond);
  before = CountWire(&net);
  auto hq = net.client(4)->Query(
      Sql("SELECT g, count(*) AS c FROM h GROUP BY g TIMEOUT 10s")
          .WithAggStrategy("hier"));
  // Roots may re-emit refined totals; count distinct groups.
  std::set<int64_t> groups;
  for (const Tuple& t : bench::Check(hq, "hier GROUP BY").Collect())
    groups.insert(t.Get("g")->int64_unchecked());
  if (groups.size() != 4)
    Fail("hier GROUP BY returned " + std::to_string(groups.size()) +
         " groups, expected 4");
  MeterCheck hier =
      CheckMeter("hier GROUP BY", net.client(4)->ExplainAnalyze(*hq), before,
                 CountWire(&net));

  // A Bloom join over r and s: every node puts its filter to the filter's
  // owner and, a stage later, gets the merged filter back. The meter must
  // count the puts and the gets.
  before = CountWire(&net);
  auto bq = net.client(4)->Query(Ufl(R"(
    query { timeout = 10s; }
    graph build broadcast {
      s: scan [ns=s]; c: bloomcreate [col=y, ns=e16.bloom, bits=4096];
      p: put [ns=e16.join, key=y];
      s -> c; s -> p;
    }
    graph probe stage(1) {
      s: scan [ns=r]; b: bloomprobe [col=x, ns=e16.bloom];
      p: put [ns=e16.join, key=x];
      s -> b -> p;
    }
    graph join stage(1) {
      n: newdata [ns=e16.join];
      j: shjoin [l_key=x, r_key=y, l_table=r, r_table=s];
      o: result;
      n -> j -> o;
    }
  )"));
  size_t bloom_matches = bench::Check(bq, "Bloom join").Collect().size();
  if (bloom_matches != 8)
    Fail("Bloom join returned " + std::to_string(bloom_matches) +
         " matches, expected 8");
  MeterCheck bloom =
      CheckMeter("Bloom join", net.client(4)->ExplainAnalyze(*bq), before,
                 CountWire(&net));

  if (const char* path = std::getenv("PIER_BENCH_JSON")) {
    std::FILE* f = std::fopen(path, "w");
    if (!f) {
      Fail(std::string("cannot write ") + path);
    } else {
      std::fprintf(f, "{\n  \"bench\": \"metrics_observability\",\n");
      std::fprintf(f, "  \"nodes\": %u, \"rows\": %d,\n", kNodes, kRows);
      std::fprintf(f,
                   "  \"families\": %zu, \"monotone_series\": %zu, "
                   "\"sys_matched\": %zu,\n",
                   registered.size(), counters_checked, matched);
      std::fprintf(f,
                   "  \"join_matches\": %zu, \"meter_msgs\": %llu, "
                   "\"independent_msgs\": %llu, \"answer_bytes\": %.0f,\n",
                   join_matches,
                   static_cast<unsigned long long>(join.meter_msgs),
                   static_cast<unsigned long long>(join.independent_msgs),
                   join.answer_bytes);
      std::fprintf(f,
                   "  \"hier_groups\": %zu, \"hier_meter_msgs\": %llu, "
                   "\"hier_independent_msgs\": %llu,\n",
                   groups.size(),
                   static_cast<unsigned long long>(hier.meter_msgs),
                   static_cast<unsigned long long>(hier.independent_msgs));
      std::fprintf(f,
                   "  \"bloom_matches\": %zu, \"bloom_meter_msgs\": %llu, "
                   "\"bloom_independent_msgs\": %llu\n",
                   bloom_matches,
                   static_cast<unsigned long long>(bloom.meter_msgs),
                   static_cast<unsigned long long>(bloom.independent_msgs));
      std::fprintf(f, "}\n");
      std::fclose(f);
    }
  }

  if (failures == 0)
    bench::Note("self-check passed: scrape, sys.metrics and explain-analyze "
                "all agree with independent counts.");
}

}  // namespace
}  // namespace pier

int main() {
  pier::Run();
  return pier::failures == 0 ? 0 : 1;
}
