// pier_bench: one workload of the repository benchmark, in one process.
//
//   pier_bench --workload ingest|snapshot|continuous|lookup --seed N
//              [--smoke] [--trace-out FILE]
//
// Every workload boots a SimPier network (transit-stub topology, FIFO uplink
// queueing, so bytes and messages cost virtual time the way §2.1.1 assumes),
// sets it up, then drives an open-loop load in virtual time: each operation
// is issued at its scheduled virtual instant however far the system has got,
// and its latency is measured from that instant. All inputs and the arrival
// schedule are generated from --seed before any timing starts.
//
// The benchmark touches PIER only from outside: it times calls into public
// functions (PierClient::Publish / PublishBatch / Compile / Query(plan),
// SimPier::RunFor) and reads public Stats. Answers are checked against
// oracles computed from the generated inputs.
//
// Output: one JSON object on stdout with three groups of metrics —
//   "virtual": virtual-time latencies, traffic and correctness; identical for
//              identical seeds, whatever the machine does;
//   "wall":    set-up time, throughput (operations per wall second of the
//              timed phase) and peak memory;
//   "layer":   per-layer metrics, present only with --trace-out.
// benchmark/run.py repeats processes, checks and aggregates these.
//
// Exit codes: 0 ran (the JSON says whether outputs were correct), 2 set-up
// failed (a preloaded object never reached its owner), 64 bad arguments.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/workloads.h"
#include "qp/expr.h"
#include "qp/sim_pier.h"
#include "trace.h"

namespace pier {
namespace bench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  bool smoke = false;
  std::string trace_out;
};

// --- Output ---------------------------------------------------------------------

/// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::max<size_t>(rank, 1) - 1];
}

double Ms(TimeUs t) { return static_cast<double>(t) / kMillisecond; }

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  double value = 0;
  uint64_t samples = 1;
};

struct Report {
  std::map<std::string, Metric> virt;
  std::map<std::string, Metric> wall;
  std::map<std::string, double> layer;
  std::map<std::string, double> trace;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// A latency population: median and p99 with the sample count. Missing
  /// answers are in `ms` at their wait limit, never dropped.
  void Latency(const std::string& name, const std::vector<double>& ms) {
    virt[name + "_p50_ms"] = {Percentile(ms, 50), ms.size()};
    virt[name + "_p99_ms"] = {Percentile(ms, 99), ms.size()};
  }

  void Print(const Args& args) const {
    auto group = [](const std::map<std::string, Metric>& m) {
      std::string s = "{";
      for (const auto& [name, metric] : m) {
        if (s.size() > 1) s += ",";
        s += JsonString(name) + ":[" + JsonNumber(metric.value) + "," +
             std::to_string(metric.samples) + "]";
      }
      return s + "}";
    };
    auto plain = [](const std::map<std::string, double>& m) {
      std::string s = "{";
      for (const auto& [name, v] : m) {
        if (s.size() > 1) s += ",";
        s += JsonString(name) + ":" + JsonNumber(v);
      }
      return s + "}";
    };
    std::string errs = "[";
    for (const std::string& e : errors) {
      if (errs.size() > 1) errs += ",";
      errs += JsonString(e);
    }
    errs += "]";
    std::printf(
        "{\"workload\":%s,\"seed\":%llu,\"smoke\":%s,\"traced\":%s,"
        "\"attempted\":%llu,\"failed\":%llu,\"errors\":%s,\"virtual\":%s,"
        "\"wall\":%s,\"layer\":%s,\"trace\":%s}\n",
        JsonString(args.workload).c_str(),
        static_cast<unsigned long long>(args.seed),
        args.smoke ? "true" : "false",
        args.trace_out.empty() ? "false" : "true",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed), errs.c_str(),
        group(virt).c_str(), group(wall).c_str(), plain(layer).c_str(),
        plain(trace).c_str());
    std::fflush(stdout);
  }
};

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb * 1024 / 1e6;
}

// --- Layer counters (public Stats, summed over nodes) ---------------------------

struct Counters {
  uint64_t events = 0;
  uint64_t puts = 0, gets = 0, routed_deliveries = 0, routed_hops = 0;
  uint64_t batched_puts = 0, batch_msgs = 0, coalesced = 0;
  uint64_t replica_puts = 0;
  uint64_t lookups = 0, lookups_failed = 0, routed_forwarded = 0;
  uint64_t retransmits = 0, send_failures = 0;
  uint64_t queries = 0, graphs = 0, answers_forwarded = 0,
           answers_delivered = 0;
  uint64_t forward_failures = 0;
};

Counters Snap(SimPier* net) {
  Counters c;
  c.events = net->loop()->events_executed();
  for (uint32_t i = 0; i < net->size(); ++i) {
    Dht* dht = net->dht(i);
    Dht::Stats d = dht->stats();
    c.puts += d.puts;
    c.gets += d.gets;
    c.routed_deliveries += d.routed_deliveries;
    c.routed_hops += d.routed_delivery_hops;
    c.batched_puts += d.batched_puts;
    c.batch_msgs += d.batch_msgs;
    c.coalesced += d.coalesced_msgs;
    c.replica_puts += d.replica_puts;
    const OverlayRouter::Stats& r = dht->router()->stats();
    c.lookups += r.lookups_started;
    c.lookups_failed += r.lookups_failed;
    c.routed_forwarded += r.routed_forwarded;
    const UdpCc::Stats& u = dht->router()->transport()->stats();
    c.retransmits += u.retransmits;
    c.send_failures += u.msgs_failed;
    const QueryProcessor::Stats& q = net->qp(i)->stats();
    c.queries += q.queries_submitted;
    c.graphs += q.graphs_received;
    c.answers_forwarded += q.answers_forwarded;
    c.answers_delivered += q.answers_delivered;
    c.forward_failures += net->qp(i)->executor()->stats().forward_failures;
  }
  return c;
}

// --- Shared harness -------------------------------------------------------------

/// One scheduled operation of an open-loop load: when it is due (relative
/// to the start of the timed phase) and which node issues it.
struct Arrival {
  TimeUs at = 0;
  uint32_t node = 0;
};

/// Poisson arrivals at `rate_per_s` over [0, duration), each from a
/// uniformly chosen node (the superposition of per-node Poisson streams).
std::vector<Arrival> PoissonSchedule(Rng* rng, double rate_per_s,
                                     TimeUs duration, uint32_t nodes) {
  std::vector<Arrival> out;
  double t = 0;
  const double mean_us = 1e6 / rate_per_s;
  while (true) {
    t += rng->Exponential(mean_us);
    if (t >= static_cast<double>(duration)) break;
    out.push_back({static_cast<TimeUs>(t),
                   static_cast<uint32_t>(rng->Uniform(nodes))});
  }
  return out;
}

/// The same arrival process, cut off after exactly `n` arrivals.
std::vector<Arrival> PoissonCount(Rng* rng, double rate_per_s, size_t n,
                                  uint32_t nodes) {
  std::vector<Arrival> out;
  double t = 0;
  const double mean_us = 1e6 / rate_per_s;
  while (out.size() < n) {
    t += rng->Exponential(mean_us);
    out.push_back({static_cast<TimeUs>(t),
                   static_cast<uint32_t>(rng->Uniform(nodes))});
  }
  return out;
}

std::string HostAddr(uint32_t i) {
  return "10.0." + std::to_string(i / 256) + "." + std::to_string(i % 256);
}

int64_t IntCol(const Tuple& t, const char* name, bool* ok) {
  const Value* v = t.Get(name);
  if (v == nullptr) {
    *ok = false;
    return 0;
  }
  Result<double> d = v->AsDouble();
  if (!d.ok()) {
    *ok = false;
    return 0;
  }
  return static_cast<int64_t>(std::llround(*d));
}

std::string StrCol(const Tuple& t, const char* name, bool* ok) {
  const Value* v = t.Get(name);
  if (v == nullptr || v->type() != ValueType::kString) {
    *ok = false;
    return "";
  }
  return v->str_unchecked();
}

constexpr uint64_t kNetworkSeed = 1;

class Bench {
 public:
  explicit Bench(Args args)
      : args_(std::move(args)), tracer_(!args_.trace_out.empty()) {}
  Bench(const Bench&) = delete;  // the network's callbacks hold its address
  Bench& operator=(const Bench&) = delete;

  const Args& args() const { return args_; }
  Tracer* tracer() { return &tracer_; }
  Report* report() { return &report_; }
  SimPier* net() { return net_.get(); }
  TimeUs Now() { return net_->loop()->now(); }

  /// Boot `nodes` PIER nodes and create every client (set-up cost). The
  /// simulated network (topology, node ids, per-node random streams) is the
  /// benchmark's fixed testbed; --seed varies only the workload's inputs.
  void Boot(uint32_t nodes) {
    SimPier::Options o;
    o.sim.seed = kNetworkSeed;
    o.sim.topology = TopologyKind::kTransitStub;
    o.sim.congestion = CongestionKind::kFifo;
    net_ = std::make_unique<SimPier>(nodes, o);
    for (uint32_t i = 0; i < nodes; ++i) net_->client(i);
  }

  void Fail(const std::string& why) {
    std::fprintf(stderr, "pier_bench: %s\n", why.c_str());
    std::exit(2);
  }

  void Register(TableSpec spec) {
    Status s = net_->catalog()->Register(std::move(spec));
    if (!s.ok()) Fail("catalog registration: " + s.ToString());
  }

  /// Advance virtual time to `t` (no-op if already there).
  void RunTo(TimeUs t) {
    TimeUs now = Now();
    if (t <= now) return;
    Tracer::Scope s(&tracer_, "runtime.run");
    net_->RunFor(t - now);
  }

  /// Publish one tuple through the client façade; counts failures.
  void Publish(uint32_t node, const std::string& table, const Tuple& t) {
    Status s;
    {
      Tracer::Scope span(&tracer_, "client.publish", 0, 1);
      s = net_->client(node)->Publish(table, t);
    }
    if (!s.ok()) publish_errors_++;
  }

  /// Preload `rows` (row i published from node owner[i]) with PublishBatch,
  /// paced at kPerRound rows per node every 20 ms of virtual time: an
  /// unpaced bulk load on FIFO uplinks times out index lookups.
  void Preload(const std::string& table, const std::vector<Tuple>& rows,
               const std::vector<uint32_t>& owner) {
    constexpr size_t kPerRound = 32;
    std::vector<std::vector<Tuple>> by_node(net_->size());
    for (size_t i = 0; i < rows.size(); ++i) by_node[owner[i]].push_back(rows[i]);
    std::vector<size_t> next(by_node.size(), 0);
    bool more = true;
    while (more) {
      more = false;
      for (uint32_t n = 0; n < by_node.size(); ++n) {
        size_t begin = next[n];
        size_t end = std::min(begin + kPerRound, by_node[n].size());
        if (begin == end) continue;
        std::vector<Tuple> chunk(by_node[n].begin() + begin,
                                 by_node[n].begin() + end);
        next[n] = end;
        more |= end < by_node[n].size();
        Status s;
        {
          Tracer::Scope span(&tracer_, "client.publish", 0, chunk.size());
          s = net_->client(n)->PublishBatch(table, chunk);
        }
        if (!s.ok()) Fail("preload PublishBatch: " + s.ToString());
      }
      RunTo(Now() + 20 * kMillisecond);
    }
  }

  /// Run until every node together stores `expected` objects of `ns`;
  /// set-up fails (exit 2) if they never all arrive.
  void WaitStored(const std::string& ns, uint64_t expected) {
    const TimeUs cap = Now() + 60 * kSecond;
    while (true) {
      uint64_t n = 0;
      for (uint32_t i = 0; i < net_->size(); ++i)
        n += net_->dht(i)->objects()->NamespaceObjects(ns);
      if (n == expected) return;
      if (n > expected || Now() >= cap)
        Fail("preload of " + ns + " stored " + std::to_string(n) + " of " +
             std::to_string(expected) + " objects");
      RunTo(Now() + 100 * kMillisecond);
    }
  }

  /// Compile then submit (the two timed calls of a query), recording the
  /// optimizer's physical choices for the opt.* layer metrics.
  Result<QueryHandle> Submit(uint32_t node, const Sql& sql) {
    PierClient* client = net_->client(node);
    PlanExplain explain;
    Result<QueryPlan> plan = Status::Internal("not compiled");
    {
      Tracer::Scope span(&tracer_, "opt.compile");
      plan = client->Compile(sql, &explain);
      if (plan.ok()) span.SetQid(plan->query_id);
    }
    if (!plan.ok()) return plan.status();
    if (!explain.agg.strategy.empty()) {
      agg_queries_++;
      agg_hier_ += explain.agg.strategy == "hier";
    }
    for (const JoinStep& j : explain.joins) {
      join_steps_++;
      join_fetch_ += j.strategy == JoinStrategy::kFetchMatches;
    }
    Tracer::Scope span(&tracer_, "qp.submit", plan->query_id);
    Result<QueryHandle> h = client->Query(std::move(*plan));
    if (h.ok()) handles_.push_back(*h);
    return h;
  }

  /// Mark the timed phase. Traffic counters restart here.
  void BeginTimed() {
    net_->harness()->ResetStats();
    timed_start_ = Snap(net_.get());
    timed_wall_ns_ = WallNs();
  }
  /// Returns the timed phase's wall seconds.
  double EndTimed() {
    double wall_s = (WallNs() - timed_wall_ns_) / 1e9;
    timed_end_ = Snap(net_.get());
    if (tracer_.on()) {
      for (uint32_t i = 0; i < net_->size(); ++i) {
        objects_stored_ += net_->dht(i)->objects()->TotalObjects();
        max_node_in_ = std::max(max_node_in_,
                                net_->harness()->node_stats(i).bytes_recv);
      }
    }
    report_.virt["net_mb"] = {net_->harness()->total_bytes() / 1e6, 1};
    report_.virt["net_msgs"] = {
        static_cast<double>(net_->harness()->total_msgs()), 1};
    return wall_s;
  }

  uint64_t publish_errors() const { return publish_errors_; }

  /// Index entries the clients lost or under-replicated.
  std::pair<uint64_t, uint64_t> PublishFailures() {
    uint64_t dropped = 0, degraded = 0;
    for (uint32_t i = 0; i < net_->size(); ++i) {
      const PierClient::PublishFailures& f = net_->client(i)->publish_failures();
      dropped += f.dropped_items;
      degraded += f.degraded_items;
    }
    return {dropped, degraded};
  }

  /// Rows of the workload's main table and the scan pipeline the replays
  /// drive over them.
  void SetReplay(std::vector<Tuple> rows, std::string pred,
                 std::vector<std::string> cols) {
    replay_rows_ = std::move(rows);
    replay_pred_ = std::move(pred);
    replay_cols_ = std::move(cols);
  }

  /// Compute the per-layer metrics (traced runs), write the trace, print.
  void Finish(double setup_s, double timed_s) {
    report_.wall["setup_s"] = {setup_s, 1};
    report_.wall["timed_s"] = {timed_s, 1};
    if (tracer_.on()) {
      Replays();
      LayerMetrics();
      if (!tracer_.WriteChromeJson(args_.trace_out))
        report_.errors.push_back("cannot write " + args_.trace_out);
    }
    report_.wall["mem_peak_mb"] = {PeakRssMb(), 1};
    report_.Print(args_);
  }

 private:
  /// Time `fn` over `rows` rows until at least 30 ms have passed.
  template <typename Fn>
  double NsPerRow(const char* span, size_t rows, Fn fn) {
    Tracer::Scope s(&tracer_, span);
    int64_t t0 = WallNs();
    uint64_t iters = 0;
    while (iters < 3 || WallNs() - t0 < 30'000'000) {
      fn();
      iters++;
    }
    s.AddItems(iters * rows);
    return static_cast<double>(WallNs() - t0) / (iters * rows);
  }

  void Replays() {
    Tracer::Scope top(&tracer_, "bench.replay");
    const size_t n = replay_rows_.size();
    if (n == 0) return;
    std::string wire;
    report_.layer["data.batch_encode_ns_per_row"] =
        NsPerRow("data.batch_encode", n, [&]() {
          TupleBatch batch = TupleBatch::FromTuples(replay_rows_);
          WireWriter w;
          batch.EncodeTo(&w);
          wire = std::move(w).data();
        });
    size_t decoded = 0;
    report_.layer["data.batch_decode_ns_per_row"] =
        NsPerRow("data.batch_decode", n, [&]() {
          WireReader r(wire);
          Result<TupleBatch> b = TupleBatch::DecodeFrom(&r, wire);
          decoded = b.ok() ? b->num_rows() : 0;
        });
    if (decoded != n) report_.errors.push_back("replay decode lost rows");

    // The scan's selection -> projection, built the way an executor builds
    // it and driven batch-at-a-time over this workload's rows.
    OpSpec sel_spec(1, OpKind::kSelection);
    Result<ExprPtr> pred = ParseExpr(replay_pred_);
    if (!pred.ok()) {
      report_.errors.push_back("replay predicate: " + pred.status().ToString());
      return;
    }
    sel_spec.SetExpr("pred", *pred);
    OpSpec proj_spec(2, OpKind::kProjection);
    proj_spec.SetStrings("cols", replay_cols_);
    Result<std::unique_ptr<Operator>> sel = MakeOperator(sel_spec);
    Result<std::unique_ptr<Operator>> proj = MakeOperator(proj_spec);
    ExecContext cx;
    if (!sel.ok() || !proj.ok() || !(*sel)->Init(&cx).ok() ||
        !(*proj)->Init(&cx).ok()) {
      report_.errors.push_back("replay pipeline does not build");
      return;
    }
    (*sel)->AddOutput(proj->get(), 0);
    TupleBatch batch = TupleBatch::FromTuples(replay_rows_);
    report_.layer["qp.pipeline_ns_per_row"] =
        NsPerRow("qp.pipeline", n, [&]() { (*sel)->ProcessBatch(0, 0, batch); });
  }

  void LayerMetrics() {
    auto sum = tracer_.Summarize();
    auto self_all = [&](const char* name) {
      Tracer::Summary out;
      for (const auto& [key, s] : sum) {
        if (key.second != name) continue;
        out.self_ns += s.self_ns;
        out.spans += s.spans;
        out.items += s.items;
      }
      return out;
    };
    auto self_timed = [&](const char* name) {
      auto it = sum.find({"bench.timed", name});
      return it == sum.end() ? Tracer::Summary{} : it->second;
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    std::map<std::string, double>& L = report_.layer;
    const Counters& a = timed_start_;
    const Counters& b = timed_end_;

    Tracer::Summary pub = self_all("client.publish");
    L["client.publish_us_per_tuple"] = ratio(pub.self_ns / 1e3, pub.items);
    auto [dropped, degraded] = PublishFailures();
    L["client.dropped_items"] = dropped;
    L["client.degraded_items"] = degraded;
    Tracer::Summary cb = self_timed("client.on_tuple");
    L["client.on_tuple_us"] = cb.self_ns / 1e3;

    Tracer::Summary compile = self_all("opt.compile");
    L["opt.compile_us_per_query"] = ratio(compile.self_ns / 1e3, compile.spans);
    L["opt.agg_hier_share"] = ratio(agg_hier_, agg_queries_);
    L["opt.join_fetch_share"] = ratio(join_fetch_, join_steps_);

    Tracer::Summary submit = self_all("qp.submit");
    L["qp.submit_us_per_query"] = ratio(submit.self_ns / 1e3, submit.spans);
    Counters whole = Snap(net_.get());
    L["qp.graphs_per_query"] = ratio(whole.graphs, whole.queries);
    L["qp.answers_forwarded"] = b.answers_forwarded - a.answers_forwarded;
    L["qp.answers_delivered"] = b.answers_delivered - a.answers_delivered;
    uint64_t op_tuples = 0, op_msgs = 0, op_bytes = 0, dropped_answers = 0;
    for (const QueryHandle& h : handles_) {
      op_tuples += h.stats().op_tuples;
      op_msgs += h.stats().op_msgs;
      op_bytes += h.stats().op_bytes;
      dropped_answers += h.stats().dropped;
    }
    double nq = static_cast<double>(handles_.size());
    L["qp.op_tuples_per_query"] = ratio(op_tuples, nq);
    L["qp.op_msgs_per_query"] = ratio(op_msgs, nq);
    L["qp.op_bytes_per_query"] = ratio(op_bytes, nq);
    L["qp.query_wire_share"] =
        ratio(op_bytes, static_cast<double>(net_->harness()->total_bytes()));
    L["qp.forward_failures"] = b.forward_failures - a.forward_failures;
    L["qp.handle_dropped"] = dropped_answers;

    uint64_t lookups = b.lookups - a.lookups;
    L["overlay.lookups"] = lookups;
    L["overlay.lookup_fail_ratio"] =
        ratio(b.lookups_failed - a.lookups_failed, lookups);
    L["overlay.hops_per_delivery"] =
        ratio(b.routed_hops - a.routed_hops,
              b.routed_deliveries - a.routed_deliveries);
    L["overlay.routed_forwarded"] = b.routed_forwarded - a.routed_forwarded;
    L["overlay.puts"] = b.puts - a.puts;
    L["overlay.batched_puts"] = b.batched_puts - a.batched_puts;
    L["overlay.objects_per_batch_msg"] =
        ratio(b.batched_puts - a.batched_puts, b.batch_msgs - a.batch_msgs);
    L["overlay.coalesced_msgs"] = b.coalesced - a.coalesced;
    L["overlay.repl_copies_sent"] = b.replica_puts - a.replica_puts;
    L["overlay.gets"] = b.gets - a.gets;
    L["overlay.objects_stored"] = objects_stored_;

    Tracer::Summary run = self_timed("runtime.run");
    uint64_t events = b.events - a.events;
    L["runtime.run_s"] = run.self_ns / 1e9;
    L["runtime.events"] = events;
    L["runtime.ns_per_event"] = ratio(run.self_ns, events);
    L["runtime.max_node_in_mb"] = max_node_in_ / 1e6;
    L["runtime.retransmits"] = b.retransmits - a.retransmits;
    L["runtime.send_failures"] = b.send_failures - a.send_failures;

    size_t series = 0;
    for (uint32_t i = 0; i < net_->size(); ++i)
      series += net_->metrics(i)->Snapshot().size();
    L["obs.series"] = series;

    // Checks on the traced run itself.
    report_.trace["timed_coverage"] = tracer_.ChildCoverage("bench.timed");
    report_.trace["on_tuple_share_of_run"] = ratio(cb.self_ns, run.self_ns);
    report_.trace["spans"] = tracer_.spans().size();
  }

  Args args_;
  Tracer tracer_;
  Report report_;
  std::unique_ptr<SimPier> net_;
  std::vector<QueryHandle> handles_;
  uint64_t publish_errors_ = 0;
  uint64_t agg_queries_ = 0, agg_hier_ = 0, join_steps_ = 0, join_fetch_ = 0;
  Counters timed_start_, timed_end_;
  int64_t timed_wall_ns_ = 0;
  uint64_t objects_stored_ = 0;
  uint64_t max_node_in_ = 0;
  std::vector<Tuple> replay_rows_;
  std::string replay_pred_;
  std::vector<std::string> replay_cols_;
};

/// Register an OnTuple callback whose bench-side work is traced as
/// client.on_tuple (nested inside the runtime.run span that delivered it).
template <typename Fn>
void OnTuple(Bench* b, QueryHandle* h, Fn fn) {
  Tracer* tr = b->tracer();
  uint64_t qid = h->id();
  h->OnTuple([tr, qid, fn](const Tuple& t) {
    Tracer::Scope s(tr, "client.on_tuple", qid);
    fn(t);
  });
}

/// A pipelined query's oracle: the multiset of row keys it must return,
/// and what arrived when.
struct RowQuery {
  TimeUs due = 0;
  TimeUs timeout = 0;
  bool submitted = false;
  bool timed_latency = true;  // counts toward the latency populations
  std::vector<int64_t> expected;  // sorted
  std::vector<int64_t> got;
  uint64_t malformed = 0;
  TimeUs first = -1;
  TimeUs last = -1;

  void Row(TimeUs now, int64_t key) {
    got.push_back(key);
    if (first < 0) first = now;
    last = now;
  }

  /// Compare against the oracle; returns matched rows and sets `ok`.
  uint64_t Check(bool* ok) {
    std::sort(got.begin(), got.end());
    std::vector<int64_t> common;
    std::set_intersection(expected.begin(), expected.end(), got.begin(),
                          got.end(), std::back_inserter(common));
    *ok = submitted && malformed == 0 && common.size() == expected.size() &&
          got.size() == expected.size();
    return common.size();
  }
};

/// Accumulates recall / error accounting and the latency populations of a
/// set of RowQuery oracles.
struct RowTally {
  uint64_t expected_rows = 0, matched_rows = 0, failed = 0;
  std::vector<double> first_ms, last_ms;

  void Add(RowQuery* q) {
    bool ok = false;
    matched_rows += q->Check(&ok);
    expected_rows += q->expected.size();
    failed += !ok;
    if (!q->timed_latency) return;
    // A failed or missing answer counts at the query's full wait.
    first_ms.push_back(q->first >= 0 ? Ms(q->first - q->due) : Ms(q->timeout));
    last_ms.push_back(ok ? Ms(q->last - q->due) : Ms(q->timeout));
  }
};

/// Wait (in virtual time) until every handle is done.
void WaitDone(Bench* b, const std::vector<QueryHandle>& hs, TimeUs cap) {
  auto all_done = [&]() {
    for (const QueryHandle& h : hs)
      if (h.valid() && !h.done()) return false;
    return true;
  };
  while (!all_done() && b->Now() < cap) b->RunTo(b->Now() + 100 * kMillisecond);
}

Tuple FlowRow(int64_t id, const std::string& src, int64_t port, int64_t bytes,
              int64_t ts) {
  Tuple t("flows");
  t.Append("id", Value::Int64(id));
  t.Append("src", Value::String(src));
  t.Append("dst_port", Value::Int64(port));
  t.Append("bytes", Value::Int64(bytes));
  t.Append("ts", Value::Int64(ts));
  return t;
}

constexpr int kPorts = 64;
int64_t PortOf(uint64_t k) { return 1000 + 7 * static_cast<int64_t>(k); }

// --- ingest ---------------------------------------------------------------------
//
// Write path only: client auto-batching -> TupleBatch -> Dht::PutBatch ->
// router/UdpCc -> 3-way replication -> object store, for a primary index and
// a secondary index. The timed phase ends when all six copies of every tuple
// are stored.

void Ingest(Bench* b) {
  const bool smoke = b->args().smoke;
  const uint32_t nodes = smoke ? 16 : 64;
  const double rate = nodes * (smoke ? 10.0 : 20.0);
  const TimeUs duration = (smoke ? 2 : 16) * kSecond;
  constexpr int kHosts = 256;
  constexpr uint64_t kCopies = 6;  // (primary + secondary index) x 3 replicas

  Rng rng(b->args().seed * 0x9E3779B97F4A7C15ULL + 101);
  std::vector<Arrival> ops = PoissonSchedule(&rng, rate, duration, nodes);
  const size_t n = ops.size();
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(FlowRow(static_cast<int64_t>(i),
                           HostAddr(static_cast<uint32_t>(rng.Uniform(kHosts))),
                           PortOf(rng.Uniform(kPorts)), rng.UniformRange(40, 1500),
                           ops[i].at));
  }

  // Primary copies become visible through newData at their owners; replica
  // stores are counted by the replication layer.
  std::vector<TimeUs> visible(n, -1);
  uint64_t primaries = 0, index_primaries = 0, bad_keys = 0, dup_primaries = 0;
  int64_t setup_ns = WallNs();
  {
    Tracer::Scope setup(b->tracer(), "bench.setup");
    b->Boot(nodes);
    b->Register(TableSpec("flows")
                    .PartitionBy({"id"})
                    .SecondaryIndex("src")
                    .Replicas(3)
                    .Lifetime(30 * 60 * kSecond));
    Tracer* tr = b->tracer();
    for (uint32_t i = 0; i < nodes; ++i) {
      b->net()->client(i)->SetPublishBatching(64, 20 * kMillisecond);
      Dht* dht = b->net()->dht(i);
      dht->OnNewData("flows", [&, tr, dht](const ObjectName& name,
                                           std::string_view) {
        Tracer::Scope s(tr, "client.on_tuple");
        // The primary key is the id's canonical string: "I<id>|".
        long long id = -1;
        if (name.key.size() < 3 || name.key[0] != 'I' ||
            std::sscanf(name.key.c_str() + 1, "%lld", &id) != 1 || id < 0 ||
            static_cast<size_t>(id) >= n) {
          bad_keys++;
          return;
        }
        if (visible[id] >= 0) {
          dup_primaries++;
          return;
        }
        visible[id] = dht->vri()->Now();
        primaries++;
      });
      dht->OnNewData("flows_by_src", [&, tr](const ObjectName&, std::string_view) {
        Tracer::Scope s(tr, "client.on_tuple");
        index_primaries++;
      });
    }
  }
  double setup_s = (WallNs() - setup_ns) / 1e9;

  const TimeUs t0 = b->Now();
  TimeUs last_publish = t0;
  uint64_t repl_base = 0;
  for (uint32_t i = 0; i < nodes; ++i)
    repl_base += b->net()->dht(i)->stats().replica_stores;
  auto copies = [&]() {
    uint64_t r = 0;
    for (uint32_t i = 0; i < nodes; ++i)
      r += b->net()->dht(i)->stats().replica_stores;
    return primaries + index_primaries + (r - repl_base);
  };
  const TimeUs drain_cap = 60 * kSecond;
  b->BeginTimed();
  {
    Tracer::Scope timed(b->tracer(), "bench.timed");
    for (size_t i = 0; i < n; ++i) {
      b->RunTo(t0 + ops[i].at);
      b->Publish(ops[i].node, "flows", rows[i]);
    }
    last_publish = b->Now();
    while (copies() < kCopies * n && b->Now() < last_publish + drain_cap)
      b->RunTo(b->Now() + 5 * kMillisecond);
  }
  double timed_s = b->EndTimed();
  const TimeUs drained_at = b->Now();

  Report* rep = b->report();
  uint64_t failed = b->publish_errors();
  {
    Tracer::Scope verify(b->tracer(), "bench.verify");
    uint64_t stored = 0;
    for (uint32_t i = 0; i < nodes; ++i) {
      stored += b->net()->dht(i)->objects()->NamespaceObjects("flows");
      stored += b->net()->dht(i)->objects()->NamespaceObjects("flows_by_src");
    }
    if (stored != kCopies * n) {
      rep->errors.push_back("stored " + std::to_string(stored) + " of " +
                            std::to_string(kCopies * n) + " copies");
      failed++;
    }
    rep->virt["recall"] = {
        static_cast<double>(std::min<uint64_t>(stored, kCopies * n)) /
            (kCopies * n),
        kCopies * n};
    // Through the query path: a scan must see each tuple exactly once even
    // though three copies of it are stored.
    for (const char* table : {"flows", "flows_by_src"}) {
      Result<QueryHandle> h = b->Submit(
          0, Sql(std::string("SELECT count(*) AS n FROM ") + table +
                 " TIMEOUT 10s"));
      int64_t counted = -1;
      if (h.ok()) {
        OnTuple(b, &*h, [&](const Tuple& t) {
          bool ok = true;
          int64_t v = IntCol(t, "n", &ok);
          if (ok) counted = v;  // hierarchical refinements: last row wins
        });
        WaitDone(b, {*h}, b->Now() + 15 * kSecond);
      }
      if (counted != static_cast<int64_t>(n)) {
        rep->errors.push_back(std::string("count(*) over ") + table +
                              " returned " + std::to_string(counted) +
                              ", expected " + std::to_string(n));
        failed++;
      }
    }
  }
  auto [dropped, degraded] = b->PublishFailures();
  failed += dropped + degraded + bad_keys + dup_primaries + (n - primaries);
  if (index_primaries != n) failed++;

  std::vector<double> visible_ms;
  visible_ms.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    TimeUs due = t0 + ops[i].at;
    visible_ms.push_back(Ms((visible[i] >= 0 ? visible[i] : drained_at) - due));
  }
  rep->Latency("visible", visible_ms);
  rep->virt["ingest_drain_ms"] = {Ms(drained_at - last_publish), 1};
  rep->attempted = n + 2;
  rep->failed = std::min<uint64_t>(failed, rep->attempted);
  rep->virt["error_rate"] = {static_cast<double>(rep->failed) / rep->attempted,
                             rep->attempted};
  rep->wall["tuples_per_s"] = {n / timed_s, n};
  b->SetReplay(std::move(rows), "dst_port = " + std::to_string(PortOf(0)),
               {"id", "src", "bytes"});
  b->Finish(setup_s, timed_s);
}

// --- snapshot -------------------------------------------------------------------
//
// Snapshot queries over preloaded tables: selection scans (broadcast
// dissemination, the scan, ProcessBatch, answer forwarding), GROUP BY
// aggregates and flows x hosts joins, optimizer on auto. Writes happen only
// in set-up.

void Snapshot(Bench* b) {
  const bool smoke = b->args().smoke;
  const uint32_t nodes = smoke ? 16 : 64;
  const int rows_n = smoke ? 400 : 2000;
  const int hosts_n = smoke ? 32 : 256;
  const int scans = smoke ? 40 : 1000;
  const int aggs = smoke ? 4 : 80;
  const int joins = smoke ? 4 : 80;
  const TimeUs timeout = 10 * kSecond;
  constexpr int kRegions = 8;

  Rng rng(b->args().seed * 0x9E3779B97F4A7C15ULL + 202);
  std::vector<Tuple> hosts, flows;
  std::vector<uint32_t> host_owner, flow_owner;
  for (int i = 0; i < hosts_n; ++i) {
    Tuple t("hosts");
    t.Append("addr", Value::String(HostAddr(i)));
    t.Append("region", Value::String("r" + std::to_string(i % kRegions)));
    hosts.push_back(std::move(t));
    host_owner.push_back(static_cast<uint32_t>(i % nodes));
  }
  std::vector<int> flow_host(rows_n), flow_port(rows_n);
  std::vector<std::vector<int64_t>> ids_by_port(kPorts);
  std::vector<int64_t> cnt_by_host(hosts_n, 0), sum_by_host(hosts_n, 0);
  for (int i = 0; i < rows_n; ++i) {
    flow_host[i] = static_cast<int>(rng.Uniform(hosts_n));
    flow_port[i] = static_cast<int>(rng.Uniform(kPorts));
    int64_t bytes = rng.UniformRange(40, 1500);
    flows.push_back(FlowRow(i, HostAddr(flow_host[i]), PortOf(flow_port[i]),
                            bytes, 0));
    flow_owner.push_back(static_cast<uint32_t>(i % nodes));
    ids_by_port[flow_port[i]].push_back(i);
    cnt_by_host[flow_host[i]]++;
    sum_by_host[flow_host[i]] += bytes;
  }

  enum Kind { kScan, kAgg, kJoin };
  std::vector<int> kinds;
  kinds.insert(kinds.end(), scans, kScan);
  kinds.insert(kinds.end(), aggs, kAgg);
  kinds.insert(kinds.end(), joins, kJoin);
  for (size_t i = kinds.size(); i > 1; --i)
    std::swap(kinds[i - 1], kinds[rng.Uniform(i)]);
  std::vector<Arrival> ops = PoissonCount(&rng, 10.0, kinds.size(), nodes);
  std::vector<int> op_port(kinds.size());
  // A port drawn through a random row, so every selection matches rows.
  for (int& p : op_port) p = flow_port[rng.Uniform(rows_n)];

  int64_t setup_ns = WallNs();
  {
    Tracer::Scope setup(b->tracer(), "bench.setup");
    b->Boot(nodes);
    b->Register(TableSpec("flows").PartitionBy({"id"}));
    b->Register(TableSpec("hosts").PartitionBy({"addr"}));
    b->Preload("hosts", hosts, host_owner);
    b->Preload("flows", flows, flow_owner);
    b->WaitStored("hosts", hosts.size());
    b->WaitStored("flows", flows.size());
  }
  double setup_s = (WallNs() - setup_ns) / 1e9;

  std::vector<RowQuery> rq(kinds.size());
  // Aggregates: hierarchical aggregation re-emits refinements, so the last
  // row per group is the answer.
  std::vector<std::map<std::string, std::pair<int64_t, int64_t>>> groups(
      kinds.size());
  std::vector<uint64_t> agg_malformed(kinds.size(), 0);
  std::vector<QueryHandle> hs(kinds.size());
  const TimeUs t0 = b->Now();
  b->BeginTimed();
  {
    Tracer::Scope timed(b->tracer(), "bench.timed");
    for (size_t i = 0; i < kinds.size(); ++i) {
      b->RunTo(t0 + ops[i].at);
      RowQuery& q = rq[i];
      q.due = b->Now();
      q.timeout = timeout;
      q.timed_latency = kinds[i] == kScan;
      std::string port = std::to_string(PortOf(op_port[i]));
      std::string text;
      if (kinds[i] == kScan) {
        text = "SELECT id, src, bytes FROM flows WHERE dst_port = " + port;
        q.expected = ids_by_port[op_port[i]];
      } else if (kinds[i] == kJoin) {
        text = "SELECT f.id, h.region FROM flows f, hosts h WHERE f.src = "
               "h.addr AND f.dst_port = " + port;
        for (int64_t id : ids_by_port[op_port[i]])
          q.expected.push_back(id * kRegions + flow_host[id] % kRegions);
      } else {
        text = "SELECT src, count(*) AS cnt, sum(bytes) AS total FROM flows "
               "GROUP BY src";
      }
      std::sort(q.expected.begin(), q.expected.end());
      Result<QueryHandle> h = b->Submit(
          ops[i].node,
          Sql(text + " TIMEOUT " + std::to_string(timeout / kSecond) + "s"));
      if (!h.ok()) continue;
      q.submitted = true;
      hs[i] = *h;
      Bench* bp = b;
      if (kinds[i] == kAgg) {
        OnTuple(b, &hs[i], [&, i](const Tuple& t) {
          bool ok = true;
          std::string src = StrCol(t, "src", &ok);
          int64_t cnt = IntCol(t, "cnt", &ok), total = IntCol(t, "total", &ok);
          if (!ok) {
            agg_malformed[i]++;
            return;
          }
          groups[i][src] = {cnt, total};
        });
      } else if (kinds[i] == kJoin) {
        OnTuple(b, &hs[i], [&, bp, i](const Tuple& t) {
          bool ok = true;
          int64_t id = IntCol(t, "id", &ok);
          std::string region = StrCol(t, "region", &ok);
          if (!ok || region.size() < 2) {
            rq[i].malformed++;
            return;
          }
          rq[i].Row(bp->Now(), id * kRegions + std::atoi(region.c_str() + 1));
        });
      } else {
        OnTuple(b, &hs[i], [&, bp, i](const Tuple& t) {
          bool ok = true;
          int64_t id = IntCol(t, "id", &ok);
          if (!ok) {
            rq[i].malformed++;
            return;
          }
          rq[i].Row(bp->Now(), id);
        });
      }
    }
    WaitDone(b, hs, b->Now() + timeout + 5 * kSecond);
  }
  double timed_s = b->EndTimed();

  Report* rep = b->report();
  RowTally tally;
  uint64_t done = 0;
  for (size_t i = 0; i < kinds.size(); ++i) {
    done += hs[i].valid() && hs[i].done();
    if (kinds[i] != kAgg) {
      tally.Add(&rq[i]);
      continue;
    }
    uint64_t correct = 0;
    for (int hidx = 0; hidx < hosts_n; ++hidx) {
      if (cnt_by_host[hidx] == 0) continue;
      tally.expected_rows++;
      auto it = groups[i].find(HostAddr(hidx));
      correct += it != groups[i].end() &&
                 it->second ==
                     std::make_pair(cnt_by_host[hidx], sum_by_host[hidx]);
    }
    tally.matched_rows += correct;
    bool ok = rq[i].submitted && agg_malformed[i] == 0 &&
              correct == groups[i].size() &&
              static_cast<int64_t>(correct) ==
                  std::count_if(cnt_by_host.begin(), cnt_by_host.end(),
                                [](int64_t c) { return c > 0; });
    tally.failed += !ok;
  }
  rep->virt["first_answer_p50_ms"] = {Percentile(tally.first_ms, 50),
                                      tally.first_ms.size()};
  rep->Latency("last_answer", tally.last_ms);
  rep->virt["recall"] = {
      static_cast<double>(tally.matched_rows) / tally.expected_rows,
      tally.expected_rows};
  rep->attempted = kinds.size();
  rep->failed = tally.failed;
  rep->virt["error_rate"] = {static_cast<double>(tally.failed) / kinds.size(),
                             kinds.size()};
  rep->wall["queries_per_s"] = {done / timed_s, done};
  b->SetReplay(std::move(flows), "dst_port = " + std::to_string(PortOf(0)),
               {"id", "src", "bytes"});
  b->Finish(setup_s, timed_s);
}

// --- continuous -----------------------------------------------------------------
//
// Three standing queries over a stream of unbatched per-tuple publishes with
// 30-second soft state: a pipelined alert selection (newData delivery), a
// 2-second windowed GROUP BY and a 5-second windowed top-10. Writes and
// reads interleave; state stays at a steady size.

void Continuous(Bench* b) {
  const bool smoke = b->args().smoke;
  const uint32_t nodes = smoke ? 16 : 64;
  const double rate = nodes * (smoke ? 5.0 : 10.0);
  const TimeUs duration = (smoke ? 4 : 24) * kSecond;
  constexpr int kSources = 500;
  constexpr int64_t kAlertPort = 445;

  Rng rng(b->args().seed * 0x9E3779B97F4A7C15ULL + 303);
  ZipfGenerator zipf(kSources, 1.1);
  std::vector<Arrival> ops = PoissonSchedule(&rng, rate, duration, nodes);
  const size_t n = ops.size();
  std::vector<Tuple> rows;
  std::vector<int64_t> alert_ids;
  std::vector<int64_t> cnt_by_src(kSources, 0);
  std::map<std::string, int> src_index;
  for (int s = 0; s < kSources; ++s) src_index["s" + std::to_string(s)] = s;
  for (size_t i = 0; i < n; ++i) {
    int src = static_cast<int>(zipf.Sample(&rng));
    bool alert = rng.Uniform(8) == 0;
    Tuple t("ev");
    t.Append("id", Value::Int64(static_cast<int64_t>(i)));
    t.Append("src", Value::String("s" + std::to_string(src)));
    t.Append("dst_port",
             Value::Int64(alert ? kAlertPort : PortOf(rng.Uniform(kPorts))));
    t.Append("ts", Value::Int64(ops[i].at));
    rows.push_back(std::move(t));
    cnt_by_src[src]++;
    if (alert) alert_ids.push_back(static_cast<int64_t>(i));
  }
  std::vector<uint32_t> query_node(3);
  for (uint32_t& q : query_node) q = static_cast<uint32_t>(rng.Uniform(nodes));

  const std::string lifetime =
      " TIMEOUT " + std::to_string(duration / kSecond + 90) + "s";
  std::vector<QueryHandle> hs(3);
  std::vector<TimeUs> alert_at(n, -1);
  uint64_t alert_wrong = 0, alert_dup = 0, malformed = 0;
  std::vector<int64_t> got_by_src(kSources, 0);
  std::vector<double> window_ms;
  uint64_t sum_cnt = 0, topk_rows = 0;
  TimeUs t0 = 0;

  int64_t setup_ns = WallNs();
  {
    Tracer::Scope setup(b->tracer(), "bench.setup");
    b->Boot(nodes);
    b->Register(TableSpec("ev").PartitionBy({"id"}).Lifetime(30 * kSecond));
    const std::string texts[3] = {
        "SELECT id, src, ts FROM ev WHERE dst_port = " +
            std::to_string(kAlertPort) + lifetime + " CONTINUOUS",
        "SELECT src, count(*) AS cnt, max(ts) AS last_ts FROM ev GROUP BY src" +
            lifetime + " WINDOW 2s CONTINUOUS",
        "SELECT src, count(*) AS cnt, max(ts) AS last_ts FROM ev GROUP BY src "
        "ORDER BY cnt DESC LIMIT 10" +
            lifetime + " WINDOW 5s CONTINUOUS"};
    for (int q = 0; q < 3; ++q) {
      // Tumbling flat windows make "sum of window counts == tuples
      // published" an exact oracle for the windowed aggregate.
      Sql sql(texts[q]);
      if (q == 1) sql.WithAggStrategy("flat");
      Result<QueryHandle> h = b->Submit(query_node[q], sql);
      if (!h.ok()) b->Fail("standing query " + std::to_string(q) + ": " +
                           h.status().ToString());
      hs[q] = *h;
    }
    Bench* bp = b;
    OnTuple(b, &hs[0], [&, bp](const Tuple& t) {
      bool ok = true;
      int64_t id = IntCol(t, "id", &ok);
      if (!ok || id < 0 || static_cast<size_t>(id) >= n) {
        alert_wrong++;
        return;
      }
      if (!std::binary_search(alert_ids.begin(), alert_ids.end(), id)) {
        alert_wrong++;
      } else if (alert_at[id] >= 0) {
        alert_dup++;
      } else {
        alert_at[id] = bp->Now();
      }
    });
    OnTuple(b, &hs[1], [&, bp](const Tuple& t) {
      bool ok = true;
      std::string src = StrCol(t, "src", &ok);
      int64_t cnt = IntCol(t, "cnt", &ok), last_ts = IntCol(t, "last_ts", &ok);
      auto it = src_index.find(src);
      if (!ok || it == src_index.end() || cnt <= 0) {
        malformed++;
        return;
      }
      got_by_src[it->second] += cnt;
      sum_cnt += cnt;
      window_ms.push_back(Ms(bp->Now() - (t0 + last_ts)));
    });
    OnTuple(b, &hs[2], [&](const Tuple& t) {
      bool ok = true;
      std::string src = StrCol(t, "src", &ok);
      int64_t cnt = IntCol(t, "cnt", &ok);
      if (!ok || src_index.count(src) == 0 || cnt <= 0) malformed++;
      topk_rows++;
    });
    b->RunTo(b->Now() + 3 * kSecond);  // dissemination reaches every node
  }
  double setup_s = (WallNs() - setup_ns) / 1e9;

  t0 = b->Now();
  TimeUs last_publish = t0;
  size_t alerts_seen = 0;
  b->BeginTimed();
  {
    Tracer::Scope timed(b->tracer(), "bench.timed");
    for (size_t i = 0; i < n; ++i) {
      b->RunTo(t0 + ops[i].at);
      b->Publish(ops[i].node, "ev", rows[i]);
    }
    last_publish = b->Now();
    // Drain: every alert delivered and every tuple counted by some window.
    auto drained = [&]() {
      if (sum_cnt < n) return false;
      while (alerts_seen < alert_ids.size() && alert_at[alert_ids[alerts_seen]] >= 0)
        alerts_seen++;
      return alerts_seen == alert_ids.size();
    };
    while (!drained() && b->Now() < last_publish + 30 * kSecond)
      b->RunTo(b->Now() + 100 * kMillisecond);
  }
  double timed_s = b->EndTimed();
  const TimeUs drained_at = b->Now();
  {
    Tracer::Scope verify(b->tracer(), "bench.verify");
    // Cancelling delivers each query's final cost report to its handle.
    for (QueryHandle& h : hs) (void)h.Cancel();
  }

  Report* rep = b->report();
  std::vector<double> alert_ms;
  uint64_t alerts_ok = 0;
  for (int64_t id : alert_ids) {
    TimeUs due = t0 + ops[id].at;
    alerts_ok += alert_at[id] >= 0;
    alert_ms.push_back(Ms((alert_at[id] >= 0 ? alert_at[id] : drained_at) - due));
  }
  uint64_t counted_ok = 0, count_errors = 0;
  for (int s = 0; s < kSources; ++s) {
    counted_ok += std::min(got_by_src[s], cnt_by_src[s]);
    count_errors += got_by_src[s] != cnt_by_src[s];
  }
  rep->Latency("alert", alert_ms);
  rep->Latency("window", window_ms);
  uint64_t expected = alert_ids.size() + n;
  rep->virt["recall"] = {static_cast<double>(alerts_ok + counted_ok) / expected,
                         expected};
  uint64_t failed = b->publish_errors() + (alert_ids.size() - alerts_ok) +
                    alert_wrong + alert_dup + malformed + count_errors +
                    (topk_rows == 0);
  rep->attempted = n;
  rep->failed = std::min<uint64_t>(failed, n);
  rep->virt["error_rate"] = {static_cast<double>(rep->failed) / n, n};
  rep->wall["tuples_per_s"] = {n / timed_s, n};
  b->SetReplay(std::move(rows), "dst_port = " + std::to_string(kAlertPort),
               {"id", "src", "ts"});
  b->Finish(setup_s, timed_s);
}

// --- lookup ---------------------------------------------------------------------
//
// Keyword lookups in a filesharing inverted index on 1,024 nodes: each query
// is routed to the owner of its keyword and does little operator work, so
// routing hops, per-message runtime/UdpCc work and maintenance traffic over a
// working set larger than the CPU caches dominate.

void Lookup(Bench* b) {
  const bool smoke = b->args().smoke;
  const uint32_t nodes = smoke ? 256 : 1024;
  const size_t queries = smoke ? 100 : 1000;
  const TimeUs timeout = 3 * kSecond;

  CorpusOptions co;
  co.vocab_size = smoke ? 200 : 2000;
  co.num_files = smoke ? 400 : 4000;
  co.max_replicas = 32;
  co.seed = b->args().seed;
  FilesharingCorpus corpus(co, nodes);
  std::vector<Tuple> rows;
  std::vector<uint32_t> owner;
  std::map<uint32_t, std::vector<int64_t>> by_kw;
  for (const CorpusFile& f : corpus.files()) {
    for (uint32_t host : f.hosts) {
      for (uint32_t kw : f.keywords) {
        rows.push_back(FilesharingCorpus::IndexTuple(kw, f.file_id, host));
        owner.push_back(host);
        by_kw[kw].push_back(static_cast<int64_t>(f.file_id) * 65536 + host);
      }
    }
  }
  Rng rng(b->args().seed * 0x9E3779B97F4A7C15ULL + 404);
  ZipfGenerator zipf(co.vocab_size, co.keyword_zipf);
  std::vector<Arrival> ops = PoissonCount(&rng, 40.0, queries, nodes);
  std::vector<uint32_t> op_kw(queries);
  for (uint32_t& kw : op_kw) {
    do {
      kw = static_cast<uint32_t>(zipf.Sample(&rng));
    } while (by_kw.count(kw) == 0);
  }

  int64_t setup_ns = WallNs();
  {
    Tracer::Scope setup(b->tracer(), "bench.setup");
    b->Boot(nodes);
    b->Register(TableSpec("fidx").PartitionBy({"kw"}));
    b->Preload("fidx", rows, owner);
    b->WaitStored("fidx", rows.size());
  }
  double setup_s = (WallNs() - setup_ns) / 1e9;

  std::vector<RowQuery> rq(queries);
  std::vector<QueryHandle> hs(queries);
  const TimeUs t0 = b->Now();
  b->BeginTimed();
  {
    Tracer::Scope timed(b->tracer(), "bench.timed");
    Bench* bp = b;
    for (size_t i = 0; i < queries; ++i) {
      b->RunTo(t0 + ops[i].at);
      RowQuery& q = rq[i];
      q.due = b->Now();
      q.timeout = timeout;
      q.expected = by_kw[op_kw[i]];
      std::sort(q.expected.begin(), q.expected.end());
      Result<QueryHandle> h = b->Submit(
          ops[i].node, Sql("SELECT file_id, host FROM fidx WHERE kw = '" +
                           FilesharingCorpus::KeywordName(op_kw[i]) +
                           "' TIMEOUT " + std::to_string(timeout / kSecond) +
                           "s"));
      if (!h.ok()) continue;
      q.submitted = true;
      hs[i] = *h;
      OnTuple(b, &hs[i], [&, bp, i](const Tuple& t) {
        bool ok = true;
        int64_t file = IntCol(t, "file_id", &ok), host = IntCol(t, "host", &ok);
        if (!ok) {
          rq[i].malformed++;
          return;
        }
        rq[i].Row(bp->Now(), file * 65536 + host);
      });
    }
    WaitDone(b, hs, b->Now() + timeout + 5 * kSecond);
  }
  double timed_s = b->EndTimed();

  Report* rep = b->report();
  RowTally tally;
  uint64_t done = 0;
  for (size_t i = 0; i < queries; ++i) {
    done += hs[i].valid() && hs[i].done();
    tally.Add(&rq[i]);
  }
  rep->virt["first_answer_p50_ms"] = {Percentile(tally.first_ms, 50),
                                      tally.first_ms.size()};
  rep->Latency("last_answer", tally.last_ms);
  rep->virt["recall"] = {
      static_cast<double>(tally.matched_rows) / tally.expected_rows,
      tally.expected_rows};
  rep->attempted = queries;
  rep->failed = tally.failed;
  rep->virt["error_rate"] = {static_cast<double>(tally.failed) / queries,
                             queries};
  rep->wall["queries_per_s"] = {done / timed_s, done};
  rows.resize(std::min<size_t>(rows.size(), 8192));
  b->SetReplay(std::move(rows), "kw = 'kw0'", {"file_id", "host"});
  b->Finish(setup_s, timed_s);
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "pier_bench: %s needs a value\n", a.c_str());
        std::exit(64);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      args.workload = value();
    } else if (a == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--trace-out") {
      args.trace_out = value();
    } else {
      std::fprintf(stderr, "pier_bench: unknown argument %s\n", a.c_str());
      return 64;
    }
  }
  const std::map<std::string, void (*)(Bench*)> workloads = {
      {"ingest", Ingest},
      {"snapshot", Snapshot},
      {"continuous", Continuous},
      {"lookup", Lookup}};
  auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr,
                 "usage: pier_bench --workload ingest|snapshot|continuous|"
                 "lookup [--seed N] [--smoke] [--trace-out FILE]\n");
    return 64;
  }
  Bench bench(args);
  it->second(&bench);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pier

int main(int argc, char** argv) { return pier::bench::Main(argc, argv); }
