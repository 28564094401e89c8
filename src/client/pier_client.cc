#include "client/pier_client.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "qp/ufl.h"
#include "util/logging.h"

namespace pier {

// ---------------------------------------------------------------------------
// QueryHandle
// ---------------------------------------------------------------------------

struct QueryHandle::State {
  QueryProcessor* qp = nullptr;
  PierClient::RunFn run;
  uint64_t id = 0;
  /// How long after `submitted_at` the query ends at its proxy: its
  /// timeout plus QueryExecutor::FlushTail. Wait() paces itself off it.
  TimeUs runs_for = 0;
  Stats stats;
  std::function<void(const Tuple&)> on_tuple;
  std::function<void()> on_done;
  /// Answers arriving before OnTuple is registered (or forever, for Collect
  /// users) accumulate here, at most kMaxBuffered; a streaming callback
  /// drains it.
  std::vector<Tuple> buffer;
  /// ExplainAnalyze inputs: the optimizer's estimate for the submitted plan
  /// and the proxy's final cost report (have_costs once it fired).
  PlanExplain estimate;
  QueryCostReport costs;
  bool have_costs = false;

  /// Deliver buffered answers to the streaming callback, stopping early if
  /// the callback Cancel()s the handle mid-drain (the rest stays buffered,
  /// in order, exactly as Cancel leaves any other undelivered backlog).
  /// Draining a query that was ALREADY done is fine: replaying the backlog
  /// into a late OnTuple registration is a local handoff, not a late
  /// network delivery.
  void Drain() {
    const bool was_done = stats.done;
    std::vector<Tuple> pending;
    pending.swap(buffer);
    size_t i = 0;
    for (; i < pending.size() && stats.done == was_done; ++i)
      on_tuple(pending[i]);
    if (i < pending.size()) {
      buffer.insert(buffer.begin(),
                    std::make_move_iterator(pending.begin() + i),
                    std::make_move_iterator(pending.end()));
    }
  }
};

uint64_t QueryHandle::id() const { return state_ ? state_->id : 0; }

QueryHandle& QueryHandle::OnTuple(std::function<void(const Tuple&)> fn) {
  if (!state_) return *this;
  state_->on_tuple = std::move(fn);
  state_->Drain();
  return *this;
}

QueryHandle& QueryHandle::OnDone(std::function<void()> fn) {
  if (!state_) return *this;
  if (state_->stats.done) {
    fn();
    return *this;
  }
  state_->on_done = std::move(fn);
  return *this;
}

Status QueryHandle::Cancel() {
  if (!state_) return Status::InvalidArgument("empty query handle");
  if (state_->stats.done) return Status::Ok();  // idempotent
  // An orphaned query has no proxy record to cancel through: the proxy died
  // (and this handle never re-attached at the adopter). There
  // is no round-trip to block on — tear down locally, complete the handle,
  // and say so.
  bool proxied = state_->qp->HasClientQuery(state_->id);
  state_->qp->CancelQuery(state_->id);
  state_->stats.cancelled = true;
  state_->stats.done = true;
  // Cancellation completes the query from the client's point of view, so
  // the completion callback fires exactly as it would at the timeout (the
  // query processor's own done timer was just cancelled with the query).
  std::function<void()> done = std::move(state_->on_done);
  state_->on_done = nullptr;
  if (done) done();
  return proxied ? Status::Ok()
                 : Status::Unavailable(
                       "query is orphaned (its proxy record is gone); "
                       "local execution torn down");
}

bool QueryHandle::done() const { return state_ && state_->stats.done; }

const QueryHandle::Stats& QueryHandle::stats() const {
  static const Stats kEmpty;
  return state_ ? state_->stats : kEmpty;
}

Status QueryHandle::Wait(TimeUs max_wait) {
  if (!state_) return Status::InvalidArgument("empty query handle");
  if (state_->stats.done) return Status::Ok();
  if (!state_->run)
    return Status::NotSupported("client has no run driver to wait with");
  // Queries end at runs_for + done slack; leave a little headroom past that.
  TimeUs deadline =
      max_wait > 0 ? max_wait
                   : state_->runs_for + QueryProcessor::kDoneSlack + kSecond;
  const TimeUs kStep = 500 * kMillisecond;
  for (TimeUs waited = 0; waited < deadline && !state_->stats.done;
       waited += kStep) {
    state_->run(std::min(kStep, deadline - waited));
  }
  return state_->stats.done ? Status::Ok()
                            : Status::TimedOut("query still running");
}

std::vector<Tuple> QueryHandle::Collect(TimeUs max_wait) {
  if (!state_) return {};
  // A timeout is not an error here: Collect hands out whatever arrived
  // within the wait, done or not.
  (void)Wait(max_wait);
  if (!state_->stats.done) {
    // Still running (a continuous query mid-stream): hand out a snapshot
    // and KEEP the buffer — draining it here would silently steal the
    // prefix from the next Collect caller.
    return state_->buffer;
  }
  std::vector<Tuple> out;
  out.swap(state_->buffer);
  return out;
}

// ---------------------------------------------------------------------------
// PierClient
// ---------------------------------------------------------------------------

PierClient::PierClient(QueryProcessor* qp, Catalog* catalog, RunFn run,
                       StatsRegistry* stats)
    : qp_(qp), catalog_(catalog), run_(std::move(run)), stats_(stats) {
  if (stats_ == nullptr) {
    owned_stats_ = std::make_unique<StatsRegistry>();
    // One registry = one sys.stats origin; a client-owned registry speaks
    // as its node. An injected (shared) registry keeps the origin its owner
    // chose, so many clients publishing it never multiply the counts.
    owned_stats_->set_origin(qp_->dht()->local_address().host);
    stats_ = owned_stats_.get();
  }
  // The statistics system table is an ordinary soft-state table, declared
  // like any application table so stats rows are publishable and queryable
  // through PIER itself. Idempotent; a conflicting application declaration
  // wins (Register rejects ours, which we deliberately ignore).
  (void)catalog_->Register(
      TableSpec(kSysStatsTable).PartitionBy({"table"}));
  // The metrics system table rides the same machinery: one row per metric
  // sample, partitioned by metric name so the fleet's series for one family
  // co-locate at that family's owner.
  (void)catalog_->Register(
      TableSpec(kSysMetricsTable).PartitionBy({"metric"}));
}

PierClient::~PierClient() {
  // Buffered publishes are handed to the network before the client goes
  // away (the DHT and event loop outlive it); an error here has no one
  // left to report to.
  (void)Flush();
  // Replan checks and the stats refresh capture `this` / this client's
  // registry; none of them may outlive the client.
  for (auto& [qid, task] : replans_) {
    if (task.timer) qp_->vri()->CancelEvent(task.timer);
  }
  // Teardown path: an already-orphaned refresh query reports Unavailable,
  // and the local handle state is torn down either way.
  if (stats_refresh_.valid()) (void)stats_refresh_.Cancel();
}

Status PierClient::ValidateAgainstSpec(const TableSpec& spec,
                                       const Tuple& t) const {
  // The catalog knows what the indexes need; reject tuples the fan-out
  // would silently mis-key or drop. (Secondary indexes stay sparse: a tuple
  // without the indexed attribute is legitimately just not indexed.)
  for (const std::string& attr : spec.partition_attrs) {
    if (!t.Has(attr)) {
      return Status::InvalidArgument(
          "tuple for '" + spec.name + "' lacks partition attribute '" + attr +
          "': it would be stored under a key no equality lookup computes");
    }
  }
  for (const RangeIndexSpec& idx : spec.range_indexes) {
    const Value* v = t.Get(idx.attr);
    if (v == nullptr)
      return Status::InvalidArgument("tuple for '" + spec.name +
                                     "' lacks range-index attribute '" +
                                     idx.attr + "'");
    Result<int64_t> key = v->AsInt64();
    if (!key.ok() || *key < 0)
      return Status::InvalidArgument(
          "range-index attribute '" + idx.attr +
          "' must be a non-negative integer, got " + v->ToString());
  }
  return Status::Ok();
}

Status PierClient::CheckReplicas(const TableSpec& spec) const {
  if (spec.replicas < 0)
    return Status::InvalidArgument("table '" + spec.name +
                                   "' declares a negative replication factor");
  constexpr int max = Dht::kMaxReplicationFactor;
  if (spec.replicas > max)
    return Status::InvalidArgument(
        "table '" + spec.name + "' wants " + std::to_string(spec.replicas) +
        " replicas but the overlay can place at most " + std::to_string(max));
  return Status::Ok();
}

Status PierClient::Publish(const std::string& table, const Tuple& t,
                           TimeUs lifetime) {
  const TableSpec* spec = catalog_->Find(table);
  if (spec == nullptr)
    return Status::NotFound("table '" + table + "' is not in the catalog");
  PIER_RETURN_IF_ERROR(CheckReplicas(*spec));
  if (lifetime <= 0) lifetime = spec->default_lifetime;
  if (lifetime <= 0) lifetime = kPublishLifetime;

  if (!spec->local_only) PIER_RETURN_IF_ERROR(ValidateAgainstSpec(*spec, t));

  // Auto-batching: buffer the (already validated) tuple; the size trigger,
  // the delay timer, Flush() or client teardown ships it. Local-only tables
  // are never buffered: an in-situ store sends no message to amortize.
  if (publish_batch_max_ > 1 && !spec->local_only) {
    PublishBuffer& buf = publish_buffers_[table];
    buf.tuples.push_back(t);
    buf.lifetimes.push_back(lifetime);
    if (buf.tuples.size() >= publish_batch_max_) return FlushTable(table);
    // max_delay 0 still arms a zero-delay event: a synchronous publish
    // burst batches up, and the buffer flushes at the next event-loop turn
    // instead of stranding tuples until a size trigger or Flush().
    if (buf.timer == 0) {
      buf.timer = qp_->vri()->ScheduleEvent(publish_batch_delay_, [this,
                                                                   table]() {
        // The timer has fired, so its token is stale. Zero it so `timer`
        // keeps meaning "armed"; FlushTable's cancel of a stale token would
        // only be a no-op.
        auto bit = publish_buffers_.find(table);
        if (bit != publish_buffers_.end()) bit->second.timer = 0;
        (void)FlushTable(table);
      });
    }
    return Status::Ok();
  }
  // Unbuffered: a batch of one, through the same fan-out as every batch.
  return ShipBatch(*spec, {t}, {lifetime});
}

Status PierClient::PublishBatch(const std::string& table,
                                const std::vector<Tuple>& tuples,
                                TimeUs lifetime) {
  const TableSpec* spec = catalog_->Find(table);
  if (spec == nullptr)
    return Status::NotFound("table '" + table + "' is not in the catalog");
  PIER_RETURN_IF_ERROR(CheckReplicas(*spec));
  if (lifetime <= 0) lifetime = spec->default_lifetime;
  if (lifetime <= 0) lifetime = kPublishLifetime;
  if (tuples.empty()) return Status::Ok();

  // All-or-nothing validation: a bad tuple fails the call before anything
  // of the batch hits the network.
  if (!spec->local_only) {
    for (const Tuple& t : tuples)
      PIER_RETURN_IF_ERROR(ValidateAgainstSpec(*spec, t));
  }

  // Earlier Publish()es waiting in this table's auto-batch buffer must ship
  // first, or the explicit batch would overtake them on the wire.
  PIER_RETURN_IF_ERROR(FlushTable(table));

  std::vector<TimeUs> lifetimes(tuples.size(), lifetime);
  return ShipBatch(*spec, tuples, lifetimes);
}

void PierClient::SetPublishBatching(size_t max_tuples, TimeUs max_delay) {
  publish_batch_max_ = max_tuples;
  publish_batch_delay_ = max_delay;
  // Keep the optimizer's pricing in sync with what the publish path will
  // actually do: batched ingest amortizes per-message overhead, and Explain
  // must see the same discount or it overestimates ingest/rehash traffic.
  cost_params_.put_batch =
      max_tuples > 1 ? static_cast<double>(max_tuples) : 1.0;
  // Turning batching down (or off) must not strand buffered tuples.
  if (publish_batch_max_ <= 1) (void)Flush();
}

Status PierClient::Flush() {
  Status first = Status::Ok();
  // Collect names first: FlushTable erases entries while we iterate.
  std::vector<std::string> tables;
  tables.reserve(publish_buffers_.size());
  for (const auto& [table, buf] : publish_buffers_) {
    (void)buf;
    tables.push_back(table);
  }
  for (const std::string& table : tables) {
    Status s = FlushTable(table);
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

Status PierClient::FlushTable(const std::string& table) {
  auto it = publish_buffers_.find(table);
  if (it == publish_buffers_.end()) return Status::Ok();
  PublishBuffer buf = std::move(it->second);
  publish_buffers_.erase(it);
  if (buf.timer != 0) qp_->vri()->CancelEvent(buf.timer);
  if (buf.tuples.empty()) return Status::Ok();
  const TableSpec* spec = catalog_->Find(table);
  if (spec == nullptr)
    return Status::NotFound("table '" + table + "' left the catalog");
  return ShipBatch(*spec, buf.tuples, buf.lifetimes);
}

Status PierClient::ShipBatch(const TableSpec& spec,
                             const std::vector<Tuple>& tuples,
                             const std::vector<TimeUs>& lifetimes) {
  // Per-tuple REAL serialized sizes (primary encoding): the statistics
  // registry samples these instead of a batch-uniform mean.
  std::vector<size_t> row_bytes;
  row_bytes.reserve(tuples.size());
  Dht* dht = qp_->dht();
  if (spec.local_only) {
    // In situ (§2.1.2): the row stays at this node, under a key nothing
    // routes on, and is reached by scans in broadcast-disseminated graphs.
    for (size_t i = 0; i < tuples.size(); ++i) {
      std::string wire = tuples[i].Encode();
      row_bytes.push_back(wire.size());
      dht->StoreLocal(ObjectName{spec.name, "", dht->NextSuffix()},
                      std::move(wire), lifetimes[i]);
    }
  } else {
    // The whole batch's index fan-out — primary rows AND secondary entries
    // — ships as ONE DHT batch: one lookup per distinct key, one wire
    // message per destination owner.
    //
    // Secondary entries build through ONE TupleBatch per declared index
    // instead of N three-column Tuples: rows are appended straight into the
    // batch builder and the wire value / partition key come from batch
    // cells (byte-identical to encoding the entry as a Tuple).
    struct SecBatch {
      const SecondaryIndexSpec* idx;
      TupleBatch rows;
      std::vector<size_t> src;  // built row -> source tuple index
      size_t cursor = 0;
    };
    std::vector<std::string> pkeys;
    pkeys.reserve(tuples.size());
    for (const Tuple& t : tuples)
      pkeys.push_back(t.PartitionKey(spec.partition_attrs));
    std::vector<SecBatch> secs;
    secs.reserve(spec.secondary_indexes.size());
    for (const SecondaryIndexSpec& idx : spec.secondary_indexes) {
      auto schema = std::make_shared<BatchSchema>();
      schema->table = idx.table;
      schema->columns = {idx.attr, "base_table", "base_key"};
      TupleBatchBuilder b(std::move(schema));
      SecBatch sec;
      sec.idx = &idx;
      for (size_t i = 0; i < tuples.size(); ++i) {
        const Value* v = tuples[i].Get(idx.attr);
        if (v == nullptr) continue;  // nothing to index (sparse)
        b.AppendValue(*v);
        b.AppendString(spec.name);
        b.AppendString(pkeys[i]);
        sec.src.push_back(i);
      }
      sec.rows = b.Finish();
      secs.push_back(std::move(sec));
    }
    std::vector<DhtPutItem> items;
    items.reserve(tuples.size() * (1 + spec.secondary_indexes.size()));
    for (size_t i = 0; i < tuples.size(); ++i) {
      items.push_back({spec.name, std::move(pkeys[i]), dht->NextSuffix(),
                       tuples[i].Encode(), lifetimes[i], spec.replicas});
      row_bytes.push_back(items.back().value.size());
      // Suffixes mint primary-then-secondaries per tuple, so object names
      // do not depend on how the tuples were batched.
      for (SecBatch& sec : secs) {
        if (sec.cursor >= sec.src.size() || sec.src[sec.cursor] != i) continue;
        size_t r = sec.cursor++;
        items.push_back({sec.idx->table,
                         sec.rows.RowPartitionKey(r, {sec.idx->attr}),
                         dht->NextSuffix(), sec.rows.EncodeRow(r), lifetimes[i],
                         spec.replicas});
      }
    }
    // The completion holds the failure counters, not the client: a batch
    // may still be in flight when the client is destroyed.
    dht->PutBatch(
        std::move(items),
        [failures = publish_failures_, table = spec.name](
            const Status& first, std::vector<Dht::PutGroupStatus> groups) {
          if (first.ok()) return;
          size_t dropped = 0;
          for (const Dht::PutGroupStatus& g : groups) {
            if (!g.status.ok()) dropped += g.indices.size();
          }
          failures->failed_batches++;
          failures->dropped_items += dropped;
          failures->last_error = first;
          PIER_LOG(kWarn) << "publish into '" << table << "' dropped "
                          << dropped << " index entries: " << first.ToString();
        });
    // PHT trie inserts are multi-step protocols; they stay per tuple.
    for (const RangeIndexSpec& idx : spec.range_indexes) {
      for (size_t i = 0; i < tuples.size(); ++i)
        qp_->PublishRange(idx.table, idx.attr, tuples[i], idx.key_bits,
                          lifetimes[i]);
    }
  }
  // Statistics accrual, one Observe per row with its real serialized size.
  // The sys.* tables are the statistics' own output and stay out.
  if (spec.name != kSysStatsTable && spec.name != kSysMetricsTable) {
    TimeUs now = qp_->vri()->Now();
    for (size_t i = 0; i < tuples.size(); ++i)
      stats_->Observe(spec.name, tuples[i], spec.partition_attrs, row_bytes[i],
                      now);
    if (stats_->TakePublishDue(spec.name, kStatsPublishEvery))
      PublishSysStatsRow(spec.name);
  }
  return Status::Ok();
}

void PierClient::PublishSysStatsRow(const std::string& table) {
  Tuple row = stats_->ToSysTuple(table);
  if (row.num_columns() == 0) return;  // nothing observed locally
  Dht* dht = qp_->dht();
  dht->PutBatch({{kSysStatsTable, row.PartitionKey({"table"}),
                  dht->NextSuffix(), row.Encode(), kPublishLifetime}});
}

Result<QueryPlan> PierClient::CompileSqlPinned(const Sql& sql,
                                               uint64_t query_id,
                                               PlanExplain* explain) const {
  SqlOptions options;
  options.tables = catalog_->TableHints();
  options.agg_strategy = sql.agg_strategy;
  options.query_id = query_id;
  options.optimizer = MakeOptimizer();
  return CompileSql(sql.text, options, explain);
}

Optimizer PierClient::MakeOptimizer() const {
  Optimizer optimizer(stats_, CostModel(cost_params_));
  optimizer.set_now(qp_->vri()->Now());
  return optimizer;
}

Result<QueryPlan> PierClient::Compile(const Sql& sql,
                                      PlanExplain* explain) const {
  return CompileSqlPinned(sql, /*query_id=*/0, explain);
}

Result<QueryPlan> PierClient::Compile(const Ufl& ufl) const {
  return ParseUfl(ufl.text);
}

Result<ExplainResult> PierClient::Explain(const Sql& sql) const {
  ExplainResult out;
  PIER_ASSIGN_OR_RETURN(out.plan, Compile(sql, &out.detail));
  MakeOptimizer().CostPlan(out.plan, &out.detail);
  return out;
}

Result<ExplainResult> PierClient::Explain(const Ufl& ufl) const {
  ExplainResult out;
  PIER_ASSIGN_OR_RETURN(out.plan, Compile(ufl));
  MakeOptimizer().CostPlan(out.plan, &out.detail);
  return out;
}

Result<ExplainAnalyzeResult> PierClient::ExplainAnalyze(
    const QueryHandle& h) const {
  if (!h.valid()) return Status::InvalidArgument("empty query handle");
  ExplainAnalyzeResult out;
  out.estimate = h.state_->estimate;
  if (h.state_->have_costs) {
    out.actual = h.state_->costs;
    out.final = true;
  } else {
    // Still running (or this node never proxied it): live snapshot of what
    // the proxy has aggregated so far. Empty on a non-proxy node.
    out.actual = qp_->QueryCosts(h.id());
    out.actual.query_id = h.id();
  }
  return out;
}

std::string ExplainAnalyzeResult::ToString() const {
  std::ostringstream os;
  os << "EXPLAIN ANALYZE query " << actual.query_id
     << (final ? " (final)" : " (running)") << "\n";
  for (const QueryCostOp& op : actual.ops) {
    if (op.graph_id == QueryMeter::kAnswerSlot.first &&
        op.op_id == QueryMeter::kAnswerSlot.second) {
      os << "  answers: " << op.cost.tuples_out << " tuples, " << op.cost.msgs
         << " msgs / " << op.cost.bytes << " B on the wire\n";
      continue;
    }
    os << "  g" << op.graph_id << "/op" << op.op_id;
    const ExplainOp* est = nullptr;
    for (const ExplainOp& e : estimate.ops) {
      if (e.graph_id == op.graph_id && e.op_id == op.op_id) {
        est = &e;
        break;
      }
    }
    if (est != nullptr) {
      os << " " << est->op << ": est " << est->est_rows << " rows, "
         << est->cost.messages << " msgs / " << est->cost.bytes << " B";
    } else {
      os << ": (no estimate)";
    }
    os << "; actual " << op.cost.tuples_out << " rows, " << op.cost.msgs
       << " msgs / " << op.cost.bytes << " B";
    if (op.nodes > 1) os << " across " << op.nodes << " nodes";
    os << "\n";
  }
  os << "  total: est " << estimate.total.messages << " msgs / "
     << estimate.total.bytes << " B; actual " << actual.total.msgs
     << " msgs / " << actual.total.bytes << " B\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Metrics export (sys.metrics)
// ---------------------------------------------------------------------------

Status PierClient::PublishMetrics(std::vector<MetricSample>* out,
                                  TimeUs lifetime) {
  if (metrics_ == nullptr)
    return Status::InvalidArgument(
        "no metrics registry attached (set_metrics)");
  NetAddress self = qp_->dht()->local_address();
  std::string origin =
      std::to_string(self.host) + ":" + std::to_string(self.port);
  TimeUs now = qp_->vri()->Now();
  std::vector<MetricSample> snapshot = metrics_->Snapshot();
  if (lifetime <= 0) lifetime = kPublishLifetime;
  Dht* dht = qp_->dht();
  std::vector<DhtPutItem> items;
  items.reserve(snapshot.size());
  for (const MetricSample& s : snapshot) {
    Tuple row(kSysMetricsTable);
    row.Append("metric", Value::String(s.name));
    row.Append("labels", Value::String(RenderLabels(s.labels)));
    row.Append("origin", Value::String(origin));
    row.Append("kind", Value::String(s.kind == MetricKind::kCounter ? "counter"
                                     : s.kind == MetricKind::kGauge
                                         ? "gauge"
                                         : "histogram"));
    // Histograms publish their sum/count; buckets stay scrape-only (a
    // per-bucket row set would multiply sys.metrics traffic for little
    // query value).
    row.Append("value", Value::Double(s.value));
    row.Append("count", Value::Int64(static_cast<int64_t>(s.count)));
    row.Append("sum", Value::Double(s.sum));
    row.Append("updated_us", Value::Int64(static_cast<int64_t>(now)));
    items.push_back({kSysMetricsTable, row.PartitionKey({"metric"}),
                     dht->NextSuffix(), row.Encode(), lifetime});
  }
  // The whole snapshot ships as one batch: a metric family's rows share an
  // owner and ride one frame.
  dht->PutBatch(std::move(items));
  if (out != nullptr) *out = std::move(snapshot);
  return Status::Ok();
}

Result<QueryHandle> PierClient::Query(const Sql& sql) {
  if (sql.replan != "off" && sql.replan != "auto") {
    return Status::InvalidArgument("unknown replan mode '" + sql.replan +
                                   "' (expected \"off\" or \"auto\")");
  }
  PlanExplain explain;
  PIER_ASSIGN_OR_RETURN(QueryPlan plan, Compile(sql, &explain));
  bool auto_replan = sql.replan == "auto" && plan.continuous;
  QueryPlan submitted;
  if (auto_replan) submitted = plan;  // Submit consumes the original
  PIER_ASSIGN_OR_RETURN(QueryHandle h, Submit(std::move(plan)));
  if (auto_replan) EnableAutoReplan(h, sql, std::move(submitted), explain);
  return h;
}

Result<QueryHandle> PierClient::Query(const Ufl& ufl) {
  PIER_ASSIGN_OR_RETURN(QueryPlan plan, Compile(ufl));
  return Submit(std::move(plan));
}

Result<QueryHandle> PierClient::Query(QueryPlan plan) {
  return Submit(std::move(plan));
}

// ---------------------------------------------------------------------------
// Continuous-query replanning and the background stats refresh
// ---------------------------------------------------------------------------

void PierClient::EnableAutoReplan(const QueryHandle& h, const Sql& sql,
                                  QueryPlan plan, const PlanExplain& explain) {
  ReplanTask task;
  task.handle = h.state_;
  task.sql = sql;
  task.fingerprint = explain.Fingerprint();
  task.period = std::max(QueryExecutor::EffectiveWindow(plan), kSecond);
  task.current = std::move(plan);
  uint64_t qid = h.id();
  replans_[qid] = std::move(task);
  ScheduleReplanCheck(qid);
}

void PierClient::ScheduleReplanCheck(uint64_t query_id) {
  auto it = replans_.find(query_id);
  if (it == replans_.end()) return;
  it->second.timer = qp_->vri()->ScheduleEvent(
      it->second.period, [this, query_id]() { ReplanTick(query_id); });
}

void PierClient::ReplanTick(uint64_t query_id) {
  auto it = replans_.find(query_id);
  if (it == replans_.end()) return;
  ReplanTask& task = it->second;
  task.timer = 0;
  std::shared_ptr<QueryHandle::State> state = task.handle.lock();
  if (!state || state->stats.done) {
    replans_.erase(it);  // query over (timeout or Cancel): stop checking
    return;
  }
  // Recompile the logical query under TODAY's statistics, with the running
  // query's id pinned so rendezvous namespaces stay stable, and ask the
  // optimizer whether the new decision is worth a swap.
  PlanExplain explain;
  Result<QueryPlan> fresh = CompileSqlPinned(task.sql, query_id, &explain);
  if (fresh.ok()) {
    Optimizer optimizer = MakeOptimizer();
    ReplanDecision d = optimizer.Consider(task.current, task.fingerprint,
                                          *fresh, explain, kReplanCostRatio);
    if (d.swap) {
      QueryPlan next = std::move(*fresh);
      Status s = CheckTablesKnown(next);
      if (s.ok()) s = qp_->SwapQuery(query_id, next);
      if (s.ok()) {
        task.current = std::move(next);
        task.fingerprint = explain.Fingerprint();
        state->stats.replans++;
      }
    }
  }
  ScheduleReplanCheck(query_id);
}

Result<QueryHandle> PierClient::StartStatsRefresh(TimeUs window,
                                                  TimeUs lifetime) {
  if (stats_refresh_.valid() && !stats_refresh_.done()) return stats_refresh_;
  // The SQL round trip below formats whole milliseconds, so that is the
  // resolution this API honestly offers.
  if (window < kMillisecond || lifetime < kMillisecond)
    return Status::InvalidArgument(
        "refresh window/lifetime must be at least 1ms");
  Sql refresh("SELECT * FROM " + std::string(kSysStatsTable) + " TIMEOUT " +
              std::to_string(lifetime / kMillisecond) + "ms WINDOW " +
              std::to_string(window / kMillisecond) + "ms CONTINUOUS");
  PIER_ASSIGN_OR_RETURN(QueryHandle h, Query(refresh));
  StatsRegistry* registry = stats_;
  h.OnTuple([registry](const Tuple& row) {
    // Best effort: a malformed row is dropped, like everywhere else in the
    // soft-state path. Own-origin rows are skipped, not re-folded.
    (void)registry->FoldForeign(row);
  });
  stats_refresh_ = h;
  return h;
}

Result<QueryHandle> PierClient::QueryByIndex(const std::string& table,
                                             const std::string& attr,
                                             const Value& v, TimeUs timeout) {
  const TableSpec* spec = catalog_->Find(table);
  if (spec == nullptr)
    return Status::NotFound("table '" + table + "' is not in the catalog");
  const SecondaryIndexSpec* idx = spec->FindSecondaryIndex(attr);
  if (idx == nullptr)
    return Status::NotFound("table '" + table +
                            "' has no secondary index on '" + attr + "'");

  // scan(index) -> selection(attr = v) -> fetch base by locator -> result.
  // The graph travels only to the index partition's owner (§3.3.3).
  QueryPlan plan;
  plan.timeout = timeout;
  OpGraph& g = plan.AddGraph();
  g.dissem = DissemKind::kEquality;
  g.dissem_ns = idx->table;
  Tuple probe(idx->table);
  probe.Append(attr, v);
  g.dissem_key = probe.PartitionKey({attr});

  OpSpec& scan = g.AddOp(OpKind::kScan);
  scan.Set("ns", idx->table);
  uint32_t tail = scan.id;
  OpSpec& sel = g.AddOp(OpKind::kSelection);
  sel.SetExpr("pred",
              Expr::Cmp(CmpOp::kEq, Expr::Column(attr), Expr::Const(v)));
  g.Connect(tail, sel.id, 0);
  tail = sel.id;
  OpSpec& fetch = g.AddOp(OpKind::kFetchMatches);
  fetch.Set("table", table);
  fetch.SetExpr("key_expr", Expr::Column("base_key"));
  fetch.SetInt("raw_key", 1);  // the locator IS the partition key string
  g.Connect(tail, fetch.id, 0);
  tail = fetch.id;
  OpSpec& res = g.AddOp(OpKind::kResult);
  g.Connect(tail, res.id, 0);

  return Submit(std::move(plan));
}

QueryProcessor::TupleCallback PierClient::MakeOnTuple(
    std::shared_ptr<QueryHandle::State> state) {
  return [state](const Tuple& t) {
    // Answers can still be in flight (queued router messages, a
    // flush loop mid-emission) when Cancel() completes the handle;
    // a done handle must ignore them instead of mutating the
    // buffer or re-invoking on_tuple.
    if (state->stats.done) return;
    state->stats.tuples++;
    TimeUs latency = state->qp->vri()->Now() - state->stats.submitted_at;
    if (state->stats.first_tuple_latency < 0)
      state->stats.first_tuple_latency = latency;
    state->stats.last_tuple_latency = latency;
    if (state->on_tuple) {
      state->on_tuple(t);
    } else if (state->buffer.size() < QueryHandle::kMaxBuffered) {
      state->buffer.push_back(t);
    } else {
      state->stats.dropped++;
    }
  };
}

QueryProcessor::DoneCallback PierClient::MakeOnDone(
    std::shared_ptr<QueryHandle::State> state) {
  return [state]() {
    state->stats.done = true;
    if (state->on_done) state->on_done();
  };
}

Status PierClient::CheckTablesKnown(const QueryPlan& plan) const {
  // Namespaces the plan itself produces (rendezvous stages like "q<id>.agg")
  // are exempt: only externally-sourced tables need published metadata.
  std::set<std::string> produced;
  for (const OpGraph& g : plan.graphs) {
    for (const OpSpec& op : g.ops) {
      if (op.kind == OpKind::kPut || op.kind == OpKind::kMaterializer ||
          op.kind == OpKind::kBloomCreate) {
        produced.insert(op.GetString("ns"));
      }
    }
  }
  // A relation (scan / newdata / probe / fetch-matches target) and a PHT
  // range table are distinct stores: scanning a PHT namespace can never
  // produce tuples, so each role is checked against its own registry.
  auto check = [&](const std::string& table, bool range) -> Status {
    if (table.empty() || produced.count(table) > 0 ||
        (range ? catalog_->KnowsRangeTable(table)
               : catalog_->KnowsRelation(table))) {
      return Status::Ok();
    }
    return Status::NotFound("query reads table '" + table + "' as a " +
                            (range ? "range index" : "relation") +
                            " but no such metadata was ever published for it");
  };
  for (const OpGraph& g : plan.graphs) {
    for (const OpSpec& op : g.ops) {
      if (op.kind == OpKind::kScan || op.kind == OpKind::kNewData ||
          op.kind == OpKind::kBloomProbe) {
        PIER_RETURN_IF_ERROR(check(op.GetString("ns"), false));
      } else if (op.kind == OpKind::kFetchMatches) {
        PIER_RETURN_IF_ERROR(check(op.GetString("table"), false));
      }
    }
    if (g.dissem == DissemKind::kRange)
      PIER_RETURN_IF_ERROR(check(g.dissem_ns, true));
  }
  return Status::Ok();
}

Result<QueryHandle> PierClient::Submit(QueryPlan plan) {
  PIER_RETURN_IF_ERROR(CheckTablesKnown(plan));
  auto state = std::make_shared<QueryHandle::State>();
  state->qp = qp_;
  state->run = run_;
  state->runs_for = plan.timeout + QueryExecutor::FlushTail(plan);
  state->stats.submitted_at = qp_->vri()->Now();

  // Capture the estimate while the plan is still here: ExplainAnalyze later
  // compares it against the metered actuals without recompiling.
  MakeOptimizer().CostPlan(plan, &state->estimate);

  PIER_ASSIGN_OR_RETURN(uint64_t qid,
                        qp_->SubmitQuery(std::move(plan), MakeOnTuple(state),
                                         MakeOnDone(state)));
  state->id = qid;
  RequestFinalCosts(state);
  return QueryHandle(std::move(state));
}

void PierClient::RequestFinalCosts(std::shared_ptr<QueryHandle::State> state) {
  uint64_t qid = state->id;
  (void)state->qp->SetCostsCallback(
      qid, [state](const QueryCostReport& report) {
        state->costs = report;
        state->have_costs = true;
        state->stats.op_tuples = report.total.tuples_out;
        state->stats.op_msgs = report.total.msgs;
        state->stats.op_bytes = report.total.bytes;
      });
}

Result<QueryHandle> PierClient::Attach(uint64_t query_id) {
  auto state = std::make_shared<QueryHandle::State>();
  state->qp = qp_;
  state->run = run_;
  state->stats.submitted_at = qp_->vri()->Now();
  state->id = query_id;

  QueryPlan plan;
  PIER_RETURN_IF_ERROR(qp_->AttachClient(query_id, MakeOnTuple(state),
                                         MakeOnDone(state), &plan));
  // Wait()/Collect() pace themselves off `runs_for` from `submitted_at`;
  // for an attached handle that is the REMAINING lifetime, not the
  // original.
  state->runs_for = std::max<TimeUs>(
      0, plan.deadline_us + QueryExecutor::FlushTail(plan) -
             qp_->vri()->Now());
  // The adopting proxy keeps its own meter; re-estimate from the recovered
  // plan so ExplainAnalyze works on attached handles too.
  MakeOptimizer().CostPlan(plan, &state->estimate);
  RequestFinalCosts(state);
  return QueryHandle(std::move(state));
}

}  // namespace pier
