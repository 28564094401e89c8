#include "qp/query_processor.h"

#include "obs/metrics.h"
#include "util/logging.h"

namespace pier {

QueryProcessor::QueryProcessor(Vri* vri, Dht* dht) : vri_(vri), dht_(dht) {
  executor_ = std::make_unique<QueryExecutor>(vri_, dht_, this);
  OverlayRouter* router = dht_->router();

  // Lease probe: does this node still proxy the query? A reachable node
  // that does NOT (a successor that never adopted because it runs none of
  // the query's graphs, or a proxy whose record ended — a missed cancel
  // tombstone) says so, and the probing executor's walk moves past it.
  router->RegisterDirectType(
      QueryExecutor::kMsgLeaseProbe,
      [this](const NetAddress& from, std::string_view body) {
        WireReader r(body);
        uint64_t qid;
        if (!r.GetU64(&qid).ok()) return;
        WireWriter w =
            OverlayRouter::FrameMessage(QueryExecutor::kMsgLeaseProbeResp);
        w.PutU64(qid);
        w.PutU8(clients_.count(qid) > 0 ? 1 : 0);
        dht_->router()->SendFramed(from, std::move(w).data());
      });

  // Broadcast dissemination arrives through the router's broadcast.
  router->set_broadcast_handler([this](std::string_view payload) {
    HandleDisseminationBlob(payload);
  });

  // Targeted (equality) dissemination arrives as a stored object.
  dissem_sub_ = dht_->OnNewData(
      kDissemNs, [this](const ObjectName&, std::string_view value) {
        HandleDisseminationBlob(value);
      });

  // Final cost snapshots from executors tearing a query down.
  router->RegisterDirectType(
      QueryExecutor::kMsgQueryCosts,
      [this](const NetAddress& from, std::string_view body) {
        WireReader r(body);
        uint64_t qid;
        if (!r.GetU64(&qid).ok()) return;
        std::map<QueryMeter::Key, OpCost> snapshot;
        if (QueryMeter::DecodeSnapshot(&r, &snapshot))
          NoteCosts(qid, from, std::move(snapshot));
      });

  // Answer batches from executing nodes.
  router->RegisterDirectType(
      QueryExecutor::kMsgAnswerBatch,
      [this](const NetAddress& from, std::string_view body) {
        HandleAnswerBatchMsg(from, body);
      });
}

QueryProcessor::~QueryProcessor() {
  if (dissem_sub_) dht_->CancelNewData(dissem_sub_);
  dht_->router()->set_broadcast_handler(nullptr);
  for (auto& [qid, c] : clients_) Release(&c);
}

void QueryProcessor::Release(ClientQuery* client) {
  for (uint64_t t : {client->done_timer, client->lease_timer}) {
    if (t) vri_->CancelEvent(t);
  }
}

QueryProcessor::DoneCallback QueryProcessor::EndClient(
    std::map<uint64_t, ClientQuery>::iterator it) {
  uint64_t qid = it->first;
  Release(&it->second);
  EmitFinalCosts(&it->second, qid);
  if (metrics_ != nullptr)
    metrics_->Remove("pier_query_answers_total",
                     {{"qid", std::to_string(qid)}});
  DoneCallback done = std::move(it->second.on_done);
  clients_.erase(it);
  return done;
}

Pht* QueryProcessor::PhtFor(const std::string& table, int key_bits) {
  std::string id = table + "/" + std::to_string(key_bits);
  auto it = phts_.find(id);
  if (it == phts_.end()) {
    Pht::Options popts;
    popts.table = table;
    popts.key_bits = key_bits;
    // Trie markers live at least as long as a default publish
    // (PierClient::kPublishLifetime, ten minutes).
    popts.lifetime = 10LL * 60 * kSecond;
    it = phts_.emplace(id, std::make_unique<Pht>(dht_, popts)).first;
  }
  return it->second.get();
}

void QueryProcessor::PublishRange(const std::string& pht_table,
                                  const std::string& key_attr, const Tuple& t,
                                  int key_bits, TimeUs lifetime) {
  const Value* v = t.Get(key_attr);
  if (v == nullptr) return;
  Result<int64_t> key = v->AsInt64();
  if (!key.ok() || *key < 0) return;
  PhtFor(pht_table, key_bits)
      ->Insert(static_cast<uint64_t>(*key), t.Encode(), nullptr, lifetime);
}

Result<uint64_t> QueryProcessor::SubmitQuery(QueryPlan plan,
                                             TupleCallback on_tuple,
                                             DoneCallback on_done) {
  if (plan.query_id == 0) {
    plan.query_id = vri_->rng()->Next();
    if (plan.query_id == 0) plan.query_id = 1;
  }
  plan.proxy = dht_->local_address();
  // A freshly submitted query starts the failover chain at its original
  // proxy, whatever a recycled plan object carried.
  plan.proxy_epoch = 0;
  // Fix the query's end as an absolute instant: every re-dissemination (plan
  // swaps above all) carries it, so a node that first sees a later
  // generation closes the query at the same instant, not a full timeout
  // later (§3.3.2's "timeout specified in the query", made absolute).
  if (plan.deadline_us == 0) plan.deadline_us = vri_->Now() + plan.timeout;
  PIER_RETURN_IF_ERROR(plan.Validate());
  if (plan.replicas > dht_->max_replication_factor())
    return Status::InvalidArgument(
        "plan wants " + std::to_string(plan.replicas) +
        " replicas but the overlay can place at most " +
        std::to_string(dht_->max_replication_factor()));
  stats_.queries_submitted++;

  ClientQuery client;
  if (on_tuple)
    client.on_tuple =
        std::make_shared<const TupleCallback>(std::move(on_tuple));
  client.on_done = std::move(on_done);
  uint64_t qid = plan.query_id;
  client.done_timer = ArmDoneTimer(qid, plan.timeout);
  if (plan.continuous) client.plan = plan;
  clients_[qid] = std::move(client);
  BindQueryMetrics(&clients_[qid], qid);
  if (plan.continuous) {
    StartLeaseRefresh(qid);
    StoreDurablePlan(plan);
  }

  Disseminate(plan);
  return qid;
}

void QueryProcessor::StoreDurablePlan(const QueryPlan& plan) {
  // The full plan (graphs included) or the cancel tombstone, replicated like
  // any other soft state: a reader finds it even when the storing node is
  // the dead proxy itself. Lifetime = the query's remaining life.
  TimeUs remaining =
      std::max<TimeUs>(kMillisecond, plan.deadline_us - vri_->Now());
  dht_->Put(kPlanNs, std::to_string(plan.query_id), "p", plan.Encode(),
            remaining + kDoneSlack, nullptr, plan.replicas);
}

void QueryProcessor::ReadDurablePlan(
    const QueryPlan& meta, std::function<void(QueryPlan)> on_record) {
  dht_->Get(
      kPlanNs, std::to_string(meta.query_id),
      [on_record = std::move(on_record)](const Status& s,
                                         std::vector<DhtItem> items) {
        if (!s.ok() || items.empty()) return;
        Result<QueryPlan> record = QueryPlan::Decode(items[0].value);
        if (record.ok()) on_record(std::move(*record));
      },
      meta.replicas);
}

Status QueryProcessor::RewindowQuery(uint64_t query_id, TimeUs window) {
  if (window <= 0) return Status::InvalidArgument("window must be positive");
  auto it = clients_.find(query_id);
  if (it == clients_.end())
    return Status::NotFound("not this node's running query");
  if (!it->second.plan.continuous)
    return Status::NotSupported("only continuous queries can be rewindowed");
  QueryPlan& plan = it->second.plan;
  plan.window = window;
  // Metadata-only refresh: same generation, no graphs. Every node running
  // the query's opgraphs adopts the window at its next boundary; nodes that
  // never saw the query ignore it (the executor refuses to create queries
  // from graphless plans). The local executor is updated directly so the
  // proxy does not wait a broadcast round-trip for its own graphs.
  Status local = executor_->StartGraphs(BroadcastMetadata(plan), {});
  if (!local.ok()) {
    PIER_LOG(kWarn) << "local rewindow rejected: " << local.ToString();
  }
  return Status::Ok();
}

Status QueryProcessor::SwapQuery(uint64_t query_id, QueryPlan new_plan) {
  auto it = clients_.find(query_id);
  if (it == clients_.end())
    return Status::NotFound("not this node's running query");
  if (!it->second.plan.continuous)
    return Status::NotSupported("only continuous queries can swap plans");
  if (!new_plan.continuous)
    return Status::InvalidArgument(
        "a continuous query cannot swap to a snapshot plan");
  QueryPlan& current = it->second.plan;
  new_plan.query_id = query_id;
  new_plan.proxy = dht_->local_address();
  new_plan.generation = current.generation + 1;
  // A swap replaces the opgraphs, not the window policy: a recompiled plan
  // carries the query text's original window, and disseminating that would
  // silently undo an earlier Rewindow. Window changes go through
  // RewindowQuery only. The lifetime likewise stays fixed at submission:
  // the deadline and timeout, and so the query clock, ride every generation.
  // The failover chain and lease rhythm also survive a swap unchanged — a
  // replan must not reset who may adopt the query.
  new_plan.window = current.window;
  new_plan.deadline_us = current.deadline_us;
  new_plan.timeout = current.timeout;
  new_plan.successors = current.successors;
  new_plan.proxy_epoch = current.proxy_epoch;
  new_plan.lease_period_us = current.lease_period_us;
  // Swap-time catch-up high-water mark: the swapped-in generation's access
  // methods skip soft state stored before this instant — the generation
  // being replaced already counted that history in its windows, and
  // re-reading it would double-count the first post-swap window.
  new_plan.catchup_floor_us = vri_->Now();
  PIER_RETURN_IF_ERROR(new_plan.Validate());
  current = new_plan;
  StoreDurablePlan(current);
  Disseminate(current);
  return Status::Ok();
}

uint64_t QueryProcessor::ArmDoneTimer(uint64_t query_id, TimeUs delay) {
  return vri_->ScheduleEvent(
      delay + kDoneSlack, [this, query_id]() {
        auto it = clients_.find(query_id);
        if (it == clients_.end()) return;
        DoneCallback done = EndClient(it);
        if (done) done();
      });
}

void QueryProcessor::StartLeaseRefresh(uint64_t query_id) {
  auto it = clients_.find(query_id);
  if (it == clients_.end() || !it->second.plan.continuous) return;
  if (it->second.lease_timer) return;  // already refreshing
  it->second.lease_timer =
      vri_->ScheduleEvent(QueryExecutor::EffectiveLease(it->second.plan) / 3,
                          [this, query_id]() { RefreshTick(query_id); });
}

void QueryProcessor::RefreshTick(uint64_t query_id) {
  auto it = clients_.find(query_id);
  if (it == clients_.end()) return;
  ClientQuery& c = it->second;
  // Metadata-only re-broadcast: executors running the query renew the
  // proxy's lease (and pick up the current window/epoch); everyone else
  // ignores it. The local executor hears it through the broadcast like any
  // other node.
  BroadcastMetadata(c.plan);
  c.lease_timer =
      vri_->ScheduleEvent(QueryExecutor::EffectiveLease(c.plan) / 3,
                          [this, query_id]() { RefreshTick(query_id); });
}

void QueryProcessor::AdoptQuery(const QueryPlan& meta) {
  if (!meta.continuous) return;
  if (clients_.count(meta.query_id) > 0) return;  // already this node's
  stats_.adoptions++;
  PIER_LOG(kInfo) << "adopting proxy role for query " << meta.query_id
                  << " (epoch " << meta.proxy_epoch << ")";

  ClientQuery client;
  client.plan = meta;
  client.plan.proxy = dht_->local_address();
  uint64_t qid = meta.query_id;
  // The query's lifetime is unchanged by adoption: the done timer fires at
  // the ORIGINAL absolute deadline (plus slack), exactly like the dead
  // proxy's would have.
  client.done_timer =
      ArmDoneTimer(qid, std::max<TimeUs>(0, meta.deadline_us - vri_->Now()));
  clients_[qid] = std::move(client);
  BindQueryMetrics(&clients_[qid], qid);

  // The wire metadata carries no graphs; the durable record supplies all of
  // them. Adoption is optimistic, and the record is also its correction: a
  // successor that missed the cancel broadcast adopts through lease
  // starvation, reads the tombstone, and un-adopts (an unreadable record
  // just means the query drains at its deadline).
  ReadDurablePlan(meta, [this, qid](QueryPlan record) {
    auto cit = clients_.find(qid);
    if (cit == clients_.end()) return;
    if (record.cancelled) {
      PIER_LOG(kInfo) << "un-adopting query " << qid
                      << ": its record is a cancel tombstone";
      CancelQuery(qid);
      return;
    }
    QueryPlan& plan = cit->second.plan;
    if (record.generation < plan.generation) return;  // stale copy
    plan.graphs = std::move(record.graphs);
  });

  // Announce the succession: a same-generation metadata refresh with the
  // advanced proxy_epoch re-targets every executor's answer routing at this
  // node (executors that independently walked further ignore it as stale),
  // and from now on this node refreshes the lease.
  BroadcastMetadata(clients_[qid].plan);
  StartLeaseRefresh(qid);
}

Status QueryProcessor::AttachClient(uint64_t query_id, TupleCallback on_tuple,
                                    DoneCallback on_done,
                                    QueryPlan* plan_out) {
  auto it = clients_.find(query_id);
  if (it == clients_.end())
    return Status::NotFound("this node does not proxy query " +
                            std::to_string(query_id));
  ClientQuery& c = it->second;
  // Re-attach is a continuous-query failover affordance; snapshot records
  // keep no plan, so an attached handle could not even learn the real
  // deadline (and rebinding would silently orphan the submitting handle).
  if (!c.plan.continuous)
    return Status::NotSupported("only continuous queries support re-attach");
  if (on_tuple)
    c.on_tuple = std::make_shared<const TupleCallback>(std::move(on_tuple));
  else
    c.on_tuple = nullptr;
  c.on_done = std::move(on_done);
  if (plan_out) *plan_out = c.plan;
  // Replay what arrived while the query had no client. The backlog is
  // swapped out first: the callback may Cancel() and erase the entry.
  if (c.on_tuple && !c.pending.empty()) {
    std::vector<Tuple> backlog;
    backlog.swap(c.pending);
    std::shared_ptr<const TupleCallback> cb = c.on_tuple;
    for (const Tuple& t : backlog) (*cb)(t);
  }
  return Status::Ok();
}

void QueryProcessor::CancelQuery(uint64_t query_id) {
  auto it = clients_.find(query_id);
  if (it != clients_.end()) {
    if (it->second.plan.continuous) {
      // A cancelled continuous query must be distinguishable from a DEAD
      // proxy, or its successors would adopt it and keep it running to the
      // deadline. Broadcast a tombstone (bumped generation, no graphs);
      // executors that miss it still reap by lease starvation — the lease
      // refresh stops with this record.
      QueryPlan tomb = it->second.plan;
      tomb.generation++;
      tomb.cancelled = true;
      // And the DURABLE tombstone: it overwrites the plan record, so a
      // successor that missed the broadcast and adopts through lease
      // starvation reads it and un-adopts.
      StoreDurablePlan(BroadcastMetadata(std::move(tomb)));
    }
    EndClient(it);  // the handle fires its own completion on cancel
  }
  executor_->StopQuery(query_id);
}

QueryPlan QueryProcessor::BroadcastMetadata(QueryPlan plan) {
  plan.graphs.clear();
  dht_->router()->Broadcast(plan.Encode());
  return plan;
}

void QueryProcessor::Disseminate(const QueryPlan& plan) {
  // Partition the graphs by dissemination class, then ship each class.
  QueryPlan broadcast = plan;
  broadcast.graphs.clear();
  std::vector<OpGraph> local;
  for (const OpGraph& g : plan.graphs) {
    switch (g.dissem) {
      case DissemKind::kBroadcast:
        broadcast.graphs.push_back(g);
        break;
      case DissemKind::kLocal:
        local.push_back(g);
        break;
      case DissemKind::kEquality: {
        QueryPlan one = plan;
        one.graphs = {g};
        Id target = RoutingId(g.dissem_ns, g.dissem_key);
        dht_->SendToId(target, kDissemNs,
                       std::to_string(plan.query_id) + "." +
                           std::to_string(g.id),
                       "q", one.Encode(), plan.timeout);
        break;
      }
      case DissemKind::kRange:
        StartRangeGraph(plan, g);
        break;
    }
  }
  if (!broadcast.graphs.empty()) dht_->router()->Broadcast(broadcast.Encode());
  if (!local.empty()) {
    QueryPlan meta = plan;
    meta.graphs.clear();
    Status started = executor_->StartGraphs(meta, local);
    if (!started.ok()) {
      PIER_LOG(kWarn) << "local graphs for query " << plan.query_id
                      << " rejected: " << started.ToString();
    }
  }
}

void QueryProcessor::HandleDisseminationBlob(std::string_view blob) {
  Result<QueryPlan> plan = QueryPlan::Decode(blob);
  if (!plan.ok()) {
    // Counted, and logged once: a peer sending garbage must not flood the log.
    if (stats_.malformed_broadcasts++ == 0) {
      PIER_LOG(kWarn) << "dropping malformed dissemination, logged once: "
                      << plan.status().ToString();
    }
    return;
  }
  stats_.graphs_received += plan->graphs.size();
  QueryPlan meta = *plan;
  meta.graphs.clear();
  Status started = executor_->StartGraphs(meta, plan->graphs);
  if (!started.ok()) {
    PIER_LOG(kWarn) << "disseminated graphs for query " << plan->query_id
                    << " rejected: " << started.ToString();
  }
}

void QueryProcessor::StartRangeGraph(const QueryPlan& plan, const OpGraph& g) {
  // The range graph runs at the proxy; the PHT supplies the matching tuples,
  // injected through the graph's Source placeholder (inject=1).
  QueryPlan meta = plan;
  meta.graphs.clear();
  Status started = executor_->StartGraphs(meta, {g});
  if (!started.ok()) {
    PIER_LOG(kWarn) << "range graph for query " << plan.query_id
                    << " rejected: " << started.ToString();
    return;
  }

  uint32_t inject_op = 0;
  int key_bits = 32;
  for (const OpSpec& op : g.ops) {
    if (op.kind == OpKind::kSource && op.GetInt("inject", 0) != 0) {
      inject_op = op.id;
      key_bits = static_cast<int>(op.GetInt("pht_key_bits", 32));
      break;
    }
  }
  if (inject_op == 0) {
    PIER_LOG(kWarn) << "range graph without an injectable source";
    return;
  }
  uint64_t qid = plan.query_id;
  uint32_t gid = g.id;
  PhtFor(g.dissem_ns, key_bits)->RangeQuery(
      static_cast<uint64_t>(g.dissem_lo), static_cast<uint64_t>(g.dissem_hi),
      [this, qid, gid, inject_op](const Status& s, std::vector<PhtItem> items) {
        if (!s.ok()) return;
        BatchAssembler batches;
        for (const PhtItem& item : items) {
          (void)batches.AddEncoded(item.value);  // malformed: skipped
        }
        for (const TupleBatch& b : batches.TakeBatches()) {
          // NotFound here means the query was stopped while the PHT scan
          // was in flight — late matches have nowhere to go by design.
          (void)executor_->InjectBatch(qid, gid, inject_op, b);
        }
      });
}

void QueryProcessor::DeliverAnswer(ClientQuery* client, const Tuple& t) {
  stats_.answers_delivered++;
  if (client->answers_metric != nullptr) client->answers_metric->Inc();
  // The shared_ptr copy keeps the closure alive through the call even if
  // the client Cancel()s from inside its own on_tuple (which erases the
  // clients_ entry).
  std::shared_ptr<const TupleCallback> cb = client->on_tuple;
  if (cb) {
    (*cb)(t);
    return;
  }
  // No client attached (a freshly adopted query before re-attach): hold a
  // bounded backlog so failover costs in-flight detection time, not every
  // answer until someone attaches.
  if (client->pending.size() < kPendingAnswerCap) {
    client->pending.push_back(t);
    stats_.answers_buffered++;
  }
}

void QueryProcessor::DeliverBatch(uint64_t query_id, const TupleBatch& batch) {
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    auto it = clients_.find(query_id);
    if (it == clients_.end()) return;  // client cancelled or timed out
    DeliverAnswer(&it->second, batch.RowTuple(r));
  }
}

void QueryProcessor::HandleAnswerBatchMsg(const NetAddress& from,
                                          std::string_view body) {
  WireReader r(body);
  uint64_t qid;
  if (!r.GetU64(&qid).ok()) return;
  // Zero-copy decode: string cells alias `body` for the duration of this
  // handler; every row is materialized before the frame goes away.
  Result<TupleBatch> batch = TupleBatch::DecodeFrom(&r, body);
  if (!batch.ok()) return;
  auto it = clients_.find(qid);
  if (it == clients_.end()) {
    // An answer for a query this node does not proxy: either a late answer
    // after done/cancel, or other executors already failed over to us. The
    // executor decides (and may adopt synchronously, creating the record).
    executor_->NoteStrayAnswer(qid);
    it = clients_.find(qid);
    if (it == clients_.end()) return;
  }
  // The piggybacked cost block (if the sender meters): an absolute per-op
  // snapshot that REPLACES this sender's previous one. Senders without
  // metering ship no block; a truncated block is dropped whole.
  std::map<QueryMeter::Key, OpCost> snapshot;
  if (QueryMeter::DecodeSnapshot(&r, &snapshot))
    NoteCosts(qid, from, std::move(snapshot));
  DeliverBatch(qid, *batch);
}

QueryCostReport QueryProcessor::QueryCosts(uint64_t query_id) const {
  QueryCostReport report;
  report.query_id = query_id;
  auto it = clients_.find(query_id);
  if (it == clients_.end()) return report;
  // Fold the latest snapshot from every executor, plus the local executor's
  // live ledger while the query still runs here, per (graph, op) slot.
  std::map<QueryMeter::Key, QueryCostOp> agg;
  auto fold = [&agg](const std::map<QueryMeter::Key, OpCost>& costs) {
    for (const auto& [key, cost] : costs) {
      QueryCostOp& slot = agg[key];
      slot.graph_id = key.first;
      slot.op_id = key.second;
      slot.cost += cost;
      slot.nodes++;
    }
  };
  for (const auto& [addr, costs] : it->second.costs) fold(costs);
  if (const QueryMeter* live = executor_->Meter(query_id)) fold(live->costs());
  for (auto& [key, slot] : agg) {
    report.total += slot.cost;
    report.ops.push_back(std::move(slot));
  }
  return report;
}

Status QueryProcessor::SetCostsCallback(uint64_t query_id, CostsCallback cb) {
  auto it = clients_.find(query_id);
  if (it == clients_.end())
    return Status::NotFound("this node does not proxy query " +
                            std::to_string(query_id));
  it->second.on_costs = std::move(cb);
  return Status::Ok();
}

void QueryProcessor::NoteCosts(uint64_t query_id, const NetAddress& from,
                               std::map<QueryMeter::Key, OpCost> costs) {
  auto it = clients_.find(query_id);
  if (it == clients_.end()) return;  // late report after done/cancel
  it->second.costs[from] = std::move(costs);
}

void QueryProcessor::EmitFinalCosts(ClientQuery* client, uint64_t query_id) {
  if (!client->on_costs) return;
  // Move the callback out first: QueryCosts is const, but the callback
  // itself may re-enter (e.g. Cancel), and must fire exactly once.
  CostsCallback cb = std::move(client->on_costs);
  client->on_costs = nullptr;
  cb(QueryCosts(query_id));
}

void QueryProcessor::BindQueryMetrics(ClientQuery* client, uint64_t query_id) {
  if (metrics_ == nullptr) return;
  client->answers_metric = metrics_->GetCounter(
      "pier_query_answers_total", {{"qid", std::to_string(query_id)}},
      "Answer tuples delivered to the local client, by query");
}

void QueryProcessor::set_metrics(MetricsRegistry* metrics) {
  metrics_ = metrics;
  executor_->set_metrics(metrics);
}

}  // namespace pier
