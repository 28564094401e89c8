#include "qp/query_processor.h"

#include "obs/metrics.h"
#include "util/logging.h"

namespace pier {

QueryProcessor::QueryProcessor(Vri* vri, Dht* dht) : vri_(vri), dht_(dht) {
  executor_ = std::make_unique<QueryExecutor>(vri_, dht_, this);
  OverlayRouter* router = dht_->router();

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
  for (uint64_t t : {client->done_timer, client->attach_timer}) {
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
  // A freshly submitted query has not been adopted, whatever a recycled
  // plan object carried.
  plan.proxy_epoch = 0;
  // Fix the query's end as an absolute instant: every re-dissemination (plan
  // swaps above all) carries it, so a node that first sees a later
  // generation closes the query at the same instant, not a full timeout
  // later (§3.3.2's "timeout specified in the query", made absolute).
  if (plan.deadline_us == 0) plan.deadline_us = vri_->Now() + plan.timeout;
  PIER_RETURN_IF_ERROR(plan.Validate());
  if (plan.replicas > Dht::kMaxReplicationFactor)
    return Status::InvalidArgument(
        "plan wants " + std::to_string(plan.replicas) +
        " replicas but the overlay can place at most " +
        std::to_string(Dht::kMaxReplicationFactor));
  stats_.queries_submitted++;

  ClientQuery client;
  if (on_tuple)
    client.on_tuple =
        std::make_shared<const TupleCallback>(std::move(on_tuple));
  client.on_done = std::move(on_done);
  uint64_t qid = plan.query_id;
  client.done_timer = ArmDoneTimer(plan);
  if (plan.continuous) client.plan = plan;
  clients_[qid] = std::move(client);
  BindQueryMetrics(&clients_[qid], qid);
  if (plan.continuous) StoreDurablePlan(plan);

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
    const QueryPlan& meta, std::function<void(Result<QueryPlan>)> on_record) {
  dht_->Get(
      kPlanNs, std::to_string(meta.query_id),
      [on_record = std::move(on_record)](const Status& s,
                                         std::vector<DhtItem> items) {
        if (!s.ok()) return on_record(s);
        if (items.empty()) return on_record(Status::NotFound("no record"));
        on_record(QueryPlan::Decode(items[0].value));
      },
      meta.replicas);
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
  // A swap replaces the opgraphs, not the query's clock: the window, like
  // the deadline and timeout, is fixed at submission, and every flush
  // instant derives from the three (QueryExecutor::NextFlush). A plan
  // compiled with another WINDOW would move some nodes' flushes off the
  // boundaries the others keep. The adoption epoch also survives a swap
  // unchanged.
  new_plan.window = current.window;
  new_plan.deadline_us = current.deadline_us;
  new_plan.timeout = current.timeout;
  new_plan.proxy_epoch = current.proxy_epoch;
  // Swap-time catch-up high-water mark: the swapped-in generation's access
  // methods skip soft state stored before this instant — the generation
  // being replaced already counted that history in its windows, and
  // re-reading it would double-count the first post-swap window.
  new_plan.catchup_floor_us = vri_->Now();
  PIER_RETURN_IF_ERROR(new_plan.Validate());
  current = new_plan;
  StoreDurablePlan(current);
  Disseminate(current);
  // With no broadcast graph the new generation reaches only its own nodes,
  // so the nodes running the old one would never hear of it: announce it
  // graphless, and each reads the record (StartGraphs' missed-swap branch).
  bool broadcast = false;
  for (const OpGraph& g : current.graphs)
    broadcast |= g.dissem == DissemKind::kBroadcast;
  if (!broadcast) BroadcastMetadata(current);
  return Status::Ok();
}

uint64_t QueryProcessor::ArmDoneTimer(const QueryPlan& plan) {
  const TimeUs end = plan.deadline_us + QueryExecutor::FlushTail(plan);
  const uint64_t query_id = plan.query_id;
  return vri_->ScheduleEvent(
      std::max<TimeUs>(0, end - vri_->Now()) + kDoneSlack,
      [this, query_id]() {
        auto it = clients_.find(query_id);
        if (it == clients_.end()) return;
        DoneCallback done = EndClient(it);
        if (done) done();
      });
}

void QueryProcessor::AdoptQuery(QueryPlan meta) {
  if (!meta.continuous) return;
  const uint64_t qid = meta.query_id;
  if (clients_.count(qid) > 0) return;  // already this node's
  stats_.adoptions++;
  PIER_LOG(kInfo) << "adopting proxy role for query " << qid << " from "
                  << meta.proxy.ToString();

  ClientQuery client;
  client.adopted_from = meta.proxy;
  client.plan = std::move(meta);
  client.plan.proxy = dht_->local_address();
  client.plan.proxy_epoch++;
  // The query's lifetime is unchanged by adoption: the done timer fires
  // from the ORIGINAL absolute deadline, exactly like the dead proxy's
  // would have.
  client.done_timer = ArmDoneTimer(client.plan);
  client.attach_timer = ArmAttachGrace(qid);
  clients_[qid] = std::move(client);
  BindQueryMetrics(&clients_[qid], qid);

  // The durable record is the plan's authority: a record read for stray
  // answers is `meta` itself, otherwise it is read now. A tombstone
  // un-adopts. A record at least as new as this node's view supplies the
  // whole plan (this node may have missed a swap), and only
  // the proxy identity is this node's; it is stored again naming this node,
  // so the owner of THIS node's id adopts in turn if it leaves. An older or
  // unreadable record is never overwritten. Then the adoption is announced:
  // a metadata broadcast with the advanced proxy_epoch re-targets every
  // executor's answers at this node, and this node's own executor follows
  // at once.
  auto take_record = [this, qid](Result<QueryPlan> record) {
    auto cit = clients_.find(qid);
    if (cit == clients_.end()) return;
    if (record.ok() && record->cancelled) {
      PIER_LOG(kInfo) << "un-adopting query " << qid
                      << ": its record is a cancel tombstone";
      CancelQuery(qid);
      return;
    }
    QueryPlan& plan = cit->second.plan;
    if (record.ok() && record->generation >= plan.generation) {
      const uint32_t epoch =
          std::max(plan.proxy_epoch, record->proxy_epoch + 1);
      plan = std::move(*record);
      plan.proxy = dht_->local_address();
      plan.proxy_epoch = epoch;
      StoreDurablePlan(plan);
    }
    Status local = executor_->StartGraphs(BroadcastMetadata(plan), {});
    if (!local.ok()) {
      PIER_LOG(kWarn) << "local adoption rejected: " << local.ToString();
    }
  };
  QueryPlan& plan = clients_[qid].plan;
  if (!plan.graphs.empty()) {
    take_record(plan);
  } else {
    ReadDurablePlan(plan, take_record);
  }
}

uint64_t QueryProcessor::ArmAttachGrace(uint64_t query_id) {
  // An orphan ends by one rule: no client within the grace, no query. An
  // adoption the ring has taken back (the node it was adopted from owns
  // its id again) is first reviewed, and waits one more grace.
  return vri_->ScheduleEvent(kAttachGrace, [this, query_id]() {
    auto it = clients_.find(query_id);
    if (it == clients_.end()) return;
    ClientQuery& c = it->second;
    c.attach_timer = 0;
    if (!c.adopted_from.IsNull() && !OwnsIdOf(c.adopted_from)) {
      c.attach_timer = ArmAttachGrace(query_id);
      ReviewAdoption(query_id);  // may hand back, and end `c`, at once
      return;
    }
    PIER_LOG(kInfo) << "cancelling adopted query " << query_id
                    << ": no client attached";
    CancelQuery(query_id);
  });
}

bool QueryProcessor::OwnsIdOf(const NetAddress& node) const {
  return dht_->router()->protocol()->IsOwner(
      NodeIdFromAddress(node.host, node.port));
}

void QueryProcessor::FollowRing(const QueryPlan& meta) {
  const NetAddress& proxy = meta.proxy;
  if (proxy.IsNull()) return;
  if (proxy != dht_->local_address()) {
    // This node owns the proxy's id: the proxy has left the ring.
    if (OwnsIdOf(proxy)) AdoptQuery(meta);
    return;
  }
  auto it = clients_.find(meta.query_id);
  if (it != clients_.end() && !it->second.adopted_from.IsNull() &&
      !OwnsIdOf(it->second.adopted_from))
    ReviewAdoption(meta.query_id);
}

void QueryProcessor::ReviewAdoption(uint64_t query_id) {
  ClientQuery& c = clients_.at(query_id);
  if (c.reviewing) return;
  c.reviewing = true;
  const NetAddress from = c.adopted_from;
  dht_->router()->Lookup(
      NodeIdFromAddress(from.host, from.port),
      [this, query_id, from](const Result<OverlayRouter::Owner>& owner) {
        auto it = clients_.find(query_id);
        if (it == clients_.end()) return;
        it->second.reviewing = false;
        if (!owner.ok() || owner->address == dht_->local_address()) return;
        if (owner->address == from) {
          HandBack(it);
        } else {
          // A node that joined since owns that id: this adoption stands.
          it->second.adopted_from = NetAddress();
        }
      });
}

void QueryProcessor::HandBack(std::map<uint64_t, ClientQuery>::iterator it) {
  // The node this one adopted the query from is alive and owns its id: the
  // adoption rested on a ring view that has since healed. Name it the proxy
  // again, under the next epoch, and end this node's record without a
  // cancel: the query goes on at the node whose client never left.
  const uint64_t qid = it->first;
  stats_.handbacks++;
  QueryPlan plan = it->second.plan;
  PIER_LOG(kInfo) << "handing query " << qid << " back to "
                  << it->second.adopted_from.ToString();
  plan.proxy = it->second.adopted_from;
  plan.proxy_epoch++;
  if (!plan.graphs.empty()) StoreDurablePlan(plan);
  QueryPlan meta = BroadcastMetadata(std::move(plan));
  DoneCallback done = EndClient(it);
  Status local = executor_->StartGraphs(meta, {});
  if (!local.ok()) {
    PIER_LOG(kWarn) << "local hand-back rejected: " << local.ToString();
  }
  if (done) done();
}

void QueryProcessor::AdoptFromRecord(uint64_t query_id) {
  // Answers for a query this node does not proxy may come from any peer,
  // so the reads they cause are bounded: one per query at a time, a few in
  // total, and none again for a while once a record said no.
  const TimeUs now = vri_->Now();
  auto miss = record_misses_.find(query_id);
  if (miss != record_misses_.end()) {
    if (now < miss->second) return;
    record_misses_.erase(miss);
  }
  if (record_reads_.size() >= kMaxRecordReads ||
      !record_reads_.insert(query_id).second)
    return;
  stats_.record_reads++;
  QueryPlan meta;
  meta.query_id = query_id;
  meta.replicas = Dht::kMaxReplicationFactor;
  ReadDurablePlan(meta, [this, query_id](Result<QueryPlan> record) {
    record_reads_.erase(query_id);
    const TimeUs now = vri_->Now();
    // Adopt when the record's proxy id falls in this node's range: the
    // proxy left and this node succeeds it, or the record names this node,
    // which holds no client for it (it lost its state in a restart).
    if (record.ok() && !record->cancelled && record->deadline_us > now &&
        OwnsIdOf(record->proxy)) {
      AdoptQuery(std::move(*record));
      return;
    }
    // A finished record stays finished until it drains; anything else may
    // change sooner (the ring may yet hand this node the proxy's id).
    TimeUs until = now + kRecordMissTtl;
    if (record.ok() && (record->cancelled || record->deadline_us <= now))
      until = std::max(until, record->deadline_us + kDoneSlack);
    if (record_misses_.size() >= kMaxRecordMisses) {
      for (auto m = record_misses_.begin(); m != record_misses_.end();)
        m = m->second <= now ? record_misses_.erase(m) : std::next(m);
    }
    if (record_misses_.size() < kMaxRecordMisses)
      record_misses_[query_id] = until;
  });
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
  if (c.attach_timer != 0) {
    vri_->CancelEvent(c.attach_timer);
    c.attach_timer = 0;
  }
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
      // proxy, or the owner of this node's id would adopt it when this node
      // leaves and keep it running to the deadline. Broadcast a tombstone
      // (bumped generation, no graphs); executors that miss it run to the
      // deadline.
      QueryPlan tomb = it->second.plan;
      tomb.generation++;
      tomb.cancelled = true;
      // And the DURABLE tombstone: it overwrites the plan record, so a node
      // that missed the broadcast and adopts later reads it and un-adopts.
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
  // A hand-back names this node the proxy again under a later epoch: its
  // own record takes the epoch, so its next swap outranks the
  // adoption at every executor.
  auto cit = clients_.find(meta.query_id);
  if (cit != clients_.end() && meta.proxy == dht_->local_address() &&
      meta.proxy_epoch > cit->second.plan.proxy_epoch)
    cit->second.plan.proxy_epoch = meta.proxy_epoch;
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
  if (clients_.count(qid) == 0) {
    // An answer for a query this node does not proxy: a late one after done
    // or cancel, or one whose sender's forward to a dead proxy gave up and
    // found this node owning that proxy's id. The record tells which.
    AdoptFromRecord(qid);
    return;
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
