#include "qp/executor.h"

#include <algorithm>

#include "obs/metrics.h"
#include "qp/query_processor.h"
#include "util/logging.h"

namespace pier {

OpGraphInstance::OpGraphInstance(ExecContext cx, OpGraph graph)
    : cx_(std::move(cx)), graph_(std::move(graph)) {}

OpGraphInstance::~OpGraphInstance() { Close(); }

Status OpGraphInstance::Build() {
  PIER_RETURN_IF_ERROR(graph_.Validate());
  for (const OpSpec& spec : graph_.ops) {
    PIER_ASSIGN_OR_RETURN(std::unique_ptr<Operator> op, MakeOperator(spec));
    PIER_RETURN_IF_ERROR(op->Init(&cx_));
    by_id_[spec.id] = op.get();
    ops_.push_back(std::move(op));
  }
  for (const GraphEdge& e : graph_.edges) {
    Operator* from = by_id_[e.from];
    Operator* to = by_id_[e.to];
    from->AddOutput(to, e.port);
    to->AddChild(from);
  }
  // Topological order (sources first) for deterministic flush propagation.
  std::map<uint32_t, int> in_degree;
  for (const OpSpec& spec : graph_.ops) in_degree[spec.id] = 0;
  for (const GraphEdge& e : graph_.edges) in_degree[e.to]++;
  std::vector<std::unique_ptr<Operator>> ordered;
  std::vector<uint32_t> ready;
  for (auto& [id, deg] : in_degree) {
    if (deg == 0) ready.push_back(id);
  }
  std::map<uint32_t, std::unique_ptr<Operator>> pool;
  for (auto& op : ops_) pool[op->spec().id] = std::move(op);
  while (!ready.empty()) {
    uint32_t id = ready.back();
    ready.pop_back();
    ordered.push_back(std::move(pool[id]));
    pool.erase(id);
    for (const GraphEdge& e : graph_.edges) {
      if (e.from != id) continue;
      if (--in_degree[e.to] == 0) ready.push_back(e.to);
    }
  }
  // Cycles (recursive UFL graphs) are representable but not executable here;
  // append the remainder in id order so Close still reaches every op.
  for (auto& [id, op] : pool) {
    if (op) ordered.push_back(std::move(op));
  }
  ops_ = std::move(ordered);
  return Status::Ok();
}

void OpGraphInstance::Start() {
  for (auto& op : ops_) op->Open();
}

void OpGraphInstance::Flush() {
  for (auto& op : ops_) op->Flush();
}

void OpGraphInstance::Close() {
  if (closed_) return;
  closed_ = true;
  for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) (*it)->Close();
}

Operator* OpGraphInstance::FindOp(uint32_t op_id) {
  auto it = by_id_.find(op_id);
  return it != by_id_.end() ? it->second : nullptr;
}

QueryExecutor::QueryExecutor(Vri* vri, Dht* dht, QueryProcessor* proxy)
    : vri_(vri), dht_(dht), proxy_(proxy) {
  dht_->router()->RegisterDirectType(
      kMsgLeaseProbeResp, [this](const NetAddress& from,
                                 std::string_view body) {
        WireReader r(body);
        uint64_t qid;
        uint8_t proxying;
        if (!r.GetU64(&qid).ok() || !r.GetU8(&proxying).ok()) return;
        ResolveProbe(qid, from,
                     proxying ? ProbeVerdict::kProxying
                              : ProbeVerdict::kNotProxying);
      });
}

QueryExecutor::~QueryExecutor() {
  for (auto& [qid, rq] : queries_) Release(&rq);
}

void QueryExecutor::Release(RunningQuery* rq) {
  for (uint64_t t : rq->one_shots) vri_->CancelEvent(t);
  for (uint64_t t : {rq->clock, rq->lease_timer, rq->probe.timeout}) {
    if (t) vri_->CancelEvent(t);
  }
  for (auto& inst : rq->instances) inst->Close();
}

TimeUs QueryExecutor::EffectiveWindow(const QueryPlan& meta) {
  if (meta.window <= 0)
    return std::max(kMinWindow, std::min(kDefaultWindow, meta.timeout / 4));
  return std::max(meta.window, kMinWindow);
}

TimeUs QueryExecutor::NextFlush(const QueryPlan& meta, int32_t stage,
                                TimeUs now) {
  const TimeUs origin = meta.deadline_us - meta.timeout;
  if (!meta.continuous) return origin + (stage + 1) * (meta.timeout / 4);
  const TimeUs w = EffectiveWindow(meta), offset = stage * (w / 4);
  // The first k whose instant lies after `now` (k = 0 before the first).
  const TimeUs k = std::max<TimeUs>(0, (now - origin - offset) / w);
  return origin + (k + 1) * w + offset;
}

TimeUs QueryExecutor::EffectiveLease(const QueryPlan& meta) {
  if (meta.lease_period_us <= 0) return kDefaultLeasePeriod;
  return std::max(meta.lease_period_us, kMinLeasePeriod);
}

Status QueryExecutor::StartGraphs(const QueryPlan& meta,
                                  const std::vector<OpGraph>& graphs) {
  // A cancel tombstone: the proxy ended the query on purpose. Tear down
  // without starting the successor walk; stale tombstones from a superseded
  // generation are ignored.
  if (meta.cancelled) {
    auto cit = queries_.find(meta.query_id);
    if (cit != queries_.end() &&
        meta.generation >= cit->second.meta.generation)
      DoStop(meta.query_id);
    return Status::Ok();
  }
  // Metadata-only refreshes (rewindowing broadcasts) must never instantiate
  // a query on nodes that do not run it.
  if (graphs.empty() && queries_.count(meta.query_id) == 0)
    return Status::Ok();
  auto [it, created] = queries_.try_emplace(meta.query_id);
  RunningQuery& rq = it->second;
  if (created) {
    rq.meta = meta;
    rq.meta.graphs.clear();
    if (metering_) {
      rq.meter = std::make_unique<QueryMeter>();
      rq.answer_cost = rq.meter->At(QueryMeter::kAnswerSlot.first,
                                    QueryMeter::kAnswerSlot.second);
    }
    RefreshLease(&rq);
    ArmLeaseTick(&rq);
  } else if (meta.generation > rq.meta.generation && graphs.empty()) {
    // A metadata-only refresh from a generation this node never received:
    // the swap broadcast was lost. Keep the stale generation running (its
    // answers are still correct), follow the refresh's proxy, and read the
    // query's durable record. Its broadcast graphs swap in under THIS
    // refresh's metadata: the record's writer may have died since, so it
    // never re-targets answers. A record that gives this node no graph
    // stops the superseded generation here. A record older than the
    // refresh, or a proxy that moved on meanwhile, changes nothing; the
    // next refresh reads again.
    if (meta.proxy_epoch < rq.meta.proxy_epoch) return Status::Ok();
    rq.meta.window = meta.window;
    FollowProxy(&rq, meta);
    proxy_->ReadDurablePlan(meta, [this, meta](QueryPlan record) {
      auto qit = queries_.find(meta.query_id);
      if (qit == queries_.end() || qit->second.meta.proxy != meta.proxy ||
          qit->second.meta.proxy_epoch != meta.proxy_epoch ||
          record.generation < meta.generation)
        return;
      std::vector<OpGraph> bcast;
      for (OpGraph& g : record.graphs) {
        if (g.dissem == DissemKind::kBroadcast) bcast.push_back(std::move(g));
      }
      // Equality, range and local graphs belong to specific nodes: with no
      // broadcast graph, the newer plan runs nothing here. Stop the older
      // generation, unless a graph of the record's own generation arrived
      // (through its dissemination) during the read.
      if (!bcast.empty()) {
        (void)StartGraphs(meta, bcast);
      } else if (qit->second.meta.generation < record.generation) {
        StopQuery(meta.query_id);
      }
    });
    return Status::Ok();
  } else if (meta.generation > rq.meta.generation) {
    // Plan swap: the old instances emit their current window's blocking
    // state (the final flush, so no operator state needs to migrate), then
    // tear down. The new generation runs under the same query id and clock:
    // SwapQuery keeps the deadline and timeout, so the clock's origin stays.
    bool had_instances = !rq.instances.empty();
    for (auto& inst : rq.instances) inst->Flush();
    for (auto& inst : rq.instances) inst->Close();
    rq.instances.clear();
    rq.meta = meta;
    rq.meta.graphs.clear();
    // The final flush above IS this node's quiesce point: everything stored
    // before this instant was counted by the generation that just flushed,
    // so the proxy-stamped catch-up floor can only be tightened by it. A
    // node whose FIRST sight is this generation keeps the wire floor as is
    // (its predecessor ran elsewhere; the proxy's stamp is the best bound).
    if (had_instances)
      rq.meta.catchup_floor_us =
          std::max(rq.meta.catchup_floor_us, vri_->Now());
    FollowProxy(&rq, meta);
  } else if (meta.generation == rq.meta.generation) {
    // Same-generation refresh: adopt a changed window (rewindowing); it
    // takes effect after each graph's next flush.
    rq.meta.window = meta.window;
    // Proxy identity moves only FORWARD along the failover chain: a refresh
    // from the current proxy (same epoch, same address) renews its lease, a
    // refresh announcing a later-epoch successor re-targets answer routing,
    // and a late refresh from a superseded proxy is ignored.
    if (meta.proxy_epoch > rq.meta.proxy_epoch ||
        (meta.proxy_epoch == rq.meta.proxy_epoch &&
         meta.proxy == rq.meta.proxy)) {
      FollowProxy(&rq, meta);
    }
  } else {
    return Status::Ok();  // stale re-dissemination of a superseded generation
  }
  for (const OpGraph& g : graphs) {
    bool duplicate = false;
    for (auto& inst : rq.instances) duplicate |= inst->graph().id == g.id;
    if (duplicate) continue;  // re-dissemination of a graph we already run

    ExecContext cx;
    cx.vri = vri_;
    cx.dht = dht_;
    cx.query_id = meta.query_id;
    cx.graph_id = g.id;
    // Soft state published by operators drains with the query: the
    // remaining lifetime shrinks the later this node joins its execution.
    cx.query_lifetime =
        std::max<TimeUs>(kMillisecond, meta.deadline_us - vri_->Now());
    // The RunningQuery's floor, not the raw wire one: a swap tightened it to
    // this node's quiesce instant above.
    cx.catchup_floor_us = rq.meta.catchup_floor_us;
    cx.replicas = rq.meta.replicas;
    // The ledger outlives a plan swap: a swapped-in generation keeps
    // accumulating into the same per-(graph, op) slots.
    cx.meter = rq.meter.get();
    uint64_t qid = meta.query_id;
    // The answer target is read at EMIT time, not instantiation time: when
    // the proxy dies mid-run, failover re-points rq.meta.proxy at a
    // successor and every already-running instance follows without a
    // re-instantiation.
    cx.emit_result = [this, qid](const TupleBatch& b) {
      ForwardAnswers(qid, b);
    };
    cx.request_stop = [this, qid]() { StopQuery(qid); };
    cx.observe_publish = publish_observer_;

    auto inst = std::make_unique<OpGraphInstance>(std::move(cx), g);
    Status s = inst->Build();
    if (!s.ok()) {
      PIER_LOG(kWarn) << "opgraph " << g.id << " of query " << meta.query_id
                      << " rejected: " << s.ToString();
      continue;  // a bad graph must not take down the node
    }
    inst->next_flush = NextFlush(rq.meta, g.flush_stage, vri_->Now());
    inst->Start();
    rq.instances.push_back(std::move(inst));
  }
  ArmClock(&rq);
  return Status::Ok();
}

void QueryExecutor::ArmClock(RunningQuery* rq) {
  // A query closes at its absolute deadline, however late this node first
  // saw it (a swapped-in later generation must not run a full timeout past
  // everyone else's close), or at once when it is stopping.
  TimeUs at = rq->stopping ? vri_->Now() : rq->meta.deadline_us;
  for (auto& inst : rq->instances) at = std::min(at, inst->next_flush);
  if (rq->clock != 0 && at == rq->clock_at) return;
  if (rq->clock != 0) vri_->CancelEvent(rq->clock);
  uint64_t qid = rq->meta.query_id;
  rq->clock_at = at;
  rq->clock = vri_->ScheduleEvent(std::max<TimeUs>(0, at - vri_->Now()),
                                  [this, qid]() { ClockTick(qid); });
}

void QueryExecutor::ClockTick(uint64_t query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;
  RunningQuery& rq = it->second;
  rq.clock = 0;
  const TimeUs now = vri_->Now();
  if (rq.stopping || now >= rq.meta.deadline_us) {
    DoStop(query_id);
    return;
  }
  for (auto& inst : rq.instances) {
    if (inst->next_flush > now) continue;
    inst->next_flush =
        rq.meta.continuous
            ? NextFlush(rq.meta, inst->graph().flush_stage, now)
            : rq.meta.deadline_us;
    inst->Flush();
  }
  ArmClock(&rq);
}

void QueryExecutor::ArmLeaseTick(RunningQuery* rq) {
  if (!rq->meta.continuous || rq->lease_timer != 0) return;
  uint64_t qid = rq->meta.query_id;
  rq->lease_timer = vri_->ScheduleEvent(EffectiveLease(rq->meta) / 4,
                                        [this, qid]() { LeaseTick(qid); });
}

void QueryExecutor::RefreshLease(RunningQuery* rq) {
  rq->lease_expires = vri_->Now() + EffectiveLease(rq->meta);
}

void QueryExecutor::FollowProxy(RunningQuery* rq, const QueryPlan& meta) {
  rq->meta.proxy = meta.proxy;
  rq->meta.proxy_epoch = meta.proxy_epoch;
  rq->meta.successors = meta.successors;
  rq->meta.lease_period_us = meta.lease_period_us;
  rq->forward_failures = 0;
  rq->stray_answers = 0;
  RefreshLease(rq);
}

void QueryExecutor::LeaseTick(uint64_t query_id) {
  // A no-op while this node IS the proxy — a proxy cannot orphan itself;
  // its local teardown goes through CancelQuery.
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;
  RunningQuery& q = it->second;
  q.lease_timer = 0;
  if (q.meta.continuous && !q.stopping && q.probe.timeout == 0 &&
      q.meta.proxy != dht_->local_address() && !q.meta.proxy.IsNull() &&
      vri_->Now() >= q.lease_expires) {
    StartProbe(&q);
  }
  // Re-find: a probe that fails synchronously may reap (or adopt).
  it = queries_.find(query_id);
  if (it != queries_.end()) ArmLeaseTick(&it->second);
}

void QueryExecutor::StartProbe(RunningQuery* rq) {
  // The lease travels over the broadcast, which is exactly what
  // churn breaks first — so corroborate point-to-point before declaring
  // death. A local timeout at lease/2 keeps a slow transport give-up from
  // stretching detection. Both are armed before the send: a transport that
  // fails synchronously resolves kDead inline, and a chain-exhausted
  // resolve reaps the query — erasing the entry rq points into.
  uint64_t qid = rq->meta.query_id;
  NetAddress target = rq->meta.proxy;
  rq->probe.target = target;
  rq->probe.epoch = rq->meta.proxy_epoch;
  rq->probe.timeout =
      vri_->ScheduleEvent(EffectiveLease(rq->meta) / 2, [this, qid, target]() {
        ResolveProbe(qid, target, ProbeVerdict::kDead);
      });
  WireWriter w = OverlayRouter::FrameMessage(kMsgLeaseProbe);
  w.PutU64(qid);
  dht_->router()->SendFramed(
      target, std::move(w).data(), [this, qid, target](const Status& s) {
        if (!s.ok()) ResolveProbe(qid, target, ProbeVerdict::kDead);
      });
}

void QueryExecutor::ResolveProbe(uint64_t query_id, const NetAddress& from,
                                 ProbeVerdict v) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;
  RunningQuery& q = it->second;
  // Only the outstanding probe's target may resolve it.
  if (q.probe.timeout == 0 || q.probe.target != from) return;
  vri_->CancelEvent(q.probe.timeout);  // a no-op when it is what fired
  q.probe.timeout = 0;
  // The query moved on to another proxy or epoch while the probe was out:
  // the verdict is stale and counts for nothing, but the probe is over, so
  // a later LeaseTick can probe the current proxy.
  if (q.meta.proxy_epoch != q.probe.epoch || q.meta.proxy != from) return;
  CountProbeVerdict(v);
  switch (v) {
    case ProbeVerdict::kProxying:
      // The proxy is up and owns the query; the refresh channel just
      // hasn't healed yet. Renew and keep listening.
      q.probe_strikes = 0;
      RefreshLease(&q);
      break;
    case ProbeVerdict::kNotProxying:
      // Reachable, but it does not own the query: an un-adopted successor
      // (give it one short grace re-probe — adoption may be mid-flight),
      // or a proxy whose record ended on purpose (a missed cancel
      // tombstone). Either way, renewing a full lease forever would park
      // the walk on a node that will never answer.
      if (++q.probe_strikes >= 2) {
        q.probe_strikes = 0;
        FailoverStep(&q, "not_proxying",
                     "node is alive but does not own the query");
      } else {
        q.lease_expires = vri_->Now() + EffectiveLease(q.meta) / 2;
      }
      break;
    case ProbeVerdict::kDead:
      // A lost probe must not override fresher evidence: an answer-
      // forward ACK may have renewed the lease while the probe was out.
      if (vri_->Now() < q.lease_expires) return;
      FailoverStep(&q, "probe_dead", "proxy lease expired and probe failed");
      break;
  }
}

void QueryExecutor::FailoverStep(RunningQuery* rq, const char* tag,
                                 const std::string& reason) {
  uint64_t qid = rq->meta.query_id;
  uint32_t next = rq->meta.proxy_epoch;  // index of the next successor
  if (next >= rq->meta.successors.size()) {
    // Chain exhausted (or never configured): the query is an orphan. Reap
    // it — opgraphs torn down, timers cancelled — instead of letting every
    // executor forward answers into a void until the deadline.
    CountOrphanReap(tag);
    stats_.last_orphan_reason =
        reason + "; no proxy successor remains for query " +
        std::to_string(qid);
    PIER_LOG(kInfo) << "reaping orphaned query " << qid << ": " << reason;
    DoStop(qid);
    return;
  }
  rq->meta.proxy = rq->meta.successors[next];
  rq->meta.proxy_epoch = next + 1;
  rq->forward_failures = 0;
  rq->stray_answers = 0;
  // The candidate gets one full lease period to adopt and start refreshing
  // before the walk advances past it.
  RefreshLease(rq);
  stats_.proxy_failovers++;
  PIER_LOG(kInfo) << "query " << qid << " proxy failover (" << reason
                  << "): answers now target " << rq->meta.proxy.ToString()
                  << " (epoch " << rq->meta.proxy_epoch << ")";
  if (rq->meta.proxy == dht_->local_address()) {
    // This node is next in line: adopt the proxy role. AdoptQuery runs
    // synchronously (it creates the proxy-side record and re-broadcasts the
    // announcement); it may re-enter StartGraphs, which only mutates fields
    // of this std::map entry — rq stays valid.
    proxy_->AdoptQuery(rq->meta);
  }
}

void QueryExecutor::ForwardAnswers(uint64_t query_id, const TupleBatch& batch) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;  // racing teardown: drop
  const size_t n = batch.num_rows();
  if (n == 0) return;
  RunningQuery& rq = it->second;
  // Every row is charged to the answer pseudo-op; the wire only when the
  // answers cross it.
  OpCost* slot = rq.answer_cost;
  if (slot != nullptr) {
    slot->tuples_in += n;
    slot->tuples_out += n;
  }
  const NetAddress proxy = rq.meta.proxy;
  if (proxy == dht_->local_address() || proxy.IsNull()) {
    proxy_->DeliverBatch(query_id, batch);
    return;
  }
  stats_.answers_forwarded += n;
  // Framed once, moved down: answer frames are the hottest steady-state
  // message of a running query.
  WireWriter w = OverlayRouter::FrameMessage(kMsgAnswerBatch);
  w.PutU64(query_id);
  batch.EncodeTo(&w);
  // The wire is charged with the real frame size BEFORE the cost block is
  // appended, so the block's own answer-slot snapshot includes this very
  // frame — the proxy's aggregate then matches independently counted wire
  // traffic exactly (E16).
  if (slot != nullptr) {
    slot->msgs++;
    slot->bytes += w.size();
  }
  if (answer_bytes_metric_ != nullptr)
    answer_bytes_metric_->Observe(static_cast<double>(w.size()));
  if (rq.meter && rq.meter->ShouldPiggyback()) rq.meter->EncodeTo(&w);
  // A transport give-up on the proxy is the fast half of proxy-death
  // detection (the lease is the slow half); an ACK is live proof.
  dht_->router()->SendFramed(
      proxy, std::move(w).data(), [this, query_id, proxy](const Status& s) {
        OnForwardDelivery(query_id, proxy, s);
      });
}

void QueryExecutor::OnForwardDelivery(uint64_t query_id,
                                      const NetAddress& target,
                                      const Status& s) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;
  RunningQuery& rq = it->second;
  if (s.ok()) {
    if (!rq.meta.continuous || target != rq.meta.proxy) return;
    rq.forward_failures = 0;
    RefreshLease(&rq);
    return;
  }
  stats_.forward_failures++;
  if (!rq.meta.continuous || rq.stopping || target != rq.meta.proxy) return;
  if (++rq.forward_failures < kForwardFailuresBeforeFailover) return;
  // Deferred: a synchronously-failing transport reports from inside the
  // send call, which can sit under an operator's Flush — and a failover
  // that reaps the query would close that operator mid-emission. The event
  // re-checks that the failed target is still the proxy (a refresh or an
  // earlier step may have moved it meanwhile).
  rq.one_shots.push_back(
      vri_->ScheduleEvent(0, [this, query_id, target]() {
        auto qit = queries_.find(query_id);
        if (qit == queries_.end()) return;
        RunningQuery& q = qit->second;
        if (!q.meta.continuous || q.stopping || target != q.meta.proxy) return;
        if (q.forward_failures < kForwardFailuresBeforeFailover) return;
        FailoverStep(&q, "forward_failed", "answer forwarding failed");
      }));
}

void QueryExecutor::NoteStrayAnswer(uint64_t query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;
  RunningQuery& rq = it->second;
  if (!rq.meta.continuous || rq.stopping) return;
  NetAddress local = dht_->local_address();
  if (rq.meta.proxy == local) return;  // already adopted; record raced away
  uint32_t next = rq.meta.proxy_epoch;
  if (next >= rq.meta.successors.size() || rq.meta.successors[next] != local)
    return;  // not next in the chain: the lease walk will get there
  stats_.stray_answers++;
  rq.stray_answers++;
  // Another executor is already routing answers here, so the proxy is dead
  // from ITS vantage point. Adopt once the local evidence agrees (our lease
  // also ran out) or the signal repeats.
  if (rq.stray_answers >= kStrayAnswersBeforeAdopt ||
      vri_->Now() >= rq.lease_expires) {
    FailoverStep(&rq, "stray_answers",
                 "answers forwarded here for a dead proxy");
  }
}

void QueryExecutor::StopQuery(uint64_t query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end() || it->second.stopping) return;
  it->second.stopping = true;
  // Deferred to the clock: this may run inside an operator on the stack.
  ArmClock(&it->second);
}

void QueryExecutor::DoStop(uint64_t query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;
  RunningQuery& rq = it->second;
  // Teardown cost report: the ledger's final snapshot reaches the proxy
  // once (absolute — it replaces, never adds), also from a node whose
  // operators never emitted an answer for the piggyback path to carry. A
  // local proxy gets it through the call a cost frame reaches.
  const NetAddress& proxy = rq.meta.proxy;
  if (rq.meter && !rq.meter->costs().empty()) {
    if (proxy == dht_->local_address() || proxy.IsNull()) {
      proxy_->NoteCosts(query_id, dht_->local_address(), rq.meter->costs());
    } else {
      WireWriter w = OverlayRouter::FrameMessage(kMsgQueryCosts);
      w.PutU64(query_id);
      rq.meter->EncodeTo(&w);
      dht_->router()->SendFramed(proxy, std::move(w).data(), nullptr);
    }
  }
  Release(&rq);
  queries_.erase(it);
}

Operator* QueryExecutor::FindOp(uint64_t query_id, uint32_t graph_id,
                                uint32_t op_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return nullptr;
  for (auto& inst : it->second.instances) {
    if (inst->graph().id == graph_id) return inst->FindOp(op_id);
  }
  return nullptr;
}

Status QueryExecutor::InjectBatch(uint64_t query_id, uint32_t graph_id,
                                  uint32_t op_id, const TupleBatch& batch) {
  Operator* op = FindOp(query_id, graph_id, op_id);
  if (op == nullptr) return Status::NotFound("no such operator");
  op->InjectBatchDownstream(batch);
  return Status::Ok();
}

void QueryExecutor::FlushQuery(uint64_t query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;
  for (auto& inst : it->second.instances) inst->Flush();
}

const QueryMeter* QueryExecutor::Meter(uint64_t query_id) const {
  auto it = queries_.find(query_id);
  return it != queries_.end() ? it->second.meter.get() : nullptr;
}

void QueryExecutor::set_metrics(MetricsRegistry* metrics) {
  metrics_ = metrics;
  answer_bytes_metric_ =
      metrics == nullptr
          ? nullptr
          : metrics->GetHistogram(
                "pier_query_answer_bytes", {64, 256, 1024, 4096, 16384}, {},
                "Forwarded answer frame sizes in bytes");
}

void QueryExecutor::CountProbeVerdict(ProbeVerdict v) {
  const char* verdict = v == ProbeVerdict::kDead        ? "dead"
                        : v == ProbeVerdict::kProxying  ? "proxying"
                                                        : "not_proxying";
  stats_.probe_verdicts[verdict]++;
  if (metrics_ != nullptr) {
    metrics_
        ->GetCounter("pier_exec_probe_verdicts_total", {{"verdict", verdict}},
                     "Proxy lease-probe outcomes by verdict")
        ->Inc();
  }
}

void QueryExecutor::CountOrphanReap(const std::string& reason) {
  stats_.orphan_reaps++;
  stats_.orphan_reaps_by_reason[reason]++;
  if (metrics_ != nullptr) {
    metrics_
        ->GetCounter("pier_exec_orphan_reaps_total", {{"reason", reason}},
                     "Queries reaped with no live proxy, by trigger")
        ->Inc();
  }
}

}  // namespace pier
