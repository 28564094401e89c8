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
  for (uint64_t t : {rq->close_timer, rq->window_timer, rq->lease_timer,
                     rq->probe.timeout}) {
    if (t) vri_->CancelEvent(t);
  }
  for (auto& inst : rq->instances) inst->Close();
}

TimeUs QueryExecutor::EffectiveWindow(const QueryPlan& meta) {
  // Windowless continuous plans (window 0 is reachable through hand-built
  // QueryPlans; SQL/UFL reject WINDOW 0 at parse time) used to be clamped to
  // 1ms, arming a per-millisecond flush timer that flooded the event loop.
  // They now get a sane default bounded by the query lifetime.
  if (meta.window <= 0)
    return std::max(kMinWindow, std::min(kDefaultWindow, meta.timeout / 4));
  return std::max(meta.window, kMinWindow);
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
    if (cit != queries_.end() && meta.generation >= cit->second.generation)
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
    rq.start_time = vri_->Now();
    rq.generation = meta.generation;
    if (metering_) {
      rq.meter = std::make_shared<QueryMeter>();
      rq.answer_cost = rq.meter->At(QueryMeter::kAnswerSlot.first,
                                    QueryMeter::kAnswerSlot.second);
    }
    RefreshLease(&rq);
    ArmQueryTimers(&rq);
  } else if (meta.generation > rq.generation && graphs.empty()) {
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
      } else if (qit->second.generation < record.generation) {
        StopQuery(meta.query_id);
      }
    });
    return Status::Ok();
  } else if (meta.generation > rq.generation) {
    // Plan swap: the old instances emit their current window's blocking
    // state (the final flush — windows are the quiesce points, so no
    // operator state needs to migrate), then tear down. The new generation
    // runs under the same query id, start time and close timer; only the
    // window/flush metadata is adopted from the new plan.
    bool had_instances = !rq.instances.empty();
    for (auto& inst : rq.instances) inst->Flush();
    for (auto& inst : rq.instances) inst->Close();
    rq.instances.clear();
    rq.generation = meta.generation;
    TimeUs timeout = rq.meta.timeout;  // lifetime fixed at submission
    rq.meta = meta;
    rq.meta.graphs.clear();
    rq.meta.timeout = timeout;
    // The final flush above IS this node's quiesce point: everything stored
    // before this instant was counted by the generation that just flushed,
    // so the proxy-stamped catch-up floor can only be tightened by it. A
    // node whose FIRST sight is this generation keeps the wire floor as is
    // (its predecessor ran elsewhere; the proxy's stamp is the best bound).
    if (had_instances)
      rq.meta.catchup_floor_us =
          std::max(rq.meta.catchup_floor_us, vri_->Now());
    FollowProxy(&rq, meta);
    // A query that only now became continuous starts its ticks.
    ArmTicks(&rq);
  } else if (meta.generation == rq.generation) {
    // Same-generation refresh: adopt a changed window (rewindowing); it
    // takes effect at the next window boundary.
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
    for (auto& inst : rq.instances) duplicate |= inst->graph_id() == g.id;
    if (duplicate) continue;  // re-dissemination of a graph we already run

    ExecContext cx;
    cx.vri = vri_;
    cx.dht = dht_;
    cx.query_id = meta.query_id;
    cx.graph_id = g.id;
    cx.proxy = meta.proxy;
    cx.continuous = meta.continuous;
    cx.window = meta.window;
    // Soft state published by operators should drain with the query: under
    // an absolute deadline the remaining lifetime shrinks the later this
    // node joins the query's execution.
    cx.query_lifetime =
        meta.deadline_us > 0
            ? std::max<TimeUs>(kMillisecond, meta.deadline_us - vri_->Now())
            : meta.timeout;
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
    inst->Start();
    rq.instances.push_back(std::move(inst));
    if (!meta.continuous) ArmStageFlush(&rq, g.id, g.flush_stage);
  }
  return Status::Ok();
}

void QueryExecutor::ArmQueryTimers(RunningQuery* rq) {
  uint64_t qid = rq->meta.query_id;
  // Plans stamped with an absolute deadline close at that instant, however
  // late this node first saw the query (a swapped-in later generation must
  // not run a full timeout past everyone else's close). Unstamped plans
  // keep the paper's relative-timeout contract.
  TimeUs delay = rq->meta.timeout;
  if (rq->meta.deadline_us > 0)
    delay = std::max<TimeUs>(0, rq->meta.deadline_us - vri_->Now());
  rq->close_timer = vri_->ScheduleEvent(delay, [this, qid]() { DoStop(qid); });
  ArmTicks(rq);
}

void QueryExecutor::ArmTicks(RunningQuery* rq) {
  // Window flushes repeat until the close timer wins; the proxy-liveness
  // check repeats every lease/4. Both periods are re-read from the metadata
  // at every tick, so rewindowing (a StartGraphs refresh) or a swap's new
  // lease takes effect at the next boundary without rearming anything.
  if (!rq->meta.continuous) return;
  uint64_t qid = rq->meta.query_id;
  if (rq->window_timer == 0) {
    rq->window_timer = vri_->ScheduleEvent(
        EffectiveWindow(rq->meta), [this, qid]() { WindowTick(qid); });
  }
  if (rq->lease_timer == 0) {
    rq->lease_timer = vri_->ScheduleEvent(
        EffectiveLease(rq->meta) / 4, [this, qid]() { LeaseTick(qid); });
  }
}

void QueryExecutor::WindowTick(uint64_t query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;
  for (auto& inst : it->second.instances) inst->Flush();
  it->second.window_timer = 0;
  ArmTicks(&it->second);
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
  if (it != queries_.end()) ArmTicks(&it->second);
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

void QueryExecutor::ArmStageFlush(RunningQuery* rq, uint32_t graph_id,
                                  int32_t stage) {
  // Each later flush stage waits one more step, so state flows through
  // multi-graph pipelines: stage 0 partials arrive before stage 1 finals
  // flush, which arrive before the stage 2 top-k flushes.
  TimeUs step = rq->meta.timeout / 4;
  TimeUs when = rq->start_time + step * (stage + 1);
  TimeUs delay = std::max<TimeUs>(0, when - vri_->Now());
  uint64_t qid = rq->meta.query_id;
  rq->one_shots.push_back(
      vri_->ScheduleEvent(delay, [this, qid, graph_id]() {
        auto it = queries_.find(qid);
        if (it == queries_.end()) return;
        for (auto& inst : it->second.instances) {
          if (inst->graph_id() == graph_id) inst->Flush();
        }
      }));
}

void QueryExecutor::StopQuery(uint64_t query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end() || it->second.stopping) return;
  it->second.stopping = true;
  // Deferred: StopQuery may be called from inside an operator on the stack.
  it->second.one_shots.push_back(
      vri_->ScheduleEvent(0, [this, query_id]() { DoStop(query_id); }));
}

void QueryExecutor::DoStop(uint64_t query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;
  RunningQuery& rq = it->second;
  // Teardown cost flush: a node whose operators consumed tuples but never
  // emitted an answer has a ledger the piggyback path never ships. Send it
  // once (an absolute snapshot — replaces, never adds). A local proxy
  // already holds this ledger (QueryProcessor::PinLocalMeter).
  const NetAddress& proxy = rq.meta.proxy;
  if (rq.meter && !rq.meter->costs().empty() &&
      proxy != dht_->local_address() && !proxy.IsNull()) {
    WireWriter w = OverlayRouter::FrameMessage(kMsgQueryCosts);
    w.PutU64(query_id);
    rq.meter->EncodeTo(&w);
    dht_->router()->SendFramed(proxy, std::move(w).data(), nullptr);
  }
  Release(&rq);
  queries_.erase(it);
}

Operator* QueryExecutor::FindOp(uint64_t query_id, uint32_t graph_id,
                                uint32_t op_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return nullptr;
  for (auto& inst : it->second.instances) {
    if (inst->graph_id() == graph_id) return inst->FindOp(op_id);
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

std::shared_ptr<QueryMeter> QueryExecutor::Meter(uint64_t query_id) const {
  auto it = queries_.find(query_id);
  return it != queries_.end() ? it->second.meter : nullptr;
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
