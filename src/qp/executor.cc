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
    : vri_(vri), dht_(dht), proxy_(proxy) {}

QueryExecutor::~QueryExecutor() {
  for (auto& [qid, rq] : queries_) Release(&rq);
}

void QueryExecutor::Release(RunningQuery* rq) {
  if (rq->clock != 0) vri_->CancelEvent(rq->clock);
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

Status QueryExecutor::StartGraphs(const QueryPlan& meta,
                                  const std::vector<OpGraph>& graphs) {
  // A cancel tombstone: the proxy ended the query on purpose. Tear down;
  // stale tombstones from a superseded generation are ignored.
  if (meta.cancelled) {
    auto cit = queries_.find(meta.query_id);
    if (cit != queries_.end() &&
        meta.generation >= cit->second.meta.generation)
      DoStop(meta.query_id);
    return Status::Ok();
  }
  // Metadata-only broadcasts (adoption, hand-back, a graphless swap) must
  // never instantiate a query on nodes that do not run it.
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
  } else if (meta.generation > rq.meta.generation && graphs.empty()) {
    // A metadata broadcast from a generation this node never received: the
    // swap broadcast was lost. Keep the stale generation running (its
    // answers are still correct), follow the broadcast's proxy, and read
    // the query's durable record. Its broadcast graphs swap in under THIS
    // broadcast's metadata: the record's writer may have died since, so it
    // never re-targets answers. A record that gives this node no graph
    // stops the superseded generation here. A record older than the
    // broadcast, or a proxy that moved on meanwhile, changes nothing; the
    // next metadata broadcast reads again.
    if (meta.proxy_epoch < rq.meta.proxy_epoch) return Status::Ok();
    FollowProxy(&rq, meta);
    proxy_->ReadDurablePlan(meta, [this, meta](Result<QueryPlan> record) {
      auto qit = queries_.find(meta.query_id);
      if (!record.ok() || qit == queries_.end() ||
          qit->second.meta.proxy != meta.proxy ||
          qit->second.meta.proxy_epoch != meta.proxy_epoch ||
          record->generation < meta.generation)
        return;
      std::vector<OpGraph> bcast;
      for (OpGraph& g : record->graphs) {
        if (g.dissem == DissemKind::kBroadcast) bcast.push_back(std::move(g));
      }
      // Equality, range and local graphs belong to specific nodes: with no
      // broadcast graph, the newer plan runs nothing here. Stop the older
      // generation, unless a graph of the record's own generation arrived
      // (through its dissemination) during the read.
      if (!bcast.empty()) {
        (void)StartGraphs(meta, bcast);
      } else if (qit->second.meta.generation < record->generation) {
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
    // Same-generation refresh. Proxy identity moves only FORWARD: a
    // broadcast announcing a later adoption re-targets answer routing, and a
    // late one from a superseded proxy is ignored.
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
    // the proxy dies mid-run, failover re-points rq.meta.proxy at the owner
    // of its id and every already-running instance follows without a
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
  // The ring names the proxy, checked before this tick's flush sends
  // answers: this node adopts the query once it owns the proxy's id, and
  // hands an adoption back once the node it took over from owns its own id
  // again. Either updates this record's proxy in place (StartGraphs with
  // the new metadata).
  if (rq.meta.continuous) proxy_->FollowRing(rq.meta);
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

void QueryExecutor::FollowProxy(RunningQuery* rq, const QueryPlan& meta) {
  rq->meta.proxy = meta.proxy;
  rq->meta.proxy_epoch = meta.proxy_epoch;
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
  // A transport give-up on the proxy asks the ring who owns its id now.
  dht_->router()->SendFramed(
      proxy, std::move(w).data(), [this, query_id, proxy](const Status& s) {
        OnForwardDelivery(query_id, proxy, s);
      });
}

void QueryExecutor::OnForwardDelivery(uint64_t query_id,
                                      const NetAddress& target,
                                      const Status& s) {
  if (s.ok()) return;
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;
  stats_.forward_failures++;
  const RunningQuery& rq = it->second;
  if (!rq.meta.continuous || rq.stopping || target != rq.meta.proxy) return;
  // One give-up is the signal. The give-up already evicted `target` from the
  // owner cache, so the lookup asks the ring. A live proxy still owns its
  // id and the lookup names it again: nothing changes.
  dht_->router()->Lookup(
      NodeIdFromAddress(target.host, target.port),
      [this, query_id, target](const Result<OverlayRouter::Owner>& owner) {
        auto qit = queries_.find(query_id);
        if (!owner.ok() || qit == queries_.end() ||
            qit->second.meta.proxy != target || owner->address == target)
          return;
        RunningQuery& q = qit->second;
        stats_.proxy_failovers++;
        PIER_LOG(kInfo) << "query " << query_id << ": proxy "
                        << target.ToString() << " unreachable, answers now "
                        << "target the owner of its id, "
                        << owner->address.ToString();
        if (owner->address == dht_->local_address()) {
          proxy_->AdoptQuery(q.meta);
        } else {
          q.meta.proxy = owner->address;
        }
      });
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
  answer_bytes_metric_ =
      metrics == nullptr
          ? nullptr
          : metrics->GetHistogram(
                "pier_query_answer_bytes", {64, 256, 1024, 4096, 16384}, {},
                "Forwarded answer frame sizes in bytes");
}

}  // namespace pier
