// Collector registration: export the existing per-subsystem Stats structs
// through a MetricsRegistry as callback-backed families.
//
// The Stats structs stay the single source of truth — nothing on a hot path
// changes. Each Register* call installs AddCounterFn closures that read the
// live struct at snapshot/scrape time. The subsystem must therefore
// outlive every Snapshot()/RenderText() of the registry; in practice both are
// owned by the same node object and die together.
//
// RegisterNodeMetrics wires a whole node in one call: every subsystem
// reachable from the QueryProcessor, plus the event-driven families the
// executor and query processor mint directly (set_metrics).

#ifndef PIER_OBS_NODE_METRICS_H_
#define PIER_OBS_NODE_METRICS_H_

namespace pier {

class Dht;
class MetricsRegistry;
class OverlayRouter;
class QueryExecutor;
class QueryProcessor;
class UdpCc;

/// pier_dht_* : puts/gets/sends/renews, store + routed-delivery counters,
/// batched-put counters, read-any failover/repair counters.
void RegisterDhtMetrics(MetricsRegistry* reg, Dht* dht);

/// pier_router_* : routing and lookup counters.
void RegisterRouterMetrics(MetricsRegistry* reg, OverlayRouter* router);

/// pier_net_* : UdpCC delivery, retransmit and byte counters.
void RegisterTransportMetrics(MetricsRegistry* reg, UdpCc* transport);

/// pier_repl_* : replica placement and repair counters. The store-side
/// counters come from the Dht, whose store-frame handler receives every copy.
void RegisterReplicationMetrics(MetricsRegistry* reg, Dht* dht);

/// pier_exec_* : scalar failover counters. The answer-size histogram is
/// minted by the executor itself once QueryExecutor::set_metrics is called
/// (RegisterNodeMetrics does).
void RegisterExecutorMetrics(MetricsRegistry* reg, QueryExecutor* exec);

/// pier_query_* : proxy lifecycle counters. The per-qid answer counter and
/// the answer-size histogram are minted by QueryProcessor::set_metrics.
void RegisterQueryProcessorMetrics(MetricsRegistry* reg, QueryProcessor* qp);

/// One-call node wiring: registers DHT, router, transport, replication,
/// executor and query-processor collectors, and attaches the registry to the
/// query processor (set_metrics) so event-driven families are minted too.
void RegisterNodeMetrics(MetricsRegistry* reg, QueryProcessor* qp);

}  // namespace pier

#endif  // PIER_OBS_NODE_METRICS_H_
