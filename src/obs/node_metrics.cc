#include "obs/node_metrics.h"

#include "obs/metrics.h"
#include "overlay/dht.h"
#include "overlay/replication.h"
#include "overlay/router.h"
#include "qp/executor.h"
#include "qp/query_processor.h"
#include "runtime/udpcc.h"

namespace pier {

namespace {

// All collectors follow one shape: a counter family whose value is read from
// the live Stats struct at snapshot time. `d` casts the uint64 counter.
double d(uint64_t v) { return static_cast<double>(v); }

}  // namespace

void RegisterDhtMetrics(MetricsRegistry* reg, Dht* dht) {
  // Dht::stats() merges replication health at read; export only the fields
  // the Dht itself owns here — the replication collector covers the rest —
  // so no counter appears under two names with diverging values.
  reg->AddCounterFn("pier_dht_puts_total", {}, [dht] { return d(dht->stats().puts); },
                    "DHT put operations issued by this node");
  reg->AddCounterFn("pier_dht_gets_total", {}, [dht] { return d(dht->stats().gets); },
                    "DHT get operations issued by this node");
  reg->AddCounterFn("pier_dht_sends_total", {}, [dht] { return d(dht->stats().sends); },
                    "DHT send (routed) operations issued by this node");
  reg->AddCounterFn("pier_dht_renews_total", {},
                    [dht] { return d(dht->stats().renews); },
                    "DHT renew operations issued by this node");
  reg->AddCounterFn("pier_dht_store_requests_total", {},
                    [dht] { return d(dht->stats().store_requests); },
                    "Objects stored at this node on behalf of others");
  reg->AddCounterFn("pier_dht_routed_deliveries_total", {},
                    [dht] { return d(dht->stats().routed_deliveries); },
                    "Send objects that reached this node as owner");
  reg->AddCounterFn("pier_dht_routed_delivery_hops_total", {},
                    [dht] { return d(dht->stats().routed_delivery_hops); },
                    "Cumulative hop count of routed deliveries");
  reg->AddCounterFn("pier_dht_batched_puts_total", {},
                    [dht] { return d(dht->stats().batched_puts); },
                    "Objects that rode a multi-object PutBatch frame");
  reg->AddCounterFn("pier_dht_batch_msgs_total", {},
                    [dht] { return d(dht->stats().batch_msgs); },
                    "multi-object kMsgPutBatch frames sent");
  reg->AddCounterFn("pier_dht_read_failovers_total", {},
                    [dht] { return d(dht->stats().read_failovers); },
                    "Gets answered by a replica instead of the owner");
  reg->AddCounterFn("pier_dht_read_repairs_total", {},
                    [dht] { return d(dht->stats().read_repairs); },
                    "Owner copies refreshed from a replica after a get");
}

void RegisterRouterMetrics(MetricsRegistry* reg, OverlayRouter* router) {
  reg->AddCounterFn("pier_router_routed_originated_total", {},
                    [router] { return d(router->stats().routed_originated); },
                    "Overlay routes originated at this node");
  reg->AddCounterFn("pier_router_routed_forwarded_total", {},
                    [router] { return d(router->stats().routed_forwarded); },
                    "Overlay routes forwarded through this node");
  reg->AddCounterFn("pier_router_routed_delivered_total", {},
                    [router] { return d(router->stats().routed_delivered); },
                    "Overlay routes delivered at this node");
  reg->AddCounterFn("pier_router_upcall_drops_total", {},
                    [router] { return d(router->stats().upcall_drops); },
                    "Routed messages dropped by an intercepting upcall");
  reg->AddCounterFn("pier_router_lookups_started_total", {},
                    [router] { return d(router->stats().lookups_started); },
                    "Identifier lookups started");
  reg->AddCounterFn("pier_router_lookups_ok_total", {},
                    [router] { return d(router->stats().lookups_ok); },
                    "Identifier lookups resolved");
  reg->AddCounterFn("pier_router_lookups_failed_total", {},
                    [router] { return d(router->stats().lookups_failed); },
                    "Identifier lookups that failed");
  reg->AddCounterFn("pier_router_lookup_cache_hits_total", {},
                    [router] { return d(router->stats().lookup_cache_hits); },
                    "Identifier lookups answered from the owner cache");
  reg->AddCounterFn("pier_router_lookup_cache_evictions_total", {},
                    [router] {
                      return d(router->stats().lookup_cache_evictions);
                    },
                    "Owner cache entries dropped (failed delivery, hint, "
                    "overlap or capacity)");
  reg->AddCounterFn("pier_router_not_owner_hints_sent_total", {},
                    [router] {
                      return d(router->stats().not_owner_hints_sent);
                    },
                    "Not-owner hints sent to writers or readers with a stale "
                    "owner cache");
  reg->AddCounterFn("pier_router_route_dead_ends_total", {},
                    [router] { return d(router->stats().route_dead_ends); },
                    "Routes dropped with no closer hop");
  reg->AddCounterFn("pier_router_coalesced_msgs_total", {},
                    [router] { return d(router->stats().coalesced_msgs); },
                    "Messages that rode a multi-message bundle");
  reg->AddCounterFn("pier_router_bundles_sent_total", {},
                    [router] { return d(router->stats().bundles_sent); },
                    "Bundle frames actually transmitted");
}

void RegisterTransportMetrics(MetricsRegistry* reg, UdpCc* transport) {
  reg->AddCounterFn("pier_net_msgs_sent_total", {},
                    [transport] { return d(transport->stats().msgs_sent); },
                    "UdpCC messages first-transmitted");
  reg->AddCounterFn("pier_net_msgs_delivered_total", {},
                    [transport] { return d(transport->stats().msgs_delivered); },
                    "UdpCC messages acknowledged by the receiver");
  reg->AddCounterFn("pier_net_msgs_failed_total", {},
                    [transport] { return d(transport->stats().msgs_failed); },
                    "UdpCC messages given up after max retries");
  reg->AddCounterFn("pier_net_retransmits_total", {},
                    [transport] { return d(transport->stats().retransmits); },
                    "UdpCC retransmissions");
  reg->AddCounterFn("pier_net_msgs_received_total", {},
                    [transport] { return d(transport->stats().msgs_received); },
                    "UdpCC deduplicated messages received");
  reg->AddCounterFn("pier_net_duplicates_dropped_total", {},
                    [transport] { return d(transport->stats().duplicates_dropped); },
                    "UdpCC duplicate receives dropped");
  reg->AddCounterFn("pier_net_bytes_sent_total", {},
                    [transport] { return d(transport->stats().bytes_sent); },
                    "First-transmission payload bytes sent");
  reg->AddCounterFn("pier_net_bytes_received_total", {},
                    [transport] { return d(transport->stats().bytes_received); },
                    "Deduplicated inbound payload bytes");
}

void RegisterReplicationMetrics(MetricsRegistry* reg, ReplicationManager* repl) {
  reg->AddCounterFn("pier_repl_copies_sent_total", {},
                    [repl] { return d(repl->stats().replica_copies_sent); },
                    "Replica objects shipped by this node");
  reg->AddCounterFn("pier_repl_stores_total", {},
                    [repl] { return d(repl->stats().replica_stores); },
                    "Replica objects stored at this node");
  reg->AddCounterFn("pier_repl_promotions_total", {},
                    [repl] { return d(repl->stats().promotions); },
                    "Replicas retagged primary after an owner left");
  reg->AddCounterFn("pier_repl_demotions_total", {},
                    [repl] { return d(repl->stats().demotions); },
                    "Primaries retagged replica after the range moved");
  reg->AddCounterFn("pier_repl_handoff_pushes_total", {},
                    [repl] { return d(repl->stats().handoff_pushes); },
                    "Objects re-propagated to successors");
  reg->AddCounterFn("pier_repl_handoff_pulls_total", {},
                    [repl] { return d(repl->stats().handoff_pulls); },
                    "Objects received answering a range pull");
  reg->AddCounterFn("pier_repl_suppressed_scan_rows_total", {},
                    [repl] { return d(repl->stats().suppressed_scan_rows); },
                    "Replica rows hidden from LocalScan");
  reg->AddCounterFn("pier_repl_repair_ticks_total", {},
                    [repl] { return d(repl->stats().repair_ticks); },
                    "Repair passes executed");
  reg->AddCounterFn("pier_repl_idle_repair_ticks_total", {},
                    [repl] { return d(repl->stats().idle_repair_ticks); },
                    "Repair passes that found no ring or queue activity");
  reg->AddGaugeFn("pier_repl_repair_period_us", {},
                  [repl] { return d(static_cast<uint64_t>(repl->current_repair_period())); },
                  "Effective delay until the next repair pass");
  reg->AddGaugeFn("pier_repl_repair_backed_off", {},
                  [repl] { return repl->repair_backed_off() ? 1.0 : 0.0; },
                  "1 while idle-ring backoff has stretched the repair cadence");
}

void RegisterExecutorMetrics(MetricsRegistry* reg, QueryExecutor* exec) {
  reg->AddCounterFn("pier_exec_proxy_failovers_total", {},
                    [exec] { return d(exec->stats().proxy_failovers); },
                    "Answer routing re-targeted to a successor proxy");
  reg->AddCounterFn("pier_exec_orphan_reaps_scalar_total", {},
                    [exec] { return d(exec->stats().orphan_reaps); },
                    "Queries torn down with no live proxy (sum over reasons)");
  reg->AddCounterFn("pier_exec_forward_failures_total", {},
                    [exec] { return d(exec->stats().forward_failures); },
                    "UdpCC give-ups on answer forwards");
  reg->AddCounterFn("pier_exec_stray_answers_total", {},
                    [exec] { return d(exec->stats().stray_answers); },
                    "Answers received for un-proxied queries");
}

void RegisterQueryProcessorMetrics(MetricsRegistry* reg, QueryProcessor* qp) {
  reg->AddCounterFn("pier_query_submitted_total", {},
                    [qp] { return d(qp->stats().queries_submitted); },
                    "Queries submitted with this node as proxy");
  reg->AddCounterFn("pier_query_graphs_received_total", {},
                    [qp] { return d(qp->stats().graphs_received); },
                    "Disseminated opgraphs received and started");
  reg->AddCounterFn("pier_query_answers_forwarded_total", {},
                    [qp] { return d(qp->stats().answers_forwarded); },
                    "Answer tuples sent toward a remote proxy");
  reg->AddCounterFn("pier_query_answers_delivered_total", {},
                    [qp] { return d(qp->stats().answers_delivered); },
                    "Answer tuples handed to a local client");
  reg->AddCounterFn("pier_query_adoptions_total", {},
                    [qp] { return d(qp->stats().adoptions); },
                    "Proxy roles taken over via failover");
  reg->AddCounterFn("pier_query_answers_buffered_total", {},
                    [qp] { return d(qp->stats().answers_buffered); },
                    "Answers held for a not-yet-attached client");
}

void RegisterNodeMetrics(MetricsRegistry* reg, QueryProcessor* qp) {
  Dht* dht = qp->dht();
  RegisterDhtMetrics(reg, dht);
  RegisterRouterMetrics(reg, dht->router());
  RegisterTransportMetrics(reg, dht->router()->transport());
  RegisterReplicationMetrics(reg, dht->replication());
  RegisterExecutorMetrics(reg, qp->executor());
  RegisterQueryProcessorMetrics(reg, qp);
  // Event-driven families (per-qid answer counters, answer-size histogram,
  // labeled reap/probe counters) are minted by the processor and executor.
  qp->set_metrics(reg);
}

}  // namespace pier
