#include "qp/sim_pier.h"

#include <algorithm>

#include "obs/node_metrics.h"
#include "overlay/routing_chord.h"
#include "overlay/routing_prefix.h"
#include "util/logging.h"

namespace pier {

SimPier::PierNode::PierNode(Vri* vri, const Options& options,
                            NetAddress bootstrap)
    : dht_(std::make_unique<Dht>(vri, options.dht)),
      qp_(std::make_unique<QueryProcessor>(vri, dht_.get())),
      bootstrap_(bootstrap) {
  RegisterNodeMetrics(&metrics_, qp_.get());
  if (options.metrics_port != 0) {
    endpoint_ = std::make_unique<MetricsEndpoint>(vri, &metrics_);
    Status s = endpoint_->Listen(options.metrics_port);
    PIER_CHECK(s.ok());
  }
}

void SimPier::PierNode::Start() { dht_->Join(bootstrap_); }

SimPier::SimPier(uint32_t n, Options options)
    : options_(options), harness_(options.sim) {
  uint16_t port = options_.dht.router.port;
  harness_.set_program_factory(
      [this, port](Vri* vri, uint32_t index) -> std::unique_ptr<SimProgram> {
        NetAddress bootstrap =
            index == 0 ? NetAddress{} : harness_.AddressOf(0, port);
        return std::make_unique<PierNode>(vri, options_, bootstrap);
      });
  harness_.AddNodes(n);
  harness_.loop()->RunUntil(harness_.loop()->now() + 1);
  // Operator execution feeds the shared statistics registry too: tuples a
  // Put exchange publishes into an application namespace count like
  // client-published ones. Per-query rendezvous namespaces stay out.
  for (uint32_t i = 0; i < harness_.num_nodes(); ++i) {
    EventLoop* loop = harness_.loop();
    qp(i)->executor()->set_publish_observer(
        [this, loop](const std::string& ns,
                     const std::vector<std::string>& key_attrs, const Tuple& t,
                     size_t bytes) {
          if (IsQueryScopedNamespace(ns) || ns == kSysStatsTable ||
              ns == kSysMetricsTable)
            return;
          stats_.Observe(ns, t, key_attrs, bytes, loop->now());
        });
  }
  if (options_.seed_routing) {
    SeedAll();
  }
  harness_.RunFor(options_.settle_time);
}

Dht* SimPier::dht(uint32_t index) {
  auto* node = static_cast<PierNode*>(harness_.program(index));
  return node->dht();
}

QueryProcessor* SimPier::qp(uint32_t index) {
  auto* node = static_cast<PierNode*>(harness_.program(index));
  return node->qp();
}

MetricsRegistry* SimPier::metrics(uint32_t index) {
  auto* node = static_cast<PierNode*>(harness_.program(index));
  return node->metrics();
}

PierClient* SimPier::client(uint32_t index) {
  auto it = clients_.find(index);
  if (it == clients_.end()) {
    it = clients_
             .emplace(index, std::make_unique<PierClient>(
                                 qp(index), &catalog_,
                                 [this](TimeUs t) { harness_.RunFor(t); },
                                 &stats_))
             .first;
    CostParams params;
    params.nodes = static_cast<double>(harness_.num_nodes());
    it->second->set_cost_params(params);
    it->second->set_metrics(metrics(index));
  }
  return it->second.get();
}

void SimPier::SeedAll() {
  std::vector<ChordProtocol::Peer> ring;
  for (uint32_t i = 0; i < harness_.num_nodes(); ++i) {
    if (!harness_.IsAlive(i)) continue;
    Dht* d = dht(i);
    ring.push_back(ChordProtocol::Peer{d->local_id(), d->local_address()});
  }
  std::sort(ring.begin(), ring.end(),
            [](const ChordProtocol::Peer& a, const ChordProtocol::Peer& b) {
              return a.id < b.id;
            });
  for (uint32_t i = 0; i < harness_.num_nodes(); ++i) {
    if (!harness_.IsAlive(i)) continue;
    RoutingProtocol* proto = dht(i)->router()->protocol();
    if (auto* chord = dynamic_cast<ChordProtocol*>(proto)) {
      chord->SeedRoutingState(ring);
    } else if (auto* prefix = dynamic_cast<PrefixProtocol*>(proto)) {
      std::vector<PrefixProtocol::Peer> pring;
      pring.reserve(ring.size());
      for (const auto& p : ring)
        pring.push_back(PrefixProtocol::Peer{p.id, p.addr});
      prefix->SeedRoutingState(pring);
    }
  }
}

}  // namespace pier
