#include "qp/sim_pier.h"

#include <algorithm>

namespace pier {

/// A virtual node's program: the node itself, joining at boot.
class SimPier::Program : public SimProgram {
 public:
  Program(Vri* vri, const Options& options, NetAddress bootstrap)
      : node(vri, options.dht, options.metrics_port), bootstrap_(bootstrap) {}
  void Start() override { node.Join(bootstrap_); }

  PierNode node;

 private:
  NetAddress bootstrap_;
};

SimPier::SimPier(uint32_t n, Options options)
    : options_(options), harness_(options.sim) {
  uint16_t port = options_.dht.router.port;
  harness_.set_program_factory(
      [this, port](Vri* vri, uint32_t index) -> std::unique_ptr<SimProgram> {
        NetAddress bootstrap =
            index == 0 ? NetAddress{} : harness_.AddressOf(0, port);
        auto program = std::make_unique<Program>(vri, options_, bootstrap);
        // Operator execution feeds the shared statistics registry too:
        // tuples a Put exchange publishes into an application namespace
        // count like client-published ones. Per-query rendezvous namespaces
        // stay out.
        EventLoop* loop = harness_.loop();
        program->node.qp()->executor()->set_publish_observer(
            [this, loop](const std::string& ns,
                         const std::vector<std::string>& key_attrs,
                         const Tuple& t, size_t bytes) {
              if (IsQueryScopedNamespace(ns) || ns == kSysStatsTable ||
                  ns == kSysMetricsTable)
                return;
              stats_.Observe(ns, t, key_attrs, bytes, loop->now());
            });
        return program;
      });
  harness_.AddNodes(n);
  // Let Start() events fire.
  harness_.loop()->RunUntil(harness_.loop()->now() + 1);
  if (options_.seed_routing) {
    SeedAll();
  }
  harness_.RunFor(options_.settle_time);
}

PierNode* SimPier::node(uint32_t index) {
  return &static_cast<Program*>(harness_.program(index))->node;
}

uint32_t SimPier::AddNode() {
  uint32_t index = harness_.AddNode();
  harness_.loop()->RunUntil(harness_.loop()->now() + 1);
  return index;
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
  // The sorted live ring, installed on every live node.
  std::vector<RingPeer> ring;
  for (uint32_t i = 0; i < harness_.num_nodes(); ++i) {
    if (!harness_.IsAlive(i)) continue;
    ring.push_back(RingPeer{dht(i)->local_id(), dht(i)->local_address()});
  }
  std::sort(ring.begin(), ring.end(),
            [](const RingPeer& a, const RingPeer& b) { return a.id < b.id; });
  for (uint32_t i = 0; i < harness_.num_nodes(); ++i) {
    if (harness_.IsAlive(i))
      dht(i)->router()->protocol()->SeedRoutingState(ring);
  }
}

}  // namespace pier
