#include "overlay/sim_overlay.h"

#include <algorithm>

#include "overlay/routing_chord.h"
#include "overlay/routing_prefix.h"

namespace pier {

SimOverlay::DhtNode::DhtNode(Vri* vri, const Dht::Options& options,
                             NetAddress bootstrap)
    : dht_(std::make_unique<Dht>(vri, options)), bootstrap_(bootstrap) {}

void SimOverlay::DhtNode::Start() { dht_->Join(bootstrap_); }

SimOverlay::SimOverlay(uint32_t n, Options options)
    : options_(options), harness_(options.sim) {
  uint16_t port = options_.dht.router.port;
  harness_.set_program_factory(
      [this, port](Vri* vri, uint32_t index) -> std::unique_ptr<SimProgram> {
        NetAddress bootstrap =
            index == 0 ? NetAddress{} : harness_.AddressOf(0, port);
        return std::make_unique<DhtNode>(vri, options_.dht, bootstrap);
      });
  harness_.AddNodes(n);
  // Let Start() events fire.
  harness_.loop()->RunUntil(harness_.loop()->now() + 1);
  if (options_.seed_routing) {
    SeedAll();
  }
  harness_.RunFor(options_.settle_time);
}

Dht* SimOverlay::dht(uint32_t index) {
  auto* node = static_cast<DhtNode*>(harness_.program(index));
  return node->dht();
}

uint32_t SimOverlay::AddNode() {
  uint32_t index = harness_.AddNode();
  harness_.loop()->RunUntil(harness_.loop()->now() + 1);
  return index;
}

void SimOverlay::SeedAll() {
  SeedRouting(&harness_, [this](uint32_t i) { return dht(i); });
}

void SeedRouting(SimHarness* harness,
                 const std::function<Dht*(uint32_t)>& dht_at) {
  // Build the sorted live ring.
  std::vector<ChordProtocol::Peer> ring;
  for (uint32_t i = 0; i < harness->num_nodes(); ++i) {
    if (!harness->IsAlive(i)) continue;
    Dht* d = dht_at(i);
    ring.push_back(ChordProtocol::Peer{d->local_id(), d->local_address()});
  }
  std::sort(ring.begin(), ring.end(),
            [](const ChordProtocol::Peer& a, const ChordProtocol::Peer& b) {
              return a.id < b.id;
            });
  for (uint32_t i = 0; i < harness->num_nodes(); ++i) {
    if (!harness->IsAlive(i)) continue;
    RoutingProtocol* proto = dht_at(i)->router()->protocol();
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
