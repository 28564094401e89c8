// PierNode: one PIER node — the DHT, the query processor, the node's
// metrics registry and, when asked, its scrape endpoint — built on any Vri.
//
// The same class runs in both environments of §3.1: SimPier boots one per
// virtual node, and a real deployment (or test_physical_ring) boots one per
// PhysicalRuntime. Nothing here knows which runtime it sits on.

#ifndef PIER_QP_PIER_NODE_H_
#define PIER_QP_PIER_NODE_H_

#include <memory>

#include "obs/metrics.h"
#include "obs/scrape.h"
#include "overlay/dht.h"
#include "qp/query_processor.h"

namespace pier {

class PierNode {
 public:
  /// A nonzero `metrics_port` makes the node serve its Prometheus-text
  /// scrape endpoint there; the registry exists either way.
  PierNode(Vri* vri, const Dht::Options& dht, uint16_t metrics_port = 0);

  PierNode(const PierNode&) = delete;
  PierNode& operator=(const PierNode&) = delete;

  /// Join the overlay through `bootstrap` (null: this is the first node).
  void Join(const NetAddress& bootstrap) { dht_->Join(bootstrap); }

  Dht* dht() { return dht_.get(); }
  QueryProcessor* qp() { return qp_.get(); }
  MetricsRegistry* metrics() { return &metrics_; }
  MetricsEndpoint* endpoint() { return endpoint_.get(); }

 private:
  /// Declared before the subsystems whose Stats its collector closures
  /// read, destroyed after them — nothing snapshots during teardown.
  MetricsRegistry metrics_;
  std::unique_ptr<Dht> dht_;
  std::unique_ptr<QueryProcessor> qp_;
  std::unique_ptr<MetricsEndpoint> endpoint_;
};

}  // namespace pier

#endif  // PIER_QP_PIER_NODE_H_
