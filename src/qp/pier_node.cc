#include "qp/pier_node.h"

#include "obs/node_metrics.h"
#include "util/logging.h"

namespace pier {

PierNode::PierNode(Vri* vri, const Dht::Options& dht, uint16_t metrics_port)
    : dht_(std::make_unique<Dht>(vri, dht)),
      qp_(std::make_unique<QueryProcessor>(vri, dht_.get())) {
  RegisterNodeMetrics(&metrics_, qp_.get());
  if (metrics_port != 0) {
    endpoint_ = std::make_unique<MetricsEndpoint>(vri, &metrics_);
    Status s = endpoint_->Listen(metrics_port);
    PIER_CHECK(s.ok());
  }
}

}  // namespace pier
