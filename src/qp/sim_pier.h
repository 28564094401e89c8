// SimPier: a simulated network of full PIER nodes (DHT + query processor).
//
// The query-processing analogue of SimOverlay: boots `n` virtual nodes, each
// running a Dht and a QueryProcessor, seeds routing (or lets nodes join
// live), and runs ring maintenance long enough for the overlay to settle.
// Tests, benches and examples publish and query through the client
// façade at any node via client(i) — every node's PierClient shares one
// application catalog (catalog()) and drives the harness's virtual clock for
// blocking waits. qp(i)/dht(i) stay available for operator-level poking.

#ifndef PIER_QP_SIM_PIER_H_
#define PIER_QP_SIM_PIER_H_

#include <map>
#include <memory>
#include <vector>

#include "client/pier_client.h"
#include "obs/metrics.h"
#include "obs/scrape.h"
#include "overlay/sim_overlay.h"
#include "qp/query_processor.h"

namespace pier {

class SimPier {
 public:
  struct Options {
    SimOptions sim;
    Dht::Options dht;
    bool seed_routing = true;
    /// Virtual time to run after boot: join traffic, ring maintenance and
    /// the fix-finger loop's backoff settle within it.
    TimeUs settle_time = 8 * kSecond;
    /// When nonzero, every node serves its Prometheus-text scrape endpoint
    /// on this (per-node) TCP port; metrics_address(i) names it. The
    /// per-node MetricsRegistry exists either way — 0 only skips the
    /// listener.
    uint16_t metrics_port = 0;
  };

  class PierNode : public SimProgram {
   public:
    PierNode(Vri* vri, const Options& options, NetAddress bootstrap);
    void Start() override;
    void Stop() override {}
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
    NetAddress bootstrap_;
  };

  SimPier(uint32_t n, Options options);
  explicit SimPier(uint32_t n) : SimPier(n, Options{}) {}

  SimHarness* harness() { return &harness_; }
  EventLoop* loop() { return harness_.loop(); }
  Dht* dht(uint32_t index);
  QueryProcessor* qp(uint32_t index);
  size_t size() const { return harness_.num_nodes(); }

  /// The application catalog shared by every node's client.
  Catalog* catalog() { return &catalog_; }

  /// The statistics registry shared by every node's client (the simulation
  /// collapses per-node registries into one, so it already holds the
  /// cluster-wide view a real node would assemble from sys.stats queries).
  StatsRegistry* stats() { return &stats_; }

  /// The client façade at node `index` (created on first use). Its Wait /
  /// Collect calls advance the simulation's virtual time; its cost model
  /// knows the simulated network size.
  PierClient* client(uint32_t index);

  /// Node `index`'s metrics registry (all subsystem collectors registered).
  MetricsRegistry* metrics(uint32_t index);
  /// Where node `index`'s scrape endpoint listens (Options::metrics_port
  /// must be nonzero for the listener to exist).
  NetAddress metrics_address(uint32_t index) {
    return harness_.AddressOf(index, options_.metrics_port);
  }

  /// Install globally-consistent routing state on every live node.
  void SeedAll();

  void RunFor(TimeUs t) { harness_.RunFor(t); }

 private:
  Options options_;
  SimHarness harness_;
  Catalog catalog_;
  StatsRegistry stats_;
  std::map<uint32_t, std::unique_ptr<PierClient>> clients_;
};

}  // namespace pier

#endif  // PIER_QP_SIM_PIER_H_
