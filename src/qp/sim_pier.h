// SimPier: a simulated network of full PIER nodes, the one simulated
// harness.
//
// Boots `n` virtual nodes, each running a PierNode (DHT + query processor +
// metrics), seeds routing (or lets nodes join live), and runs ring
// maintenance long enough for the overlay to settle. Tests, benches and
// examples publish and query through the client façade at any node via
// client(i) — every node's PierClient shares one application catalog
// (catalog()) and drives the harness's virtual clock for blocking waits.
// qp(i)/dht(i) stay available for operator-level poking, and DHT-level tests
// use dht(i) alone.

#ifndef PIER_QP_SIM_PIER_H_
#define PIER_QP_SIM_PIER_H_

#include <map>
#include <memory>
#include <vector>

#include "client/pier_client.h"
#include "qp/pier_node.h"
#include "runtime/sim_runtime.h"

namespace pier {

class SimPier {
 public:
  struct Options {
    SimOptions sim;
    Dht::Options dht;
    /// true: install correct routing state instantly after boot.
    /// false: nodes join through node 0 and converge via maintenance.
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

  SimPier(uint32_t n, Options options);
  explicit SimPier(uint32_t n) : SimPier(n, Options{}) {}

  SimHarness* harness() { return &harness_; }
  EventLoop* loop() { return harness_.loop(); }
  PierNode* node(uint32_t index);
  Dht* dht(uint32_t index) { return node(index)->dht(); }
  QueryProcessor* qp(uint32_t index) { return node(index)->qp(); }
  size_t size() const { return harness_.num_nodes(); }

  /// Boot one more node that joins through node 0 (live join).
  uint32_t AddNode();

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
  MetricsRegistry* metrics(uint32_t index) { return node(index)->metrics(); }
  /// Where node `index`'s scrape endpoint listens (Options::metrics_port
  /// must be nonzero for the listener to exist).
  NetAddress metrics_address(uint32_t index) {
    return harness_.AddressOf(index, options_.metrics_port);
  }

  /// Install globally-consistent routing state on every live node.
  void SeedAll();

  void RunFor(TimeUs t) { harness_.RunFor(t); }

 private:
  class Program;

  Options options_;
  SimHarness harness_;
  Catalog catalog_;
  StatsRegistry stats_;
  std::map<uint32_t, std::unique_ptr<PierClient>> clients_;
};

}  // namespace pier

#endif  // PIER_QP_SIM_PIER_H_
