// SimOverlay: a SimHarness pre-populated with N DHT nodes.
//
// The workhorse for tests, benchmarks and examples: boots `n` virtual nodes,
// each running a Dht instance, and either lets them join live (bootstrap
// through node 0, then stabilize) or warm-starts routing state from global
// knowledge (`seed_routing`), which is how the large-N experiments avoid
// spending all their simulated time in join traffic.

#ifndef PIER_OVERLAY_SIM_OVERLAY_H_
#define PIER_OVERLAY_SIM_OVERLAY_H_

#include <functional>
#include <memory>
#include <vector>

#include "overlay/dht.h"
#include "runtime/sim_runtime.h"

namespace pier {

class SimOverlay {
 public:
  struct Options {
    SimOptions sim;
    Dht::Options dht;
    /// true: install correct routing state instantly after boot.
    /// false: nodes join through node 0 and converge via maintenance.
    bool seed_routing = true;
    /// Virtual time to run after boot (join traffic, tree formation).
    TimeUs settle_time = 5 * kSecond;
  };

  /// A node program that owns a Dht bound to its virtual node's Vri.
  class DhtNode : public SimProgram {
   public:
    DhtNode(Vri* vri, const Dht::Options& options, NetAddress bootstrap);
    void Start() override;
    void Stop() override {}
    Dht* dht() { return dht_.get(); }

   private:
    std::unique_ptr<Dht> dht_;
    NetAddress bootstrap_;
  };

  SimOverlay(uint32_t n, Options options);

  SimHarness* harness() { return &harness_; }
  EventLoop* loop() { return harness_.loop(); }
  Dht* dht(uint32_t index);
  size_t size() const { return harness_.num_nodes(); }

  /// Boot one more node that joins through node 0 (live join).
  uint32_t AddNode();

  /// Install globally-consistent routing state on every live node.
  void SeedAll();

  void RunFor(TimeUs t) { harness_.RunFor(t); }

 private:
  Options options_;
  SimHarness harness_;
};

/// Install globally-consistent routing state on every live node of
/// `harness`; `dht_at(i)` is node i's Dht. Both sim harnesses (SimOverlay,
/// SimPier) seed through this.
void SeedRouting(SimHarness* harness,
                 const std::function<Dht*(uint32_t)>& dht_at);

}  // namespace pier

#endif  // PIER_OVERLAY_SIM_OVERLAY_H_
