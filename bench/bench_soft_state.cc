// Experiment E9 — §3.2.3 soft state: the availability / publisher-cost
// trade-off of the renewal period.
//
// A publisher keeps 100 objects alive (lifetime L = 20s) while nodes fail
// underneath them. Shorter renewal periods detect a lost object sooner (the
// renew fails, the publisher re-puts) at the cost of more renewal traffic.
// We sweep the renewal period and report availability (fraction of sampled
// gets that find the object) and publisher operations.

#include "bench/bench_common.h"
#include "qp/sim_pier.h"

namespace pier {
namespace {

constexpr uint32_t kNodes = 48;
constexpr int kObjects = 100;
constexpr TimeUs kLifetime = 20 * kSecond;
constexpr TimeUs kRunTime = 180 * kSecond;
constexpr TimeUs kFailEvery = 30 * kSecond;  // one random node dies

struct Outcome {
  double availability = 0;
  uint64_t publisher_ops = 0;  // renews + re-puts
};

Outcome Measure(TimeUs renew_period, uint64_t seed) {
  SimPier::Options opts;
  opts.sim.seed = seed;
  opts.seed_routing = true;
  opts.settle_time = 2 * kSecond;
  SimPier net(kNodes, opts);

  // Publish the working set from node 0 (node 0 never fails).
  auto key = [](int i) { return "obj" + std::to_string(i); };
  for (int i = 0; i < kObjects; ++i) {
    net.dht(0)->Put("ss", key(i), "s", "payload", kLifetime);
  }
  net.RunFor(2 * kSecond);

  uint64_t publisher_ops = kObjects;
  uint64_t probes = 0, hits = 0;
  Rng rng(seed + 5);

  // The publisher's renewal loop, the failure process, and the sampler all
  // advance together in 1s steps of virtual time.
  TimeUs next_renew = renew_period > 0 ? renew_period : kRunTime + kSecond;
  TimeUs next_fail = kFailEvery;
  for (TimeUs t = 0; t < kRunTime; t += kSecond) {
    if (renew_period > 0 && t >= next_renew) {
      next_renew += renew_period;
      for (int i = 0; i < kObjects; ++i) {
        publisher_ops++;
        net.dht(0)->Renew("ss", key(i), "s", kLifetime,
                          [&, i](const Status& s) {
                            if (!s.ok()) {
                              // Lost (owner died or expired): publish again.
                              publisher_ops++;
                              net.dht(0)->Put("ss", key(i), "s", "payload",
                                              kLifetime);
                            }
                          });
      }
    }
    if (t >= next_fail) {
      next_fail += kFailEvery;
      uint32_t victim = 1 + static_cast<uint32_t>(rng.Uniform(kNodes - 1));
      if (net.harness()->IsAlive(victim)) {
        net.harness()->FailNode(victim);
        net.SeedAll();  // repair routing; churn handling is E14's subject
      }
    }
    // Sample availability: 5 random objects per second from a live node.
    for (int s = 0; s < 5; ++s) {
      int i = static_cast<int>(rng.Uniform(kObjects));
      probes++;
      net.dht(0)->Get("ss", key(i),
                      [&](const Status& st, std::vector<DhtItem> items) {
                        if (st.ok() && !items.empty()) hits++;
                      });
    }
    net.RunFor(kSecond);
  }
  net.RunFor(5 * kSecond);  // drain in-flight gets

  Outcome out;
  out.availability = probes ? static_cast<double>(hits) / probes : 0;
  out.publisher_ops = publisher_ops;
  return out;
}

void Run() {
  bench::Title("E9: soft state — renewal period vs availability and cost");
  bench::Note("objects=" + std::to_string(kObjects) + " lifetime=" +
              std::to_string(kLifetime / kSecond) + "s run=" +
              std::to_string(kRunTime / kSecond) + "s, node failure every " +
              std::to_string(kFailEvery / kSecond) + "s");
  std::vector<int> w = {18, 16, 16};
  bench::Row({"renew period", "availability%", "publisher ops"}, w);
  struct Case {
    const char* name;
    TimeUs period;
  };
  for (const Case& c : {Case{"L/4 (5s)", kLifetime / 4},
                        Case{"L/2 (10s)", kLifetime / 2},
                        Case{"0.9L (18s)", kLifetime * 9 / 10},
                        Case{"none", 0}}) {
    Outcome o = Measure(c.period, 211);
    bench::Row({c.name, bench::Fmt(100 * o.availability),
                std::to_string(o.publisher_ops)},
               w);
  }
  bench::Note(
      "expected shape: availability falls as renewals become rarer (failures "
      "and expiry go unrepaired longer); publisher cost falls with it. With "
      "no renewal, everything expires after L and availability collapses.");
}

}  // namespace
}  // namespace pier

int main() {
  pier::Run();
  return 0;
}
