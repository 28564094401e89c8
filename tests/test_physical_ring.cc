// A ring of PIER nodes on real sockets (§3.1.3): four PierNodes, each on its
// own PhysicalRuntime, loopback port and event thread, join through node 0
// and converge by live Chord maintenance. The test publishes one table at
// k = 1 and at k = 3, runs a filter and a GROUP BY through every node's
// PierClient, and expects each answer multiset to equal the one the same
// script gets from a four-node SimPier. The node code is the same in both
// environments; only the runtime under it differs.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/pier_client.h"
#include "overlay/routing_chord.h"
#include "qp/pier_node.h"
#include "qp/sim_pier.h"
#include "runtime/physical_runtime.h"

namespace pier {
namespace {

constexpr uint32_t kNodes = 4;
constexpr int kRows = 48;
const char* const kTables[] = {"t1", "t3"};  // published at k = 1 and k = 3

/// Each join reaches its neighbours within a few stabilize rounds; on a
/// four-node loopback ring that is well inside 16 of them.
constexpr TimeUs kConvergeBound =
    16 * ChordProtocol::Options{}.stabilize_period;
/// Publishes land within milliseconds on the loopback; this only bounds a
/// lost one.
constexpr TimeUs kStoreBound = 5 * kSecond;

const std::vector<std::string> kQueries = {
    "SELECT id, v FROM {} WHERE v >= 30 TIMEOUT 2s",
    "SELECT g, count(*) AS c, sum(v) AS s FROM {} GROUP BY g TIMEOUT 2s",
};

std::string QueryOn(const std::string& pattern, const std::string& table) {
  std::string q = pattern;
  q.replace(q.find("{}"), 2, table);
  return q;
}

void DeclareTables(Catalog* catalog) {
  ASSERT_TRUE(catalog->Register(TableSpec("t1").PartitionBy({"id"})).ok());
  ASSERT_TRUE(
      catalog->Register(TableSpec("t3").PartitionBy({"id"}).Replicas(3)).ok());
}

/// The rows node `i` publishes into `table`: every kNodes-th row.
std::vector<Tuple> RowsOf(uint32_t i, const std::string& table) {
  std::vector<Tuple> rows;
  for (int id = static_cast<int>(i); id < kRows; id += kNodes) {
    Tuple t(table);
    t.Append("id", Value::Int64(id));
    t.Append("g", Value::String("g" + std::to_string(id % 5)));
    t.Append("v", Value::Int64(id * 7 % 50));
    rows.push_back(std::move(t));
  }
  return rows;
}

/// An answer multiset, order-free.
std::vector<std::string> Canon(const std::vector<Tuple>& tuples) {
  std::vector<std::string> out;
  for (const Tuple& t : tuples) out.push_back(t.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

size_t StoredObjects(PierNode* node) {
  size_t n = 0;
  for (const char* table : kTables)
    n += node->dht()->objects()->NamespaceObjects(table);
  return n;
}

/// Answers[node][table][query], from the simulator.
using Answers = std::vector<std::vector<std::vector<std::vector<std::string>>>>;

Answers SimAnswers() {
  SimPier::Options opts;
  opts.sim.seed = 3;
  SimPier net(kNodes, opts);
  DeclareTables(net.catalog());
  for (uint32_t i = 0; i < kNodes; ++i)
    for (const char* table : kTables)
      EXPECT_TRUE(net.client(i)->PublishBatch(table, RowsOf(i, table)).ok());
  net.RunFor(2 * kSecond);
  Answers answers(kNodes);
  for (uint32_t i = 0; i < kNodes; ++i) {
    for (const char* table : kTables) {
      answers[i].emplace_back();
      for (const std::string& q : kQueries) {
        auto h = net.client(i)->Query(Sql(QueryOn(q, table)));
        EXPECT_TRUE(h.ok()) << h.status().ToString();
        answers[i].back().push_back(h.ok() ? Canon(h->Collect())
                                           : std::vector<std::string>{});
      }
    }
  }
  return answers;
}

/// Four nodes on the loopback, two threads each: the event thread that runs
/// the node's PhysicalRuntime, and the runtime's I/O thread.
class LoopbackRing {
 public:
  /// Run `fn` on node `i`'s event thread and return its result.
  template <typename Fn>
  auto On(uint32_t i, Fn fn) {
    auto task =
        std::make_shared<std::packaged_task<decltype(fn())()>>(std::move(fn));
    auto result = task->get_future();
    runtimes_[i]->PostFromAnyThread([task]() { (*task)(); });
    return result.get();
  }

  LoopbackRing() {
    // Spread across runs to dodge TIME_WAIT collisions.
    const uint16_t base =
        static_cast<uint16_t>(37200 + (::getpid() % 500) * kNodes);
    for (uint32_t i = 0; i < kNodes; ++i) {
      PhysicalRuntime::Options ropts;
      ropts.advertised_port = static_cast<uint16_t>(base + i);
      ropts.rng_seed = i + 1;
      runtimes_.push_back(std::make_unique<PhysicalRuntime>(ropts));
      Dht::Options dopts;
      dopts.router.port = ropts.advertised_port;
      nodes_.push_back(std::make_unique<PierNode>(runtimes_[i].get(), dopts));
      catalogs_.push_back(std::make_unique<Catalog>());
      DeclareTables(catalogs_[i].get());
      clients_.push_back(std::make_unique<PierClient>(nodes_[i]->qp(),
                                                      catalogs_[i].get()));
      CostParams params;
      params.nodes = kNodes;
      clients_[i]->set_cost_params(params);
    }
    for (auto& rt : runtimes_)
      threads_.emplace_back([r = rt.get()]() { r->Run(); });
    NetAddress first = nodes_[0]->dht()->local_address();
    for (uint32_t i = 0; i < kNodes; ++i)
      On(i, [&]() { nodes_[i]->Join(i == 0 ? NetAddress{} : first); });
  }

  ~LoopbackRing() {
    // No event runs once every runtime has stopped, so the nodes can go.
    for (auto& rt : runtimes_) rt->Stop();
    for (auto& t : threads_) t.join();
    clients_.clear();
    nodes_.clear();
    runtimes_.clear();
  }

  PierNode* node(uint32_t i) { return nodes_[i].get(); }
  PierClient* client(uint32_t i) { return clients_[i].get(); }

  /// Poll `done` (which runs on this thread, and may use On) until it holds
  /// or `bound` of wall-clock time passes.
  static bool WaitFor(TimeUs bound, const std::function<bool()>& done) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::microseconds(bound);
    while (!done()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return true;
  }

  /// True when every node's predecessor and first kNodes - 1 successors
  /// are the ring's.
  bool Converged() {
    std::vector<RingPeer> ring;
    for (auto& n : nodes_)
      ring.push_back(RingPeer{n->dht()->local_id(), n->dht()->local_address()});
    std::sort(ring.begin(), ring.end(),
              [](const RingPeer& a, const RingPeer& b) { return a.id < b.id; });
    for (uint32_t i = 0; i < kNodes; ++i) {
      bool ok = On(i, [&]() {
        auto* chord = static_cast<ChordProtocol*>(
            nodes_[i]->dht()->router()->protocol());
        if (!chord->IsReady()) return false;
        size_t at = 0;
        while (ring[at].id != nodes_[i]->dht()->local_id()) ++at;
        if (chord->predecessor().addr != ring[(at + kNodes - 1) % kNodes].addr)
          return false;
        const std::vector<RingPeer>& succs = chord->successors();
        if (succs.size() < kNodes - 1) return false;
        for (uint32_t s = 0; s + 1 < kNodes; ++s)
          if (succs[s].addr != ring[(at + 1 + s) % kNodes].addr) return false;
        return true;
      });
      if (!ok) return false;
    }
    return true;
  }

 private:
  std::vector<std::unique_ptr<PhysicalRuntime>> runtimes_;
  std::vector<std::unique_ptr<PierNode>> nodes_;
  std::vector<std::unique_ptr<Catalog>> catalogs_;
  std::vector<std::unique_ptr<PierClient>> clients_;
  std::vector<std::thread> threads_;
};

TEST(PhysicalRing, AnswersMatchTheSimulatorAtEveryNode) {
  const Answers expected = SimAnswers();
  ASSERT_EQ(expected[0][0][0].size(), 18u) << "rows with v >= 30";
  ASSERT_EQ(expected[0][0][1].size(), 5u) << "one group per g";

  LoopbackRing ring;
  ASSERT_TRUE(LoopbackRing::WaitFor(kConvergeBound,
                                    [&]() { return ring.Converged(); }))
      << "the ring did not converge";

  for (uint32_t i = 0; i < kNodes; ++i) {
    ring.On(i, [&]() {
      for (const char* table : kTables)
        EXPECT_TRUE(ring.client(i)->PublishBatch(table, RowsOf(i, table)).ok());
    });
  }
  // Every row stored once at k = 1 and three times at k = 3.
  const size_t copies = kRows * (1 + 3);
  size_t stored = 0;
  EXPECT_TRUE(LoopbackRing::WaitFor(kStoreBound, [&]() {
    stored = 0;
    for (uint32_t i = 0; i < kNodes; ++i)
      stored += ring.On(i, [&]() { return StoredObjects(ring.node(i)); });
    return stored == copies;
  })) << stored << " of " << copies << " copies stored";

  // Every query at once, each proxied by the node it was submitted at.
  struct Run {
    std::vector<Tuple> tuples;
    std::promise<void> done;
  };
  std::vector<std::unique_ptr<Run>> runs;
  for (uint32_t i = 0; i < kNodes; ++i) {
    for (const char* table : kTables) {
      for (const std::string& q : kQueries) {
        runs.push_back(std::make_unique<Run>());
        Run* run = runs.back().get();
        Status s = ring.On(i, [&]() {
          auto h = ring.client(i)->Query(Sql(QueryOn(q, table)));
          if (!h.ok()) return h.status();
          h->OnTuple([run](const Tuple& t) { run->tuples.push_back(t); });
          h->OnDone([run]() { run->done.set_value(); });
          return Status::Ok();
        });
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
    }
  }
  size_t next = 0;
  for (uint32_t i = 0; i < kNodes; ++i) {
    for (size_t t = 0; t < std::size(kTables); ++t) {
      for (size_t q = 0; q < kQueries.size(); ++q) {
        Run* run = runs[next++].get();
        run->done.get_future().wait();
        EXPECT_EQ(Canon(run->tuples), expected[i][t][q])
            << "node " << i << ": " << QueryOn(kQueries[q], kTables[t]);
      }
    }
  }
}

}  // namespace
}  // namespace pier
