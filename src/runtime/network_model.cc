#include "runtime/network_model.h"

#include <algorithm>
#include <cassert>

namespace pier {

// ---------------------------------------------------------------------------
// StarTopology
// ---------------------------------------------------------------------------

void StarTopology::EnsureNodes(uint32_t n) {
  while (access_.size() < n) {
    access_.push_back(rng_.UniformRange(kMinAccessLatency, kMaxAccessLatency));
  }
}

TimeUs StarTopology::Latency(uint32_t a, uint32_t b) const {
  if (a == b) return 0;
  assert(a < access_.size() && b < access_.size());
  return access_[a] + access_[b];
}

// ---------------------------------------------------------------------------
// TransitStubTopology
// ---------------------------------------------------------------------------

TransitStubTopology::TransitStubTopology(uint64_t seed) : rng_(seed) {
  const int t = kNumTransit;
  // Transit mesh: ring plus random chords, then all-pairs shortest paths.
  std::vector<std::vector<TimeUs>> adj(t, std::vector<TimeUs>(t, -1));
  for (int i = 0; i < t; ++i) adj[i][i] = 0;
  for (int i = 0; i < t; ++i) {
    int j = (i + 1) % t;
    if (i != j) adj[i][j] = adj[j][i] = kTransitEdgeLatency;
  }
  for (int i = 0; i < t; ++i) {
    for (int j = i + 2; j < t; ++j) {
      if (rng_.Bernoulli(kExtraTransitEdgeProb)) {
        adj[i][j] = adj[j][i] = kTransitEdgeLatency;
      }
    }
  }
  // Floyd-Warshall (t is small).
  transit_dist_ = adj;
  for (auto& row : transit_dist_)
    for (auto& d : row)
      if (d < 0) d = 1'000'000'000;  // effectively infinite
  for (int k = 0; k < t; ++k)
    for (int i = 0; i < t; ++i)
      for (int j = 0; j < t; ++j)
        transit_dist_[i][j] =
            std::min(transit_dist_[i][j], transit_dist_[i][k] + transit_dist_[k][j]);

  for (int i = 0; i < t; ++i)
    for (int s = 0; s < kStubsPerTransit; ++s) stub_transit_.push_back(i);
}

void TransitStubTopology::EnsureNodes(uint32_t n) {
  while (host_stub_.size() < n) {
    host_stub_.push_back(static_cast<int>(rng_.Uniform(stub_transit_.size())));
    host_access_.push_back(rng_.UniformRange(kHostStubLatencyMin,
                                             kHostStubLatencyMax));
  }
}

TimeUs TransitStubTopology::Latency(uint32_t a, uint32_t b) const {
  if (a == b) return 0;
  assert(a < host_stub_.size() && b < host_stub_.size());
  int sa = host_stub_[a], sb = host_stub_[b];
  TimeUs lat = host_access_[a] + host_access_[b];
  if (sa == sb) return lat;  // same stub network
  int ta = stub_transit_[sa], tb = stub_transit_[sb];
  lat += 2 * kTransitStubLatency;
  lat += transit_dist_[ta][tb];
  return lat;
}

// ---------------------------------------------------------------------------
// Congestion models
// ---------------------------------------------------------------------------

namespace {
TimeUs TransmissionTime(double bytes_per_sec, size_t bytes) {
  if (bytes_per_sec <= 0) return 0;
  double secs = static_cast<double>(bytes) / bytes_per_sec;
  return static_cast<TimeUs>(secs * kSecond);
}
}  // namespace

TimeUs NoCongestionModel::DeliveryTime(uint32_t src, uint32_t dst, size_t bytes,
                                       TimeUs now) {
  (void)bytes;
  return now + topology_->Latency(src, dst);
}

TimeUs FifoQueueModel::DeliveryTime(uint32_t src, uint32_t dst, size_t bytes,
                                    TimeUs now) {
  TimeUs tx = TransmissionTime(topology_->UplinkBytesPerSec(src), bytes);
  TimeUs& busy = uplink_busy_until_[src];
  TimeUs start = std::max(now, busy);
  busy = start + tx;
  return busy + topology_->Latency(src, dst);
}

TimeUs FairQueueModel::DeliveryTime(uint32_t src, uint32_t dst, size_t bytes,
                                    TimeUs now) {
  // Start-time fair queuing approximation: each flow's transmissions
  // serialize on its own virtual finish time, scaled by the number of
  // currently backlogged flows sharing the uplink.
  Uplink& up = uplinks_[src];
  int active = 0;
  for (auto it = up.flow_finish.begin(); it != up.flow_finish.end();) {
    if (it->second <= now) {
      it = up.flow_finish.erase(it);  // drained flow
    } else {
      ++active;
      ++it;
    }
  }
  TimeUs tx = TransmissionTime(topology_->UplinkBytesPerSec(src), bytes);
  TimeUs& finish = up.flow_finish[dst];
  TimeUs start = std::max(now, finish);
  // This flow sees 1/(active flows incl. itself) of the uplink while others
  // are backlogged.
  int share = std::max(1, active + (finish <= now ? 1 : 0));
  finish = start + tx * share;
  return finish + topology_->Latency(src, dst);
}

std::unique_ptr<Topology> MakeTopology(TopologyKind kind, uint64_t seed) {
  switch (kind) {
    case TopologyKind::kStar:
      return std::make_unique<StarTopology>(seed);
    case TopologyKind::kTransitStub:
      return std::make_unique<TransitStubTopology>(seed);
  }
  return nullptr;
}

std::unique_ptr<CongestionModel> MakeCongestionModel(CongestionKind kind,
                                                     Topology* topology) {
  switch (kind) {
    case CongestionKind::kNone:
      return std::make_unique<NoCongestionModel>(topology);
    case CongestionKind::kFifo:
      return std::make_unique<FifoQueueModel>(topology);
    case CongestionKind::kFair:
      return std::make_unique<FairQueueModel>(topology);
  }
  return nullptr;
}

}  // namespace pier
