#include "runtime/network_model.h"

#include <algorithm>
#include <cassert>

namespace pier {

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

std::unique_ptr<CongestionModel> MakeCongestionModel(CongestionKind kind,
                                                     Topology* topology) {
  switch (kind) {
    case CongestionKind::kNone:
      return std::make_unique<NoCongestionModel>(topology);
    case CongestionKind::kFifo:
      return std::make_unique<FifoQueueModel>(topology);
  }
  return nullptr;
}

}  // namespace pier
