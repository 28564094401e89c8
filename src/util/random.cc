#include "util/random.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/hash.h"

namespace pier {

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  // SplitMix64 expansion of the seed into four nonzero state words.
  uint64_t z = seed;
  for (auto& s : s_) {
    z += 0x9e3779b97f4a7c15ULL;
    s = Mix64(z);
  }
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::Uniform(uint64_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -n % n;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformRange(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<int64_t>(
                  Uniform(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

double Rng::Exponential(double mean) {
  assert(mean > 0);
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

ZipfGenerator::ZipfGenerator(uint64_t n, double theta) : n_(n) {
  assert(n > 0);
  cdf_.resize(n);
  double sum = 0;
  for (uint64_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), theta);
    cdf_[k] = sum;
  }
  for (auto& c : cdf_) c /= sum;
  cdf_.back() = 1.0;  // exact, despite FP rounding
}

uint64_t ZipfGenerator::Sample(Rng* rng) const {
  double u = rng->NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return n_ - 1;
  return static_cast<uint64_t>(it - cdf_.begin());
}

}  // namespace pier
