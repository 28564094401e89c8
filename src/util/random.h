// Deterministic pseudo-randomness for simulations and workload generators.
//
// All stochastic behaviour in pier-cpp flows from an explicitly seeded `Rng`
// so that simulation runs are bit-for-bit reproducible (a core requirement of
// PIER's "native simulation" design, §2.1.3 of the paper).

#ifndef PIER_UTIL_RANDOM_H_
#define PIER_UTIL_RANDOM_H_

#include <cstdint>
#include <vector>

namespace pier {

/// xoshiro256** generator. Not cryptographic; fast and high quality.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n);

  /// Uniform in [lo, hi] inclusive. lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability p.
  bool Bernoulli(double p);

  /// Exponentially distributed with the given mean (> 0).
  double Exponential(double mean);

 private:
  uint64_t s_[4];
};

/// Zipf-distributed ranks in [0, n): P(k) proportional to 1/(k+1)^theta.
///
/// Used for keyword popularity in the filesharing workload and source-IP skew
/// in the firewall workload. Precomputes the CDF; sampling is O(log n).
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double theta);

  /// Sample a rank in [0, n); rank 0 is the most popular item.
  uint64_t Sample(Rng* rng) const;

  uint64_t n() const { return n_; }

 private:
  uint64_t n_;
  std::vector<double> cdf_;
};

}  // namespace pier

#endif  // PIER_UTIL_RANDOM_H_
