#ifndef MIRABEL_COMMON_RNG_H_
#define MIRABEL_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mirabel {

/// Deterministic pseudo-random number generator (xoshiro256**).
///
/// Every stochastic component in the library (workload generators, the
/// evolutionary scheduler, simulated annealing, ...) takes an explicit seed so
/// that tests and benchmark harnesses are exactly reproducible. std::mt19937
/// is avoided because its distributions are not stable across standard-library
/// implementations; all distribution logic here is self-contained.
class Rng {
 public:
  /// Seeds the generator. Two Rng instances with equal seeds produce
  /// identical streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller.
  double NextGaussian();

  /// Gaussian with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Bernoulli trial with probability `p` of returning true.
  bool Bernoulli(double p);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Picks a uniformly random index in [0, n). Requires n > 0.
  size_t Index(size_t n);

  /// Derives an independent child generator; useful to give each worker or
  /// entity its own deterministic stream.
  Rng Fork();

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace mirabel

#endif  // MIRABEL_COMMON_RNG_H_
