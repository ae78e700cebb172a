#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace mirabel {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  // Expand the 64-bit seed into the 256-bit xoshiro state with SplitMix64, as
  // recommended by the xoshiro authors.
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::NextUint64() {
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

double Rng::NextDouble() {
  // 53 top bits -> uniform double in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  assert(lo <= hi);
  return lo + (hi - lo) * NextDouble();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<int64_t>(NextUint64());  // full range
  // Debiased modulo (rejection sampling).
  uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t v = NextUint64();
  while (v >= limit) v = NextUint64();
  return lo + static_cast<int64_t>(v % range);
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  double u2 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

size_t Rng::Index(size_t n) {
  assert(n > 0);
  return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(n) - 1));
}

Rng Rng::Fork() { return Rng(NextUint64()); }

}  // namespace mirabel
