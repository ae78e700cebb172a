#include "host_speed.h"

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

namespace {

constexpr size_t kCycleLines = 4096;  // 256 KiB
constexpr size_t kSlotsPerLine = 16;  // uint32 slots in a 64-byte line
constexpr size_t kSweep = 512;
constexpr int kSweepPasses = 8;
constexpr size_t kSortKeys = 256;

uint64_t NextRandom(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return *state = x;
}

/// The probe's data, built once from a fixed seed.
struct ProbeData {
  /// One cycle through all kCycleLines lines in a random order (Sattolo's
  /// shuffle): next[slot] is the slot of the next line, so every load
  /// depends on the one before and no prefetcher can guess it.
  std::vector<uint32_t> next;
  std::vector<double> sweep;
  std::vector<uint64_t> keys;

  ProbeData()
      : next(kCycleLines * kSlotsPerLine, 0), sweep(kSweep), keys(kSortKeys) {
    uint64_t state = 0x9E3779B97F4A7C15ULL;
    std::vector<uint32_t> order(kCycleLines);
    for (size_t i = 0; i < kCycleLines; ++i) order[i] = static_cast<uint32_t>(i);
    for (size_t i = kCycleLines - 1; i > 0; --i) {
      std::swap(order[i], order[NextRandom(&state) % i]);
    }
    for (size_t i = 0; i < kCycleLines; ++i) {
      next[order[i] * kSlotsPerLine] =
          order[(i + 1) % kCycleLines] * static_cast<uint32_t>(kSlotsPerLine);
    }
    for (double& v : sweep) {
      v = static_cast<double>(NextRandom(&state) % 1000) * 1e-3;
    }
    for (uint64_t& k : keys) k = NextRandom(&state);
  }
};

/// One probe; the result keeps the compiler from dropping any part.
uint64_t Probe(const ProbeData& data) {
  uint32_t at = 0;
  for (size_t i = 0; i < kCycleLines; ++i) at = data.next[at];

  double acc = 0.0;
  for (int pass = 0; pass < kSweepPasses; ++pass) {
    for (size_t i = 0; i < kSweep; ++i) {
      acc = acc * 0.999 + data.sweep[i] - data.sweep[(i + 7) % kSweep];
    }
  }
  std::vector<uint64_t> sorted = data.keys;
  std::sort(sorted.begin(), sorted.end());
  return at + static_cast<uint64_t>(acc) + sorted[kSortKeys / 2];
}

}  // namespace

void HostSpeed::Sample() {
  static const ProbeData data;
  static volatile uint64_t sink = 0;
  const int64_t start = trace::NowNs();
  sink = sink + Probe(data);
  last_ns_ = trace::NowNs();
  sampled_ = true;
  const double ms = static_cast<double>(last_ns_ - start) * 1e-6;
  probe_ms_.push_back(ms);
  scale_ = kNominalMs / ms;
}

double HostSpeed::MedianProbeMs() const {
  if (probe_ms_.empty()) return 0.0;
  std::vector<double> sorted = probe_ms_;
  const auto mid = sorted.begin() + static_cast<std::ptrdiff_t>(sorted.size() / 2);
  std::nth_element(sorted.begin(), mid, sorted.end());
  return *mid;
}

}  // namespace perfbench
