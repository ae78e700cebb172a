// The host's momentary speed, read from a reference probe that lives in the
// benchmark and never changes with the program.
//
// On a shared host the same code runs up to 1.8x slower while other tenants
// fill the shared cache and memory; such periods come and go within seconds
// and can cover whole runs. The workloads time the probe between their steps
// and scale each timing by the probe's latest time, so a timing reads as on
// a host where the probe takes kNominalMs.
//
// The probe re-reads a fixed 256 KiB cycle of cache lines, which the
// workload evicts from the core's own caches between probes, so it times
// how much of recently used data the shared cache keeps: the resource the
// tenants take. It also sweeps and sorts a little data in the core's
// caches. Over eight 25 s runs of one brp_rolling seed, back to back, the
// probe-scaled gate p50 spread 4.8% (quartile distance / median) against
// 9.4% unscaled, and gate p90 4.8% against 22%. Probes of an 8 MiB or
// 64 MiB table, or of streaming reads, tracked the workload less well.
//
// The workload's own memory traffic also evicts the probe's lines: in the
// self-test's short mode (a 16th of the offers) the probe read 0.26-0.29 ms
// against 0.4-0.6 ms in full rounds. A change to the program that
// touches much more or much less memory therefore moves the probe too, and
// the scaled timings show less of that change than wall time does.
#ifndef PERFBENCH_HOST_SPEED_H_
#define PERFBENCH_HOST_SPEED_H_

#include <cstdint>
#include <vector>

#include "trace.h"

namespace perfbench {

class HostSpeed {
 public:
  /// Times the probe. Call it between timed steps, never inside one: a
  /// probe takes 0.4-0.6 ms.
  void Sample();
  /// Sample(), unless the probe ran less than kIntervalNs ago.
  void MaybeSample() {
    if (!sampled_ || trace::NowNs() - last_ns_ >= kIntervalNs) Sample();
  }

  /// Median probe time (ms) so far; 0 before the first probe.
  double MedianProbeMs() const;

  /// `ns` of wall time in ms, scaled by kNominalMs / the latest probe time.
  /// Unscaled before the first probe.
  double ScaledMs(int64_t ns) const {
    return static_cast<double>(ns) * 1e-6 * scale_;
  }

  /// About the probe's median time on the 4-vCPU Xeon VM the benchmark was
  /// built on, so that scaled timings read like wall times there.
  static constexpr double kNominalMs = 0.45;
  static constexpr int64_t kIntervalNs = 10'000'000;

 private:
  int64_t last_ns_ = 0;
  bool sampled_ = false;
  std::vector<double> probe_ms_;
  double scale_ = 1.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_H_
