// Measures the scheduling kernel (CompiledProblem / ScheduleWorkspace)
// against the preserved pre-kernel evaluator (ReferenceCostEvaluator) on the
// two hot paths that bound anytime-scheduler quality:
//
//   child-evaluate: full evaluation of a fresh schedule — the EA's per-child
//     cost. Old path: construct a scratch evaluator (two vector allocations
//     plus a thrown-away default-schedule accumulation) and re-set the
//     schedule. Kernel path: EvaluateInto() on a pooled workspace.
//   trymove-scan: the greedy's candidate scan — every (start, fill) of an
//     offer evaluated against the incumbent. Old path: AoS TryMove
//     recomputing slice energies per candidate. Kernel path: one
//     ScanMoves() call per offer, the scan GreedyScheduler runs — the
//     offer's removal residuals, leave-only slice terms and per-fill
//     energies are computed once and every candidate's delta in one pass.
//
// Emits BENCH_scheduler_kernel.json with evaluations/sec per path and size
// plus the kernel/reference speedups (acceptance: >= 3x child-evaluate,
// >= 1.5x trymove-scan in a Release build).
#include <cstdio>
#include <span>
#include <vector>

#include "bench_main.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "scheduling/compiled_problem.h"
#include "scheduling/reference_evaluator.h"
#include "scheduling/scenario.h"
#include "scheduling/scheduler.h"

using namespace mirabel;              // NOLINT: bench brevity
using namespace mirabel::scheduling;  // NOLINT

namespace {

SchedulingProblem MakeProblem(int offers) {
  ScenarioConfig cfg;
  cfg.num_offers = offers;
  cfg.seed = 23 + static_cast<uint64_t>(offers);
  cfg.imbalance_amplitude_kwh = 4.0 * offers;
  cfg.max_buy_kwh = 0.8 * offers;
  cfg.max_sell_kwh = 0.8 * offers;
  return MakeScenario(cfg);
}

std::vector<Schedule> RandomSchedules(const SchedulingProblem& p, int count,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<Schedule> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    Schedule s;
    s.assignments.reserve(p.offers.size());
    for (const auto& fo : p.offers) {
      s.assignments.push_back(
          {fo.earliest_start + rng.UniformInt(0, fo.TimeFlexibility()),
           rng.NextDouble()});
    }
    out.push_back(std::move(s));
  }
  return out;
}

struct PathResult {
  double wall_s = 0.0;
  double evals = 0.0;
  double sink = 0.0;  // defeats dead-code elimination
  double per_sec() const { return evals / wall_s; }
};

PathResult ChildEvaluateReference(const SchedulingProblem& p,
                                  const std::vector<Schedule>& schedules,
                                  int reps) {
  ReferenceCostEvaluator evaluator(p);
  PathResult r;
  r.sink += *evaluator.EvaluateTotal(schedules[0]);  // warmup
  Stopwatch watch;
  for (int rep = 0; rep < reps; ++rep) {
    for (const Schedule& s : schedules) {
      r.sink += *evaluator.EvaluateTotal(s);
      r.evals += 1.0;
    }
  }
  r.wall_s = watch.ElapsedSeconds();
  return r;
}

PathResult ChildEvaluateKernel(const SchedulingProblem& p,
                               const std::vector<Schedule>& schedules,
                               int reps) {
  CompiledProblem cp(p);
  ScheduleWorkspace pool(cp);
  PathResult r;
  r.sink += *pool.EvaluateInto(cp, schedules[0]);  // warmup
  Stopwatch watch;
  for (int rep = 0; rep < reps; ++rep) {
    for (const Schedule& s : schedules) {
      r.sink += *pool.EvaluateInto(cp, s);
      r.evals += 1.0;
    }
  }
  r.wall_s = watch.ElapsedSeconds();
  return r;
}

/// One full greedy-style candidate scan over all offers: every start
/// candidate (capped like GreedyScheduler) x every fill in {0, 0.5, 1}.
constexpr int kMaxStartCandidates = 64;
constexpr double kFills[] = {0.0, 0.5, 1.0};

PathResult TryMoveScanReference(const SchedulingProblem& p, int reps) {
  ReferenceCostEvaluator evaluator(p);
  PathResult r;
  Stopwatch watch;
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t i = 0; i < p.offers.size(); ++i) {
      const auto& fo = p.offers[i];
      int64_t window = fo.TimeFlexibility();
      int64_t step_count = std::min<int64_t>(window, kMaxStartCandidates - 1);
      for (int64_t c = 0; c <= step_count; ++c) {
        flexoffer::TimeSlice start =
            fo.earliest_start +
            (step_count == 0 ? 0 : window * c / step_count);
        for (double fill : kFills) {
          r.sink += *evaluator.TryMove(i, {start, fill});
          r.evals += 1.0;
        }
      }
    }
  }
  r.wall_s = watch.ElapsedSeconds();
  return r;
}

PathResult TryMoveScanKernel(const SchedulingProblem& p, int reps) {
  CompiledProblem cp(p);
  ScheduleWorkspace ws(cp);
  const size_t num_fills = std::size(kFills);
  std::vector<flexoffer::TimeSlice> starts;
  starts.reserve(kMaxStartCandidates);
  std::vector<double> deltas(kMaxStartCandidates * num_fills);
  PathResult r;
  Stopwatch watch;
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t i = 0; i < cp.num_offers; ++i) {
      int64_t window = cp.latest_start[i] - cp.earliest_start[i];
      int64_t step_count = std::min<int64_t>(window, kMaxStartCandidates - 1);
      starts.clear();
      for (int64_t c = 0; c <= step_count; ++c) {
        starts.push_back(cp.earliest_start[i] +
                         (step_count == 0 ? 0 : window * c / step_count));
      }
      std::span<double> out(deltas.data(), starts.size() * num_fills);
      ws.ScanMoves(cp, i, starts, kFills, out);
      for (double delta : out) r.sink += delta;
      r.evals += static_cast<double>(out.size());
    }
  }
  r.wall_s = watch.ElapsedSeconds();
  return r;
}

}  // namespace

/// Runs `measure` `trials` times and keeps the best-throughput run (the
/// usual throughput methodology: the minimum-interference trial is the one
/// closest to the code's actual speed on a noisy box).
template <typename Fn>
PathResult BestOf(int trials, Fn measure) {
  PathResult best = measure();
  for (int t = 1; t < trials; ++t) {
    PathResult r = measure();
    if (r.per_sec() > best.per_sec()) best = r;
  }
  return best;
}

int main() {
  const bool small = mirabel::bench::SmallMode();
  const int trials = small ? 1 : 3;

  bench::BenchReport report("scheduler_kernel");
  report.AddConfig("small_mode", small);
  report.AddConfig("trials", static_cast<int64_t>(trials));

  struct Size {
    int offers;
    int child_reps;
    int scan_reps;
  };
  std::vector<Size> sizes = small
      ? std::vector<Size>{{32, 20, 4}, {256, 4, 2}, {2048, 1, 1}}
      : std::vector<Size>{{32, 600, 200}, {256, 100, 40}, {2048, 10, 6}};

  std::printf("%-8s %-16s %14s %14s %8s\n", "offers", "path", "ref evals/s",
              "kernel evals/s", "speedup");
  for (const Size& size : sizes) {
    SchedulingProblem problem = MakeProblem(size.offers);
    std::vector<Schedule> schedules =
        RandomSchedules(problem, small ? 8 : 64, 99);

    PathResult ref_child = BestOf(trials, [&] {
      return ChildEvaluateReference(problem, schedules, size.child_reps);
    });
    PathResult ker_child = BestOf(trials, [&] {
      return ChildEvaluateKernel(problem, schedules, size.child_reps);
    });
    double child_speedup = ker_child.per_sec() / ref_child.per_sec();
    std::printf("%-8d %-16s %14.0f %14.0f %7.2fx\n", size.offers,
                "child-evaluate", ref_child.per_sec(), ker_child.per_sec(),
                child_speedup);
    report.AddResult("child_evaluate/ref/" + std::to_string(size.offers))
        .Wall(ref_child.wall_s)
        .Items(ref_child.evals);
    report.AddResult("child_evaluate/kernel/" + std::to_string(size.offers))
        .Wall(ker_child.wall_s)
        .Items(ker_child.evals)
        .Metric("speedup_vs_ref", child_speedup);

    PathResult ref_scan = BestOf(
        trials, [&] { return TryMoveScanReference(problem, size.scan_reps); });
    PathResult ker_scan = BestOf(
        trials, [&] { return TryMoveScanKernel(problem, size.scan_reps); });
    double scan_speedup = ker_scan.per_sec() / ref_scan.per_sec();
    std::printf("%-8d %-16s %14.0f %14.0f %7.2fx\n", size.offers,
                "trymove-scan", ref_scan.per_sec(), ker_scan.per_sec(),
                scan_speedup);
    report.AddResult("trymove_scan/ref/" + std::to_string(size.offers))
        .Wall(ref_scan.wall_s)
        .Items(ref_scan.evals);
    report.AddResult("trymove_scan/kernel/" + std::to_string(size.offers))
        .Wall(ker_scan.wall_s)
        .Items(ker_scan.evals)
        .Metric("speedup_vs_ref", scan_speedup);
  }

  report.WriteFile();
  return 0;
}
