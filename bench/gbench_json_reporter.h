// Adapter between google-benchmark and the shared BenchReport: prints the
// usual console table AND captures every iteration run into
// BENCH_<name>.json on Finalize. Used as the display reporter:
//   GBenchJsonReporter reporter("micro_core");
//   benchmark::RunSpecifiedBenchmarks(&reporter);
#ifndef MIRABEL_BENCH_GBENCH_JSON_REPORTER_H_
#define MIRABEL_BENCH_GBENCH_JSON_REPORTER_H_

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "bench_main.h"

namespace mirabel::bench {

class GBenchJsonReporter : public benchmark::ConsoleReporter {
 public:
  explicit GBenchJsonReporter(std::string bench_name)
      : report_(std::move(bench_name)) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || RunErrored(run)) continue;
      BenchResult& row = report_.AddResult(run.benchmark_name());
      // Total measured wall time for the run, plus the per-iteration time
      // google-benchmark itself reports.
      row.Wall(run.real_accumulated_time);
      row.Metric("iterations", static_cast<double>(run.iterations));
      if (run.iterations > 0) {
        row.Metric(
            "real_time_per_iter_s",
            run.real_accumulated_time / static_cast<double>(run.iterations));
        row.Metric(
            "cpu_time_per_iter_s",
            run.cpu_accumulated_time / static_cast<double>(run.iterations));
      }
      auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        row.throughput_items_per_s = items->second.value;
      } else if (run.real_accumulated_time > 0) {
        // Fall back to iterations/sec so every row carries a throughput.
        row.throughput_items_per_s =
            static_cast<double>(run.iterations) / run.real_accumulated_time;
      }
    }
  }

  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    report_.WriteFile();
  }

  BenchReport& report() { return report_; }

 private:
  // benchmark < 1.8 exposes Run::error_occurred; 1.8+ replaced it with the
  // Run::skipped state. Detect whichever this benchmark version has.
  template <typename R = Run>
  static bool RunErrored(const R& run) {
    if constexpr (requires { run.error_occurred; }) {
      return run.error_occurred;
    } else if constexpr (requires { run.skipped; }) {
      return static_cast<int>(run.skipped) != 0;
    } else {
      return false;
    }
  }

  BenchReport report_;
};

}  // namespace mirabel::bench

#endif  // MIRABEL_BENCH_GBENCH_JSON_REPORTER_H_
