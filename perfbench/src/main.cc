// The EDMS benchmark command.
//
//   edms_perfbench --workload <brp_rolling|hierarchy_3level>
//                  --seed <n> --seconds <s> --trace <0|1> [--short]
//                  [--source <id>]
//
// A run repeats rounds of the workload — each round the same fixed work on
// the inputs generated from --seed — until --seconds have passed, then
// prints one JSON line: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. A traced run alternates untraced and
// traced rounds; the untraced ones give the tracing overhead. Every round
// is checked (terminal states, stats against events, determinism across
// rounds); a violation makes the run exit non-zero.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"
#include "common/stopwatch.h"
#include "scheduling/compiled_problem.h"
#include "trace.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool short_mode = false;
  std::string source = "unknown";
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "edms_perfbench: %s\nusage: edms_perfbench --workload "
               "<brp_rolling|hierarchy_3level> --seed <n> "
               "--seconds <s> --trace <0|1> [--short] [--source <id>]\n",
               message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--short") {
      args.short_mode = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--source") {
      args.source = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

/// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return {0};
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Pins the calling thread, which runs the single-threaded rounds, to `cpu`.
///
/// On a shared host, one CPU can run a workload 1.5x slower than another for
/// minutes (measured: one round of hierarchy_3level per CPU, twice over,
/// gave gate p50 9-11 ms on one CPU and 14-16 ms on two others). A process
/// that stays on a slow CPU then reads slow for the whole run, whichever
/// step's fastest replay it takes. The rounds therefore take the CPUs in
/// turn, so each step's replays include the fastest CPU's.
void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// Entry-wise minimum over rounds of a per-gate, per-offer or per-step
/// timing, NaN entries (offers never accepted) dropped.
///
/// Every round replays the same work, so entry i times the same gate, offer
/// or step in each round. The workloads already scale each entry by the
/// host's speed (host_speed.h); the scale is read between steps, so it
/// misses interference that starts or stops within one. Taking each entry's
/// fastest replay filters that out unless it hits the same entry in every
/// round. A change that slows the program slows every replay, so it still
/// shows.
std::vector<double> FastestReplay(const std::vector<RoundResult>& rounds,
                                  std::vector<double> RoundResult::*field) {
  std::vector<double> best = rounds.front().*field;
  for (const RoundResult& r : rounds) {
    const std::vector<double>& v = r.*field;
    for (size_t i = 0; i < best.size() && i < v.size(); ++i) {
      best[i] = std::min(best[i], v[i]);
    }
  }
  std::erase_if(best, [](double v) { return std::isnan(v); });
  return best;
}

/// Offers per second over the fastest replay of every step.
double Throughput(const std::vector<RoundResult>& rounds) {
  double ms = 0.0;
  for (double step : FastestReplay(rounds, &RoundResult::step_ms)) ms += step;
  return static_cast<double>(rounds.front().offers) / (ms * 1e-3);
}

/// The end-to-end metrics, from the untraced rounds.
std::vector<Metric> EndToEnd(const std::vector<RoundResult>& rounds,
                            double peak_rss_mb) {
  std::vector<double> setup;
  for (const RoundResult& r : rounds) setup.push_back(r.setup_s);
  const std::vector<double> gates = FastestReplay(rounds, &RoundResult::gate_ms);
  const std::vector<double> accepts =
      FastestReplay(rounds, &RoundResult::accept_ms);
  const RoundResult& first = rounds.front();
  return {
      {"setup_s", "s", Median(setup)},
      {"offers_per_s", "1/s", Throughput(rounds)},
      {"gate_p50_ms", "ms", Percentile(gates, 0.50)},
      {"gate_p90_ms", "ms", Percentile(gates, 0.90)},
      {"accept_p50_ms", "ms", Percentile(accepts, 0.50)},
      {"accept_p90_ms", "ms", Percentile(accepts, 0.90)},
      {"imbalance_reduction_pct", "%",
       first.fingerprint.imbalance_reduction_pct},
      {"schedule_cost_eur", "EUR", first.fingerprint.schedule_cost_eur},
      {"failed_pct", "%", first.failed_pct},
      {"peak_rss_mb", "MB", peak_rss_mb},
  };
}

/// The per-layer metrics: span timings from the traced rounds, counters from
/// the program's accessors, and the tracing overhead against the untraced
/// rounds.
std::vector<Metric> PerLayer(const std::vector<RoundResult>& untraced,
                             const std::vector<RoundResult>& traced) {
  const trace::Summary spans = trace::Collect();
  const double rounds = static_cast<double>(traced.size());
  using trace::Kind;

  std::map<std::string, double> layer;
  double gate_busy_s = 0.0;
  for (const RoundResult& r : traced) {
    for (const auto& [name, value] : r.layer) layer[name] += value / rounds;
    gate_busy_s += r.gate_busy_s;
  }
  auto counter = [&layer](const std::string& name) {
    auto it = layer.find(name);
    return it == layer.end() ? 0.0 : it->second;
  };
  auto per_round_s = [&](Kind kind) { return spans.TotalSeconds(kind) / rounds; };
  auto per_call = [&](Kind kind, int64_t total) {
    const size_t calls = spans.Of(kind).size();
    return calls == 0 ? 0.0
                      : static_cast<double>(total) / static_cast<double>(calls);
  };
  const size_t sched = static_cast<size_t>(Kind::kSchedule);

  const double plain = Throughput(untraced);
  const double with_trace = Throughput(traced);

  std::vector<Metric> out = {
      {"scheduling.run_ms_p50", "ms", Percentile(spans.Of(Kind::kSchedule), 0.5)},
      {"scheduling.run_ms_p90", "ms", Percentile(spans.Of(Kind::kSchedule), 0.9)},
      {"scheduling.run_s_total", "s", per_round_s(Kind::kSchedule)},
      {"scheduling.share_of_gate_pct", "%",
       gate_busy_s > 0.0
           ? 100.0 * spans.TotalSeconds(Kind::kSchedule) / gate_busy_s
           : 0.0},
      {"scheduling.macros_per_run", "count",
       per_call(Kind::kSchedule, spans.count_a[sched])},
      {"scheduling.iterations", "count",
       per_call(Kind::kSchedule, spans.count_b[sched])},
      {"forecasting.train_s", "s", per_round_s(Kind::kTrain)},
      {"forecasting.baseline_s_total", "s", per_round_s(Kind::kBaseline)},
      {"forecasting.rebuilds", "count", counter("forecasting.rebuilds")},
      {"edms.submit_ms_p50", "ms", Percentile(spans.Of(Kind::kSubmit), 0.5)},
      {"edms.submit_ms_p90", "ms", Percentile(spans.Of(Kind::kSubmit), 0.9)},
      {"edms.submit_s_total", "s", per_round_s(Kind::kSubmit)},
      {"edms.gate_self_ms_p50", "ms", Percentile(spans.SelfOf(Kind::kGate), 0.5)},
      {"edms.gate_self_ms_p90", "ms", Percentile(spans.SelfOf(Kind::kGate), 0.9)},
      {"edms.meter_s_total", "s", per_round_s(Kind::kMeter)},
      {"edms.poll_s_total", "s", per_round_s(Kind::kPoll)},
  };
  for (const char* name :
       {"edms.offers_received", "edms.accepted", "edms.rejected",
        "edms.expired_in_pipeline", "edms.executions_timed_out",
        "edms.executed", "edms.macros_scheduled", "edms.scheduling_runs"}) {
    out.push_back({name, "count", counter(name)});
  }
  std::vector<Metric> rest = {
      {"aggregation.compression_ratio", "ratio",
       counter("aggregation.compression_ratio")},
      {"aggregation.live_aggregates_peak", "count",
       counter("aggregation.live_aggregates_peak")},
      {"negotiation.accept_pct", "%", counter("negotiation.accept_pct")},
      {"storage.flex_offer_rows_end", "count",
       counter("storage.flex_offer_rows_end")},
      {"storage.measurement_rows_end", "count",
       counter("storage.measurement_rows_end")},
      {"node.prosumer_tick_s_total", "s", per_round_s(Kind::kProsumerTick)},
      {"node.bus_s_total", "s", per_round_s(Kind::kBus)},
      {"node.brp_tick_ms_p50", "ms", Percentile(spans.Of(Kind::kBrpTick), 0.5)},
      {"node.brp_tick_ms_p90", "ms", Percentile(spans.Of(Kind::kBrpTick), 0.9)},
      {"node.tso_tick_ms_p50", "ms", Percentile(spans.Of(Kind::kTsoTick), 0.5)},
      {"node.tso_tick_ms_p90", "ms", Percentile(spans.Of(Kind::kTsoTick), 0.9)},
      {"node.messages_sent", "count", counter("node.messages_sent")},
      {"node.messages_delivered", "count", counter("node.messages_delivered")},
      {"node.transport_retries", "count", counter("node.transport_retries")},
      {"node.transport_acks", "count", counter("node.transport_acks")},
      {"node.duplicates_dropped", "count", counter("node.duplicates_dropped")},
      {"trace.overhead_pct", "%",
       plain > 0.0 ? 100.0 * (plain - with_trace) / plain : 0.0},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  RunOptions options;
  options.seed = args.seed;
  options.short_mode = args.short_mode;

  std::unique_ptr<Workload> workload;
  if (args.workload == "brp_rolling") {
    workload = MakeBrpRolling(options);
  } else if (args.workload == "hierarchy_3level") {
    workload = MakeHierarchy(options);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }

  const std::vector<int> cpus = AllowedCpus();
  const int nproc = static_cast<int>(cpus.size());
  if (workload->Threads() > nproc) {
    std::fprintf(stderr,
                 "edms_perfbench: %s runs %d threads but only %d CPUs are "
                 "available\n",
                 args.workload.c_str(), workload->Threads(), nproc);
    return 2;
  }
  std::printf(
      "{\"meta\": {\"workload\": %s, \"seed\": %" PRIu64
      ", \"source\": %s, \"build_type\": %s, \"compiler\": %s, "
      "\"cpu\": %s, \"nproc\": %d, \"threads\": %d, \"avx2\": %s}}\n",
      JsonString(args.workload).c_str(), args.seed,
      JsonString(args.source).c_str(), JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(__VERSION__).c_str(), JsonString(CpuModel()).c_str(), nproc,
      workload->Threads(),
      mirabel::scheduling::FastKernelUsesAvx2() ? "true" : "false");
  std::fflush(stdout);

  // Round 0 warms caches and the allocator; it is checked but not measured.
  std::vector<RoundResult> warmup;
  double peak_rss_mb = 0.0;
  std::vector<RoundResult> untraced;
  std::vector<RoundResult> traced;
  trace::Reset();
  mirabel::Stopwatch run;
  for (int round = 0;; ++round) {
    const bool traced_round = args.trace && round % 2 == 0 && round > 0;
    // A traced run gives each untraced/traced pair of rounds one CPU, so the
    // tracing overhead compares replays on the same CPUs. Threads a round
    // starts would inherit the pin, so only single-threaded rounds are
    // pinned.
    const int turn = args.trace ? (round + 1) / 2 : round;
    if (workload->Threads() == 1) {
      PinTo(cpus[static_cast<size_t>(turn) % cpus.size()]);
    }
    trace::SetEnabled(traced_round);
    RoundResult r = workload->RunRound();
    trace::SetEnabled(false);
    std::fprintf(stderr,
                 "round %d%s on cpu %d: setup %.3fs timed %.3fs probe %.4fms "
                 "gates %zu p50 %.3fms accept p90 %.3fms %s\n",
                 round, traced_round ? " (traced)" : "", sched_getcpu(),
                 r.setup_s, r.timed_s, r.probe_ms,
                 r.gate_ms.size(), Percentile(r.gate_ms, 0.5),
                 Percentile(r.accept_ms, 0.90),
                 r.fingerprint.ToString().c_str());
    (round == 0 ? warmup : traced_round ? traced : untraced)
        .push_back(std::move(r));
    // Process peak after the inputs and one whole round, so that it does not
    // depend on how many rounds ran.
    if (round == 0) peak_rss_mb = PeakRssMb();
    const bool enough_rounds =
        untraced.size() >= 2 && (!args.trace || !traced.empty());
    if (enough_rounds && run.ElapsedSeconds() >= args.seconds) break;
  }

  // Correctness: every round passed its checks and replayed the first
  // round's fingerprint exactly, traced rounds included.
  int64_t attempted = 0;
  int64_t failed = 0;
  const Fingerprint& reference = warmup.front().fingerprint;
  for (const auto* rounds : {&warmup, &untraced, &traced}) {
    for (const RoundResult& r : *rounds) {
      attempted += r.offers;
      bool bad = !r.violations.empty();
      for (const std::string& v : r.violations) {
        std::fprintf(stderr, "correctness violation: %s\n", v.c_str());
      }
      if (!(r.fingerprint == reference)) {
        std::fprintf(stderr, "determinism violation: %s != %s\n",
                     r.fingerprint.ToString().c_str(),
                     reference.ToString().c_str());
        bad = true;
      }
      if (bad) failed += r.offers;
    }
  }
  const bool correct = failed == 0;

  const std::vector<Metric> metrics =
      args.trace ? PerLayer(untraced, traced) : EndToEnd(untraced, peak_rss_mb);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " + buf +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
