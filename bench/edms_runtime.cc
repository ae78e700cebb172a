// Runtime trajectories of the ShardedEdmsRuntime, emitting
// BENCH_edms_runtime.json next to the single-engine BENCH_edms_engine.json:
//
//  1. Shard scaling (results "shards/N"): one up-front batch intake, then
//     tick-driven gate closures, swept over shards in {1, 2, 4, 8} (1 shard
//     is the inline runtime; more shards enqueue the batch and
//     FlushIntake() admits it). Every shard count runs the identical
//     workload and engine template with a fixed, iteration-capped per-gate
//     scheduling budget that the runtime divides across shards, so the
//     total scheduling effort per gate is held constant and the comparison
//     is quality-normalized — the imbalance-reduction metric stays flat
//     across the sweep while throughput rises.
//
//  2. Streaming intake (results "streaming/{aligned,pooled}"): the same
//     tick-paced workload at 4 shards, submitted batch-by-batch. In the
//     aligned configuration the control thread submits each tick's batch
//     right before that tick's gate; the pooled configuration streams the
//     batches from a producer thread into the MPSC intake queues while the
//     gates run, so intake overlaps scheduling.
//
//  3. Skewed load (results "skewed/{aligned,pooled}"): the tick-paced
//     workload with every owner routed to shard 0 of 4. The pooled
//     configuration keeps intake streaming against shard 0's long gates and
//     lets idle workers steal the loaded strand (steals are reported).
//
//  4. Offer→decision latency (results "latency/{sustained,bursty}"): the
//     tick workload at 4 shards, streamed by a paced producer thread.
//     Every offer is stamped (steady_clock) right before SubmitOffers();
//     the consumer stamps again when the offer's OfferAccepted /
//     ScheduleAssigned event surfaces from PollEvents() and reports the
//     nearest-rank p50/p95/p99 of both legs. "sustained" paces batches
//     evenly; "bursty" submits square-wave bursts followed by idle gaps —
//     the tail percentiles show what a burst does to decision latency.
//     Intake queue depth is sampled mid-stream via Snapshot() (the seqlock
//     path, exercised here on purpose) and reported as the peak.
//
// The streaming/skewed overlap wins require >= 2 hardware threads (the
// config block records hardware_concurrency); on a single-core machine the
// pooled and aligned configurations converge. See docs/benchmarks.md.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_main.h"
#include "common/stopwatch.h"
#include "datagen/flex_offer_generator.h"
#include "edms/sharded_runtime.h"

using namespace mirabel;  // NOLINT: bench brevity

namespace {

constexpr int kGatePeriod = 16;

struct RunResult {
  int64_t offers = 0;
  size_t accepted = 0;
  double intake_s = 0.0;
  double loop_s = 0.0;
  double total_s = 0.0;
  int64_t macros = 0;
  int64_t micro_schedules = 0;
  int64_t expired = 0;
  int64_t scheduling_runs = 0;
  int64_t submit_batches = 0;
  uint64_t steals = 0;
  double imbalance_reduction_kwh = 0.0;
  double schedule_cost_eur = 0.0;
};

std::vector<flexoffer::FlexOffer> MakeWorkload(int64_t count, int days) {
  datagen::FlexOfferWorkloadConfig workload;
  workload.count = count;
  workload.seed = 1312;
  workload.horizon_days = days;
  workload.num_owners = std::max<int64_t>(count / 16, 64);
  return datagen::GenerateFlexOffers(workload);
}

edms::ShardedEdmsRuntime::Config RuntimeConfig(size_t num_shards,
                                               int iterations, int days) {
  edms::ShardedEdmsRuntime::Config config;
  config.num_shards = num_shards;
  config.engine.actor = 100;
  config.engine.negotiate = true;
  config.engine.aggregation.params = aggregation::AggregationParams::P2();
  config.engine.gate_period = kGatePeriod;
  config.engine.horizon = 2 * flexoffer::kSlicesPerDay;
  // Iteration-capped anytime scheduling: the runtime divides the per-gate
  // cap across shards, holding total effort constant over the whole sweep.
  config.engine.scheduler_budget_s = 0.0;
  config.engine.scheduler_max_iterations = iterations;
  config.engine.seed = 11;
  config.engine.baseline = std::make_shared<edms::VectorBaselineProvider>(
      std::vector<double>(
          static_cast<size_t>((days + 2) * flexoffer::kSlicesPerDay), 8.0));
  return config;
}

void CountEvents(edms::ShardedEdmsRuntime& runtime, RunResult* r) {
  for (const edms::Event& event : runtime.PollEvents()) {
    if (std::get_if<edms::MacroPublished>(&event) != nullptr) ++r->macros;
    if (std::get_if<edms::ScheduleAssigned>(&event) != nullptr) {
      ++r->micro_schedules;
    }
    if (std::get_if<edms::OfferExpired>(&event) != nullptr) ++r->expired;
  }
}

void FinishResult(edms::ShardedEdmsRuntime& runtime, RunResult* r) {
  edms::EngineStats stats = runtime.stats();
  r->scheduling_runs = stats.scheduling_runs;
  r->submit_batches = stats.submit_batches;
  // Comparable quality metric across shard counts: each shard's problem
  // accounts the shared baseline once, so absolute imbalance totals scale
  // with the shard count — the achieved *reduction* does not.
  r->imbalance_reduction_kwh =
      stats.imbalance_before_kwh - stats.imbalance_after_kwh;
  r->schedule_cost_eur = stats.schedule_cost_eur;
  r->accepted = static_cast<size_t>(stats.offers_accepted);
  if (runtime.pool() != nullptr) r->steals = runtime.pool()->steals();
}

/// Shard-scaling leg: one up-front batch intake, then the tick loop —
/// unchanged from the pre-pool bench so the trajectory stays comparable.
RunResult RunBatchWorkload(size_t num_shards, int64_t count, int iterations,
                           int days) {
  std::vector<flexoffer::FlexOffer> offers = MakeWorkload(count, days);
  edms::ShardedEdmsRuntime runtime(RuntimeConfig(num_shards, iterations, days));

  RunResult r;
  r.offers = count;

  // The flush makes intake_s the time to admit the batch at every shard
  // count (a pooled runtime's SubmitOffers only enqueues).
  Stopwatch intake_watch;
  auto enqueued = runtime.SubmitOffers(offers, 0);
  Status flushed = runtime.FlushIntake();
  if (!enqueued.ok() || !flushed.ok()) {
    std::cerr << "intake failed: "
              << (enqueued.ok() ? flushed : enqueued.status()) << "\n";
    std::exit(1);
  }
  r.intake_s = intake_watch.ElapsedSeconds();

  Stopwatch loop_watch;
  const flexoffer::TimeSlice end =
      static_cast<flexoffer::TimeSlice>(days + 1) * flexoffer::kSlicesPerDay;
  for (flexoffer::TimeSlice now = 0; now < end; now += kGatePeriod) {
    if (Status st = runtime.Advance(now); !st.ok()) {
      std::cerr << "gate failed: " << st << "\n";
      std::exit(1);
    }
    CountEvents(runtime, &r);
  }
  r.loop_s = loop_watch.ElapsedSeconds();
  r.total_s = r.intake_s + r.loop_s;
  FinishResult(runtime, &r);
  return r;
}

/// Streaming/skew legs: the workload arrives as one batch per tick. The
/// aligned configuration submits batch k from the control thread right
/// before gate k; the pooled configuration streams the same batches from a
/// producer thread while the gate loop runs, overlapping intake with
/// scheduling.
RunResult RunTickWorkload(size_t num_shards, int64_t count, int iterations,
                          int days, bool streaming, bool skewed) {
  std::vector<flexoffer::FlexOffer> offers = MakeWorkload(count, days);
  edms::ShardedEdmsRuntime::Config config =
      RuntimeConfig(num_shards, iterations, days);
  if (skewed) {
    config.router = [](flexoffer::ActorId, size_t) -> size_t { return 0; };
  }
  edms::ShardedEdmsRuntime runtime(config);

  RunResult r;
  r.offers = count;
  const flexoffer::TimeSlice end =
      static_cast<flexoffer::TimeSlice>(days + 1) * flexoffer::kSlicesPerDay;
  const size_t num_ticks = static_cast<size_t>(end / kGatePeriod);
  const size_t batch = (offers.size() + num_ticks - 1) / num_ticks;

  auto submit_batch = [&](size_t tick) {
    size_t begin = tick * batch;
    if (begin >= offers.size()) return;
    size_t len = std::min(batch, offers.size() - begin);
    auto span = std::span<const flexoffer::FlexOffer>(offers.data() + begin,
                                                      len);
    auto submitted = runtime.SubmitOffers(
        span, static_cast<flexoffer::TimeSlice>(tick) * kGatePeriod);
    if (!submitted.ok()) {
      std::cerr << "intake failed: " << submitted.status() << "\n";
      std::exit(1);
    }
  };

  Stopwatch total_watch;
  std::thread producer;
  if (streaming) {
    // Free-running producer: batches stream into the MPSC intake queues
    // while the gate loop below advances concurrently.
    producer = std::thread([&] {
      for (size_t tick = 0; tick < num_ticks; ++tick) submit_batch(tick);
    });
  }
  for (size_t tick = 0; tick < num_ticks; ++tick) {
    if (!streaming) submit_batch(tick);
    flexoffer::TimeSlice now =
        static_cast<flexoffer::TimeSlice>(tick) * kGatePeriod;
    if (Status st = runtime.Advance(now); !st.ok()) {
      std::cerr << "gate failed: " << st << "\n";
      std::exit(1);
    }
    CountEvents(runtime, &r);
  }
  if (producer.joinable()) producer.join();
  if (Status st = runtime.FlushIntake(); !st.ok()) {
    std::cerr << "intake flush failed: " << st << "\n";
    std::exit(1);
  }
  // One wind-down gate absorbs batches that streamed in behind the loop's
  // last gate (both modes run it, keeping the gate count identical).
  if (Status st = runtime.Advance(end); !st.ok()) {
    std::cerr << "gate failed: " << st << "\n";
    std::exit(1);
  }
  CountEvents(runtime, &r);
  r.total_s = total_watch.ElapsedSeconds();
  r.loop_s = r.total_s;
  FinishResult(runtime, &r);
  return r;
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of an ascending-sorted sample vector.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  return sorted[std::min(rank, sorted.size()) - 1];
}

struct LatencyResult {
  RunResult run;
  /// Submit→OfferAccepted-event latency per offer, milliseconds.
  std::vector<double> accept_ms;
  /// Submit→ScheduleAssigned-event latency per offer, milliseconds.
  std::vector<double> assign_ms;
  /// Peak intake queue depth (sum over shards) seen by mid-stream
  /// Snapshot() samples.
  int64_t peak_intake_depth = 0;
};

/// Latency leg: 4 shards, producer-paced batches streamed in. The
/// producer stamps each offer right before SubmitOffers(); the consumer
/// stamps when the acceptance / schedule event surfaces from PollEvents().
/// The stamp is a plain write: it happens-before the consumer's read via
/// intake-queue push/pop and the engine's SPSC event queue.
LatencyResult RunLatencyWorkload(int64_t count, int iterations, int days,
                                 bool bursty) {
  std::vector<flexoffer::FlexOffer> offers = MakeWorkload(count, days);
  edms::ShardedEdmsRuntime runtime(RuntimeConfig(4, iterations, days));

  std::unordered_map<flexoffer::FlexOfferId, size_t> index_of;
  index_of.reserve(offers.size());
  for (size_t i = 0; i < offers.size(); ++i) index_of[offers[i].id] = i;
  std::vector<int64_t> submit_ns(offers.size(), 0);

  LatencyResult lr;
  lr.run.offers = count;
  const flexoffer::TimeSlice end =
      static_cast<flexoffer::TimeSlice>(days + 1) * flexoffer::kSlicesPerDay;
  const size_t num_ticks = static_cast<size_t>(end / kGatePeriod);
  const size_t batch = (offers.size() + num_ticks - 1) / num_ticks;
  // Square wave for the bursty profile: kBurst batches back to back, then
  // an idle gap of the time the spread-out batches would have taken.
  constexpr size_t kBurst = 6;
  constexpr auto kPace = std::chrono::microseconds(700);

  std::thread producer([&] {
    for (size_t tick = 0; tick < num_ticks; ++tick) {
      size_t begin = tick * batch;
      if (begin >= offers.size()) break;
      size_t len = std::min(batch, offers.size() - begin);
      int64_t stamp = NowNanos();
      for (size_t i = begin; i < begin + len; ++i) submit_ns[i] = stamp;
      auto span =
          std::span<const flexoffer::FlexOffer>(offers.data() + begin, len);
      auto submitted = runtime.SubmitOffers(
          span, static_cast<flexoffer::TimeSlice>(tick) * kGatePeriod);
      if (!submitted.ok()) {
        std::cerr << "intake failed: " << submitted.status() << "\n";
        std::exit(1);
      }
      if (bursty) {
        if (tick % kBurst == kBurst - 1) {
          std::this_thread::sleep_for(kBurst * kPace);
        }
      } else {
        std::this_thread::sleep_for(kPace);
      }
    }
  });

  auto drain_events = [&] {
    for (const edms::Event& event : runtime.PollEvents()) {
      const int64_t now_ns = NowNanos();
      if (const auto* acc = std::get_if<edms::OfferAccepted>(&event)) {
        auto it = index_of.find(acc->offer);
        if (it != index_of.end()) {
          lr.accept_ms.push_back(
              static_cast<double>(now_ns - submit_ns[it->second]) * 1e-6);
        }
      } else if (const auto* assigned =
                     std::get_if<edms::ScheduleAssigned>(&event)) {
        auto it = index_of.find(assigned->schedule.offer_id);
        if (it != index_of.end()) {
          lr.assign_ms.push_back(
              static_cast<double>(now_ns - submit_ns[it->second]) * 1e-6);
          ++lr.run.micro_schedules;
        }
      } else if (std::get_if<edms::MacroPublished>(&event) != nullptr) {
        ++lr.run.macros;
      } else if (std::get_if<edms::OfferExpired>(&event) != nullptr) {
        ++lr.run.expired;
      }
    }
  };

  Stopwatch total_watch;
  for (size_t tick = 0; tick < num_ticks; ++tick) {
    flexoffer::TimeSlice now =
        static_cast<flexoffer::TimeSlice>(tick) * kGatePeriod;
    if (Status st = runtime.Advance(now); !st.ok()) {
      std::cerr << "gate failed: " << st << "\n";
      std::exit(1);
    }
    // Mid-stream snapshot while the producer is live: the lock-free path.
    edms::RuntimeSnapshot snap = runtime.Snapshot();
    lr.peak_intake_depth =
        std::max(lr.peak_intake_depth, snap.intake_depth_batches);
    drain_events();
  }
  producer.join();
  if (Status st = runtime.FlushIntake(); !st.ok()) {
    std::cerr << "intake flush failed: " << st << "\n";
    std::exit(1);
  }
  if (Status st = runtime.Advance(end); !st.ok()) {
    std::cerr << "gate failed: " << st << "\n";
    std::exit(1);
  }
  drain_events();
  lr.run.total_s = total_watch.ElapsedSeconds();
  lr.run.loop_s = lr.run.total_s;
  FinishResult(runtime, &lr.run);
  std::sort(lr.accept_ms.begin(), lr.accept_ms.end());
  std::sort(lr.assign_ms.begin(), lr.assign_ms.end());
  return lr;
}

void ReportLatency(bench::BenchReport& report, const std::string& name,
                   const LatencyResult& lr) {
  report.AddResult(name)
      .Wall(lr.run.total_s)
      .Items(static_cast<double>(lr.run.offers))
      .Metric("accept_samples", static_cast<double>(lr.accept_ms.size()))
      .Metric("accept_p50_ms", Percentile(lr.accept_ms, 0.50))
      .Metric("accept_p95_ms", Percentile(lr.accept_ms, 0.95))
      .Metric("accept_p99_ms", Percentile(lr.accept_ms, 0.99))
      .Metric("assign_samples", static_cast<double>(lr.assign_ms.size()))
      .Metric("assign_p50_ms", Percentile(lr.assign_ms, 0.50))
      .Metric("assign_p95_ms", Percentile(lr.assign_ms, 0.95))
      .Metric("assign_p99_ms", Percentile(lr.assign_ms, 0.99))
      .Metric("peak_intake_depth_batches",
              static_cast<double>(lr.peak_intake_depth))
      .Metric("accepted", static_cast<double>(lr.run.accepted))
      .Metric("micro_schedules", static_cast<double>(lr.run.micro_schedules));
  std::printf(
      "%-18s total %.2fs  accept p50/p95/p99 %.2f/%.2f/%.2f ms  "
      "assign p50/p95/p99 %.2f/%.2f/%.2f ms  peak depth %lld\n",
      name.c_str(), lr.run.total_s, Percentile(lr.accept_ms, 0.50),
      Percentile(lr.accept_ms, 0.95), Percentile(lr.accept_ms, 0.99),
      Percentile(lr.assign_ms, 0.50), Percentile(lr.assign_ms, 0.95),
      Percentile(lr.assign_ms, 0.99),
      static_cast<long long>(lr.peak_intake_depth));
}

void Report(bench::BenchReport& report, const std::string& name,
            const RunResult& r, double baseline_throughput) {
  double throughput =
      static_cast<double>(r.offers) / std::max(1e-9, r.total_s);
  double speedup =
      baseline_throughput > 0.0 ? throughput / baseline_throughput : 0.0;
  report.AddResult(name)
      .Wall(r.total_s)
      .Items(static_cast<double>(r.offers))
      .Metric("intake_s", r.intake_s)
      .Metric("control_loop_s", r.loop_s)
      .Metric("speedup_vs_baseline", speedup)
      .Metric("accepted", static_cast<double>(r.accepted))
      .Metric("macro_offers", static_cast<double>(r.macros))
      .Metric("micro_schedules", static_cast<double>(r.micro_schedules))
      .Metric("expired", static_cast<double>(r.expired))
      .Metric("scheduling_runs", static_cast<double>(r.scheduling_runs))
      .Metric("submit_batches", static_cast<double>(r.submit_batches))
      .Metric("pool_steals", static_cast<double>(r.steals))
      .Metric("imbalance_reduction_kwh", r.imbalance_reduction_kwh)
      .Metric("schedule_cost_eur", r.schedule_cost_eur);
  std::printf(
      "%-18s total %.2fs -> %.0f offers/s (%.2fx; %lld macros, "
      "%lld micro schedules, %lld runs, %llu steals, "
      "imbalance reduced %.0f kWh)\n",
      name.c_str(), r.total_s, throughput, speedup,
      static_cast<long long>(r.macros),
      static_cast<long long>(r.micro_schedules),
      static_cast<long long>(r.scheduling_runs),
      static_cast<unsigned long long>(r.steals), r.imbalance_reduction_kwh);
}

}  // namespace

int main() {
  bool small = bench::SmallMode();
  const int64_t count = small ? 2000 : 4000;
  const int iterations = small ? 2048 : 8192;
  const int days = 2;
  const std::vector<size_t> shard_counts = {1, 2, 4, 8};

  bench::BenchReport report("edms_runtime");
  report.AddConfig("offers", count);
  report.AddConfig("days", static_cast<int64_t>(days));
  report.AddConfig("gate_period", static_cast<int64_t>(kGatePeriod));
  report.AddConfig("scheduler", std::string("GreedySearch"));
  report.AddConfig("scheduler_iterations_per_gate",
                   static_cast<int64_t>(iterations));
  report.AddConfig("hardware_concurrency",
                   static_cast<int64_t>(std::thread::hardware_concurrency()));
  report.AddConfig("small_mode", small);

  // Leg 1: shard scaling, one up-front batch.
  double base_throughput = 0.0;
  for (size_t shards : shard_counts) {
    RunResult r = RunBatchWorkload(shards, count, iterations, days);
    double throughput =
        static_cast<double>(r.offers) / std::max(1e-9, r.total_s);
    if (shards == 1) base_throughput = throughput;
    Report(report, "shards/" + std::to_string(shards), r, base_throughput);
  }

  // Leg 2: streamed vs tick-aligned intake, 4 shards, tick-paced batches.
  RunResult stream_base = RunTickWorkload(4, count, iterations, days,
                                          /*streaming=*/false,
                                          /*skewed=*/false);
  double stream_base_tp = static_cast<double>(stream_base.offers) /
                          std::max(1e-9, stream_base.total_s);
  Report(report, "streaming/aligned", stream_base, stream_base_tp);
  RunResult stream_pool = RunTickWorkload(4, count, iterations, days,
                                          /*streaming=*/true,
                                          /*skewed=*/false);
  Report(report, "streaming/pooled", stream_pool, stream_base_tp);

  // Leg 3: skewed load (all owners on shard 0 of 4).
  RunResult skew_base = RunTickWorkload(4, count, iterations, days,
                                        /*streaming=*/false,
                                        /*skewed=*/true);
  double skew_base_tp = static_cast<double>(skew_base.offers) /
                        std::max(1e-9, skew_base.total_s);
  Report(report, "skewed/aligned", skew_base, skew_base_tp);
  RunResult skew_pool = RunTickWorkload(4, count, iterations, days,
                                        /*streaming=*/true,
                                        /*skewed=*/true);
  Report(report, "skewed/pooled", skew_pool, skew_base_tp);

  // Leg 4: offer→decision latency under sustained and bursty streaming load.
  ReportLatency(report, "latency/sustained",
                RunLatencyWorkload(count, iterations, days, /*bursty=*/false));
  ReportLatency(report, "latency/bursty",
                RunLatencyWorkload(count, iterations, days, /*bursty=*/true));

  std::string path = report.WriteFile();
  if (path.empty()) {
    std::cerr << "failed to write bench report\n";
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
