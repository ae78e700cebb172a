// Equivalence and allocation properties of the SoA scheduling kernel
// (CompiledProblem / ScheduleWorkspace):
//
//  1. Across hundreds of randomized problems and moves, kernel TryMove
//     deltas and EvaluateInto totals match a naive full recomputation
//     within 1e-9 (relative), and match the preserved pre-kernel
//     implementation (ReferenceCostEvaluator) bit for bit; so does every
//     delta of a batched ScanMoves candidate scan.
//  2. The greedy, EA and exhaustive schedulers, rewired onto the kernel,
//     produce bit-identical SchedulingResults to the pre-kernel
//     implementations (reimplemented here verbatim over
//     ReferenceCostEvaluator) for fixed seeds under max_iterations budgets.
//  3. The steady-state evaluate / ScanMoves / TryMove / ApplyMove loop
//     performs zero heap allocations, asserted with a counting global
//     operator new.
#include "scheduling/compiled_problem.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <new>
#include <numeric>
#include <span>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "scheduling/reference_evaluator.h"
#include "scheduling/scenario.h"
#include "scheduling/scheduler.h"

// ---------------------------------------------------------------------------
// Counting global allocator (binary-wide): every operator new bumps the
// counter, so a test section can assert "no allocations happened here".
// ---------------------------------------------------------------------------

namespace {
std::atomic<int64_t> g_heap_allocations{0};

void* CountedAlloc(std::size_t n) {
  ++g_heap_allocations;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mirabel::scheduling {
namespace {

using flexoffer::TimeSlice;

// ---------------------------------------------------------------------------
// Naive oracle: cost of a schedule recomputed from first principles.
// ---------------------------------------------------------------------------

double NaiveTotalCost(const SchedulingProblem& p, const Schedule& schedule) {
  std::vector<double> net = p.baseline_imbalance_kwh;
  double activation = 0.0;
  for (size_t i = 0; i < p.offers.size(); ++i) {
    const auto& fo = p.offers[i];
    const auto& a = schedule.assignments[i];
    for (int64_t j = 0; j < fo.Duration(); ++j) {
      double e = fo.profile[static_cast<size_t>(j)].min_kwh +
                 a.fill * fo.profile[static_cast<size_t>(j)].Flexibility();
      net[static_cast<size_t>(a.start + j - p.horizon_start)] += e;
      activation += fo.unit_price_eur * std::fabs(e);
    }
  }
  double total = activation;
  for (size_t s = 0; s < net.size(); ++s) {
    double r = net[s];
    double penalty = p.imbalance_penalty_eur[s];
    if (r > 0.0) {
      double price = p.market.buy_price_eur[s];
      double bought = price < penalty ? std::min(r, p.market.max_buy_kwh) : 0.0;
      total += bought * price + (r - bought) * penalty;
    } else if (r < 0.0) {
      double price = p.market.sell_price_eur[s];
      double surplus = -r;
      double sold =
          price >= 0.0 ? std::min(surplus, p.market.max_sell_kwh) : 0.0;
      total += -sold * price + (surplus - sold) * penalty;
    }
  }
  return total;
}

double RelTol(double reference) {
  return 1e-9 * std::max(1.0, std::fabs(reference));
}

ScenarioConfig RandomScenarioConfig(Rng* rng, int index) {
  ScenarioConfig cfg;
  cfg.num_offers = 1 + static_cast<int>(rng->UniformInt(0, 24));
  cfg.seed = 1000 + static_cast<uint64_t>(index);
  cfg.horizon_length = static_cast<int>(rng->UniformInt(24, 96));
  cfg.min_duration = 1 + static_cast<int>(rng->UniformInt(0, 2));
  cfg.max_duration = cfg.min_duration + static_cast<int>(rng->UniformInt(0, 8));
  cfg.max_time_flexibility = 1 + static_cast<int>(rng->UniformInt(0, 20));
  cfg.production_fraction = rng->NextDouble() * 0.6;
  cfg.no_energy_flexibility = rng->Bernoulli(0.15);
  cfg.imbalance_amplitude_kwh = 5.0 + rng->NextDouble() * 60.0;
  cfg.max_buy_kwh = rng->Bernoulli(0.2) ? 0.0 : 5.0 + rng->NextDouble() * 30.0;
  cfg.max_sell_kwh = rng->Bernoulli(0.2) ? 0.0 : 5.0 + rng->NextDouble() * 30.0;
  return cfg;
}

OfferAssignment RandomAssignment(const flexoffer::FlexOffer& fo, Rng* rng) {
  return {fo.earliest_start + rng->UniformInt(0, fo.TimeFlexibility()),
          rng->NextDouble()};
}

Schedule RandomScheduleFor(const SchedulingProblem& p, Rng* rng) {
  Schedule s;
  s.assignments.reserve(p.offers.size());
  for (const auto& fo : p.offers) {
    s.assignments.push_back(RandomAssignment(fo, rng));
  }
  return s;
}

// ---------------------------------------------------------------------------
// Property 1: kernel == naive recomputation (1e-9) == reference (bitwise),
// across >= 200 randomized problems and randomized move sequences.
// ---------------------------------------------------------------------------

TEST(SchedulingKernelPropertyTest, MatchesNaiveAndReferenceAcrossRandomRuns) {
  Rng rng(77);
  int problems = 0;
  for (int it = 0; it < 220; ++it) {
    SchedulingProblem p = MakeScenario(RandomScenarioConfig(&rng, it));
    ASSERT_TRUE(p.Validate().ok());
    ++problems;

    CompiledProblem cp(p);
    ScheduleWorkspace ws(cp);
    ReferenceCostEvaluator ref(p);

    // Default schedules agree with each other and with the naive oracle.
    Schedule current;
    ws.ExportSchedule(&current);
    ASSERT_EQ(current.assignments.size(), p.offers.size());
    EXPECT_EQ(ws.Cost(cp).total(), ref.Cost().total());
    EXPECT_NEAR(ws.Cost(cp).total(), NaiveTotalCost(p, current),
                RelTol(ws.Cost(cp).total()));

    for (int move = 0; move < 12 && !p.offers.empty(); ++move) {
      size_t index = rng.Index(p.offers.size());
      OfferAssignment cand = RandomAssignment(p.offers[index], &rng);

      // TryMove: kernel delta == reference delta bitwise, == naive delta
      // within 1e-9.
      double kernel_delta = ws.TryMove(cp, index, cand.start, cand.fill);
      auto ref_delta = ref.TryMove(index, cand);
      ASSERT_TRUE(ref_delta.ok());
      EXPECT_EQ(kernel_delta, *ref_delta);

      Schedule moved = current;
      moved.assignments[index] = cand;
      double naive_delta =
          NaiveTotalCost(p, moved) - NaiveTotalCost(p, current);
      EXPECT_NEAR(kernel_delta, naive_delta, RelTol(NaiveTotalCost(p, moved)));

      // Apply on both sides; full state stays bit-identical.
      ws.ApplyMove(cp, index, cand.start, cand.fill);
      ASSERT_TRUE(ref.ApplyMove(index, cand).ok());
      current = moved;
      ScheduleCost kc = ws.Cost(cp);
      ScheduleCost rc = ref.Cost();
      EXPECT_EQ(kc.imbalance_eur, rc.imbalance_eur);
      EXPECT_EQ(kc.flex_activation_eur, rc.flex_activation_eur);
      EXPECT_EQ(kc.market_eur, rc.market_eur);
      for (size_t s = 0; s < ws.net_kwh().size(); ++s) {
        ASSERT_EQ(ws.net_kwh()[s], ref.net_kwh()[s]) << "slice " << s;
      }
    }

    // EvaluateInto == the pre-kernel EvaluateTotal bitwise, == naive within
    // 1e-9, for a handful of random schedules.
    ScheduleWorkspace pool(cp);
    for (int e = 0; e < 4; ++e) {
      Schedule s = RandomScheduleFor(p, &rng);
      auto kernel_total = pool.EvaluateInto(cp, s);
      auto ref_total = ref.EvaluateTotal(s);
      ASSERT_TRUE(kernel_total.ok());
      ASSERT_TRUE(ref_total.ok());
      EXPECT_EQ(*kernel_total, *ref_total);
      EXPECT_NEAR(*kernel_total, NaiveTotalCost(p, s), RelTol(*ref_total));
    }

    // A fresh SetSchedule follows the reference too. Compare a *fresh*
    // workspace against a *fresh* reference evaluator: `ws` and `ref` above
    // reached `current` through incremental ApplyMoves, whose floating-point
    // history a fresh SetSchedule does not share (in either implementation).
    ScheduleWorkspace fresh(cp);
    ASSERT_TRUE(fresh.SetSchedule(cp, current).ok());
    ReferenceCostEvaluator fresh_ref(p);
    ASSERT_TRUE(fresh_ref.SetSchedule(current).ok());
    EXPECT_EQ(fresh.Cost(cp).total(), fresh_ref.Cost().total());
  }
  EXPECT_GE(problems, 200);
}

TEST(SchedulingKernelPropertyTest, RejectsInfeasibleLikeTheReference) {
  ScenarioConfig cfg;
  cfg.num_offers = 5;
  cfg.seed = 9;
  SchedulingProblem p = MakeScenario(cfg);
  CompiledProblem cp(p);
  ScheduleWorkspace ws(cp);

  Schedule bad;
  EXPECT_EQ(ws.SetSchedule(cp, bad).code(), StatusCode::kInvalidArgument);
  ws.ExportSchedule(&bad);
  bad.assignments[0].fill = 1.5;
  EXPECT_EQ(ws.SetSchedule(cp, bad).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ws.EvaluateInto(cp, bad).status().code(), StatusCode::kOutOfRange);
  bad.assignments[0].fill = 0.5;
  bad.assignments[0].start = p.offers[0].latest_start + 1;
  EXPECT_EQ(ws.SetSchedule(cp, bad).code(), StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------------
// Property 2: the rewired schedulers are bit-identical to the pre-kernel
// implementations for fixed seeds under max_iterations budgets. The old
// Run() loops are reproduced verbatim below on top of ReferenceCostEvaluator.
// ---------------------------------------------------------------------------

namespace reference {

std::vector<TimeSlice> StartCandidates(const flexoffer::FlexOffer& offer,
                                       int max_candidates) {
  int64_t window = offer.TimeFlexibility();
  std::vector<TimeSlice> out;
  if (window < max_candidates) {
    out.reserve(static_cast<size_t>(window) + 1);
    for (int64_t d = 0; d <= window; ++d) {
      out.push_back(offer.earliest_start + d);
    }
    return out;
  }
  out.reserve(static_cast<size_t>(max_candidates));
  for (int i = 0; i < max_candidates; ++i) {
    int64_t d = window * i / (max_candidates - 1);
    out.push_back(offer.earliest_start + d);
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

SchedulingResult Greedy(const SchedulingProblem& problem,
                        const SchedulerOptions& options,
                        const GreedyScheduler::Config& config) {
  Rng rng(options.seed);
  ReferenceCostEvaluator evaluator(problem);
  SchedulingResult result;
  result.schedule = evaluator.schedule();
  double best_cost = evaluator.Cost().total();
  result.trace.push_back({0.0, best_cost});
  if (problem.offers.empty()) {
    result.cost = evaluator.Cost();
    return result;
  }
  auto out_of_budget = [&]() {
    return options.max_iterations > 0 &&
           result.iterations >= options.max_iterations;
  };
  std::vector<size_t> order(problem.offers.size());
  std::iota(order.begin(), order.end(), 0);
  bool first_pass = true;
  while (!out_of_budget()) {
    rng.Shuffle(&order);
    bool improved_any = false;
    for (size_t index : order) {
      if (out_of_budget()) break;
      const flexoffer::FlexOffer& fo = problem.offers[index];
      OfferAssignment best = evaluator.schedule().assignments[index];
      double best_delta = 0.0;
      for (TimeSlice start :
           StartCandidates(fo, config.max_start_candidates)) {
        for (double fill : config.fill_candidates) {
          OfferAssignment candidate{start, fill};
          Result<double> delta = evaluator.TryMove(index, candidate);
          if (delta.ok() && *delta < best_delta - 1e-12) {
            best_delta = *delta;
            best = candidate;
          }
        }
      }
      if (best_delta < 0.0) {
        EXPECT_TRUE(evaluator.ApplyMove(index, best).ok());
        improved_any = true;
      }
      ++result.iterations;
    }
    double cost = evaluator.Cost().total();
    if (cost < best_cost - 1e-12) {
      best_cost = cost;
      result.schedule = evaluator.schedule();
      result.trace.push_back({0.0, best_cost});
    }
    if (!improved_any && !first_pass) {
      Schedule random_schedule;
      random_schedule.assignments.reserve(problem.offers.size());
      for (const auto& fo : problem.offers) {
        random_schedule.assignments.push_back(
            {fo.earliest_start + rng.UniformInt(0, fo.TimeFlexibility()),
             rng.NextDouble()});
      }
      EXPECT_TRUE(evaluator.SetSchedule(random_schedule).ok());
    }
    first_pass = false;
  }
  ReferenceCostEvaluator final_eval(problem);
  EXPECT_TRUE(final_eval.SetSchedule(result.schedule).ok());
  result.cost = final_eval.Cost();
  return result;
}

struct Individual {
  Schedule schedule;
  double cost = 0.0;
};

SchedulingResult Evolutionary(const SchedulingProblem& problem,
                              const SchedulerOptions& options,
                              const EvolutionaryScheduler::Config& config) {
  Rng rng(options.seed);
  ReferenceCostEvaluator evaluator(problem);
  if (problem.offers.empty()) {
    SchedulingResult result;
    result.schedule = evaluator.schedule();
    result.cost = evaluator.Cost();
    result.trace.push_back({0.0, result.cost.total()});
    return result;
  }
  auto evaluate = [&](const Schedule& s) {
    auto total = evaluator.EvaluateTotal(s);
    EXPECT_TRUE(total.ok());
    return *total;
  };
  std::vector<Individual> population;
  population.reserve(static_cast<size_t>(config.population_size));
  {
    Individual baseline;
    baseline.schedule = ReferenceCostEvaluator(problem).schedule();
    baseline.cost = evaluate(baseline.schedule);
    population.push_back(std::move(baseline));
  }
  while (population.size() < static_cast<size_t>(config.population_size)) {
    Individual ind;
    ind.schedule.assignments.reserve(problem.offers.size());
    for (const auto& fo : problem.offers) {
      ind.schedule.assignments.push_back(
          {fo.earliest_start + rng.UniformInt(0, fo.TimeFlexibility()),
           rng.NextDouble()});
    }
    ind.cost = evaluate(ind.schedule);
    population.push_back(std::move(ind));
  }
  auto best_it = std::min_element(
      population.begin(), population.end(),
      [](const Individual& a, const Individual& b) { return a.cost < b.cost; });
  SchedulingResult result;
  result.schedule = best_it->schedule;
  double best_cost = best_it->cost;
  result.trace.push_back({0.0, best_cost});
  auto out_of_budget = [&]() {
    return options.max_iterations > 0 &&
           result.iterations >= options.max_iterations;
  };
  auto tournament = [&]() -> const Individual& {
    size_t winner = rng.Index(population.size());
    for (int k = 1; k < config.tournament_size; ++k) {
      size_t challenger = rng.Index(population.size());
      if (population[challenger].cost < population[winner].cost) {
        winner = challenger;
      }
    }
    return population[winner];
  };
  const size_t genes = problem.offers.size();
  while (!out_of_budget()) {
    std::vector<Individual> next;
    next.reserve(population.size());
    std::partial_sort(population.begin(),
                      population.begin() + config.elites, population.end(),
                      [](const Individual& a, const Individual& b) {
                        return a.cost < b.cost;
                      });
    for (int e = 0; e < config.elites; ++e) {
      next.push_back(population[static_cast<size_t>(e)]);
    }
    while (next.size() < population.size()) {
      const Individual& parent_a = tournament();
      const Individual& parent_b = tournament();
      Individual child;
      child.schedule.assignments.resize(genes);
      bool crossover = rng.Bernoulli(config.crossover_rate);
      for (size_t g = 0; g < genes; ++g) {
        const Individual& source =
            (crossover && rng.Bernoulli(0.5)) ? parent_b : parent_a;
        child.schedule.assignments[g] = source.schedule.assignments[g];
      }
      for (size_t g = 0; g < genes; ++g) {
        if (!rng.Bernoulli(config.mutation_rate)) continue;
        const flexoffer::FlexOffer& fo = problem.offers[g];
        OfferAssignment& a = child.schedule.assignments[g];
        int64_t window = fo.TimeFlexibility();
        if (window > 0) {
          int64_t span = std::max<int64_t>(
              1, static_cast<int64_t>(
                     std::llround(config.start_mutation_span *
                                  static_cast<double>(window))));
          a.start += rng.UniformInt(-span, span);
          a.start = std::clamp(a.start, fo.earliest_start, fo.latest_start);
        }
        a.fill = Clamp(a.fill + rng.Gaussian(0.0, config.fill_mutation_sigma),
                       0.0, 1.0);
      }
      child.cost = evaluate(child.schedule);
      next.push_back(std::move(child));
    }
    population = std::move(next);
    ++result.iterations;
    for (const Individual& ind : population) {
      if (ind.cost < best_cost - 1e-12) {
        best_cost = ind.cost;
        result.schedule = ind.schedule;
        result.trace.push_back({0.0, best_cost});
      }
    }
  }
  EXPECT_TRUE(evaluator.SetSchedule(result.schedule).ok());
  result.cost = evaluator.Cost();
  return result;
}

SchedulingResult Exhaustive(const SchedulingProblem& problem) {
  ReferenceCostEvaluator evaluator(problem);
  const size_t n = problem.offers.size();
  Schedule current;
  current.assignments.reserve(n);
  for (const auto& fo : problem.offers) {
    current.assignments.push_back({fo.earliest_start, 1.0});
  }
  EXPECT_TRUE(evaluator.SetSchedule(current).ok());
  SchedulingResult result;
  result.schedule = current;
  double best_cost = evaluator.Cost().total();
  result.trace.push_back({0.0, best_cost});
  result.iterations = 1;
  std::vector<int64_t> offsets(n, 0);
  while (true) {
    size_t d = 0;
    while (d < n) {
      const auto& fo = problem.offers[d];
      if (offsets[d] < fo.TimeFlexibility()) {
        ++offsets[d];
        EXPECT_TRUE(
            evaluator
                .ApplyMove(d, {fo.earliest_start + offsets[d],
                               evaluator.schedule().assignments[d].fill})
                .ok());
        break;
      }
      offsets[d] = 0;
      EXPECT_TRUE(evaluator
                      .ApplyMove(d, {fo.earliest_start,
                                     evaluator.schedule().assignments[d].fill})
                      .ok());
      ++d;
    }
    if (d == n) break;
    ++result.iterations;
    double cost = evaluator.Cost().total();
    if (cost < best_cost - 1e-12) {
      best_cost = cost;
      result.schedule = evaluator.schedule();
      result.trace.push_back({0.0, best_cost});
    }
  }
  ReferenceCostEvaluator final_eval(problem);
  EXPECT_TRUE(final_eval.SetSchedule(result.schedule).ok());
  result.cost = final_eval.Cost();
  return result;
}

}  // namespace reference

// ---------------------------------------------------------------------------
// Property 1b: one ScanMoves call per offer == one reference TryMove per
// (start, fill) candidate, bit for bit, over the shapes the segmented walk
// distinguishes.
// ---------------------------------------------------------------------------

TEST(SchedulingKernelPropertyTest, BatchScanMatchesReferencePerCandidate) {
  Rng rng(123);
  const GreedyScheduler::Config greedy_config;
  int problems = 0;
  int64_t candidates = 0;
  int64_t disjoint = 0;
  int64_t overlapping = 0;
  int64_t subsampled_offers = 0;
  int64_t production_scans = 0;
  int64_t rigid_problems = 0;
  std::vector<int64_t> scans_by_fill_count(12, 0);
  for (int it = 0; it < 120; ++it) {
    ScenarioConfig cfg = RandomScenarioConfig(&rng, 5000 + it);
    if (it % 3 == 0) {
      // Windows wider than the 64-candidate cap: starts are subsampled and
      // no longer contiguous.
      cfg.horizon_length = static_cast<int>(rng.UniformInt(120, 240));
      cfg.max_time_flexibility = static_cast<int>(rng.UniformInt(65, 200));
    }
    if (it % 4 == 1) cfg.production_fraction = 0.5;
    if (it % 7 == 2) cfg.no_energy_flexibility = true;
    SchedulingProblem p = MakeScenario(cfg);
    ASSERT_TRUE(p.Validate().ok());
    ++problems;
    if (cfg.no_energy_flexibility) ++rigid_problems;

    CompiledProblem cp(p);
    ScheduleWorkspace ws(cp);
    ReferenceCostEvaluator ref(p);
    // Leave the default schedule, so current fills and starts vary.
    for (int move = 0; move < 8; ++move) {
      size_t index = rng.Index(p.offers.size());
      OfferAssignment a = RandomAssignment(p.offers[index], &rng);
      ws.ApplyMove(cp, index, a.start, a.fill);
      ASSERT_TRUE(ref.ApplyMove(index, a).ok());
    }

    for (int scan = 0; scan < 6; ++scan) {
      const size_t index = rng.Index(p.offers.size());
      const flexoffer::FlexOffer& fo = p.offers[index];
      std::vector<TimeSlice> starts = reference::StartCandidates(
          fo, greedy_config.max_start_candidates);
      if (fo.TimeFlexibility() >= greedy_config.max_start_candidates) {
        ++subsampled_offers;
      }
      // Fill lists of 1, 3 and 9-11 entries: every fill-chunk width.
      std::vector<double> fills;
      switch (scan % 3) {
        case 0:
          fills = {rng.NextDouble()};
          break;
        case 1:
          fills = greedy_config.fill_candidates;
          break;
        default: {
          const int n = 9 + static_cast<int>(rng.UniformInt(0, 2));
          fills = {0.0, 1.0};
          while (static_cast<int>(fills.size()) < n) {
            fills.push_back(rng.NextDouble());
          }
          break;
        }
      }
      ++scans_by_fill_count[fills.size()];
      if (fo.profile[0].max_kwh < 0.0) ++production_scans;

      std::vector<double> deltas(starts.size() * fills.size());
      ws.ScanMoves(cp, index, starts, fills, deltas);
      const TimeSlice cur = ws.start(index);
      for (size_t c = 0; c < starts.size(); ++c) {
        const int64_t shift =
            starts[c] > cur ? starts[c] - cur : cur - starts[c];
        if (shift >= fo.Duration()) {
          ++disjoint;
        } else {
          ++overlapping;
        }
        for (size_t f = 0; f < fills.size(); ++f) {
          auto want = ref.TryMove(index, {starts[c], fills[f]});
          ASSERT_TRUE(want.ok());
          const double got = deltas[c * fills.size() + f];
          EXPECT_EQ(std::bit_cast<uint64_t>(got),
                    std::bit_cast<uint64_t>(*want))
              << "offer " << index << " start " << starts[c] << " fill "
              << fills[f] << ": " << got << " vs " << *want;
          ++candidates;
        }
      }
      // TryMove is the one-candidate case of the same scan.
      const double single =
          ws.TryMove(cp, index, starts.back(), fills.back());
      EXPECT_EQ(std::bit_cast<uint64_t>(single),
                std::bit_cast<uint64_t>(deltas.back()));
    }
  }
  EXPECT_GE(problems, 100);
  EXPECT_GT(candidates, 50000);
  EXPECT_GT(disjoint, 1000);
  EXPECT_GT(overlapping, 1000);
  EXPECT_GT(subsampled_offers, 20);
  EXPECT_GT(production_scans, 20);
  EXPECT_GT(rigid_problems, 10);
  EXPECT_GT(scans_by_fill_count[1], 0);
  EXPECT_GT(scans_by_fill_count[3], 0);
  EXPECT_GT(scans_by_fill_count[9] + scans_by_fill_count[10] +
                scans_by_fill_count[11],
            0);
}

void ExpectBitIdentical(const SchedulingResult& got,
                        const SchedulingResult& want) {
  ASSERT_EQ(got.schedule.assignments.size(), want.schedule.assignments.size());
  for (size_t i = 0; i < got.schedule.assignments.size(); ++i) {
    EXPECT_EQ(got.schedule.assignments[i].start,
              want.schedule.assignments[i].start)
        << "offer " << i;
    EXPECT_EQ(got.schedule.assignments[i].fill,
              want.schedule.assignments[i].fill)
        << "offer " << i;
  }
  EXPECT_EQ(got.cost.imbalance_eur, want.cost.imbalance_eur);
  EXPECT_EQ(got.cost.flex_activation_eur, want.cost.flex_activation_eur);
  EXPECT_EQ(got.cost.market_eur, want.cost.market_eur);
  EXPECT_EQ(got.iterations, want.iterations);
  ASSERT_EQ(got.trace.size(), want.trace.size());
  for (size_t i = 0; i < got.trace.size(); ++i) {
    EXPECT_EQ(got.trace[i].best_cost_eur, want.trace[i].best_cost_eur)
        << "trace point " << i;
  }
}

SchedulerOptions IterBudget(int iters, uint64_t seed) {
  SchedulerOptions opt;
  opt.time_budget_s = 0.0;
  opt.max_iterations = iters;
  opt.seed = seed;
  return opt;
}

TEST(SchedulerBitIdentityTest, GreedyMatchesPreKernelImplementation) {
  for (int n : {3, 25, 60}) {
    ScenarioConfig cfg;
    cfg.num_offers = n;
    cfg.seed = 40 + static_cast<uint64_t>(n);
    SchedulingProblem problem = MakeScenario(cfg);
    SchedulerOptions options = IterBudget(4 * n, 7);
    GreedyScheduler greedy;
    auto got = greedy.Run(problem, options);
    ASSERT_TRUE(got.ok());
    SchedulingResult want =
        reference::Greedy(problem, options, GreedyScheduler::Config());
    ExpectBitIdentical(*got, want);
  }
  // Windows wider than the start-candidate cap (subsampled, non-contiguous
  // starts) and a 9-entry fill list, wider than one scan chunk.
  ScenarioConfig cfg;
  cfg.num_offers = 30;
  cfg.horizon_length = 192;
  cfg.max_time_flexibility = 150;
  cfg.production_fraction = 0.4;
  cfg.seed = 91;
  SchedulingProblem problem = MakeScenario(cfg);
  SchedulerOptions options = IterBudget(120, 17);
  GreedyScheduler::Config config;
  config.fill_candidates = {0.0, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0};
  auto got = GreedyScheduler(config).Run(problem, options);
  ASSERT_TRUE(got.ok());
  SchedulingResult want = reference::Greedy(problem, options, config);
  ExpectBitIdentical(*got, want);
}

TEST(SchedulerBitIdentityTest, EvolutionaryMatchesPreKernelImplementation) {
  for (int n : {4, 30}) {
    ScenarioConfig cfg;
    cfg.num_offers = n;
    cfg.seed = 50 + static_cast<uint64_t>(n);
    cfg.production_fraction = 0.4;
    SchedulingProblem problem = MakeScenario(cfg);
    SchedulerOptions options = IterBudget(25, 13);
    EvolutionaryScheduler ea;
    auto got = ea.Run(problem, options);
    ASSERT_TRUE(got.ok());
    SchedulingResult want = reference::Evolutionary(
        problem, options, EvolutionaryScheduler::Config());
    ExpectBitIdentical(*got, want);
  }
}

TEST(SchedulerBitIdentityTest, ExhaustiveMatchesPreKernelImplementation) {
  ScenarioConfig cfg;
  cfg.num_offers = 5;
  cfg.max_time_flexibility = 4;
  cfg.seed = 13;
  SchedulingProblem problem = MakeScenario(cfg);
  ExhaustiveScheduler exhaustive;
  SchedulerOptions options;
  options.time_budget_s = 60.0;
  auto got = exhaustive.Run(problem, options);
  ASSERT_TRUE(got.ok());
  SchedulingResult want = reference::Exhaustive(problem);
  ExpectBitIdentical(*got, want);
}

TEST(SchedulerBitIdentityTest, GreedySkipsInfeasibleFillCandidates) {
  // The pre-kernel scan rejected out-of-[0,1] fills per TryMove call; the
  // kernel scan filters them up front. Outcomes must match a config that
  // never listed them.
  ScenarioConfig cfg;
  cfg.num_offers = 15;
  cfg.seed = 33;
  SchedulingProblem problem = MakeScenario(cfg);
  SchedulerOptions options = IterBudget(45, 5);

  GreedyScheduler::Config bad;
  bad.fill_candidates = {-0.5, 0.0, 0.5, 1.0, 1.5};
  GreedyScheduler::Config good;
  good.fill_candidates = {0.0, 0.5, 1.0};
  auto bad_run = GreedyScheduler(bad).Run(problem, options);
  auto good_run = GreedyScheduler(good).Run(problem, options);
  ASSERT_TRUE(bad_run.ok());
  ASSERT_TRUE(good_run.ok());
  ExpectBitIdentical(*bad_run, *good_run);
}

TEST(SchedulerBitIdentityTest, GreedyZeroStartCandidatesMatchesReference) {
  // max_start_candidates <= 0 yields no candidates (offers are only ever
  // repositioned by restarts), exactly like the pre-kernel generator.
  ScenarioConfig cfg;
  cfg.num_offers = 12;
  cfg.seed = 55;
  SchedulingProblem problem = MakeScenario(cfg);
  SchedulerOptions options = IterBudget(36, 9);
  GreedyScheduler::Config config;
  config.max_start_candidates = 0;
  auto got = GreedyScheduler(config).Run(problem, options);
  ASSERT_TRUE(got.ok());
  SchedulingResult want = reference::Greedy(problem, options, config);
  ExpectBitIdentical(*got, want);
}

TEST(SchedulerBitIdentityTest, GreedyHandlesSingleStartCandidateCap) {
  // max_start_candidates <= 1 used to divide by zero in the candidate
  // spacing; it now means "earliest start only".
  ScenarioConfig cfg;
  cfg.num_offers = 10;
  cfg.seed = 44;
  SchedulingProblem problem = MakeScenario(cfg);
  GreedyScheduler::Config config;
  config.max_start_candidates = 1;
  auto run = GreedyScheduler(config).Run(problem, IterBudget(20, 3));
  ASSERT_TRUE(run.ok());
  for (size_t i = 0; i < run->schedule.assignments.size(); ++i) {
    EXPECT_EQ(run->schedule.assignments[i].start,
              problem.offers[i].earliest_start);
  }
}

// ---------------------------------------------------------------------------
// Property 3: the steady-state kernel loop is allocation-free.
// ---------------------------------------------------------------------------

TEST(SchedulingKernelAllocationTest, SteadyStateLoopDoesNotAllocate) {
  ScenarioConfig cfg;
  cfg.num_offers = 40;
  cfg.seed = 4;
  SchedulingProblem problem = MakeScenario(cfg);
  Rng rng(5);

  CompiledProblem cp(problem);
  ScheduleWorkspace ws(cp);
  ScheduleWorkspace pool(cp);
  Schedule child = RandomScheduleFor(problem, &rng);

  // Pre-draw the move sequence so the measured section runs only kernel
  // code (the Rng itself never allocates, but keep the section pure).
  struct Move {
    size_t index;
    TimeSlice start;
    double fill;
  };
  std::vector<Move> moves;
  moves.reserve(512);
  for (int i = 0; i < 512; ++i) {
    size_t index = rng.Index(problem.offers.size());
    OfferAssignment a = RandomAssignment(problem.offers[index], &rng);
    moves.push_back({index, a.start, a.fill});
  }

  // A greedy-style scan buffer: every start of the widest window, 9 fills.
  const std::vector<double> fills = {0.0, 0.1, 0.2, 0.35, 0.5,
                                     0.65, 0.8, 0.9, 1.0};
  std::vector<TimeSlice> starts;
  starts.reserve(128);
  std::vector<double> deltas(128 * fills.size());

  double sink = 0.0;
  const int64_t before = g_heap_allocations.load();
  // Setup above must have gone through the counting allocator, otherwise
  // the zero-delta assertion below would be vacuous.
  ASSERT_GT(before, 0);
  for (const Move& m : moves) {
    starts.clear();
    for (TimeSlice t = cp.earliest_start[m.index];
         t <= cp.latest_start[m.index] && starts.size() < 128; ++t) {
      starts.push_back(t);
    }
    std::span<double> out(deltas.data(), starts.size() * fills.size());
    ws.ScanMoves(cp, m.index, starts, fills, out);
    for (double delta : out) sink += delta;
    sink += ws.TryMove(cp, m.index, m.start, m.fill);
    ws.ApplyMove(cp, m.index, m.start, m.fill);
    auto total = pool.EvaluateInto(cp, child);
    sink += total.ok() ? *total : 0.0;
  }
  sink += ws.Cost(cp).total();
  const int64_t after = g_heap_allocations.load();
  EXPECT_EQ(after, before) << "steady-state kernel loop allocated";
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(SchedulingKernelAllocationTest, EaGenerationLoopAllocationsAmortizeOut) {
  // Allocations must not scale with generation count: running 45 extra
  // generations may only add the trace vector's amortized growth, not the
  // ~population_size allocations per generation an unpooled loop would make
  // (a fresh vector<Individual> per generation plus a gene vector per child).
  ScenarioConfig cfg;
  cfg.num_offers = 25;
  cfg.seed = 77;
  SchedulingProblem problem = MakeScenario(cfg);
  EvolutionaryScheduler ea;
  auto run_with = [&](int generations) -> int64_t {
    const int64_t before = g_heap_allocations.load();
    auto run = ea.Run(problem, IterBudget(generations, 11));
    const int64_t after = g_heap_allocations.load();
    EXPECT_TRUE(run.ok());
    return after - before;
  };
  const int64_t short_run = run_with(5);
  const int64_t long_run = run_with(50);
  EXPECT_LE(long_run - short_run, 64)
      << "EA generation loop allocates per generation";
}

}  // namespace
}  // namespace mirabel::scheduling
