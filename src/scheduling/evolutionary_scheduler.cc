#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "scheduling/compiled_problem.h"
#include "scheduling/scheduler.h"

namespace mirabel::scheduling {

namespace {

struct Individual {
  Schedule schedule;
  double cost = 0.0;
};

Schedule RandomSchedule(const CompiledProblem& cp, Rng* rng) {
  Schedule s;
  s.assignments.reserve(cp.num_offers);
  for (size_t i = 0; i < cp.num_offers; ++i) {
    s.assignments.push_back(
        {cp.earliest_start[i] +
             rng->UniformInt(0, cp.latest_start[i] - cp.earliest_start[i]),
         rng->NextDouble()});
  }
  return s;
}

}  // namespace

EvolutionaryScheduler::EvolutionaryScheduler()
    : EvolutionaryScheduler(Config()) {}

EvolutionaryScheduler::EvolutionaryScheduler(const Config& config)
    : config_(config) {}

Result<SchedulingResult> EvolutionaryScheduler::RunCompiled(
    const CompiledProblem& cp, const SchedulerOptions& options) {
  if (config_.population_size < 2 || config_.elites < 0 ||
      config_.elites >= config_.population_size) {
    return Status::InvalidArgument("degenerate EA configuration");
  }
  if (options.Unbounded()) {
    return Status::InvalidArgument(
        "evolutionary algorithm needs a time budget or an iteration cap");
  }
  Stopwatch watch;
  Rng rng(options.seed);
  // One pooled workspace serves every child evaluation: EvaluateInto() is a
  // single fused validate+accumulate+sweep pass with zero allocations, where
  // the pre-kernel path built a whole scratch evaluator (two vector
  // allocations plus a thrown-away default-schedule accumulation) per child
  // per generation.
  ScheduleWorkspace ws(cp);
  if (cp.num_offers == 0) {
    SchedulingResult result;
    ws.ExportSchedule(&result.schedule);
    result.cost = ws.Cost(cp);
    result.trace.push_back({watch.ElapsedSeconds(), result.cost.total()});
    return result;
  }

  // Initial population: random schedules plus the all-earliest baseline.
  std::vector<Individual> population;
  population.reserve(static_cast<size_t>(config_.population_size));
  {
    Individual baseline;
    baseline.schedule.assignments.reserve(cp.num_offers);
    for (size_t i = 0; i < cp.num_offers; ++i) {
      baseline.schedule.assignments.push_back({cp.earliest_start[i], 1.0});
    }
    MIRABEL_ASSIGN_OR_RETURN(baseline.cost,
                             ws.EvaluateInto(cp, baseline.schedule));
    population.push_back(std::move(baseline));
  }
  while (population.size() < static_cast<size_t>(config_.population_size)) {
    Individual ind;
    ind.schedule = RandomSchedule(cp, &rng);
    MIRABEL_ASSIGN_OR_RETURN(ind.cost, ws.EvaluateInto(cp, ind.schedule));
    population.push_back(std::move(ind));
  }

  auto best_it = std::min_element(
      population.begin(), population.end(),
      [](const Individual& a, const Individual& b) { return a.cost < b.cost; });
  SchedulingResult result;
  result.schedule = best_it->schedule;
  double best_cost = best_it->cost;
  result.trace.push_back({watch.ElapsedSeconds(), best_cost});

  BudgetGate gate(watch, options.time_budget_s);
  auto out_of_budget = [&]() {
    // One generation evaluates ~population_size children; charge them all at
    // the generation boundary (the old code also only read the clock here).
    if (gate.Exhausted(config_.population_size)) return true;
    if (options.max_iterations > 0 &&
        result.iterations >= options.max_iterations) {
      return true;
    }
    return false;
  };

  auto tournament = [&]() -> const Individual& {
    size_t winner = rng.Index(population.size());
    for (int k = 1; k < config_.tournament_size; ++k) {
      size_t challenger = rng.Index(population.size());
      if (population[challenger].cost < population[winner].cost) {
        winner = challenger;
      }
    }
    return population[winner];
  };

  const size_t genes = cp.num_offers;
  // One reusable child-generation buffer, allocated before the loop: the old
  // loop constructed a fresh std::vector<Individual> per generation and a
  // fresh gene vector per child. Writing children into preallocated slots
  // and swapping the two generations makes the steady-state loop
  // allocation-free (asserted by tests/scheduling_kernel_test.cc).
  std::vector<Individual> next(population.size());
  for (Individual& ind : next) ind.schedule.assignments.resize(genes);

  while (!out_of_budget()) {
    // Elitism: carry the best individuals over unchanged.
    std::partial_sort(population.begin(),
                      population.begin() + config_.elites, population.end(),
                      [](const Individual& a, const Individual& b) {
                        return a.cost < b.cost;
                      });
    for (int e = 0; e < config_.elites; ++e) {
      next[static_cast<size_t>(e)] = population[static_cast<size_t>(e)];
    }

    for (size_t slot = static_cast<size_t>(config_.elites);
         slot < population.size(); ++slot) {
      const Individual& parent_a = tournament();
      const Individual& parent_b = tournament();
      Individual& child = next[slot];

      // Uniform crossover over the per-offer genes.
      bool crossover = rng.Bernoulli(config_.crossover_rate);
      for (size_t g = 0; g < genes; ++g) {
        const Individual& source =
            (crossover && rng.Bernoulli(0.5)) ? parent_b : parent_a;
        child.schedule.assignments[g] = source.schedule.assignments[g];
      }

      // Mutation.
      for (size_t g = 0; g < genes; ++g) {
        if (!rng.Bernoulli(config_.mutation_rate)) continue;
        OfferAssignment& a = child.schedule.assignments[g];
        int64_t window = cp.latest_start[g] - cp.earliest_start[g];
        if (window > 0) {
          int64_t span = std::max<int64_t>(
              1, static_cast<int64_t>(
                     std::llround(config_.start_mutation_span *
                                  static_cast<double>(window))));
          a.start += rng.UniformInt(-span, span);
          a.start = std::clamp(a.start, cp.earliest_start[g],
                               cp.latest_start[g]);
        }
        a.fill = Clamp(a.fill + rng.Gaussian(0.0, config_.fill_mutation_sigma),
                       0.0, 1.0);
      }

      MIRABEL_ASSIGN_OR_RETURN(child.cost,
                               ws.EvaluateInto(cp, child.schedule));
    }

    std::swap(population, next);
    ++result.iterations;

    for (const Individual& ind : population) {
      if (ind.cost < best_cost - 1e-12) {
        best_cost = ind.cost;
        result.schedule = ind.schedule;
        result.trace.push_back({watch.ElapsedSeconds(), best_cost});
      }
    }
  }

  // Final full recompute of the incumbent in the pooled workspace.
  MIRABEL_RETURN_IF_ERROR(ws.SetSchedule(cp, result.schedule));
  result.cost = ws.Cost(cp);
  return result;
}

}  // namespace mirabel::scheduling
