#ifndef MIRABEL_EDMS_SCHEDULER_REGISTRY_H_
#define MIRABEL_EDMS_SCHEDULER_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "scheduling/scheduler.h"

namespace mirabel::edms {

/// Creates a fresh scheduler instance per scheduling run (schedulers are
/// stateless between runs, but Run() is non-const, so each gate gets its
/// own).
using SchedulerFactory =
    std::function<std::unique_ptr<scheduling::Scheduler>()>;

/// Name-keyed scheduler factory registry. Replaces the stringly-typed
/// `std::string scheduler` config fields: engine/node/simulation configs hold
/// a SchedulerFactory resolved once — at the system edge where a name
/// genuinely originates (CLI flags, bench sweeps) — instead of re-parsing a
/// string at every gate closure. Custom schedulers plug in via Register().
class SchedulerRegistry {
 public:
  /// The process-wide registry, preloaded with the paper's two
  /// metaheuristics, the optimal search and the two wrappers that compose
  /// other schedulers: "GreedySearch", "EvolutionaryAlgorithm",
  /// "BranchAndBound", "Portfolio", "Robust".
  static SchedulerRegistry& Default();

  /// Registers `factory` under `name`; AlreadyExists on duplicates.
  Status Register(const std::string& name, SchedulerFactory factory);

  /// The factory registered under `name`; NotFound otherwise.
  Result<SchedulerFactory> Find(const std::string& name) const;

  /// Convenience: Find(name) and invoke the factory.
  Result<std::unique_ptr<scheduling::Scheduler>> Create(
      const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, SchedulerFactory> factories_;
};

/// Factory for the system default (the paper's randomized greedy search).
/// Engine configs that leave `scheduler_factory` empty resolve to this.
SchedulerFactory DefaultSchedulerFactory();

/// Per-problem-size scheduler budget: the §6 schedulers are anytime
/// algorithms, so budget converts into quality only while there is search
/// space left to explore — a late gate with one small macro offer must not
/// burn the full per-gate cap. Scales `configured_s` linearly with the
/// problem's work measure `num_offers * horizon_length` relative to
/// `reference_work` (the size that earns the full budget), clamped to
/// [min_fraction * configured_s, configured_s]. Non-positive budgets pass
/// through unchanged (iteration-capped deterministic runs stay untouched).
double ScaledTimeBudget(double configured_s, size_t num_offers,
                        int horizon_length, double reference_work,
                        double min_fraction);

}  // namespace mirabel::edms

#endif  // MIRABEL_EDMS_SCHEDULER_REGISTRY_H_
