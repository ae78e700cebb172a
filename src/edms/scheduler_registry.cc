#include "edms/scheduler_registry.h"

#include <utility>

#include "scheduling/bnb_scheduler.h"
#include "scheduling/portfolio_scheduler.h"
#include "scheduling/robust_scheduler.h"

namespace mirabel::edms {

SchedulerRegistry& SchedulerRegistry::Default() {
  static SchedulerRegistry* registry = [] {
    auto* r = new SchedulerRegistry();
    (void)r->Register("GreedySearch", [] {
      return std::make_unique<scheduling::GreedyScheduler>();
    });
    (void)r->Register("EvolutionaryAlgorithm", [] {
      return std::make_unique<scheduling::EvolutionaryScheduler>();
    });
    (void)r->Register("BranchAndBound", [] {
      return std::make_unique<scheduling::BranchAndBoundScheduler>();
    });
    (void)r->Register("Portfolio", [] {
      return std::make_unique<scheduling::PortfolioScheduler>();
    });
    // Default-constructed Robust carries a degenerate ensemble, i.e. it is
    // exactly its inner greedy scheduler until an ensemble is configured
    // (RobustScheduler::Config::ensemble).
    (void)r->Register("Robust", [] {
      return std::make_unique<scheduling::RobustScheduler>();
    });
    return r;
  }();
  return *registry;
}

Status SchedulerRegistry::Register(const std::string& name,
                                   SchedulerFactory factory) {
  if (!factory) {
    return Status::InvalidArgument("scheduler factory must be callable");
  }
  auto [it, inserted] = factories_.emplace(name, std::move(factory));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("scheduler '" + name +
                                 "' is already registered");
  }
  return Status::OK();
}

Result<SchedulerFactory> SchedulerRegistry::Find(
    const std::string& name) const {
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    return Status::NotFound("no scheduler registered as '" + name + "'");
  }
  return it->second;
}

Result<std::unique_ptr<scheduling::Scheduler>> SchedulerRegistry::Create(
    const std::string& name) const {
  MIRABEL_ASSIGN_OR_RETURN(SchedulerFactory factory, Find(name));
  return factory();
}

std::vector<std::string> SchedulerRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;
}

SchedulerFactory DefaultSchedulerFactory() {
  return [] { return std::make_unique<scheduling::GreedyScheduler>(); };
}

double ScaledTimeBudget(double configured_s, size_t num_offers,
                        int horizon_length, double reference_work,
                        double min_fraction) {
  if (configured_s <= 0.0 || reference_work <= 0.0) return configured_s;
  double work = static_cast<double>(num_offers) *
                static_cast<double>(horizon_length > 0 ? horizon_length : 0);
  double fraction = work / reference_work;
  if (fraction > 1.0) fraction = 1.0;
  if (fraction < min_fraction) fraction = min_fraction;
  return configured_s * fraction;
}

}  // namespace mirabel::edms
