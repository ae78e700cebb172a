#include "forecasting/estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "common/stopwatch.h"

namespace mirabel::forecasting {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Wraps the raw objective with budget accounting, best-so-far tracking and
/// the error-development trace shared by all estimators.
class BudgetedObjective {
 public:
  BudgetedObjective(const Objective& objective, const EstimatorOptions& options)
      : objective_(objective), options_(options) {}

  /// Evaluates `x`; returns +inf when the budget is already exhausted.
  double operator()(const std::vector<double>& x) {
    if (Exhausted()) return kInf;
    double v = objective_(x);
    if (!std::isfinite(v)) v = kInf;
    ++evals_;
    if (v < best_value_) {
      best_value_ = v;
      best_params_ = x;
      trace_.push_back({watch_.ElapsedSeconds(), v, evals_, x});
    }
    return v;
  }

  bool Exhausted() const {
    if (options_.max_evals > 0 && evals_ >= options_.max_evals) return true;
    if (options_.time_budget_s > 0 &&
        watch_.ElapsedSeconds() >= options_.time_budget_s) {
      return true;
    }
    return false;
  }

  EstimationResult Finish() const {
    EstimationResult r;
    r.best_params = best_params_;
    r.best_value = best_value_;
    r.evals = evals_;
    r.trace = trace_;
    return r;
  }

 private:
  const Objective& objective_;
  EstimatorOptions options_;
  Stopwatch watch_;
  int evals_ = 0;
  double best_value_ = kInf;
  std::vector<double> best_params_;
  std::vector<TracePoint> trace_;
};

std::vector<double> BoundsCentre(const std::vector<ParamBound>& bounds) {
  std::vector<double> x(bounds.size());
  for (size_t i = 0; i < bounds.size(); ++i) {
    x[i] = 0.5 * (bounds[i].lo + bounds[i].hi);
  }
  return x;
}

std::vector<double> RandomPoint(const std::vector<ParamBound>& bounds,
                                Rng* rng) {
  std::vector<double> x(bounds.size());
  for (size_t i = 0; i < bounds.size(); ++i) {
    x[i] = rng->Uniform(bounds[i].lo, bounds[i].hi);
  }
  return x;
}

void ClampToBounds(const std::vector<ParamBound>& bounds,
                   std::vector<double>* x) {
  for (size_t i = 0; i < x->size(); ++i) {
    (*x)[i] = std::min(bounds[i].hi, std::max(bounds[i].lo, (*x)[i]));
  }
}

/// One Nelder-Mead run from `start`; stops on budget exhaustion or simplex
/// collapse. Standard coefficients (reflect 1, expand 2, contract 0.5,
/// shrink 0.5).
void NelderMeadRun(BudgetedObjective* obj,
                   const std::vector<ParamBound>& bounds,
                   const std::vector<double>& start) {
  const size_t n = bounds.size();
  struct Vertex {
    std::vector<double> x;
    double f = kInf;
  };
  std::vector<Vertex> simplex(n + 1);
  simplex[0].x = start;
  ClampToBounds(bounds, &simplex[0].x);
  simplex[0].f = (*obj)(simplex[0].x);
  for (size_t i = 0; i < n; ++i) {
    simplex[i + 1].x = simplex[0].x;
    double width = bounds[i].hi - bounds[i].lo;
    simplex[i + 1].x[i] += 0.1 * width;
    ClampToBounds(bounds, &simplex[i + 1].x);
    simplex[i + 1].f = (*obj)(simplex[i + 1].x);
  }

  auto by_value = [](const Vertex& a, const Vertex& b) { return a.f < b.f; };
  for (int iter = 0; iter < 10000 && !obj->Exhausted(); ++iter) {
    std::sort(simplex.begin(), simplex.end(), by_value);
    // Convergence: simplex collapsed in objective value.
    if (std::isfinite(simplex[0].f) && std::isfinite(simplex[n].f) &&
        simplex[n].f - simplex[0].f <
            1e-10 * (1.0 + std::fabs(simplex[0].f))) {
      break;
    }

    // Centroid of all but the worst vertex.
    std::vector<double> centroid(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t d = 0; d < n; ++d) centroid[d] += simplex[i].x[d];
    }
    for (double& c : centroid) c /= static_cast<double>(n);

    auto blend = [&](double coeff) {
      std::vector<double> x(n);
      for (size_t d = 0; d < n; ++d) {
        x[d] = centroid[d] + coeff * (centroid[d] - simplex[n].x[d]);
      }
      ClampToBounds(bounds, &x);
      return x;
    };

    std::vector<double> reflected = blend(1.0);
    double fr = (*obj)(reflected);
    if (fr < simplex[0].f) {
      std::vector<double> expanded = blend(2.0);
      double fe = (*obj)(expanded);
      if (fe < fr) {
        simplex[n] = {std::move(expanded), fe};
      } else {
        simplex[n] = {std::move(reflected), fr};
      }
      continue;
    }
    if (fr < simplex[n - 1].f) {
      simplex[n] = {std::move(reflected), fr};
      continue;
    }
    std::vector<double> contracted = blend(-0.5);
    double fc = (*obj)(contracted);
    if (fc < simplex[n].f) {
      simplex[n] = {std::move(contracted), fc};
      continue;
    }
    // Shrink towards the best vertex.
    for (size_t i = 1; i <= n; ++i) {
      for (size_t d = 0; d < n; ++d) {
        simplex[i].x[d] =
            simplex[0].x[d] + 0.5 * (simplex[i].x[d] - simplex[0].x[d]);
      }
      simplex[i].f = (*obj)(simplex[i].x);
      if (obj->Exhausted()) return;
    }
  }
}

}  // namespace

NelderMeadEstimator::NelderMeadEstimator(std::vector<double> start)
    : start_(std::move(start)) {}

EstimationResult NelderMeadEstimator::Estimate(
    const Objective& objective, const std::vector<ParamBound>& bounds,
    const EstimatorOptions& options) {
  BudgetedObjective obj(objective, options);
  std::vector<double> start =
      start_.size() == bounds.size() ? start_ : BoundsCentre(bounds);
  NelderMeadRun(&obj, bounds, start);
  return obj.Finish();
}

EstimationResult RandomRestartNelderMeadEstimator::Estimate(
    const Objective& objective, const std::vector<ParamBound>& bounds,
    const EstimatorOptions& options) {
  BudgetedObjective obj(objective, options);
  Rng rng(options.seed);
  // First restart from the centre (a decent prior for smoothing constants),
  // then from uniform random points until the budget runs out.
  NelderMeadRun(&obj, bounds, BoundsCentre(bounds));
  while (!obj.Exhausted()) {
    NelderMeadRun(&obj, bounds, RandomPoint(bounds, &rng));
  }
  return obj.Finish();
}

SimulatedAnnealingEstimator::SimulatedAnnealingEstimator()
    : SimulatedAnnealingEstimator(Config()) {}

SimulatedAnnealingEstimator::SimulatedAnnealingEstimator(const Config& config)
    : config_(config) {}

EstimationResult SimulatedAnnealingEstimator::Estimate(
    const Objective& objective, const std::vector<ParamBound>& bounds,
    const EstimatorOptions& options) {
  BudgetedObjective obj(objective, options);
  Rng rng(options.seed);

  std::vector<double> current = BoundsCentre(bounds);
  double f_current = obj(current);
  // Normalise acceptance by the initial objective magnitude so the default
  // temperature schedule works across differently scaled SSE values.
  double scale = std::isfinite(f_current) && f_current > 0 ? f_current : 1.0;
  double temperature = config_.initial_temperature;

  while (!obj.Exhausted()) {
    std::vector<double> candidate = current;
    for (size_t i = 0; i < candidate.size(); ++i) {
      double width = bounds[i].hi - bounds[i].lo;
      candidate[i] += rng.Gaussian(0.0, config_.step_scale * width *
                                            std::max(temperature, 0.05));
      // Reflect at the box boundary to stay inside.
      if (candidate[i] < bounds[i].lo) {
        candidate[i] = bounds[i].lo + (bounds[i].lo - candidate[i]);
      }
      if (candidate[i] > bounds[i].hi) {
        candidate[i] = bounds[i].hi - (candidate[i] - bounds[i].hi);
      }
    }
    ClampToBounds(bounds, &candidate);
    double f_candidate = obj(candidate);

    double delta = (f_candidate - f_current) / scale;
    if (delta <= 0.0 ||
        rng.NextDouble() < std::exp(-delta / std::max(temperature, 1e-9))) {
      current = std::move(candidate);
      f_current = f_candidate;
    }
    temperature *= config_.cooling;
    // Reheat.
    if (temperature < 1e-6) temperature = config_.initial_temperature;
  }
  return obj.Finish();
}

EstimationResult RandomSearchEstimator::Estimate(
    const Objective& objective, const std::vector<ParamBound>& bounds,
    const EstimatorOptions& options) {
  BudgetedObjective obj(objective, options);
  Rng rng(options.seed);
  while (!obj.Exhausted()) {
    obj(RandomPoint(bounds, &rng));
  }
  return obj.Finish();
}

std::unique_ptr<ParameterEstimator> MakeEstimator(const std::string& name) {
  if (name == "NelderMead") return std::make_unique<NelderMeadEstimator>();
  if (name == "RandomRestartNelderMead") {
    return std::make_unique<RandomRestartNelderMeadEstimator>();
  }
  if (name == "SimulatedAnnealing") {
    return std::make_unique<SimulatedAnnealingEstimator>();
  }
  if (name == "RandomSearch") return std::make_unique<RandomSearchEstimator>();
  return nullptr;
}

}  // namespace mirabel::forecasting
