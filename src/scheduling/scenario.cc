#include "scheduling/scenario.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "flexoffer/time_slice.h"

namespace mirabel::scheduling {

using flexoffer::TimeSlice;

SchedulingProblem MakeScenario(const ScenarioConfig& config) {
  Rng rng(config.seed);
  SchedulingProblem problem;
  problem.horizon_start = 0;
  problem.horizon_length = config.horizon_length;
  const int h = config.horizon_length;

  problem.baseline_imbalance_kwh.resize(static_cast<size_t>(h));
  problem.imbalance_penalty_eur.resize(static_cast<size_t>(h));
  problem.market.buy_price_eur.resize(static_cast<size_t>(h));
  problem.market.sell_price_eur.resize(static_cast<size_t>(h));
  problem.market.max_buy_kwh = config.max_buy_kwh;
  problem.market.max_sell_kwh = config.max_sell_kwh;

  for (int s = 0; s < h; ++s) {
    double frac = static_cast<double>(s) / h;
    // Evening-peak deficit, midday RES surplus.
    double deficit = std::exp(-std::pow((frac - 0.78) / 0.10, 2)) +
                     0.5 * std::exp(-std::pow((frac - 0.33) / 0.08, 2));
    double surplus = 0.9 * std::exp(-std::pow((frac - 0.55) / 0.12, 2));
    problem.baseline_imbalance_kwh[static_cast<size_t>(s)] =
        config.imbalance_amplitude_kwh * (deficit - surplus) +
        rng.Gaussian(0.0, 0.05 * config.imbalance_amplitude_kwh);

    bool peak = (frac > 0.70 && frac < 0.90) || (frac > 0.28 && frac < 0.40);
    problem.imbalance_penalty_eur[static_cast<size_t>(s)] =
        config.penalty_eur_per_kwh * (peak ? config.peak_penalty_factor : 1.0);
    // Market prices wobble mildly around their levels.
    problem.market.buy_price_eur[static_cast<size_t>(s)] =
        config.buy_price_eur * rng.Uniform(0.9, 1.1);
    problem.market.sell_price_eur[static_cast<size_t>(s)] =
        config.sell_price_eur * rng.Uniform(0.9, 1.1);
  }

  problem.offers.reserve(static_cast<size_t>(config.num_offers));
  for (int i = 0; i < config.num_offers; ++i) {
    flexoffer::FlexOffer fo;
    fo.id = static_cast<flexoffer::FlexOfferId>(i) + 1;
    fo.owner = 0;
    int dur = static_cast<int>(
        rng.UniformInt(config.min_duration, config.max_duration));
    int64_t max_tf = std::min<int64_t>(config.max_time_flexibility,
                                       static_cast<int64_t>(h - dur));
    int64_t tf = rng.UniformInt(0, std::max<int64_t>(0, max_tf));
    TimeSlice earliest = rng.UniformInt(0, static_cast<int64_t>(h - dur) - tf);
    fo.earliest_start = earliest;
    fo.latest_start = earliest + tf;
    fo.creation_time = 0;
    fo.assignment_before = fo.earliest_start;

    bool production = rng.Bernoulli(config.production_fraction);
    fo.profile.reserve(static_cast<size_t>(dur));
    for (int j = 0; j < dur; ++j) {
      double emax = rng.Uniform(config.min_slice_energy_kwh,
                                config.max_slice_energy_kwh);
      double emin =
          config.no_energy_flexibility
              ? emax
              : emax * (1.0 - rng.Uniform(0.0, config.max_energy_flex));
      flexoffer::EnergyRange r;
      if (production) {
        r.min_kwh = -emax;
        r.max_kwh = -emin;
      } else {
        r.min_kwh = emin;
        r.max_kwh = emax;
      }
      fo.profile.push_back(r);
    }
    fo.unit_price_eur = rng.Uniform(0.01, 0.04);
    problem.offers.push_back(std::move(fo));
  }
  return problem;
}

}  // namespace mirabel::scheduling
