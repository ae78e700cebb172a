#ifndef MIRABEL_DATAGEN_ENERGY_SERIES_GENERATOR_H_
#define MIRABEL_DATAGEN_ENERGY_SERIES_GENERATOR_H_

#include <cstdint>
#include <vector>

namespace mirabel::datagen {

/// Synthetic energy *demand* series generator.
///
/// Substitute for the UK NationalGrid metered half-hourly demand dataset used
/// in the paper's forecasting experiments (Fig. 4). That dataset is not
/// redistributable, so we synthesise a series with the same structure the HWT
/// model exploits: a base load with strong daily, weekly and annual
/// seasonality, calendar effects (weekend / holiday dips) and autocorrelated
/// noise (paper §5: "multi-seasonality (daily, weekly, annual)").
struct DemandSeriesConfig {
  /// Observations per day: 48 matches the UK half-hourly data; 96 matches the
  /// 15-minute MIRABEL slices.
  int periods_per_day = 48;
  /// Length of the series in days.
  int days = 56;
  /// Mean load level (MW).
  double base_load_mw = 35000.0;
  /// Amplitude of the intra-day cycle (morning/evening peaks).
  double daily_amplitude = 9000.0;
  /// Additional weekday-vs-weekend swing.
  double weekly_amplitude = 3000.0;
  /// Amplitude of the annual (winter-high) cycle.
  double annual_amplitude = 5000.0;
  /// Relative dip applied on holidays.
  double holiday_dip = 0.12;
  /// Standard deviation of the AR(1) noise (MW).
  double noise_stddev = 500.0;
  /// AR(1) coefficient of the noise process.
  double noise_ar1 = 0.7;
  /// Day-of-year at which the series starts (controls the annual phase).
  int start_day_of_year = 0;
  uint64_t seed = 7;
};

/// Generates `config.days * config.periods_per_day` demand observations (MW).
std::vector<double> GenerateDemandSeries(const DemandSeriesConfig& config);

/// Synthetic *wind power* supply series generator.
///
/// Substitute for the NREL Wind Integration dataset. Wind speed follows a
/// mean-reverting AR(1) process with a weak diurnal component and is mapped
/// through a cubic turbine power curve with cut-in / rated / cut-out speeds.
/// The result matches the property the paper relies on in Fig. 4(b): supply
/// is much harder to forecast and has far weaker seasonality than demand.
struct WindSeriesConfig {
  int periods_per_day = 48;
  int days = 56;
  /// Mean wind speed (m/s).
  double mean_speed = 8.0;
  /// AR(1) persistence of the speed process.
  double speed_ar1 = 0.97;
  /// Innovation standard deviation (m/s).
  double speed_noise = 0.8;
  /// Small diurnal modulation of the mean speed (m/s).
  double diurnal_amplitude = 0.6;
  /// Installed capacity (MW) of the simulated wind fleet.
  double capacity_mw = 2000.0;
  double cut_in_speed = 3.0;
  double rated_speed = 13.0;
  double cut_out_speed = 25.0;
  uint64_t seed = 11;
};

/// Generates wind power output (MW) per period.
std::vector<double> GenerateWindSeries(const WindSeriesConfig& config);

/// Deterministic holiday calendar used by the demand generator:
/// a fixed set of day-of-year values (new year, spring/summer bank holidays,
/// Christmas period) treated as holidays every year.
bool IsHolidayDayOfYear(int day_of_year);

}  // namespace mirabel::datagen

#endif  // MIRABEL_DATAGEN_ENERGY_SERIES_GENERATOR_H_
