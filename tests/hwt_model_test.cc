#include "forecasting/hwt_model.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <gtest/gtest.h>
#include <limits>
#include <new>
#include <string>

#include "common/math_util.h"
#include "common/rng.h"
#include "datagen/energy_series_generator.h"

// ---------------------------------------------------------------------------
// Counting global allocator (binary-wide): estimators call FitWithParams
// once per candidate parameter vector, so refits must reuse the member
// fit buffers instead of allocating fresh scratch per call.
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

namespace mirabel::forecasting {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// A noiseless series with daily (period 48) and weekly (336) cycles.
std::vector<double> SeasonalSignal(int days) {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(days) * 48);
  for (int t = 0; t < days * 48; ++t) {
    double daily = 10.0 * std::sin(2.0 * kPi * (t % 48) / 48.0);
    double weekly = 4.0 * std::sin(2.0 * kPi * (t % 336) / 336.0);
    out.push_back(100.0 + daily + weekly);
  }
  return out;
}

/// Exact bits, so -0.0 and 0.0 differ and NaNs compare equal to themselves.
uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> out;
  out.reserve(values.size());
  for (double v : values) out.push_back(Bits(v));
  return out;
}

TEST(HwtModelTest, ParamCountAndBounds) {
  HwtModel model({48, 336});
  EXPECT_EQ(model.NumParams(), 4u);  // alpha, 2 gammas, phi
  auto bounds = model.Bounds();
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0].lo, 0.0);
  EXPECT_DOUBLE_EQ(bounds[0].hi, 1.0);
  EXPECT_DOUBLE_EQ(bounds[3].hi, 0.99);
}

TEST(HwtModelTest, RejectsWrongParamCount) {
  HwtModel model({48});
  TimeSeries series(SeasonalSignal(7), 48);
  EXPECT_FALSE(model.FitWithParams(series, {0.1}).ok());
}

TEST(HwtModelTest, RejectsOutOfRangeParams) {
  HwtModel model({48});
  TimeSeries series(SeasonalSignal(7), 48);
  EXPECT_FALSE(model.FitWithParams(series, {1.5, 0.1, 0.1}).ok());
  EXPECT_FALSE(model.FitWithParams(series, {-0.1, 0.1, 0.1}).ok());
  // phi is capped at Bounds().back().hi = 0.99, not at 1.
  auto phi_one = model.FitWithParams(series, {0.1, 0.1, 1.0});
  EXPECT_EQ(phi_one.status().code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(model.fitted());
}

TEST(HwtModelTest, RejectsNonPositivePeriods) {
  // Regression: a zero period used to raise SIGFPE (t % 0) and a negative
  // one std::length_error, both from inside FitWithParams.
  TimeSeries series(SeasonalSignal(7), 48);
  for (const std::vector<int>& periods :
       {std::vector<int>{0}, std::vector<int>{-5, 48},
        std::vector<int>{48, 0}}) {
    HwtModel model(periods);
    auto sse = model.FitWithParams(series, model.DefaultParams());
    EXPECT_EQ(sse.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(model.fitted());
  }
}

TEST(HwtModelTest, RejectsShortSeries) {
  HwtModel model({48, 336});
  TimeSeries series(SeasonalSignal(7), 48);  // < 2 weekly cycles
  EXPECT_FALSE(model.FitWithParams(series, model.DefaultParams()).ok());
}

TEST(HwtModelTest, ForecastBeforeFitFails) {
  HwtModel model({48});
  EXPECT_FALSE(model.Forecast(10).ok());
  EXPECT_FALSE(model.Update(1.0).ok());
}

TEST(HwtModelTest, InvalidHorizonFails) {
  HwtModel model({48});
  TimeSeries series(SeasonalSignal(7), 48);
  ASSERT_TRUE(model.FitWithParams(series, model.DefaultParams()).ok());
  EXPECT_FALSE(model.Forecast(0).ok());
  EXPECT_FALSE(model.Forecast(-3).ok());
}

TEST(HwtModelTest, FitsPureSeasonalSignalAccurately) {
  HwtModel model({48, 336});
  std::vector<double> signal = SeasonalSignal(22);
  TimeSeries train(std::vector<double>(signal.begin(), signal.end() - 336),
                   48);
  auto sse = model.FitWithParams(train, {0.05, 0.3, 0.2, 0.0});
  ASSERT_TRUE(sse.ok());
  auto forecast = model.Forecast(336);
  ASSERT_TRUE(forecast.ok());
  std::vector<double> actual(signal.end() - 336, signal.end());
  auto smape = Smape(actual, *forecast);
  ASSERT_TRUE(smape.ok());
  EXPECT_LT(*smape, 0.01);  // near-perfect on a noiseless signal
}

TEST(HwtModelTest, ForecastTracksSeasonalShape) {
  HwtModel model({48});
  std::vector<double> signal = SeasonalSignal(10);
  TimeSeries train(signal, 48);
  ASSERT_TRUE(model.FitWithParams(train, {0.1, 0.3, 0.0}).ok());
  auto forecast = model.Forecast(48);
  ASSERT_TRUE(forecast.ok());
  // The daily peak (slice 12) must be forecast higher than the trough (36).
  EXPECT_GT((*forecast)[12], (*forecast)[36]);
}

TEST(HwtModelTest, UpdateMatchesFullRefit) {
  // Consuming values via Update must land in exactly the same state as a
  // from-scratch fit of the longer series, since the recursions and the
  // initialisation window coincide.
  std::vector<double> signal = SeasonalSignal(20);
  std::vector<double> params = {0.1, 0.25, 0.15, 0.4};

  HwtModel incremental({48, 336});
  TimeSeries head(std::vector<double>(signal.begin(), signal.end() - 100), 48);
  ASSERT_TRUE(incremental.FitWithParams(head, params).ok());
  for (size_t i = signal.size() - 100; i < signal.size(); ++i) {
    ASSERT_TRUE(incremental.Update(signal[i]).ok());
  }

  HwtModel full({48, 336});
  ASSERT_TRUE(full.FitWithParams(TimeSeries(signal, 48), params).ok());

  auto fa = incremental.Forecast(96);
  auto fb = full.Forecast(96);
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(fb.ok());
  for (size_t i = 0; i < fa->size(); ++i) {
    EXPECT_NEAR((*fa)[i], (*fb)[i], 1e-9);
  }
}

TEST(HwtModelTest, PhiPropagatesLastError) {
  HwtModel model({48});
  std::vector<double> signal = SeasonalSignal(10);
  TimeSeries train(signal, 48);
  ASSERT_TRUE(model.FitWithParams(train, {0.0, 0.0, 0.8}).ok());
  // Inject a large error, then check the next forecasts decay geometrically
  // toward the seasonal baseline.
  auto base = model.Forecast(3);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(model.Update((*base)[0] + 100.0).ok());
  auto bumped = model.Forecast(2);
  ASSERT_TRUE(bumped.ok());
  EXPECT_NEAR((*bumped)[0] - (*base)[1], 0.8 * 100.0, 1.0);
  EXPECT_NEAR((*bumped)[1] - (*base)[2], 0.64 * 100.0, 1.0);
}

TEST(HwtModelTest, FailedFitLeavesModelUnchanged) {
  // Regression: a diverged fit used to overwrite the parameters, the state
  // and the residuals and mark the model fitted before returning Internal,
  // so Forecast() went on to return finite garbage.
  TimeSeries series(SeasonalSignal(20), 48);
  const std::vector<double> diverging = {1.0, 1.0, 1.0, 0.99};
  const int horizon = 2 * 336 + 3;

  HwtModel model({48, 336});
  ASSERT_TRUE(model.FitWithParams(series, {0.1, 0.25, 0.15, 0.4}).ok());
  ASSERT_TRUE(model.Update(101.0).ok());
  auto forecast = model.Forecast(horizon);
  ASSERT_TRUE(forecast.ok());
  const std::vector<uint64_t> params = Bits(model.params());
  const std::vector<uint64_t> residuals = Bits(model.residuals());
  const std::vector<uint64_t> forecast_bits = Bits(*forecast);

  auto sse = model.FitWithParams(series, diverging);
  EXPECT_EQ(sse.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(model.fitted());
  EXPECT_EQ(Bits(model.params()), params);
  EXPECT_EQ(Bits(model.residuals()), residuals);
  auto after = model.Forecast(horizon);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(Bits(*after), forecast_bits);

  // A model whose first fit diverges stays unfitted.
  HwtModel fresh({48, 336});
  EXPECT_EQ(fresh.FitWithParams(series, diverging).status().code(),
            StatusCode::kInternal);
  EXPECT_FALSE(fresh.fitted());
  EXPECT_TRUE(fresh.params().empty());
  EXPECT_TRUE(fresh.residuals().empty());
  EXPECT_EQ(fresh.Forecast(3).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(fresh.Update(1.0).code(), StatusCode::kFailedPrecondition);
}

TEST(HwtModelTest, BetterParamsGiveLowerSse) {
  datagen::DemandSeriesConfig cfg;
  cfg.days = 21;
  auto values = datagen::GenerateDemandSeries(cfg);
  TimeSeries series(values, 48);
  HwtModel model({48, 336});
  auto good = model.FitWithParams(series, {0.1, 0.3, 0.2, 0.6});
  auto bad = model.FitWithParams(series, {0.99, 0.99, 0.99, 0.0});
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(bad.ok());
  EXPECT_LT(*good, *bad);
}

/// Property: the in-sample SSE is finite and non-negative for any parameter
/// vector inside the bounds.
class HwtParamSweep : public ::testing::TestWithParam<double> {};

TEST_P(HwtParamSweep, SseFiniteInsideBounds) {
  double p = GetParam();
  HwtModel model({48});
  TimeSeries series(SeasonalSignal(8), 48);
  auto sse = model.FitWithParams(series, {p, p, std::min(p, 0.99)});
  ASSERT_TRUE(sse.ok());
  EXPECT_GE(*sse, 0.0);
  EXPECT_TRUE(std::isfinite(*sse));
}

INSTANTIATE_TEST_SUITE_P(Grid, HwtParamSweep,
                         ::testing::Values(0.0, 0.05, 0.25, 0.5, 0.75, 1.0));

TEST(HwtModelTest, RefitReusesFitBuffersWithoutAllocating) {
  // Regression: the per-fit scratch (seed detrend, scratch seasons and
  // residuals) used to be fresh vectors per FitWithParams call; it now
  // lives in member buffers, so a same-shape refit allocates nothing.
  HwtModel model({48, 336});
  std::vector<double> signal = SeasonalSignal(20);
  TimeSeries series(signal, 48);
  std::vector<double> params = {0.1, 0.25, 0.15, 0.4};
  ASSERT_TRUE(model.FitWithParams(series, params).ok());  // warm-up

  int64_t before = g_heap_allocations.load();
  double acc = 0.0;
  for (int i = 0; i < 8; ++i) {
    auto sse = model.FitWithParams(series, params);
    ASSERT_TRUE(sse.ok());
    acc += *sse;
  }
  EXPECT_EQ(g_heap_allocations.load(), before) << "acc=" << acc;
  EXPECT_EQ(model.residuals().size(), signal.size() - 336);

  // Alternating between two series of one shape re-seeds every fit (the
  // seed windows differ), still within capacity.
  std::vector<double> shifted = signal;
  for (double& v : shifted) v += 1.0;
  TimeSeries other(shifted, 48);
  before = g_heap_allocations.load();
  for (int i = 0; i < 8; ++i) {
    auto sse = model.FitWithParams(i % 2 == 0 ? other : series, params);
    ASSERT_TRUE(sse.ok());
    acc += *sse;
  }
  EXPECT_EQ(g_heap_allocations.load(), before) << "acc=" << acc;

  // A diverging fit allocates nothing but its returned error message: as
  // many allocations as one copy of that message takes.
  const std::vector<double> diverging = {1.0, 1.0, 1.0, 0.99};
  before = g_heap_allocations.load();
  auto diverged = model.FitWithParams(other, diverging);
  const int64_t fit_allocations = g_heap_allocations.load() - before;
  ASSERT_EQ(diverged.status().code(), StatusCode::kInternal);
  before = g_heap_allocations.load();
  const std::string message = diverged.status().message();
  const int64_t message_allocations = g_heap_allocations.load() - before;
  EXPECT_EQ(message, "smoothing diverged (non-finite SSE)");
  EXPECT_EQ(fit_allocations, message_allocations);
}

// ---------------------------------------------------------------------------
// Bit-for-bit equivalence with the plain recursion.
// ---------------------------------------------------------------------------

/// The fit as it was written before ring positions, seed reuse and the
/// early stop: every season indexed by t mod m, the seed recomputed on every
/// fit, and the recursion run to the last observation. It is the reference
/// FitWithParams must match bit for bit. Inputs must be valid. A fit
/// overwrites the state even when it diverges, so callers fit a copy and
/// keep it only on success.
class ReferenceHwt {
 public:
  explicit ReferenceHwt(std::vector<int> periods)
      : periods_(std::move(periods)) {
    std::sort(periods_.begin(), periods_.end());
  }

  Result<double> Fit(const std::vector<double>& y,
                     const std::vector<double>& params) {
    params_ = params;
    const double alpha = params_[0];
    const double phi = params_.back();
    const int max_period = periods_.back();
    level_ = 0.0;
    for (int j = 0; j < max_period; ++j) level_ += y[static_cast<size_t>(j)];
    level_ /= max_period;
    std::vector<double> residual(
        y.begin(), y.begin() + 2 * static_cast<size_t>(max_period));
    for (double& r : residual) r -= level_;
    seasons_.resize(periods_.size());
    for (size_t i = 0; i < periods_.size(); ++i) {
      const size_t m = static_cast<size_t>(periods_[i]);
      std::vector<double>& idx = seasons_[i];
      idx.assign(m, 0.0);
      std::vector<int> count(m, 0);
      for (size_t j = 0; j < residual.size(); ++j) {
        idx[j % m] += residual[j];
        count[j % m] += 1;
      }
      for (size_t p = 0; p < m; ++p) {
        idx[p] = count[p] > 0 ? idx[p] / count[p] : 0.0;
      }
      double mean = Mean(idx);
      for (double& v : idx) v -= mean;
      for (size_t j = 0; j < residual.size(); ++j) residual[j] -= idx[j % m];
    }

    t_ = 0;
    last_error_ = 0.0;
    double sse = 0.0;
    const size_t warmup = static_cast<size_t>(max_period);
    residuals_.clear();
    for (size_t j = 0; j < y.size(); ++j) {
      double forecast = level_ + SeasonalAt(0) + phi * last_error_;
      double e = y[j] - forecast;
      if (j >= warmup) {
        sse += e * e;
        residuals_.push_back(e);
      }
      level_ += alpha * e;
      for (size_t i = 0; i < seasons_.size(); ++i) {
        double gamma = params_[1 + i];
        seasons_[i][static_cast<size_t>(t_ % periods_[i])] += gamma * e;
      }
      last_error_ = e;
      ++t_;
    }
    if (!std::isfinite(sse)) {
      return Status::Internal("smoothing diverged (non-finite SSE)");
    }
    return sse;
  }

  void Update(double value) {
    const double alpha = params_[0];
    const double phi = params_.back();
    double forecast = level_ + SeasonalAt(0) + phi * last_error_;
    double e = value - forecast;
    level_ += alpha * e;
    for (size_t i = 0; i < seasons_.size(); ++i) {
      double gamma = params_[1 + i];
      seasons_[i][static_cast<size_t>(t_ % periods_[i])] += gamma * e;
    }
    last_error_ = e;
    ++t_;
  }

  std::vector<double> Forecast(int horizon) const {
    const double phi = params_.back();
    std::vector<double> out;
    double ar = last_error_;
    for (int h = 0; h < horizon; ++h) {
      ar *= phi;
      out.push_back(level_ + SeasonalAt(h) + ar);
    }
    return out;
  }

  const std::vector<double>& params() const { return params_; }
  const std::vector<double>& residuals() const { return residuals_; }

 private:
  double SeasonalAt(int ahead) const {
    double acc = 0.0;
    for (size_t i = 0; i < seasons_.size(); ++i) {
      acc += seasons_[i][static_cast<size_t>((t_ + ahead) % periods_[i])];
    }
    return acc;
  }

  std::vector<int> periods_;
  std::vector<double> params_;
  double level_ = 0.0;
  double last_error_ = 0.0;
  std::vector<std::vector<double>> seasons_;
  int64_t t_ = 0;
  std::vector<double> residuals_;
};

/// Uniform index in [0, n).
size_t RandomIndex(size_t n, Rng* rng) {
  return static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
}

/// One model and its reference, refitted in lockstep.
struct FitPair {
  explicit FitPair(const std::vector<int>& periods)
      : model(periods), reference(periods) {}
  HwtModel model;
  ReferenceHwt reference;
  bool reference_fitted = false;
  int ok = 0;
  int diverged = 0;
};

/// Fits both sides and expects every observable bit to agree: the status,
/// the SSE, params(), residuals(), Forecast(h) up to two longest cycles plus
/// three, and Forecast() again after a few Update()s. The reference keeps
/// a fit only when it succeeds, as FitWithParams promises.
void FitBoth(FitPair* pair, const std::vector<double>& y,
             const std::vector<double>& params, int max_period, Rng* rng) {
  ReferenceHwt trial = pair->reference;
  Result<double> want = trial.Fit(y, params);
  Result<double> got = pair->model.FitWithParams(TimeSeries(y, 48), params);
  ASSERT_EQ(got.status(), want.status());
  if (want.ok()) {
    EXPECT_EQ(Bits(*got), Bits(*want));
    pair->reference = std::move(trial);
    pair->reference_fitted = true;
    ++pair->ok;
  } else {
    ++pair->diverged;
  }
  ASSERT_EQ(pair->model.fitted(), pair->reference_fitted);
  if (!pair->reference_fitted) return;
  EXPECT_EQ(Bits(pair->model.params()), Bits(pair->reference.params()));
  EXPECT_EQ(Bits(pair->model.residuals()), Bits(pair->reference.residuals()));
  const int horizon = 2 * max_period + 3;
  auto forecast = pair->model.Forecast(horizon);
  ASSERT_TRUE(forecast.ok());
  EXPECT_EQ(Bits(*forecast), Bits(pair->reference.Forecast(horizon)));
  for (int u = 0; u < 3; ++u) {
    const double value = y[RandomIndex(y.size(), rng)];
    ASSERT_TRUE(pair->model.Update(value).ok());
    pair->reference.Update(value);
  }
  forecast = pair->model.Forecast(horizon);
  ASSERT_TRUE(forecast.ok());
  EXPECT_EQ(Bits(*forecast), Bits(pair->reference.Forecast(horizon)));
}

/// A seasonal series of `n` values at one of four scales: 1 and 1e3 stay
/// finite, 1e150 overflows e * e while every error stays finite, and 1e300
/// overflows the seed level itself. About half the series carry exact
/// zeros of either sign, one of them inside the seed window.
std::vector<double> RandomSeries(const std::vector<int>& periods, size_t n,
                                 Rng* rng) {
  static constexpr double kScales[] = {1.0, 1e3, 1e150, 1e300};
  const double scale = kScales[rng->UniformInt(0, 3)];
  const double amplitude = rng->Uniform(0.0, 0.5);
  std::vector<double> y(n);
  for (size_t t = 0; t < n; ++t) {
    double v = 1.0 + rng->Gaussian(0.0, 0.1);
    for (int m : periods) {
      v += amplitude * std::sin(2.0 * kPi * static_cast<double>(t % m) / m);
    }
    y[t] = scale * v;
  }
  if (rng->Bernoulli(0.5)) {
    const size_t window = 2 * static_cast<size_t>(periods.back());
    y[RandomIndex(window, rng)] = rng->Bernoulli(0.5) ? 0.0 : -0.0;
    for (int64_t z = rng->UniformInt(0, 4); z > 0; --z) {
      y[RandomIndex(n, rng)] = rng->Bernoulli(0.5) ? 0.0 : -0.0;
    }
  }
  return y;
}

/// A parameter vector inside Bounds(), each entry at its lower corner, its
/// upper corner or uniform in between.
std::vector<double> RandomParams(const HwtModel& model, Rng* rng) {
  std::vector<double> params;
  for (const ParamBound& b : model.Bounds()) {
    switch (rng->UniformInt(0, 3)) {
      case 0:
        params.push_back(b.lo);
        break;
      case 1:
        params.push_back(b.hi);
        break;
      default:
        params.push_back(rng->Uniform(b.lo, b.hi));
    }
  }
  return params;
}

/// Flips one bit of y[at]: the sign of an exact zero (a change == cannot
/// see), else the lowest mantissa bit.
void FlipOneBit(std::vector<double>* y, size_t at) {
  const uint64_t mask = (*y)[at] == 0.0 ? (uint64_t{1} << 63) : uint64_t{1};
  (*y)[at] = std::bit_cast<double>(Bits((*y)[at]) ^ mask);
}

TEST(HwtModelTest, FitMatchesReferenceRecursionBitForBit) {
  struct Case {
    std::vector<int> periods;
    int sequences;
  };
  const std::vector<Case> cases = {{{1}, 40},      {{7}, 40},
                                   {{5, 12}, 40},  {{3, 10, 31}, 40},
                                   {{48, 336}, 12}, {{96, 672}, 8}};
  Rng rng(20240917);
  int ok = 0;
  int diverged = 0;
  for (const Case& c : cases) {
    const int max_period = c.periods.back();
    const size_t window = 2 * static_cast<size_t>(max_period);
    for (int s = 0; s < c.sequences; ++s) {
      SCOPED_TRACE("periods.back()=" + std::to_string(max_period) +
                   " sequence=" + std::to_string(s));
      // The first sequence uses the shortest valid series; the others are
      // longer and, periods of 1 aside, a multiple of no period.
      size_t n = window;
      if (s > 0) {
        n += static_cast<size_t>(rng.UniformInt(1, 2 * max_period + 40));
        while (std::any_of(c.periods.begin(), c.periods.end(), [&](int m) {
          return m > 1 && n % static_cast<size_t>(m) == 0;
        })) {
          ++n;
        }
      }
      const std::vector<double> y = RandomSeries(c.periods, n, &rng);
      FitPair pair(c.periods);
      auto fit = [&](const std::vector<double>& series,
                     const std::vector<double>& params) {
        FitBoth(&pair, series, params, max_period, &rng);
      };
      const std::vector<double> p = RandomParams(pair.model, &rng);

      fit(y, p);
      fit(y, RandomParams(pair.model, &rng));  // same series: seed reused
      fit(y, p);
      // A series that differs only after the seed window keeps the seed.
      if (n > window) {
        std::vector<double> tail = y;
        FlipOneBit(&tail, window + RandomIndex(n - window, &rng));
        fit(tail, RandomParams(pair.model, &rng));
      }
      // A diverged fit in between: an infinite observation anywhere, or
      // the fastest-growing corner of the bounds.
      std::vector<double> spiked = y;
      spiked[RandomIndex(n, &rng)] = std::numeric_limits<double>::infinity();
      fit(spiked, p);
      std::vector<double> corner(pair.model.NumParams(), 1.0);
      corner.back() = 0.99;
      fit(y, corner);
      // One bit inside the seed window forces a new seed, and the original
      // series another one.
      std::vector<double> flipped = y;
      FlipOneBit(&flipped, RandomIndex(window, &rng));
      fit(flipped, p);
      fit(y, p);
      if (HasFatalFailure()) return;
      ok += pair.ok;
      diverged += pair.diverged;
    }
  }
  // Every divergence path is exercised: a non-finite seed, an infinite
  // observation, a corner that grows without bound, and e * e overflowing
  // while every error stays finite.
  EXPECT_GE(ok, 500);
  EXPECT_GE(diverged, 400);

  // Signed zeros: one negative subnormal rounds the seed level to -0.0 and
  // leaves a -0.0 seasonal index, so only the 0.0 that starts the seasonal
  // sum gives the errors from step 3 on their sign.
  std::vector<double> zeros(40, -0.0);
  zeros[0] = -std::numeric_limits<double>::denorm_min();
  FitPair pair({3});
  FitBoth(&pair, zeros, {0.5, 0.0, 0.5}, 3, &rng);
  ASSERT_EQ(pair.ok, 1);
  EXPECT_EQ(Bits(pair.model.residuals().front()), Bits(-0.0));
}

}  // namespace
}  // namespace mirabel::forecasting
