#include "common/math_util.h"

#include <cmath>

namespace mirabel {

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

double ScaledSigmoid(double x, double midpoint, double scale) {
  return Sigmoid((x - midpoint) / scale);
}

double Clamp(double x, double lo, double hi) {
  if (x < lo) return lo;
  if (x > hi) return hi;
  return x;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double StdDev(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  double m = Mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(v.size()));
}

namespace {

Status CheckSameNonEmpty(const std::vector<double>& a,
                         const std::vector<double>& b) {
  if (a.empty()) return Status::InvalidArgument("empty input series");
  if (a.size() != b.size()) {
    return Status::InvalidArgument("series size mismatch");
  }
  return Status::OK();
}

}  // namespace

Result<double> Smape(const std::vector<double>& actual,
                     const std::vector<double>& forecast) {
  MIRABEL_RETURN_IF_ERROR(CheckSameNonEmpty(actual, forecast));
  double acc = 0.0;
  for (size_t i = 0; i < actual.size(); ++i) {
    double denom = (std::fabs(actual[i]) + std::fabs(forecast[i])) / 2.0;
    if (denom < 1e-12) continue;
    acc += std::fabs(forecast[i] - actual[i]) / denom;
  }
  return acc / static_cast<double>(actual.size());
}

Result<LinearFit> FitLine(const std::vector<double>& x,
                          const std::vector<double>& y) {
  MIRABEL_RETURN_IF_ERROR(CheckSameNonEmpty(x, y));
  if (x.size() < 2) return Status::InvalidArgument("need >= 2 points");
  double mx = Mean(x);
  double my = Mean(y);
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sxx += (x[i] - mx) * (x[i] - mx);
    sxy += (x[i] - mx) * (y[i] - my);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx < 1e-12) return Status::InvalidArgument("x values are constant");
  LinearFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = syy < 1e-12 ? 1.0 : (sxy * sxy) / (sxx * syy);
  return fit;
}

}  // namespace mirabel
