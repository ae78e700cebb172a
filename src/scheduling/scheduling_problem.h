#ifndef MIRABEL_SCHEDULING_SCHEDULING_PROBLEM_H_
#define MIRABEL_SCHEDULING_SCHEDULING_PROBLEM_H_

#include <limits>
#include <vector>

#include "common/result.h"
#include "flexoffer/flex_offer.h"

namespace mirabel::scheduling {

/// Per-slice energy market access of the BRP ("the possibility of selling
/// energy to (and buying energy from) the market (other BRPs)", paper §6).
/// Buying covers a deficit; selling monetises a surplus. Caps model market
/// liquidity — without them every imbalance could be traded away.
struct MarketAccess {
  /// Price paid per kWh bought, per horizon slice.
  std::vector<double> buy_price_eur;
  /// Price earned per kWh sold, per horizon slice.
  std::vector<double> sell_price_eur;
  /// Max energy purchasable per slice (kWh).
  double max_buy_kwh = std::numeric_limits<double>::infinity();
  /// Max energy sellable per slice (kWh).
  double max_sell_kwh = std::numeric_limits<double>::infinity();
};

/// The MIRABEL scheduling problem (paper §6): fix start times and energy
/// flexibilities of all given (aggregated) flex-offers and the per-slice
/// market transactions, minimising the composed cost of (1) remaining
/// mismatches, (2) flex-offer activation and (3) market trades.
struct SchedulingProblem {
  /// First slice of the intra-day scheduling horizon.
  flexoffer::TimeSlice horizon_start = 0;
  /// Horizon length in slices.
  int horizon_length = 0;

  /// Forecast imbalance per slice *before* flex-offers: non-flexible demand
  /// minus forecast RES supply (kWh; positive = deficit). From forecasting.
  std::vector<double> baseline_imbalance_kwh;

  /// Cost per kWh of remaining mismatch, per slice. Peak periods carry
  /// higher penalties ("mismatches at peak periods cost the BRP more than at
  /// other periods").
  std::vector<double> imbalance_penalty_eur;

  MarketAccess market;

  /// The (typically aggregated) flex-offers to schedule. Every offer's start
  /// window must lie inside the horizon.
  std::vector<flexoffer::FlexOffer> offers;

  /// Structural validation of the problem instance: per-slice vectors of
  /// horizon_length finite values, non-negative (possibly infinite) market
  /// caps, and valid offers whose windows fit the horizon.
  Status Validate() const;
};

/// Assignment of one flex-offer: a start slice plus a fill level lambda in
/// [0, 1] that linearly interpolates every profile slice between its min
/// (lambda = 0) and max (lambda = 1) energy. The fill level is the search
/// parameterisation of the continuous energy flexibility (the paper notes
/// "energy amounts can take on an infinite number of values"; the scalar
/// keeps the genome finite while spanning the band).
struct OfferAssignment {
  flexoffer::TimeSlice start = 0;
  double fill = 1.0;
};

/// A complete candidate schedule: one assignment per problem offer, in the
/// same order.
struct Schedule {
  std::vector<OfferAssignment> assignments;
};

/// Cost breakdown of a schedule (all EUR; total may be negative when market
/// sales out-earn the other terms). The market trades are closed-form per
/// slice given its net residual (SliceResidualCost in compiled_problem.h),
/// so search only explores start times and fill levels. The SoA kernel
/// (CompiledProblem + ScheduleWorkspace) evaluates it.
struct ScheduleCost {
  double imbalance_eur = 0.0;
  double flex_activation_eur = 0.0;
  /// Market purchases minus market revenue.
  double market_eur = 0.0;
  double total() const {
    return imbalance_eur + flex_activation_eur + market_eur;
  }
};

}  // namespace mirabel::scheduling

#endif  // MIRABEL_SCHEDULING_SCHEDULING_PROBLEM_H_
