#ifndef MIRABEL_NEGOTIATION_PRICING_H_
#define MIRABEL_NEGOTIATION_PRICING_H_

#include "common/result.h"
#include "negotiation/flexibility_metrics.h"

namespace mirabel::negotiation {

/// Price-setting scheme A — "Monetize Flexibility" (paper §7): the value of
/// a flex-offer is the weighted sum of its flexibility potentials, computable
/// *before* execution time and therefore usable as an acceptance criterion.
class MonetizeFlexibilityPricer {
 public:
  struct Weights {
    /// EUR paid for a fully saturated potential of each kind.
    double assignment_eur = 0.5;
    double scheduling_eur = 1.5;
    double energy_eur = 1.0;
  };

  MonetizeFlexibilityPricer();
  MonetizeFlexibilityPricer(const Weights& weights,
                            const PotentialConfig& potentials);

  /// Value of `offer` to the BRP in EUR (>= 0).
  double Value(const flexoffer::FlexOffer& offer) const;

  const Weights& weights() const { return weights_; }

 private:
  Weights weights_;
  PotentialConfig potentials_;
};

/// Price-setting scheme B — "Share Realized Profit" (paper §7): after
/// execution, the BRP computes the profit this flex-offer realised (cost of
/// serving the load under the fallback schedule minus cost under the actual
/// schedule) and shares a fraction with the prosumer. "Any price setting
/// after execution time can not be used as an acceptance criteria."
class ProfitSharingPricer {
 public:
  /// `prosumer_share` in [0, 1]: fraction of realised profit paid out.
  explicit ProfitSharingPricer(double prosumer_share = 0.3);

  /// Payout in EUR given the BRP's realised costs with and without the
  /// flexibility. Negative profit (a loss) yields a zero payout — the
  /// prosumer is never charged for the BRP's planning.
  double Payout(double baseline_cost_eur, double realized_cost_eur) const;

  double prosumer_share() const { return prosumer_share_; }

 private:
  double prosumer_share_;
};

/// Flex-offer acceptance policy (paper §7 "Flex-Offer Acceptance"): "the BRP
/// must be able to reject a flex-offer that generate loss or can not be
/// processed in time."
class AcceptancePolicy {
 public:
  struct Config {
    /// Minimum pre-execution value (MonetizeFlexibility) for acceptance.
    double min_value_eur = 0.05;
    /// Slices the BRP needs to process an offer; offers whose assignment
    /// flexibility is below this cannot be processed in time.
    int64_t min_processing_slices = 4;
  };

  AcceptancePolicy();
  explicit AcceptancePolicy(const Config& config,
                            const MonetizeFlexibilityPricer& pricer =
                                MonetizeFlexibilityPricer());

  /// Why an offer was rejected (or kAccepted).
  enum class Verdict { kAccepted, kTooLittleValue, kTooLateToProcess };

  Verdict Evaluate(const flexoffer::FlexOffer& offer) const;
  bool Accepts(const flexoffer::FlexOffer& offer) const {
    return Evaluate(offer) == Verdict::kAccepted;
  }

 private:
  Config config_;
  MonetizeFlexibilityPricer pricer_;
};

}  // namespace mirabel::negotiation

#endif  // MIRABEL_NEGOTIATION_PRICING_H_
