#include "negotiation/negotiator.h"

namespace mirabel::negotiation {

Negotiator::Negotiator() : Negotiator(Config()) {}

Negotiator::Negotiator(const Config& config)
    : config_(config),
      pricer_(config.weights, config.potentials),
      acceptance_(
          config.acceptance,
          MonetizeFlexibilityPricer(config.weights, config.potentials)) {}

NegotiationOutcome Negotiator::Negotiate(const flexoffer::FlexOffer& offer,
                                         double reservation_price_eur) const {
  NegotiationOutcome outcome;
  outcome.brp_value_eur = pricer_.Value(offer);

  if (!acceptance_.Accepts(offer)) {
    outcome.decision = NegotiationOutcome::Decision::kRejectedByBrp;
    return outcome;
  }

  double proposal = outcome.brp_value_eur * (1.0 - config_.brp_margin);
  if (proposal < reservation_price_eur) {
    outcome.decision = NegotiationOutcome::Decision::kRejectedByProsumer;
    outcome.agreed_price_eur = 0.0;
    return outcome;
  }
  outcome.decision = NegotiationOutcome::Decision::kAgreed;
  outcome.agreed_price_eur = proposal;
  return outcome;
}

double Negotiator::SettleProfitShare(double baseline_cost_eur,
                                     double realized_cost_eur,
                                     double prosumer_share) const {
  return ProfitSharingPricer(prosumer_share)
      .Payout(baseline_cost_eur, realized_cost_eur);
}

}  // namespace mirabel::negotiation
