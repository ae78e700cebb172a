#ifndef MIRABEL_FLEXOFFER_FLEX_OFFER_H_
#define MIRABEL_FLEXOFFER_FLEX_OFFER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "flexoffer/time_slice.h"

namespace mirabel::flexoffer {

/// Unique identifier of a flex-offer within one EDMS.
using FlexOfferId = uint64_t;
/// Identifier of the actor (prosumer, BRP, TSO) that issued an offer.
using ActorId = uint64_t;

/// Energy bounds of one profile slice, in kWh per slice.
///
/// A consumption offer has 0 <= min <= max; a production offer (e.g. a solar
/// panel committing output) uses negative values with min <= max <= 0. The
/// difference max - min is the *energy flexibility* of the slice: the amount
/// the scheduler may dispatch freely (paper §7).
struct EnergyRange {
  double min_kwh = 0.0;
  double max_kwh = 0.0;

  /// Width of the dispatchable band.
  double Flexibility() const { return max_kwh - min_kwh; }

  bool operator==(const EnergyRange&) const = default;
};

/// A flex-offer: the energy planning object at the heart of MIRABEL
/// (paper §2, Fig. 3).
///
/// The offer describes an energy profile of consecutive slices, each with a
/// [min, max] energy band, which may start anywhere inside the time
/// flexibility interval [earliest_start, latest_start]. The issuer must
/// receive the scheduling decision before `assignment_before`; otherwise the
/// offer expires and the prosumer falls back to its open supply contract.
struct FlexOffer {
  FlexOfferId id = 0;
  ActorId owner = 0;

  /// When the offer was created (informational; used by negotiation to derive
  /// assignment flexibility).
  TimeSlice creation_time = 0;
  /// Deadline by which the owner must have been sent a schedule.
  TimeSlice assignment_before = 0;
  /// Earliest slice at which the profile may begin ("start after time").
  TimeSlice earliest_start = 0;
  /// Latest slice at which the profile may begin.
  TimeSlice latest_start = 0;

  /// Consecutive per-slice energy bands; index 0 is the first profile slice.
  std::vector<EnergyRange> profile;

  /// Price in EUR/kWh the issuer asks for scheduled energy (consumption:
  /// discount granted by the BRP; production: feed-in price). Used by the
  /// scheduling cost model and negotiation.
  double unit_price_eur = 0.0;

  // -- Derived quantities ----------------------------------------------------

  /// Number of profile slices.
  int64_t Duration() const { return static_cast<int64_t>(profile.size()); }

  /// Width of the start-time window in slices ("time flexibility", Fig. 3).
  int64_t TimeFlexibility() const { return latest_start - earliest_start; }

  /// Latest slice (exclusive) at which the profile can end.
  TimeSlice LatestEnd() const { return latest_start + Duration(); }

  /// Sum of per-slice minimum energies.
  double TotalMinEnergy() const;
  /// Sum of per-slice maximum energies.
  double TotalMaxEnergy() const;
  /// Sum of per-slice dispatchable bands (paper §7 "energy flexibility").
  double TotalEnergyFlexibility() const;

  /// Checks the structural invariants:
  ///  * a non-zero id (0 is reserved: the aggregation layer uses it to mark
  ///    cancelled entries),
  ///  * non-empty profile,
  ///  * min <= max in every slice,
  ///  * earliest_start <= latest_start,
  ///  * creation_time <= assignment_before <= latest_start.
  Status Validate() const;

  /// Short human-readable description for logs and examples.
  std::string ToString() const;
};

/// A scheduled (instantiated) flex-offer: fixed start time plus a concrete
/// energy amount in each profile slice.
struct ScheduledFlexOffer {
  FlexOfferId offer_id = 0;
  /// Absolute slice at which profile position 0 executes.
  TimeSlice start = 0;
  /// Exactly one energy value per profile slice, inside the offer's bands.
  std::vector<double> energies_kwh;

  /// Total scheduled energy.
  double TotalEnergy() const;

  /// Verifies this schedule against `offer`: matching id, start inside
  /// [earliest_start, latest_start], one energy per slice, each within its
  /// [min, max] band (with tolerance 1e-9 for rounding).
  Status ValidateAgainst(const FlexOffer& offer) const;
};

/// The fallback instantiation used when an offer expires unscheduled
/// (paper §1: "pending flexibilities simply timeout and customers fall back
/// to the open contract"): the profile starts at `earliest_start` and every
/// slice draws its maximum energy (the unmanaged behaviour).
ScheduledFlexOffer FallbackSchedule(const FlexOffer& offer);

/// Convenience builder used by tests and examples.
///
///   FlexOffer fo = FlexOfferBuilder(42)
///                      .OwnedBy(7)
///                      .CreatedAt(0)
///                      .AssignBefore(HoursToSlices(20))
///                      .StartWindow(HoursToSlices(22), HoursToSlices(29))
///                      .AddSlice(2.0, 5.0)
///                      .AddSlice(2.0, 5.0)
///                      .Build();
class FlexOfferBuilder {
 public:
  explicit FlexOfferBuilder(FlexOfferId id);

  FlexOfferBuilder& OwnedBy(ActorId owner);
  FlexOfferBuilder& CreatedAt(TimeSlice t);
  FlexOfferBuilder& AssignBefore(TimeSlice t);
  /// Sets [earliest_start, latest_start].
  FlexOfferBuilder& StartWindow(TimeSlice earliest, TimeSlice latest);
  FlexOfferBuilder& AddSlice(double min_kwh, double max_kwh);
  /// Adds `count` identical slices.
  FlexOfferBuilder& AddSlices(int count, double min_kwh, double max_kwh);
  FlexOfferBuilder& UnitPrice(double eur_per_kwh);

  /// Returns the offer. Does not validate; call Validate() if the inputs are
  /// untrusted.
  FlexOffer Build() const;

 private:
  FlexOffer offer_;
  bool assignment_set_ = false;
};

}  // namespace mirabel::flexoffer

#endif  // MIRABEL_FLEXOFFER_FLEX_OFFER_H_
