// Shared pieces of the EDMS benchmark workloads: run options, the per-round
// result, input series, forecaster set-up, the traced-run wrappers and the
// offer ledger that checks every round's outputs.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "edms/baseline_provider.h"
#include "edms/edms_engine.h"
#include "edms/scheduler_registry.h"
#include "forecasting/forecaster.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  /// Short mode shrinks every workload to a few simulated days (self-test).
  bool short_mode = false;
};

/// The outcome values that must repeat bit for bit in every round of a run:
/// all counts, the imbalance reduction and the schedule cost. Rounds replay
/// the same inputs with iteration-capped schedulers, so any difference is a
/// determinism bug (or a traced-run wrapper that changed behaviour).
struct Fingerprint {
  std::vector<int64_t> counts;
  double imbalance_reduction_pct = 0.0;
  double schedule_cost_eur = 0.0;

  bool operator==(const Fingerprint& other) const = default;
  std::string ToString() const;
};

/// One round: the workload's fixed amount of work, from set-up to the last
/// terminal offer.
struct RoundResult {
  /// Forecaster training plus building the engine or the nodes.
  double setup_s = 0.0;
  /// Wall time of the simulated run after set-up (and after any warm-up).
  double timed_s = 0.0;
  /// Median time of the host-speed probe over the round (ms).
  double probe_ms = 0.0;
  /// The timed run split into steps: timed_s without the host-speed probes
  /// between them, each step scaled by host speed (ms; host_speed.h).
  std::vector<double> step_ms;
  /// Offers submitted into the system.
  int64_t offers = 0;
  /// Gate closures that fired, and offer due time -> acceptance (NaN for
  /// offers that were never accepted), scaled by host speed (ms). Rounds
  /// replay the same work, so entry i of every round times the same gate,
  /// offer or step.
  std::vector<double> gate_ms;
  std::vector<double> accept_ms;
  /// Wall time of all gates (s).
  double gate_busy_s = 0.0;
  /// Share of submitted offers that never got a schedule, except
  /// negotiation rejections (%).
  double failed_pct = 0.0;
  Fingerprint fingerprint;
  /// Correctness-check violations; empty when the round is correct.
  std::vector<std::string> violations;
  /// Per-layer counters and gauges read from the program's accessors.
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Threads the workload keeps running at once (checked against nproc).
  virtual int Threads() const = 0;
  /// Runs one round on the inputs generated at construction.
  virtual RoundResult RunRound() = 0;
};

std::unique_ptr<Workload> MakeBrpRolling(const RunOptions& options);
std::unique_ptr<Workload> MakeHierarchy(const RunOptions& options);

// --- Inputs ------------------------------------------------------------------

/// Metered history of the area a workload balances: demand and wind supply
/// per 15-minute slice, the training input of the forecasters.
struct SiteHistory {
  std::vector<double> demand;
  std::vector<double> wind;
};

/// `days * per_day` generated offers (ids 1..n, 5000 owners) derived from
/// `seed`, ordered by creation slice.
std::vector<mirabel::flexoffer::FlexOffer> SortedOffers(uint64_t seed,
                                                        int days,
                                                        int64_t per_day);

/// Four weeks of history of a fixed area; `scale` sizes it. The area does
/// not vary with the run's seed: the seed draws the offers and the
/// prosumers, and a fixed area keeps the schedule-quality metrics of
/// different seeds comparable.
SiteHistory MakeSiteHistory(double scale);

// --- Forecasting set-up --------------------------------------------------------

/// Trained demand and wind forecasters behind one ForecastBaselineProvider.
struct Forecasts {
  std::unique_ptr<mirabel::forecasting::Forecaster> demand;
  std::unique_ptr<mirabel::forecasting::Forecaster> wind;
  std::shared_ptr<mirabel::edms::ForecastBaselineProvider> provider;
};

/// Trains both forecasters with an evaluation-capped estimator and returns
/// them behind a provider whose origin is slice 0 (the first simulated
/// slice). Exits the process if training fails.
Forecasts TrainForecasts(const SiteHistory& history, int max_evals,
                         uint64_t seed);

/// The provider the engine sees: the forecast provider itself, or (while
/// tracing) a wrapper that records a forecasting.baseline span per call.
std::shared_ptr<mirabel::edms::BaselineProvider> EngineBaseline(
    const Forecasts& forecasts);

/// GreedySearch factory; while tracing, each scheduler is wrapped so every
/// RunCompiled call records a scheduling.run span.
mirabel::edms::SchedulerFactory GreedyFactory();

/// Exits unless the engine config is iteration-capped with no wall-clock
/// budget: a wall-clock budget makes the work per gate depend on speed.
void RequireIterationCapped(const mirabel::edms::EdmsEngine::Config& config);

// --- Checking --------------------------------------------------------------------

/// Tallies an engine event stream and checks it against the engine's
/// counters: every submitted offer must end in exactly one terminal event
/// (rejected, shed, expired or executed), and each EngineStats count must
/// equal its event tally.
class OfferLedger {
 public:
  /// Offer ids are 1..max_id.
  explicit OfferLedger(size_t max_id);

  void Observe(const mirabel::edms::Event& event);
  void Check(const mirabel::edms::EngineStats& stats, int64_t submitted,
             std::vector<std::string>* violations) const;

 private:
  std::vector<uint8_t> terminal_;
  int64_t accepted_ = 0;
  int64_t rejected_ = 0;
  int64_t shed_ = 0;
  int64_t expired_ = 0;
  int64_t executed_ = 0;
  int64_t assigned_ = 0;
  int64_t macros_ = 0;
};

/// Aggregation quality at claim time, read from a local-scheduling event
/// stream: a gate claims every aggregate that fits its horizon, so the
/// pipeline is empty again once the gate returns and its own Stats() would
/// read zero between gates.
class AggregationTally {
 public:
  void Observe(const mirabel::edms::Event& event);
  /// Ends the current gate (for the per-gate aggregate peak).
  void EndGate();
  /// Adds aggregation.compression_ratio and .live_aggregates_peak.
  void AddLayer(std::map<std::string, double>* layer) const;

 private:
  int64_t macros_ = 0;
  int64_t members_ = 0;
  int64_t gate_macros_ = 0;
  int64_t peak_macros_ = 0;
};

/// Adds a violation for every non-terminal lifecycle state `engine` still
/// tracks offers in.
void CheckAllTerminal(const mirabel::edms::EdmsEngine& engine,
                      std::vector<std::string>* violations);

/// The determinism fingerprint of one engine (or merged runtime) run.
Fingerprint EngineFingerprint(const mirabel::edms::EngineStats& stats,
                              int64_t submitted);

/// Adds the edms.* and negotiation.* per-layer counters of `stats`.
void AddEngineLayer(const mirabel::edms::EngineStats& stats,
                    std::map<std::string, double>* layer);

// --- Small helpers ---------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 1]) of unsorted samples; 0 when empty.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
