#ifndef MIRABEL_SCHEDULING_REFERENCE_EVALUATOR_H_
#define MIRABEL_SCHEDULING_REFERENCE_EVALUATOR_H_

#include <vector>

#include "common/result.h"
#include "scheduling/scheduling_problem.h"

namespace mirabel::scheduling {

/// The pre-kernel cost evaluator, kept verbatim as the equivalence oracle for
/// the SoA scheduling kernel (CompiledProblem / ScheduleWorkspace) and as the
/// honest "old path" baseline in bench/scheduler_kernel.cc. Everything the
/// kernel computes — slice energies, per-slice market responses, move deltas,
/// cost sweeps — must stay bit-identical to this implementation;
/// tests/scheduling_kernel_test.cc asserts it. Do not optimise this class:
/// its pointer-chasing AoS profile walks, per-EvaluateTotal scratch
/// construction and redundant default-schedule accumulation are the measured
/// baseline the kernel is judged against.
class ReferenceCostEvaluator {
 public:
  /// `problem` must outlive the evaluator and must be Validate()d.
  explicit ReferenceCostEvaluator(const SchedulingProblem& problem);

  /// Replaces the current schedule, recomputing state from scratch.
  Status SetSchedule(const Schedule& schedule);

  /// Full cost of the current schedule (full sweep per call).
  ScheduleCost Cost() const;

  /// Total cost of `schedule` via a freshly constructed scratch evaluator
  /// (the old EA child-evaluation path, double accumulation included).
  Result<double> EvaluateTotal(const Schedule& schedule) const;

  /// Cost delta of moving offer `index` to `candidate`.
  Result<double> TryMove(size_t index, const OfferAssignment& candidate) const;

  /// Applies a move (must be valid).
  Status ApplyMove(size_t index, const OfferAssignment& candidate);

  const Schedule& schedule() const { return schedule_; }
  const std::vector<double>& net_kwh() const { return net_kwh_; }

  static double SliceEnergy(const flexoffer::FlexOffer& offer, int64_t j,
                            double lambda);

 private:
  double SliceCost(size_t slice, double residual) const;
  void Accumulate(size_t index, const OfferAssignment& a, double sign);

  const SchedulingProblem* problem_;
  Schedule schedule_;
  std::vector<double> net_kwh_;
  double flex_activation_eur_ = 0.0;
};

}  // namespace mirabel::scheduling

#endif  // MIRABEL_SCHEDULING_REFERENCE_EVALUATOR_H_
