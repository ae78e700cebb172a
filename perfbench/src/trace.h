// Span tracing for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code, around calls into the
// program's public functions (engine, runtime, nodes, scheduler, baseline
// provider, forecaster). Every thread appends to its own buffer, so shard
// workers that call the scheduler and the baseline provider concurrently
// never share a writer; the buffers are merged only when the run has
// stopped every thread that could still write to them.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench::trace {

/// The span names. Each is "<module>.<call>".
enum class Kind : uint8_t {
  kSubmit,        // edms: EdmsEngine::SubmitOffers
  kGate,          // edms: EdmsEngine::Advance
  kMeter,         // edms: execution metering calls
  kPoll,          // edms: PollEvents
  kSchedule,      // scheduling: Scheduler::RunCompiled
  kBaseline,      // forecasting: BaselineProvider::Baseline
  kTrain,         // forecasting: Forecaster::Train
  kProsumerTick,  // node: every ProsumerNode::OnTick of one slice
  kBus,           // node: MessageBus::AdvanceTo
  kBrpTick,       // node: one BRP AggregatingNode::OnTick
  kTsoTick,       // node: the TSO AggregatingNode::OnTick
  kCount,
};

std::string_view Name(Kind kind);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span in the same thread's buffer; -1 at the root.
  int32_t parent = -1;
  Kind kind = Kind::kSubmit;
  /// Gate slice or batch slice the span belongs to.
  int64_t tag = 0;
  /// Work counts of the call (scheduling: macros, iterations).
  int64_t count_a = 0;
  int64_t count_b = 0;
};

/// Per-kind totals after merging every thread's buffer.
struct Summary {
  /// Durations (ms) of every span of the kind, in recording order.
  std::array<std::vector<double>, static_cast<size_t>(Kind::kCount)> ms;
  /// Self times (ms): duration minus the time covered by child spans.
  std::array<std::vector<double>, static_cast<size_t>(Kind::kCount)> self_ms;
  std::array<int64_t, static_cast<size_t>(Kind::kCount)> count_a{};
  std::array<int64_t, static_cast<size_t>(Kind::kCount)> count_b{};

  const std::vector<double>& Of(Kind kind) const {
    return ms[static_cast<size_t>(kind)];
  }
  const std::vector<double>& SelfOf(Kind kind) const {
    return self_ms[static_cast<size_t>(kind)];
  }
  double TotalSeconds(Kind kind) const;
};

/// Turns recording on or off for every thread. Only call it while no thread
/// is inside a span.
void SetEnabled(bool enabled);
bool Enabled();

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

/// Records one span on the calling thread for the lifetime of the object.
/// Costs one relaxed load when tracing is off.
class Scope {
 public:
  explicit Scope(Kind kind, int64_t tag = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Attaches work counts to the span (no-op when not recording).
  void SetCounts(int64_t a, int64_t b);

 private:
  int32_t index_ = -1;
};

/// Merges every thread's buffer. Call only after every thread that recorded
/// spans has finished (or is known to be outside any span).
Summary Collect();

/// Clears every buffer; same precondition as Collect().
void Reset();

}  // namespace perfbench::trace

#endif  // PERFBENCH_TRACE_H_
