#include "trace.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

namespace perfbench::trace {

namespace {

struct ThreadBuffer {
  std::vector<Span> spans;
  /// Indices of the spans currently open on this thread.
  std::vector<int32_t> open;
};

std::atomic<bool> g_enabled{false};

/// Owns every buffer ever created. Buffers outlive their threads so that
/// Collect() can still read them; a thread only ever touches its own buffer.
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->spans.reserve(1 << 14);
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::move(owned));
  }
  return *buffer;
}

}  // namespace

std::string_view Name(Kind kind) {
  switch (kind) {
    case Kind::kSubmit:
      return "edms.submit";
    case Kind::kGate:
      return "edms.gate";
    case Kind::kMeter:
      return "edms.meter";
    case Kind::kPoll:
      return "edms.poll";
    case Kind::kSchedule:
      return "scheduling.run";
    case Kind::kBaseline:
      return "forecasting.baseline";
    case Kind::kTrain:
      return "forecasting.train";
    case Kind::kProsumerTick:
      return "node.prosumer_tick";
    case Kind::kBus:
      return "node.bus";
    case Kind::kBrpTick:
      return "node.brp_tick";
    case Kind::kTsoTick:
      return "node.tso_tick";
    case Kind::kCount:
      break;
  }
  return "unknown";
}

double Summary::TotalSeconds(Kind kind) const {
  double total = 0.0;
  for (double v : Of(kind)) total += v;
  return total * 1e-3;
}

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Scope::Scope(Kind kind, int64_t tag) {
  if (!Enabled()) return;
  ThreadBuffer& buffer = LocalBuffer();
  Span span;
  span.kind = kind;
  span.tag = tag;
  span.parent = buffer.open.empty() ? -1 : buffer.open.back();
  index_ = static_cast<int32_t>(buffer.spans.size());
  buffer.open.push_back(index_);
  span.start_ns = NowNs();
  buffer.spans.push_back(span);
}

Scope::~Scope() {
  if (index_ < 0) return;
  const int64_t end = NowNs();
  ThreadBuffer& buffer = LocalBuffer();
  buffer.spans[static_cast<size_t>(index_)].end_ns = end;
  buffer.open.pop_back();
}

void Scope::SetCounts(int64_t a, int64_t b) {
  if (index_ < 0) return;
  Span& span = LocalBuffer().spans[static_cast<size_t>(index_)];
  span.count_a = a;
  span.count_b = b;
}

Summary Collect() {
  Summary summary;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buffer : g_registry) {
    const std::vector<Span>& spans = buffer->spans;
    // Children on one thread nest inside their parent and never overlap each
    // other, so the time they cover is the sum of their durations.
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ms[static_cast<size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns) * 1e-6;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const size_t k = static_cast<size_t>(span.kind);
      const double ms = static_cast<double>(span.end_ns - span.start_ns) * 1e-6;
      summary.ms[k].push_back(ms);
      summary.self_ms[k].push_back(ms - child_ms[i]);
      summary.count_a[k] += span.count_a;
      summary.count_b[k] += span.count_b;
    }
  }
  return summary;
}

void Reset() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (auto& buffer : g_registry) {
    buffer->spans.clear();
    buffer->open.clear();
  }
}

}  // namespace perfbench::trace
