// Structured tracing for the SPCG pipeline (DESIGN.md §9).
//
// A TraceRecorder collects timestamped spans — named intervals with a
// category and optional key/value args — into per-thread buffers, so
// recording from worker pools, distributed ranks and fork_join teams never
// contends on a shared lock in the hot path. Spans are RAII (`Span` records
// a complete event on destruction) and read MonotonicClock (support/timer.h),
// the same clock every phase timer in the repo uses.
//
// Cost model: when the recorder is disabled, constructing a Span is one
// relaxed atomic load plus a thread-local read — no strings are built, no
// buffers touched — so instrumentation can stay compiled into release hot
// paths. Per-iteration solver spans are additionally gated by an opt-in
// sampling knob (PcgOptions::trace_every) through TraceSampleScope, which
// suppresses nested spans on the current thread for unsampled iterations.
//
// Exporters live in support/expo.h: Chrome trace_event JSON (load the file
// in chrome://tracing or Perfetto) and Prometheus-style text exposition of
// trace-derived phase totals alongside the telemetry registry.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/timer.h"

namespace spcg {

/// One span annotation. `value` is a raw JSON fragment (a number, `true`,
/// or a quoted string) — build it with the trace_arg() helpers so strings
/// are escaped exactly once.
struct TraceArg {
  std::string key;
  std::string value;
};

TraceArg trace_arg(std::string key, std::int64_t v);
TraceArg trace_arg(std::string key, std::uint64_t v);
TraceArg trace_arg(std::string key, double v);
TraceArg trace_arg(std::string key, bool v);
TraceArg trace_arg(std::string key, std::string_view v);
inline TraceArg trace_arg(std::string key, const char* v) {
  return trace_arg(std::move(key), std::string_view(v));
}
inline TraceArg trace_arg(std::string key, std::int32_t v) {
  return trace_arg(std::move(key), static_cast<std::int64_t>(v));
}

/// One recorded span. Timestamps are nanoseconds since the recorder's
/// epoch (its construction, or the last clear()).
struct TraceEvent {
  std::string name;
  std::string category;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  std::uint32_t tid = 0;  // dense per-recorder thread id, first-use order
  std::vector<TraceArg> args;

  [[nodiscard]] std::uint64_t end_ns() const { return start_ns + duration_ns; }
};

/// Thread-safe span sink. record() appends to the calling thread's buffer
/// (one uncontended mutex per thread, taken only while tracing is enabled);
/// drain() steals every buffer's events and returns them sorted by start
/// time. A disabled recorder drops events before any allocation happens.
class TraceRecorder {
 public:
  explicit TraceRecorder(bool enabled = false);
  ~TraceRecorder() = default;

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// The instant `ns_since_epoch` timestamps are measured from. Stored as
  /// an atomic tick count so clear() may race with concurrent recording.
  [[nodiscard]] MonotonicClock::time_point epoch() const {
    return MonotonicClock::time_point(MonotonicClock::duration(
        epoch_ticks_.load(std::memory_order_relaxed)));
  }

  /// Nanoseconds from the epoch to `tp` (0 if `tp` precedes the epoch).
  [[nodiscard]] std::uint64_t ns_since_epoch(
      MonotonicClock::time_point tp) const;

  /// Append one finished span for the calling thread. No-op when disabled.
  void record(std::string_view name, std::string_view category,
              MonotonicClock::time_point begin, MonotonicClock::time_point end,
              std::vector<TraceArg> args = {});

  /// Move every recorded event out (all threads), sorted by start_ns then
  /// tid. Buffers stay registered, so recording may continue afterwards.
  [[nodiscard]] std::vector<TraceEvent> drain();

  /// Drop every buffered event and restart the epoch at now.
  void clear();

  /// Events recorded since construction / the last clear().
  [[nodiscard]] std::uint64_t events_recorded() const noexcept {
    return recorded_.load(std::memory_order_relaxed);
  }

 private:
  struct ThreadBuffer {
    std::mutex mu;
    std::vector<TraceEvent> events;
    std::uint32_t tid = 0;
  };

  ThreadBuffer& buffer_for_this_thread();

  std::atomic<bool> enabled_;
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<MonotonicClock::rep> epoch_ticks_;
  const std::uint64_t id_;  // distinguishes recorder incarnations per thread

  mutable std::mutex mu_;  // guards buffers_ registration and epoch_ swap
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

/// The process-wide recorder every built-in instrumentation point reports
/// to. Disabled by default; CLIs/benches enable it (`--trace-out`).
TraceRecorder& global_trace();

/// True when spans on this thread are currently suppressed by an enclosing
/// TraceSampleScope (an unsampled solver iteration).
bool trace_suppressed() noexcept;

/// Iteration-sampling gate: while a scope constructed with sampled=false is
/// alive, Spans on this thread become no-ops. Scopes nest; an outer
/// unsampled scope suppresses inner sampled ones (restoring on unwind).
class TraceSampleScope {
 public:
  explicit TraceSampleScope(bool sampled);
  ~TraceSampleScope();

  TraceSampleScope(const TraceSampleScope&) = delete;
  TraceSampleScope& operator=(const TraceSampleScope&) = delete;

 private:
  bool prev_;
};

/// RAII span: captures the start time at construction, records a complete
/// event into the recorder at destruction (or an explicit finish()). When
/// the recorder is disabled or the thread is suppressed, construction is
/// near-free and nothing is recorded.
class Span {
 public:
  Span(TraceRecorder& rec, std::string_view name, std::string_view category)
      : rec_(rec.enabled() && !trace_suppressed() ? &rec : nullptr) {
    if (rec_ != nullptr) {
      name_.assign(name);
      category_.assign(category);
      begin_ = MonotonicClock::now();
    }
  }

  /// Report to the global recorder.
  Span(std::string_view name, std::string_view category)
      : Span(global_trace(), name, category) {}

  ~Span() { finish(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Whether this span will be recorded (false: arg() is a no-op too).
  [[nodiscard]] bool active() const { return rec_ != nullptr; }

  /// Attach an annotation (any type trace_arg() accepts).
  template <class V>
  void arg(std::string key, V&& value) {
    if (rec_ != nullptr)
      args_.push_back(trace_arg(std::move(key), std::forward<V>(value)));
  }

  /// Record now instead of at scope exit. Idempotent.
  void finish() {
    if (rec_ == nullptr) return;
    rec_->record(name_, category_, begin_, MonotonicClock::now(),
                 std::move(args_));
    rec_ = nullptr;
  }

 private:
  TraceRecorder* rec_;
  MonotonicClock::time_point begin_;
  std::string name_;
  std::string category_;
  std::vector<TraceArg> args_;
};

/// Total time and count per distinct (category, name) — the per-phase
/// accounting the Prometheus exposition and the regression harness consume.
struct PhaseTotal {
  std::string category;
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;

  [[nodiscard]] double total_seconds() const {
    return static_cast<double>(total_ns) * 1e-9;
  }
};

/// Aggregate events into phase totals, sorted by (category, name).
std::vector<PhaseTotal> aggregate_phases(std::span<const TraceEvent> events);

}  // namespace spcg
