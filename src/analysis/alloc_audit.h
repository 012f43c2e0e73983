// Hot-path allocation auditor — pillar 3 of the analysis layer.
//
// ROADMAP Open item 4 gates the fused backend on "zero heap allocations per
// iteration in steady state". This header provides the tooling to *measure*
// that property instead of assuming it:
//
//   * When the library is built with -DSPCG_ALLOC_AUDIT=ON, alloc_audit.cc
//     replaces the global operator new/delete with counting hooks that bump
//     trivially-destructible thread-local counters (safe during TLS
//     teardown) before forwarding to malloc/free.
//   * AllocAuditScope is an RAII probe wired into the PCG iteration loop,
//     SolverSession::solve and the SolveService worker. On destruction it
//     reports the allocation delta observed on the current thread to the
//     process-wide AllocAudit registry, tagged with a phase name and
//     whether the phase claims to be steady-state.
//   * The registry accumulates per-phase totals and counts steady-state
//     violations (a steady scope that allocated). verify.h converts the
//     violations into `alloc.steady-state` diagnostics, which is how the
//     hard-fail mode of spcg-verify --audit turns an allocating iteration
//     into a nonzero exit.
//
// Cost model: without SPCG_ALLOC_AUDIT the hooks are not compiled and a
// disabled scope costs one relaxed atomic load at construction (same budget
// as a disabled trace Span), so the probes stay in release hot paths. With
// the hooks compiled but the registry disabled, each allocation pays two
// thread-local increments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/telemetry.h"

namespace spcg::analysis {

/// Whether the operator new/delete counting hooks are compiled into this
/// build (the SPCG_ALLOC_AUDIT CMake option). Without them every counter
/// below reads zero and scopes can only report "nothing observed".
constexpr bool alloc_audit_compiled() {
#ifdef SPCG_ALLOC_AUDIT
  return true;
#else
  return false;
#endif
}

/// Allocation counters for one thread: events and bytes since thread start.
struct AllocCounts {
  std::uint64_t allocs = 0;
  std::uint64_t deallocs = 0;
  std::uint64_t bytes = 0;  // total bytes requested by the counted allocs
};

/// The calling thread's counters (all zero when hooks are not compiled).
AllocCounts alloc_counts_this_thread() noexcept;

/// Per-phase accumulated audit statistics, as returned by snapshot().
struct PhaseAllocStats {
  std::string phase;
  std::uint64_t scopes = 0;  // completed AllocAuditScopes for this phase
  std::uint64_t allocs = 0;  // operator new calls observed inside them
  std::uint64_t bytes = 0;
  std::uint64_t steady_scopes = 0;      // scopes flagged steady-state
  std::uint64_t steady_violations = 0;  // steady scopes that allocated
  std::uint64_t steady_allocs = 0;      // allocs inside steady scopes
};

/// Process-wide registry of per-phase allocation deltas. Disabled by
/// default; spcg-verify --audit (and tests) enable it around a measured
/// region. record() is thread-safe; phase names should be short string
/// literals (the registry keys off the characters, not the pointer).
class AllocAudit {
 public:
  static AllocAudit& instance();

  [[nodiscard]] bool enabled() const noexcept;
  void set_enabled(bool on) noexcept;

  /// Fold one finished scope's delta into the per-phase totals.
  void record(const char* phase, const AllocCounts& delta, bool steady);

  /// Accumulated per-phase statistics, sorted by phase name.
  [[nodiscard]] std::vector<PhaseAllocStats> snapshot() const;

  /// Total steady-state violations across all phases since the last reset.
  [[nodiscard]] std::uint64_t steady_violations() const noexcept;

  /// Drop all accumulated statistics (the enabled flag is untouched).
  void reset();

 private:
  AllocAudit() = default;
  struct Impl;
  Impl& impl() const;
};

/// Appends the registry's per-phase totals as telemetry counter samples
/// ("alloc.<phase>.allocs" / ".bytes" / ".steady_violations"), so owners of
/// a TelemetryRegistry (SolveService, CLIs) can expose audit counts next to
/// their own counters. No samples when the hooks are not compiled.
void append_alloc_counters(std::vector<CounterSample>& out);

/// RAII probe: snapshots the calling thread's counters at construction and
/// reports the delta to AllocAudit::instance() at destruction, tagged with
/// `phase`. `steady_state` marks scopes the zero-allocation contract covers
/// (e.g. every PCG iteration after the first); a nonzero delta inside one
/// counts as a violation. `phase` must outlive the scope — pass a literal.
class AllocAuditScope {
 public:
  explicit AllocAuditScope(const char* phase,
                           bool steady_state = false) noexcept;
  ~AllocAuditScope();

  AllocAuditScope(const AllocAuditScope&) = delete;
  AllocAuditScope& operator=(const AllocAuditScope&) = delete;

  /// Allocation delta on this thread since construction (zeros when the
  /// audit is disabled or the hooks are not compiled).
  [[nodiscard]] AllocCounts delta() const noexcept;

 private:
  const char* phase_;
  bool steady_;
  bool active_;  // audit was enabled at construction
  AllocCounts start_;
};

}  // namespace spcg::analysis
