// TransientSession — the time-stepping engine over the session layer.
//
// A transient simulation (ARDiS's reaction-diffusion `dt` loop, MPS_DAWN's
// per-frame pressure solve) presents a *sequence* of systems A_t x_t = b_t
// whose matrices usually share one sparsity pattern and drift only in
// values. TransientSession exploits exactly that structure:
//
//   * Setup reuse by invalidation granularity. The first step builds a
//     full SpcgSetup. A values-only matrix update (same `pattern_hash`,
//     new `values_hash`) triggers only refresh_setup_numerics() — the
//     numeric ILU elimination into the retained symbolic structure; level
//     schedules, wavefront inspection and the sparsification pattern
//     decision are reused verbatim. Only a pattern change pays a full
//     symbolic rebuild.
//   * Warm starts: each step seeds PCG with the A_t-norm-optimal guess in
//     the span of the last few solutions (transient/warm_start.h): the
//     previous solution plus a ring of up to kWarmStartHistory solution
//     differences. On a smooth sequence this needs half the iterations of
//     a previous-solution seed or fewer; with no history (or when the
//     guard rejects the projection) the seed is the previous solution.
//   * Step policies: fixed tolerance, MPS_DAWN-style fixed iteration
//     budget, or adaptive per-step tolerance (transient/step_policy.h).
//   * Zero steady-state allocations: everything is bound before the loop
//     (MPS_DAWN / HPCG-on-GraphBLAS style) — PcgWorkspace, the refresh
//     maps and work row, a donor/solution double buffer and the history
//     ring — so a steady step (values refresh + solve) performs no heap
//     allocation.
//     The "transient.step" AllocAuditScope enforces this under
//     SPCG_ALLOC_AUDIT.
//
// The session owns its setup and refreshes it in place, so it builds its
// own instead of sharing one: the runtime layer's cached setups are
// immutable.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "analysis/alloc_audit.h"
#include "core/spcg.h"
#include "precond/preconditioner.h"
#include "runtime/fingerprint.h"
#include "solver/pcg.h"
#include "sparse/csr.h"
#include "sparse/norms.h"
#include "sparse/ops.h"
#include "support/timer.h"
#include "support/trace.h"
#include "transient/refactorize.h"
#include "transient/step_policy.h"
#include "transient/warm_start.h"

namespace spcg {

/// Configuration of a transient sequence.
struct TransientOptions {
  /// Setup-relevant options (sparsify, preconditioner, executor). base.pcg
  /// is ignored by step() — the StepPolicy governs per-step solve options.
  SpcgOptions base;
  StepPolicy policy;
  /// Seed each step's PCG from the previous solutions (projected warm start;
  /// false = every step starts from zero).
  bool warm_start = true;
};

/// What one step() did and what it cost.
struct TransientStepStats {
  std::int64_t step = 0;            // 0-based index in the sequence
  bool symbolic_rebuild = false;    // full setup build (first step / pattern)
  bool refactorized = false;        // values-only numeric refresh
  /// Warm-start basis: 0 = cold (x0 = 0), 1 = previous solution only,
  /// k > 1 = projected over the previous solution and k - 1 differences.
  std::int32_t warm_basis = 0;
  std::int32_t iterations = 0;
  SolveStatus status = SolveStatus::kMaxIterations;
  double final_residual_norm = 0.0;   // true residual at exit (or at budget)
  double target_tolerance = 0.0;      // absolute target this step solved to
  double refactorize_seconds = 0.0;   // rebuild or refresh time (0 = reuse)
  double solve_seconds = 0.0;
};

/// Aggregates over the whole sequence.
struct TransientStats {
  std::int64_t steps = 0;
  std::int64_t symbolic_rebuilds = 0;     // full setups paid
  std::int64_t refactorize_steps = 0;     // values-only refreshes paid
  std::int64_t warm_steps = 0;
  std::int64_t projected_steps = 0;        // warm steps with warm_basis > 1
  std::int64_t total_iterations = 0;
  double refactorize_seconds = 0.0;        // rebuild + refresh time
  double solve_seconds = 0.0;
};

/// One matrix-sequence solve engine. Not thread-safe; one instance per
/// stepping loop. The matrix is shared (or borrowed — see the lvalue
/// overloads) and may be swapped between steps via update_matrix().
template <class T>
class TransientSession {
 public:
  TransientSession(std::shared_ptr<const Csr<T>> a, TransientOptions opt)
      : a_(std::move(a)), opt_(std::move(opt)) {
    SPCG_CHECK(a_ != nullptr);
    SPCG_CHECK(a_->rows == a_->cols);
    fp_ = fingerprint(*a_);
  }

  /// Borrow a caller-owned matrix (must outlive the session / the next
  /// update_matrix). Useful when the stepping loop mutates one Csr in place
  /// and re-presents it each step.
  TransientSession(const Csr<T>& a, TransientOptions opt)
      : TransientSession(
            std::shared_ptr<const Csr<T>>(&a, [](const Csr<T>*) {}),
            std::move(opt)) {}

  /// Present the matrix for the next step(s). Fingerprints it and classifies
  /// the change: identical (no-op), values-only (numeric refresh on the next
  /// step), or pattern change (full symbolic rebuild on the next step).
  /// Passing the same Csr object after mutating its values in place is the
  /// intended idiom for steppers that own their matrix.
  void update_matrix(std::shared_ptr<const Csr<T>> a) {
    SPCG_CHECK(a != nullptr);
    const MatrixFingerprint fp = fingerprint(*a);
    const bool same_pattern = fp.pattern_hash == fp_.pattern_hash &&
                              fp.rows == fp_.rows && fp.nnz == fp_.nnz;
    a_ = std::move(a);
    if (same_pattern && fp.values_hash == fp_.values_hash) {
      fp_ = fp;
      return;  // bit-identical matrix: keep everything
    }
    fp_ = fp;
    if (same_pattern && ready_) {
      dirty_values_ = true;
    } else {
      dirty_pattern_ = true;
      x_.clear();  // a different pattern means a different unknown layout
    }
  }

  void update_matrix(const Csr<T>& a) {
    update_matrix(std::shared_ptr<const Csr<T>>(&a, [](const Csr<T>*) {}));
  }

  /// Advance one step: bring the setup current (full build, numeric refresh
  /// or pure reuse), then solve A x = b under the step policy, warm-started
  /// from the projected guess when enabled. Returns this step's stats
  /// (also retained — see last_step()). Steady-state steps (setup ready or
  /// values-only refresh, workspace warm) perform zero heap allocations.
  const TransientStepStats& step(std::span<const T> b) {
    SPCG_CHECK(static_cast<index_t>(b.size()) == a_->rows);
    const bool structural = !ready_ || dirty_pattern_;
    const analysis::AllocAuditScope audit("transient.step",
                                          /*steady_state=*/!structural);
    Span span("transient.step", "transient");
    last_ = TransientStepStats{};
    last_.step = stats_.steps;

    if (structural) {
      rebuild();
    } else if (dirty_values_) {
      WallTimer timer;
      refresh_setup_numerics(setup_, *a_, opt_.base, ws_);
      dirty_values_ = false;
      last_.refactorized = true;
      last_.refactorize_seconds = timer.seconds();
      stats_.refactorize_steps += 1;
    }

    const auto n = static_cast<std::size_t>(a_->rows);
    const bool warm = opt_.warm_start && x_.size() == n;

    WallTimer timer;
    // The guess is formed in the ring slot the next difference overwrites;
    // r and A v_j borrow pcg()'s scratch, which pcg() reassigns anyway.
    std::vector<T>& slot = history_[next_slot_];
    std::span<const T> x0;  // empty = cold start
    if (warm) {
      std::array<std::span<const T>, kWarmStartHistory> dirs;
      for (std::size_t j = 0; j < history_size_; ++j)
        dirs[j] = history_[(next_slot_ + kWarmStartHistory - 1 - j) %
                           kWarmStartHistory];
      last_.warm_basis = project_warm_start(
          *a_, b, std::span<const T>(x_),
          std::span<const std::span<const T>>(dirs.data(), history_size_),
          std::span<T>(slot), pcg_ws_.r, pcg_ws_.w);
      x0 = last_.warm_basis > 1 ? std::span<const T>(slot)
                                : std::span<const T>(x_);
    }

    double r0_norm = 0.0;
    if (opt_.policy.mode == StepMode::kAdaptive) {
      // ||b - A x0|| for the adaptive target; plain ||b|| on a cold start.
      if (warm) {
        pcg_ws_.ax.assign(n, T{0});
        spmv(*a_, x0, std::span<T>(pcg_ws_.ax));
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double d = static_cast<double>(b[i]) -
                           static_cast<double>(pcg_ws_.ax[i]);
          acc += d * d;
        }
        r0_norm = std::sqrt(acc);
      } else {
        r0_norm = static_cast<double>(norm2(b));
      }
    }
    const PcgOptions popt = step_solve_options(opt_.policy, r0_norm);

    // Donor double-buffer: the retired solution (spare_) becomes pcg()'s
    // result buffer; afterwards the previous solution retires into spare_.
    // Net effect: no vector is ever reallocated across steady steps.
    pcg_ws_.x = std::move(spare_);
    SolveResult<T> r = pcg(*a_, b, *applier_, popt, x0, &pcg_ws_);
    if (warm) {
      // pcg() copied the guess; the slot now takes x_t - x_{t-1}.
      for (std::size_t i = 0; i < n; ++i) slot[i] = r.x[i] - x_[i];
      next_slot_ = (next_slot_ + 1) % kWarmStartHistory;
      history_size_ = std::min(history_size_ + 1, kWarmStartHistory);
    }
    spare_ = std::move(x_);
    x_ = std::move(r.x);
    // On the structural step the retiring x_ was empty (no previous
    // solution), which would leave the *next* step's donor without capacity;
    // size it here, while allocation is still permitted.
    if (spare_.size() != n) spare_.assign(n, T{0});
    last_.solve_seconds = timer.seconds();

    last_.iterations = r.iterations;
    last_.status = r.status;
    last_.final_residual_norm = r.final_residual_norm;
    last_.target_tolerance =
        popt.relative ? popt.tolerance * static_cast<double>(norm2(b))
                      : popt.tolerance;

    stats_.steps += 1;
    stats_.total_iterations += r.iterations;
    if (warm) stats_.warm_steps += 1;
    if (last_.warm_basis > 1) stats_.projected_steps += 1;
    stats_.refactorize_seconds += last_.refactorize_seconds;
    stats_.solve_seconds += last_.solve_seconds;
    span.arg("iterations", r.iterations);
    span.arg("refactorized", last_.refactorized);
    span.arg("warm_basis", last_.warm_basis);
    return last_;
  }

  const TransientStepStats& step(const std::vector<T>& b) {
    return step(std::span<const T>(b));
  }

  /// The most recent step's solution (empty before the first step).
  [[nodiscard]] const std::vector<T>& solution() const { return x_; }
  [[nodiscard]] const TransientStepStats& last_step() const { return last_; }
  [[nodiscard]] const TransientStats& stats() const { return stats_; }

  /// The live setup (built on first step; SPCG_CHECKs before that). Numeric
  /// artifacts reflect the current matrix; a SparsifyDecision's indicator/
  /// outcome fields are provenance of the original decision, not re-derived
  /// per refresh.
  [[nodiscard]] const SpcgSetup<T>& setup() const {
    SPCG_CHECK_MSG(ready_, "TransientSession::setup() before first step");
    return setup_;
  }

 private:
  /// Full (re)build: a cold setup, then everything the steady loop needs.
  void rebuild() {
    WallTimer timer;
    Span span("transient.rebuild", "transient");
    setup_ = spcg_setup(*a_, opt_.base);
    ws_ = build_numeric_refresh(setup_, *a_);
    applier_.emplace(setup_.factors, setup_.l_schedule, setup_.u_schedule,
                     opt_.base.executor);
    // Pre-size the donor so even the structural step's pcg() gets a warm
    // result buffer (steady steps re-guarantee this in step()), and the
    // history ring, which starts empty: a rebuild may change the layout.
    const auto n = static_cast<std::size_t>(a_->rows);
    spare_.assign(n, T{0});
    if (opt_.warm_start)
      for (std::vector<T>& slot : history_) slot.resize(n);
    history_size_ = 0;
    next_slot_ = 0;
    ready_ = true;
    dirty_pattern_ = false;
    dirty_values_ = false;
    last_.symbolic_rebuild = true;
    last_.refactorize_seconds = timer.seconds();
    stats_.symbolic_rebuilds += 1;
  }

  std::shared_ptr<const Csr<T>> a_;
  TransientOptions opt_;
  MatrixFingerprint fp_;

  SpcgSetup<T> setup_;            // private mutable clone
  NumericRefreshWorkspace ws_;
  std::optional<IluApplier<T>> applier_;  // points into setup_; rebuilt on
                                          // symbolic rebuild only
  PcgWorkspace<T> pcg_ws_;
  std::vector<T> x_;      // previous step's solution (warm-start source)
  std::vector<T> spare_;  // donor buffer for the next result
  /// Ring of solution differences x_{t-j} - x_{t-j-1}: the newest sits just
  /// before next_slot_, the oldest (when full) at next_slot_.
  std::array<std::vector<T>, kWarmStartHistory> history_;
  std::size_t history_size_ = 0;
  std::size_t next_slot_ = 0;

  bool ready_ = false;
  bool dirty_values_ = false;
  bool dirty_pattern_ = false;
  TransientStepStats last_;
  TransientStats stats_;
};

}  // namespace spcg
