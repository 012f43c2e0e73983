// Conjugate gradient solvers.
//
// pcg() is the left-preconditioned CG of the paper's Algorithm 1, with the
// same control flow: residual check at the top of the loop, preconditioner
// application once per iteration, and a maximum-iteration cap. cg() is the
// unpreconditioned special case.
//
// The recurrence is written once, as detail::classic_cg, against a small
// compile-time communication policy `Ops`:
//   * ops.matvec(x, y)          y = A x over the rows this caller owns;
//   * ops.matvec_dot(x, y)      the same, returning this caller's partial of
//                               (x, y) taken in the matvec's row loop;
//   * ops.reduce(v)             sum the partials in v over every owner;
//   * ops.reduce_around(v, f)   the same reduction, with f() run while it
//                               is in flight;
//   * ops.nnz(), Ops::kCategory the span annotation and category.
// LocalOps below is the serial policy (spmv, no-op reductions, "solve"
// spans) and pcg() is its instantiation; dist/dist_pcg.h supplies the rank
// policy, so the distributed classic body is this same loop. Partial sums
// are taken in T and carried through the reduction as double, which is
// exact both ways, so the serial policy adds no arithmetic, no allocation
// and no virtual call. solver/pipelined_cg.h holds the pipelined recurrence
// in the same form.
//
// Two extensions serve the transient-solve subsystem (src/transient/):
//   * an optional initial guess x0 (warm start). When omitted the solver is
//     bitwise identical to the historical x0 = 0 behavior — the residual is
//     initialized directly from b with no SpMV.
//   * an optional caller-owned PcgWorkspace. Repeated solves through one
//     workspace reuse every scratch vector's capacity, so a steady-state
//     solve performs zero heap allocations (the contract bench/transient and
//     SPCG_ALLOC_AUDIT enforce).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/alloc_audit.h"
#include "precond/preconditioner.h"
#include "sparse/csr.h"
#include "sparse/norms.h"
#include "sparse/ops.h"
#include "support/trace.h"

namespace spcg {

/// Solver configuration (paper defaults: tol 1e-12, 1000 iterations).
struct PcgOptions {
  double tolerance = 1e-12;   // convergence when ||r|| < tolerance
  bool relative = false;      // if set, compare against tolerance * ||b||
  std::int32_t max_iterations = 1000;
  bool record_history = false;  // keep ||r|| per iteration
  /// Per-iteration trace sampling: when the global trace recorder is
  /// enabled and trace_every > 0, every trace_every-th iteration emits
  /// "iteration"/"spmv"/"precond"/"reduce" spans (and the SpTRSV sweep
  /// spans nested under the preconditioner apply). 0 = per-iteration spans
  /// off; the enclosing "pcg" span is always emitted while tracing. Does
  /// not affect the setup cache key (solve-phase option).
  std::int32_t trace_every = 0;
};

enum class SolveStatus {
  kConverged,
  kMaxIterations,
  kBreakdown,  // non-positive or NaN curvature, or a zero or NaN rho
};

/// Result of a CG/PCG run.
template <class T>
struct SolveResult {
  std::vector<T> x;
  SolveStatus status = SolveStatus::kMaxIterations;
  std::int32_t iterations = 0;        // iterations actually performed
  double final_residual_norm = 0.0;   // ||b - A x||_2 at exit (recomputed)
  std::vector<double> residual_history;  // when record_history

  [[nodiscard]] bool converged() const {
    return status == SolveStatus::kConverged;
  }
};

/// Caller-owned scratch for pcg() and pipelined_pcg(). A default-constructed
/// workspace is valid; the first solve through it sizes every vector and
/// subsequent solves of the same dimension reuse the capacity (no heap
/// traffic). The `x` member is a donor buffer for the result: the solver
/// moves it into SolveResult::x, so it is empty after the call — move a
/// retired solution buffer back in before the next solve to keep the round
/// trip allocation-free (see TransientSession for the canonical
/// double-buffer pattern).
template <class T>
struct PcgWorkspace {
  std::vector<T> r, z, p, w, ax;
  std::vector<T> s, q, mw;  // the pipelined recurrence's extra vectors
  std::vector<T> x;  // donor buffer, consumed by each solve
};

/// Serial communication policy: the caller owns every row, so the matvec is
/// spmv and the reductions have nothing to add.
template <class T>
struct LocalOps {
  static constexpr const char* kCategory = "solve";
  const Csr<T>& a;

  [[nodiscard]] index_t nnz() const { return a.nnz(); }
  void matvec(std::span<const T> x, std::span<T> y) const { spmv(a, x, y); }
  T matvec_dot(std::span<const T> x, std::span<T> y) const {
    return spmv_dot(a, x, y);
  }
  void reduce(std::span<double> /*partials*/) const {}
  template <class Work>
  void reduce_around(std::span<double> /*partials*/, Work&& work) const {
    work();
  }
};

namespace detail {

/// Finish a reduced sum of squares the way norm2() finishes its own: back
/// to T, sqrt in T, reported as double.
template <class T>
double norm_from_sumsq(double reduced) {
  return static_cast<double>(std::sqrt(static_cast<T>(reduced)));
}

/// Preamble of both bodies: the result takes the workspace's donor buffer
/// and holds x0 (or 0); r = b - A x0, computed against the solver's own copy
/// of the guess so callers may pass a span into a buffer they are about to
/// recycle. Without a guess r0 = b and no matvec runs.
template <class T, class Ops>
void start_cg(Ops& ops, std::span<const T> b, std::span<const T> x0,
              PcgWorkspace<T>& wk, SolveResult<T>& res) {
  const std::size_t n = b.size();
  res.x = std::move(wk.x);
  if (x0.empty()) {
    res.x.assign(n, T{0});
  } else {
    res.x.assign(x0.begin(), x0.end());
  }
  wk.r.assign(b.begin(), b.end());
  wk.w.assign(n, T{0});
  if (!x0.empty()) {
    ops.matvec(std::span<const T>(res.x), std::span<T>(wk.w));
    for (std::size_t i = 0; i < n; ++i) wk.r[i] -= wk.w[i];
  }
}

/// b = 0 has the exact solution x = 0. Under relative tolerance the
/// threshold tolerance*||b|| would be 0 and ||r|| < 0 can never hold, so
/// the solver could only exit at max_iterations; answer directly instead
/// (an initial guess is discarded — the exact answer is known).
template <class T>
void answer_zero_rhs(const PcgOptions& opt, SolveResult<T>& res,
                     Span& solve_span) {
  std::fill(res.x.begin(), res.x.end(), T{0});
  res.status = SolveStatus::kConverged;
  if (opt.record_history) res.residual_history.push_back(0.0);
  solve_span.arg("iterations", std::int64_t{0});
}

/// Tail of both bodies: a loop that ran out of iterations below the target
/// still counts as converged, and the true residual ||b - A x|| is
/// recomputed in double (the recurrence can drift).
template <class T, class Ops>
void finish_cg(Ops& ops, std::span<const T> b, std::int32_t k,
               bool below_target, PcgWorkspace<T>& wk, SolveResult<T>& res,
               Span& solve_span) {
  if (res.status == SolveStatus::kMaxIterations && below_target)
    res.status = SolveStatus::kConverged;
  res.iterations = k;
  solve_span.arg("iterations", k);
  solve_span.arg("converged", res.converged());
  wk.ax.assign(b.size(), T{0});
  ops.matvec(std::span<const T>(res.x), std::span<T>(wk.ax));
  std::array<double, 1> red{0.0};
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double d = static_cast<double>(b[i]) - static_cast<double>(wk.ax[i]);
    red[0] += d * d;
  }
  ops.reduce(std::span<double>(red));
  res.final_residual_norm = std::sqrt(red[0]);
}

/// The classic PCG recurrence over policy `ops`: two reductions per
/// iteration, the curvature (p, Ap), then {(r, z), ||r||^2} fused. Each
/// partial is folded into a pass that already streams its vectors: (p, Ap)
/// into the matvec, the x and r updates and ||r||^2 into the
/// preconditioner's update_and_apply (under the serial ILU, its forward
/// sweep). Only (r, z) and the p update, which need the finished z, run as
/// passes of their own.
template <class T, class Ops>
SolveResult<T> classic_cg(Ops& ops, std::span<const T> b,
                          const Preconditioner<T>& m, const PcgOptions& opt,
                          std::span<const T> x0, PcgWorkspace<T>& wk) {
  constexpr const char* cat = Ops::kCategory;
  Span pcg_span("pcg", cat);
  pcg_span.arg("rows", static_cast<std::int64_t>(b.size()));
  pcg_span.arg("nnz", static_cast<std::int64_t>(ops.nnz()));

  SolveResult<T> res;
  start_cg(ops, b, x0, wk, res);
  std::array<double, 2> red{static_cast<double>(sumsq(b))};
  ops.reduce(std::span<double>(red.data(), 1));
  const double b_norm = norm_from_sumsq<T>(red[0]);
  if (b_norm == 0.0) {
    answer_zero_rhs(opt, res, pcg_span);
    return res;
  }

  const bool trace_iters = opt.trace_every > 0 && global_trace().enabled();
  wk.z.assign(b.size(), T{0});
  wk.p.assign(b.size(), T{0});
  {
    const TraceSampleScope sample(trace_iters);
    Span span("precond", cat);
    m.apply(std::span<const T>(wk.r), std::span<T>(wk.z));
  }
  wk.p.assign(wk.z.begin(), wk.z.end());

  red = {static_cast<double>(
             dot(std::span<const T>(wk.r), std::span<const T>(wk.z))),
         static_cast<double>(sumsq(std::span<const T>(wk.r)))};
  ops.reduce(std::span<double>(red));
  T rz = static_cast<T>(red[0]);
  double r_norm = norm_from_sumsq<T>(red[1]);
  const double target =
      opt.relative ? opt.tolerance * b_norm : opt.tolerance;  // b_norm > 0
  if (opt.record_history) res.residual_history.push_back(r_norm);

  std::int32_t k = 0;
  for (; k < opt.max_iterations; ++k) {
    if (r_norm < target) {
      res.status = SolveStatus::kConverged;
      break;
    }
    // Allocation probe: after the warmup iteration (k = 0), an iteration
    // must not touch the heap — the zero-allocation contract of ROADMAP
    // Open item 4. Tracing and history recording allocate by design, so
    // the steady-state claim only holds with both off; the auditor
    // attributes those allocations to this phase either way.
    const analysis::AllocAuditScope alloc_scope("pcg.iteration",
                                                /*steady_state=*/k > 0);
    // Per-iteration phase spans, sampled every trace_every-th iteration;
    // unsampled iterations suppress these and any nested spans (the SpTRSV
    // sweeps inside the preconditioner) on this thread.
    const TraceSampleScope sample(trace_iters &&
                                  k % opt.trace_every == 0);
    Span iter_span("iteration", cat);
    iter_span.arg("k", k);
    {
      Span span("spmv", cat);
      red[0] = static_cast<double>(
          ops.matvec_dot(std::span<const T>(wk.p), std::span<T>(wk.w)));
    }
    {
      Span span("reduce", cat);
      ops.reduce(std::span<double>(red.data(), 1));
    }
    const T pw = static_cast<T>(red[0]);
    if (!(pw > T{0})) {  // SPD curvature must be positive; catches NaN too
      res.status = SolveStatus::kBreakdown;
      break;
    }
    const T alpha = rz / pw;
    Span precond_span("precond", cat);
    const T rr = m.update_and_apply(
        alpha, std::span<const T>(wk.p), std::span<const T>(wk.w),
        std::span<T>(res.x), std::span<T>(wk.r), std::span<T>(wk.z));
    precond_span.finish();
    {
      Span span("reduce", cat);
      red = {static_cast<double>(
                 dot(std::span<const T>(wk.r), std::span<const T>(wk.z))),
             static_cast<double>(rr)};
      ops.reduce(std::span<double>(red));
    }
    const T rz_next = static_cast<T>(red[0]);
    if (rz == T{0} || rz_next != rz_next) {  // NaN guard
      res.status = SolveStatus::kBreakdown;
      ++k;
      break;
    }
    const T beta = rz_next / rz;
    rz = rz_next;
    {
      Span span("axpy", cat);
      xpby(std::span<const T>(wk.z), beta, std::span<T>(wk.p));
    }
    r_norm = norm_from_sumsq<T>(red[1]);
    if (opt.record_history) res.residual_history.push_back(r_norm);
  }
  finish_cg(ops, b, k, r_norm < target, wk, res, pcg_span);
  return res;
}

}  // namespace detail

/// Left-preconditioned conjugate gradient (Algorithm 1 of the paper).
///
/// `x0`: optional initial guess; empty = start from zero (bitwise identical
/// to the historical behavior — r0 is taken from b without an SpMV). When
/// provided, x0.size() must equal a.rows and must not alias the workspace.
/// `ws`: optional caller-owned scratch (see PcgWorkspace); null = private
/// scratch allocated per call.
template <class T>
SolveResult<T> pcg(const Csr<T>& a, std::span<const T> b,
                   const Preconditioner<T>& m, const PcgOptions& opt = {},
                   std::span<const T> x0 = {}, PcgWorkspace<T>* ws = nullptr) {
  SPCG_CHECK(a.rows == a.cols);
  SPCG_CHECK(static_cast<index_t>(b.size()) == a.rows);
  SPCG_CHECK(m.rows() == a.rows);
  if (!x0.empty()) SPCG_CHECK(static_cast<index_t>(x0.size()) == a.rows);
  PcgWorkspace<T> local;
  LocalOps<T> ops{a};
  return detail::classic_cg(ops, b, m, opt, x0, ws != nullptr ? *ws : local);
}

/// Unpreconditioned CG.
template <class T>
SolveResult<T> cg(const Csr<T>& a, std::span<const T> b,
                  const PcgOptions& opt = {}) {
  IdentityPreconditioner<T> identity(a.rows);
  return pcg(a, b, identity, opt);
}

/// Vector-argument conveniences (span<const T> cannot be deduced from
/// std::vector<T> in template argument deduction).
template <class T>
SolveResult<T> pcg(const Csr<T>& a, const std::vector<T>& b,
                   const Preconditioner<T>& m, const PcgOptions& opt = {}) {
  return pcg(a, std::span<const T>(b), m, opt);
}

template <class T>
SolveResult<T> cg(const Csr<T>& a, const std::vector<T>& b,
                  const PcgOptions& opt = {}) {
  return cg(a, std::span<const T>(b), opt);
}

}  // namespace spcg
