// Pipelined preconditioned conjugate gradient (Ghysels & Vanroose), in the
// merged-reduction form of the communication-reduced variants of
// arXiv 2501.03743.
//
// Algebraically equivalent to classic PCG but restructured so every scalar
// an iteration needs comes out of ONE fused reduction at the bottom of the
// previous iteration: {gamma = (r, z), ||r||^2, delta = (w, z)}, where w and
// z already hold the values the next iteration's top reads. The
// preconditioner apply mw = M^{-1} w runs while that reduction is in flight.
// Over the rank policy (dist/dist_pcg.h) that is one all-reduce per
// iteration instead of two; numerically the extra recurrences admit slightly
// more rounding drift, which is why the classic three-term version remains
// the default solver. The apply at the bottom of the last iteration goes
// unused, so a solve of k iterations applies the preconditioner k + 2 times.
//
// Recurrences (left preconditioning, M z = r):
//   beta = gamma / gamma_old;  denom = delta - beta * gamma / alpha = (p, Ap)
//   alpha = gamma / denom
//   p <- z + beta p;  s <- w + beta s;  q <- mw + beta q
//   x <- x + alpha p; r <- r - alpha s; z <- z - alpha q;  w = A z
//
// detail::pipelined_cg is the one body, over the communication policy of
// solver/pcg.h; pipelined_pcg() is its serial instantiation.
#pragma once

#include <array>

#include "precond/preconditioner.h"
#include "solver/pcg.h"

namespace spcg {
namespace detail {

/// The pipelined recurrence over policy `ops`. Failure semantics match
/// classic_cg: the denominator is the curvature (p, Ap), so a non-positive
/// or NaN one is a breakdown, and so is a zero or NaN rho.
template <class T, class Ops>
SolveResult<T> pipelined_cg(Ops& ops, std::span<const T> b,
                            const Preconditioner<T>& m, const PcgOptions& opt,
                            std::span<const T> x0, PcgWorkspace<T>& wk) {
  constexpr const char* cat = Ops::kCategory;
  Span pcg_span("pipelined_pcg", cat);
  pcg_span.arg("rows", static_cast<std::int64_t>(b.size()));
  pcg_span.arg("nnz", static_cast<std::int64_t>(ops.nnz()));

  SolveResult<T> res;
  start_cg(ops, b, x0, wk, res);
  const bool trace_iters = opt.trace_every > 0 && global_trace().enabled();
  const std::size_t n = b.size();
  wk.z.assign(n, T{0});
  wk.p.assign(n, T{0});
  wk.s.assign(n, T{0});
  wk.q.assign(n, T{0});
  wk.mw.assign(n, T{0});
  // mw = M^{-1} w, run while the iteration's reduction is in flight.
  const auto apply_w = [&] {
    Span span("precond", cat);
    m.apply(std::span<const T>(wk.w), std::span<T>(wk.mw));
  };

  // Fused startup reduction {||b||^2, (r, z), ||r||^2, (w, z)}.
  std::array<double, 4> red{};
  {
    const TraceSampleScope sample(trace_iters);
    {
      Span span("precond", cat);
      m.apply(std::span<const T>(wk.r), std::span<T>(wk.z));
    }
    {
      Span span("spmv", cat);
      red[3] = static_cast<double>(
          ops.matvec_dot(std::span<const T>(wk.z), std::span<T>(wk.w)));
    }
    red[0] = static_cast<double>(sumsq(b));
    red[1] = static_cast<double>(
        dot(std::span<const T>(wk.r), std::span<const T>(wk.z)));
    red[2] = static_cast<double>(sumsq(std::span<const T>(wk.r)));
    ops.reduce_around(std::span<double>(red), apply_w);
  }
  const double b_norm = norm_from_sumsq<T>(red[0]);
  if (b_norm == 0.0) {
    answer_zero_rhs(opt, res, pcg_span);
    return res;
  }
  const double target =
      opt.relative ? opt.tolerance * b_norm : opt.tolerance;  // b_norm > 0
  T gamma = static_cast<T>(red[1]);
  double r_norm = norm_from_sumsq<T>(red[2]);
  T delta = static_cast<T>(red[3]);
  T alpha{0}, gamma_old{0};
  if (opt.record_history) res.residual_history.push_back(r_norm);

  std::int32_t k = 0;
  for (; k < opt.max_iterations; ++k) {
    if (r_norm < target) {
      res.status = SolveStatus::kConverged;
      break;
    }
    // Allocation probe and trace sampling as in classic_cg.
    const analysis::AllocAuditScope alloc_scope("pcg.iteration",
                                                /*steady_state=*/k > 0);
    const TraceSampleScope sample(trace_iters &&
                                  k % opt.trace_every == 0);
    Span iter_span("iteration", cat);
    iter_span.arg("k", k);
    T beta{0};
    T denom = delta;
    if (k > 0) {
      beta = gamma / gamma_old;
      denom = delta - beta * gamma / alpha;
    }
    if (!(denom > T{0})) {  // SPD curvature must be positive; catches NaN too
      res.status = SolveStatus::kBreakdown;
      break;
    }
    alpha = gamma / denom;
    {
      Span span("axpy", cat);
      xpby(std::span<const T>(wk.z), beta, std::span<T>(wk.p));
      xpby(std::span<const T>(wk.w), beta, std::span<T>(wk.s));
      xpby(std::span<const T>(wk.mw), beta, std::span<T>(wk.q));
      axpy(alpha, std::span<const T>(wk.p), std::span<T>(res.x));
      axpy(-alpha, std::span<const T>(wk.s), std::span<T>(wk.r));
      axpy(-alpha, std::span<const T>(wk.q), std::span<T>(wk.z));
    }
    // The iteration's single reduction: this iteration's {gamma, ||r||^2}
    // plus the next iteration's delta = (z, Az), taken in the matvec.
    {
      Span span("spmv", cat);
      red[2] = static_cast<double>(
          ops.matvec_dot(std::span<const T>(wk.z), std::span<T>(wk.w)));
    }
    {
      Span span("reduce", cat);
      red[0] = static_cast<double>(
          dot(std::span<const T>(wk.r), std::span<const T>(wk.z)));
      red[1] = static_cast<double>(sumsq(std::span<const T>(wk.r)));
    }
    ops.reduce_around(std::span<double>(red.data(), 3), apply_w);
    gamma_old = gamma;
    gamma = static_cast<T>(red[0]);
    if (gamma_old == T{0} || gamma != gamma) {  // NaN guard
      res.status = SolveStatus::kBreakdown;
      ++k;
      break;
    }
    delta = static_cast<T>(red[2]);
    r_norm = norm_from_sumsq<T>(red[1]);
    if (opt.record_history) res.residual_history.push_back(r_norm);
  }
  finish_cg(ops, b, k, r_norm < target, wk, res, pcg_span);
  return res;
}

}  // namespace detail

/// Pipelined PCG. Same options, result and workspace types as pcg(). `x0`
/// is an optional initial guess: empty = start from zero (r0 is taken from
/// b without an SpMV). `ws`: optional caller-owned scratch; null = private
/// scratch allocated per call.
template <class T>
SolveResult<T> pipelined_pcg(const Csr<T>& a, std::span<const T> b,
                             const Preconditioner<T>& m,
                             const PcgOptions& opt = {},
                             std::span<const T> x0 = {},
                             PcgWorkspace<T>* ws = nullptr) {
  SPCG_CHECK(a.rows == a.cols);
  SPCG_CHECK(static_cast<index_t>(b.size()) == a.rows);
  SPCG_CHECK(m.rows() == a.rows);
  if (!x0.empty()) SPCG_CHECK(static_cast<index_t>(x0.size()) == a.rows);
  PcgWorkspace<T> local;
  LocalOps<T> ops{a};
  return detail::pipelined_cg(ops, b, m, opt, x0, ws != nullptr ? *ws : local);
}

template <class T>
SolveResult<T> pipelined_pcg(const Csr<T>& a, const std::vector<T>& b,
                             const Preconditioner<T>& m,
                             const PcgOptions& opt = {}) {
  return pipelined_pcg(a, std::span<const T>(b), m, opt);
}

}  // namespace spcg
