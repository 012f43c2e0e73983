// Preconditioner application interface used by the PCG solver (Algorithm 1,
// line 13: z = M^{-1} r).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "analysis/race_detector.h"
#include "precond/ilu.h"
#include "sparse/csr.h"
#include "sparse/norms.h"
#include "sparse/ops.h"
#include "sptrsv/sptrsv.h"
#include "support/trace.h"
#include "wavefront/levels.h"

namespace spcg {

/// Abstract preconditioner: solves M z = r.
template <class T>
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  virtual void apply(std::span<const T> r, std::span<T> z) const = 0;

  /// The middle of a classic CG iteration (Algorithm 1, up to line 13):
  /// x += alpha p, r -= alpha w, z = M^{-1} r; returns ||r||^2 of the
  /// updated r. p, w, x, r and z must be distinct. This body is the unfused
  /// sequence axpy, axpy, apply, sumsq; an override may fuse the passes but
  /// must keep every bit of x, r, z and the result.
  virtual T update_and_apply(T alpha, std::span<const T> p,
                             std::span<const T> w, std::span<T> x,
                             std::span<T> r, std::span<T> z) const {
    axpy(alpha, p, x);
    axpy(-alpha, w, r);
    apply(std::span<const T>(r), z);
    return sumsq(std::span<const T>(r));
  }

  /// Rows of the system this preconditioner was built for.
  [[nodiscard]] virtual index_t rows() const = 0;
};

/// M = I (plain CG).
template <class T>
class IdentityPreconditioner final : public Preconditioner<T> {
 public:
  explicit IdentityPreconditioner(index_t n) : n_(n) {}
  void apply(std::span<const T> r, std::span<T> z) const override {
    SPCG_CHECK(static_cast<index_t>(r.size()) == n_);
    std::copy(r.begin(), r.end(), z.begin());
  }
  [[nodiscard]] index_t rows() const override { return n_; }

 private:
  index_t n_;
};

/// M = diag(A) (Jacobi).
template <class T>
class JacobiPreconditioner final : public Preconditioner<T> {
 public:
  explicit JacobiPreconditioner(const Csr<T>& a) : inv_diag_(diagonal(a)) {
    for (T& d : inv_diag_) {
      SPCG_CHECK_MSG(d != T{0}, "Jacobi preconditioner needs nonzero diagonal");
      d = T{1} / d;
    }
  }
  void apply(std::span<const T> r, std::span<T> z) const override {
    SPCG_CHECK(r.size() == inv_diag_.size());
    for (std::size_t i = 0; i < r.size(); ++i) z[i] = r[i] * inv_diag_[i];
  }
  [[nodiscard]] index_t rows() const override {
    return static_cast<index_t>(inv_diag_.size());
  }

 private:
  std::vector<T> inv_diag_;
};

/// Execution strategy for the two triangular solves of an ILU apply.
enum class TrsvExec {
  kSerial,          // reference forward/backward substitution
  kLevelScheduled,  // wavefront-parallel (fork_join team), cuSPARSE-style
  /// Instrumented race-detecting executor (analysis/race_detector.h): same
  /// results as kLevelScheduled on a valid schedule, throws spcg::Error on
  /// any same-level dependence or stale read. Debug/test tool: every SpTRSV
  /// path can run under the detector by switching this enum.
  kLevelScheduledChecked,
};

namespace detail {

/// The two triangular solves of one ILU apply under the chosen executor:
/// L solves r into z, then U solves z in place (every executor allows x to
/// alias b). Shared by IluPreconditioner (owning) and IluApplier
/// (non-owning view); no work buffers, so both are stateless. The factor
/// values are of type F and the vectors and arithmetic of type T (sptrsv.h).
template <class T, class F>
void ilu_apply(const TriangularFactors<F>& f, const LevelSchedule& l_sched,
               const LevelSchedule& u_sched, TrsvExec exec,
               std::span<const T> r, std::span<T> z) {
  const std::span<const T> y(z.data(), z.size());
  if (exec == TrsvExec::kSerial) {
    {
      Span span("sptrsv_lower", "solve");
      sptrsv_lower_serial(f, r, z);
    }
    Span span("sptrsv_upper", "solve");
    sptrsv_upper_serial(f, y, z);
  } else if (exec == TrsvExec::kLevelScheduled) {
    {
      Span span("sptrsv_lower", "solve");
      sptrsv_lower_levels(f, l_sched, r, z);
    }
    Span span("sptrsv_upper", "solve");
    sptrsv_upper_levels(f, u_sched, y, z);
  } else {
    const analysis::RaceReport rl =
        analysis::sptrsv_lower_levels_checked(f, l_sched, r, z);
    const analysis::RaceReport ru =
        analysis::sptrsv_upper_levels_checked(f, u_sched, y, z);
    SPCG_CHECK_MSG(rl.ok() && ru.ok(),
                   "SpTRSV schedule race: "
                       << (rl.ok() ? ru : rl).to_diagnostics().to_string(4));
  }
}

/// Row i's right-hand side in the fused forward sweep below: the CG updates
/// x_i += alpha p_i and r_i += (-alpha) w_i, with axpy's arithmetic, then
/// r_i^2 added to rr in row order, as sumsq() adds it. Returns the new r_i.
template <class T>
struct CgUpdateRow {
  T alpha;
  std::span<const T> p, w;
  std::span<T> x, r;
  T rr{0};

  T operator()(index_t i) {
    const auto s = static_cast<std::size_t>(i);
    x[s] += alpha * p[s];
    const T ri = r[s] + -alpha * w[s];
    r[s] = ri;
    rr += ri * ri;
    return ri;
  }
};

/// Preconditioner::update_and_apply for ILU under TrsvExec::kSerial, in one
/// forward pass instead of four: row i updates x_i and r_i, adds r_i^2 to
/// ||r||^2 and solves L row i from the new r_i; U then solves z in place.
/// Every entry sees the operations of axpy, axpy, ilu_apply and sumsq in
/// their order, so the result is bitwise the unfused sequence's.
template <class T, class F>
T ilu_update_and_apply_serial(const TriangularFactors<F>& f, T alpha,
                              std::span<const T> p, std::span<const T> w,
                              std::span<T> x, std::span<T> r,
                              std::span<T> z) {
  check_trsv_shape(f.l, r.size(), z.size());
  SPCG_CHECK(p.size() == r.size() && w.size() == r.size() &&
             x.size() == r.size());
  Span lower_span("sptrsv_lower", "solve");
  const T rr =
      sptrsv_lower_sweep(f.l, CgUpdateRow<T>{alpha, p, w, x, r}, z).rr;
  lower_span.finish();
  Span span("sptrsv_upper", "solve");
  sptrsv_upper_serial(f, std::span<const T>(z.data(), z.size()), z);
  return rr;
}

}  // namespace detail

/// Non-owning ILU apply engine over factors and schedules that live
/// elsewhere (e.g. a cached, shared SolverSetup). It holds no scratch, so
/// one applier (like one IluPreconditioner) may serve any number of
/// concurrent solves over the same immutable factors. The referenced objects
/// must outlive the applier. F is the factor's value type (see
/// IluPreconditioner).
template <class T, class F = T>
class IluApplier final : public Preconditioner<T> {
 public:
  IluApplier(const TriangularFactors<F>& factors, const LevelSchedule& l_sched,
             const LevelSchedule& u_sched, TrsvExec exec = TrsvExec::kSerial)
      : exec_(exec), factors_(&factors), l_sched_(&l_sched),
        u_sched_(&u_sched) {}

  void apply(std::span<const T> r, std::span<T> z) const override {
    detail::ilu_apply(*factors_, *l_sched_, *u_sched_, exec_, r, z);
  }

  T update_and_apply(T alpha, std::span<const T> p, std::span<const T> w,
                     std::span<T> x, std::span<T> r,
                     std::span<T> z) const override {
    if (exec_ != TrsvExec::kSerial)
      return Preconditioner<T>::update_and_apply(alpha, p, w, x, r, z);
    return detail::ilu_update_and_apply_serial(*factors_, alpha, p, w, x, r,
                                               z);
  }

  [[nodiscard]] index_t rows() const override { return factors_->l.rows; }

 private:
  TrsvExec exec_;
  const TriangularFactors<F>* factors_;
  const LevelSchedule* l_sched_;
  const LevelSchedule* u_sched_;
};

/// M = L U from an incomplete factorization. Owns the factors and their
/// level schedules (built once at construction = the inspector phase);
/// apply() is stateless, so one instance may serve concurrent solves.
///
/// F is the factor's value type, T the vectors': the paper's §6.2
/// mixed-precision extension is IluPreconditioner<double, float>, built from
/// factors_cast<float>(f). Its sweeps read float L/U values (half the value
/// bytes) into double accumulation, so it solves with double vectors and
/// double arithmetic; only the factor's values are rounded.
template <class T, class F = T>
class IluPreconditioner final : public Preconditioner<T> {
 public:
  IluPreconditioner(TriangularFactors<F> factors,
                    TrsvExec exec = TrsvExec::kSerial)
      : exec_(exec), factors_(std::move(factors)),
        l_sched_(level_schedule(factors_.l, Triangle::kLower)),
        u_sched_(level_schedule(factors_.u, Triangle::kUpper)) {}

  /// Adopt factors whose schedules were already built (e.g. by spcg_setup),
  /// skipping the redundant inspector pass.
  IluPreconditioner(TriangularFactors<F> factors, LevelSchedule l_sched,
                    LevelSchedule u_sched, TrsvExec exec = TrsvExec::kSerial)
      : exec_(exec), factors_(std::move(factors)),
        l_sched_(std::move(l_sched)), u_sched_(std::move(u_sched)) {}

  void apply(std::span<const T> r, std::span<T> z) const override {
    detail::ilu_apply(factors_, l_sched_, u_sched_, exec_, r, z);
  }

  T update_and_apply(T alpha, std::span<const T> p, std::span<const T> w,
                     std::span<T> x, std::span<T> r,
                     std::span<T> z) const override {
    if (exec_ != TrsvExec::kSerial)
      return Preconditioner<T>::update_and_apply(alpha, p, w, x, r, z);
    return detail::ilu_update_and_apply_serial(factors_, alpha, p, w, x, r,
                                               z);
  }

  [[nodiscard]] index_t rows() const override { return factors_.l.rows; }
  [[nodiscard]] const TriangularFactors<F>& factors() const { return factors_; }
  [[nodiscard]] const LevelSchedule& lower_schedule() const { return l_sched_; }
  [[nodiscard]] const LevelSchedule& upper_schedule() const { return u_sched_; }

 private:
  TrsvExec exec_;
  TriangularFactors<F> factors_;
  LevelSchedule l_sched_;
  LevelSchedule u_sched_;
};

/// Incomplete Cholesky IC(0) for SPD matrices, derived from ILU(0): when A is
/// SPD and factorization does not break down, ILU(0) yields A ≈ L D L^T with
/// U = D L^T, so M = L U equals the IC(0) product. This wrapper checks the
/// positive-pivot requirement and reuses the ILU apply path.
template <class T>
std::unique_ptr<Preconditioner<T>> make_ic0(const Csr<T>& a,
                                            TrsvExec exec = TrsvExec::kSerial) {
  TriangularFactors<T> f = ilu0_factors(a);
  for (index_t i = 0; i < a.rows; ++i) {
    const T pivot = f.u.values[static_cast<std::size_t>(
        f.u.rowptr[static_cast<std::size_t>(i)])];
    SPCG_CHECK_MSG(pivot > T{0},
                   "IC(0) requires positive pivots; row " << i << " has "
                                                          << pivot);
  }
  return std::make_unique<IluPreconditioner<T>>(std::move(f), exec);
}

}  // namespace spcg
