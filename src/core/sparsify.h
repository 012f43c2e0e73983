// Wavefront-aware sparsification — the paper's primary contribution
// (Section 3.2, Algorithm 2).
//
// Given a symmetric matrix A, split A = Â + S by removing the
// smallest-magnitude off-diagonal entries (symmetric pairs together, the
// diagonal never). Candidate drop ratios t ∈ {10, 5, 1}% are tried in
// decreasing aggressiveness; a candidate is accepted when
//   (1) the convergence indicator ‖Â⁻¹‖·‖S‖ stays below the threshold τ
//       (Eq. 6, with the inexpensive condition-number proxy of §3.2.2), and
//   (2) the wavefront reduction (Eq. 7) reaches the threshold ω — or t is the
//       most conservative ratio.
// If no ratio passes the convergence check, the most aggressive ratio is
// returned anyway (Algorithm 2, line 6): with no safe level, the paper
// prioritizes per-iteration speedup.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "solver/lanczos.h"
#include "sparse/csr.h"
#include "sparse/norms.h"
#include "sparse/ops.h"
#include "wavefront/levels.h"

namespace spcg {

/// A = a_hat + s decomposition produced by one sparsification ratio.
template <class T>
struct SparsifySplit {
  Csr<T> a_hat;            // sparsified matrix Â
  Csr<T> s;                // residual matrix S (the dropped entries)
  double ratio_percent = 0.0;  // requested t
  index_t dropped = 0;     // entries actually removed (= nnz(S))
};

namespace detail {

/// Removal budget of ratio t: round(t/100 * nnz(A)).
inline index_t drop_target(index_t nnz, double t_percent) {
  SPCG_CHECK(t_percent >= 0.0 && t_percent < 100.0);
  return static_cast<index_t>(
      std::llround(t_percent / 100.0 * static_cast<double>(nnz)));
}

/// The drop order of A, shared by every ratio of one Algorithm 2 run.
///
/// Candidates are the strict-upper entries, ordered by (|v|, row, col); a
/// candidate stands for its symmetric pair (i,j)/(j,i), or for the entry
/// alone when the mirror is not stored, and costs that many removals. A
/// ratio drops the longest prefix of the order whose cost fits its target:
/// walking smallest-first and stopping at the first pair that does not fit.
/// Every cost is >= 1, so no prefix is longer than its target, and ordering
/// the `max_target` smallest candidates serves every ratio up to it.
class DropOrder {
 public:
  /// One O(nnz) candidate pass (rejecting non-finite values), one selection
  /// of the `max_target` smallest candidates and a sort of that prefix.
  template <class T>
  DropOrder(const Csr<T>& a, index_t max_target) : nnz_(a.nnz()), cost_{0} {
    SPCG_CHECK(a.rows == a.cols);
    struct Candidate {
      T magnitude;
      index_t row;
      index_t pos;  // CSR position: row-major with sorted columns, so
                    // ordering by it is ordering by (row, col)
    };
    std::vector<Candidate> candidates;
    candidates.reserve(a.values.size() / 2);
    for (index_t i = 0; i < a.rows; ++i) {
      for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
           p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
        const index_t j = a.colind[static_cast<std::size_t>(p)];
        const T v = a.values[static_cast<std::size_t>(p)];
        SPCG_CHECK_MSG(std::isfinite(v), "sparsify: non-finite value "
                                             << v << " at row " << i
                                             << ", column " << j);
        if (j > i) candidates.push_back({std::abs(v), i, p});
      }
    }
    const auto before = [](const Candidate& x, const Candidate& y) {
      if (x.magnitude != y.magnitude) return x.magnitude < y.magnitude;
      return x.pos < y.pos;
    };
    const auto head =
        candidates.begin() +
        std::min<std::ptrdiff_t>(max_target, std::ssize(candidates));
    std::nth_element(candidates.begin(), head, candidates.end(), before);
    std::sort(candidates.begin(), head, before);

    const auto len = static_cast<std::size_t>(head - candidates.begin());
    order_.reserve(len);
    cost_.reserve(len + 1);
    for (auto c = candidates.begin(); c != head; ++c) {
      const index_t mirror =
          a.find(a.colind[static_cast<std::size_t>(c->pos)], c->row);
      order_.push_back({c->pos, mirror});
      cost_.push_back(cost_.back() + (mirror >= 0 ? 2 : 1));
    }
  }

  /// Number of candidates ratio t drops (its prefix length).
  [[nodiscard]] index_t prefix(double t_percent) const {
    const index_t target = drop_target(nnz_, t_percent);
    return static_cast<index_t>(
        std::upper_bound(cost_.begin(), cost_.end(), target) - cost_.begin() -
        1);
  }

  /// Entries removed by the first m candidates (= nnz(S)).
  [[nodiscard]] index_t dropped(index_t m) const {
    return cost_[static_cast<std::size_t>(m)];
  }

  /// Per stored entry of A: 1 where the first m candidates drop it.
  [[nodiscard]] std::vector<char> mask(index_t m) const {
    std::vector<char> drop(static_cast<std::size_t>(nnz_), 0);
    for (std::size_t c = 0; c < static_cast<std::size_t>(m); ++c) {
      drop[static_cast<std::size_t>(order_[c].pos)] = 1;
      if (order_[c].mirror >= 0)
        drop[static_cast<std::size_t>(order_[c].mirror)] = 1;
    }
    return drop;
  }

 private:
  struct Dropped {
    index_t pos;     // A's strict-upper entry
    index_t mirror;  // its (j,i) mirror, or -1 when not stored
  };

  index_t nnz_;                 // nnz(A)
  std::vector<Dropped> order_;  // the ordered candidate prefix
  std::vector<index_t> cost_;   // cost_[m] = removals of the first m
};

/// ‖Â‖∞ and ‖S‖∞ of the split of A by `drop`, each row summed in column
/// order exactly as norm_inf() sums the materialized factors.
template <class T>
std::pair<T, T> masked_norms_inf(const Csr<T>& a,
                                 const std::vector<char>& drop) {
  T a_best{0}, s_best{0};
  for (index_t i = 0; i < a.rows; ++i) {
    T a_row{0}, s_row{0};
    for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
         p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p)
      (drop[static_cast<std::size_t>(p)] ? s_row : a_row) +=
          std::abs(a.values[static_cast<std::size_t>(p)]);
    a_best = std::max(a_best, a_row);
    s_best = std::max(s_best, s_row);
  }
  return {a_best, s_best};
}

/// Materialize the split of A by `drop` (`dropped` entries flagged), each
/// factor allocated at its exact size.
template <class T>
SparsifySplit<T> split_by_mask(const Csr<T>& a, const std::vector<char>& drop,
                               index_t dropped, double t_percent) {
  SparsifySplit<T> out;
  out.ratio_percent = t_percent;
  out.dropped = dropped;
  out.a_hat = Csr<T>(a.rows, a.cols);
  out.s = Csr<T>(a.rows, a.cols);
  const auto kept = static_cast<std::size_t>(a.nnz() - dropped);
  out.a_hat.colind.resize(kept);
  out.a_hat.values.resize(kept);
  out.s.colind.resize(static_cast<std::size_t>(dropped));
  out.s.values.resize(static_cast<std::size_t>(dropped));
  std::size_t qa = 0, qs = 0;
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
         p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      const bool dropped_p = drop[static_cast<std::size_t>(p)] != 0;
      Csr<T>& dst = dropped_p ? out.s : out.a_hat;
      std::size_t& q = dropped_p ? qs : qa;
      dst.colind[q] = a.colind[static_cast<std::size_t>(p)];
      dst.values[q] = a.values[static_cast<std::size_t>(p)];
      ++q;
    }
    out.a_hat.rowptr[static_cast<std::size_t>(i) + 1] =
        static_cast<index_t>(qa);
    out.s.rowptr[static_cast<std::size_t>(i) + 1] = static_cast<index_t>(qs);
  }
  return out;
}

}  // namespace detail

/// Magnitude-based symmetric sparsification at ratio `t_percent`:
/// removes the smallest-|value| off-diagonal entries, in symmetric pairs,
/// without exceeding round(t/100 * nnz(A)) removals. Diagonal entries are
/// always preserved (§3.2.2). Ties break deterministically by (|v|, i, j).
/// Throws spcg::Error on a non-finite stored value.
template <class T>
SparsifySplit<T> sparsify_by_ratio(const Csr<T>& a, double t_percent) {
  const detail::DropOrder order(a, detail::drop_target(a.nnz(), t_percent));
  const index_t m = order.prefix(t_percent);
  return detail::split_by_mask(a, order.mask(m), order.dropped(m), t_percent);
}

/// The convergence-safety indicator of Algorithm 2 (lines 4–5).
struct ConvergenceIndicator {
  double inv_norm = 0.0;  // estimate of ‖Â⁻¹‖
  double s_norm = 0.0;    // ‖S‖_inf
  double product = 0.0;   // the quantity compared against τ
};

enum class ConditionEstimator {
  /// Paper's proxy: κ(Â) ≈ ‖Â‖_inf / min_i â_ii, ‖Â‖₂ ≈ ‖Â‖_inf,
  /// so ‖Â⁻¹‖ ≈ κ(Â)/‖Â‖₂.
  kDiagonalProxy,
  /// Ablation (§3.2.3): Lanczos extreme eigenvalues, ‖Â⁻¹‖ = 1/λ_min.
  kLanczos,
};

namespace detail {

/// The diagonal proxy of Eq. 6 from its ingredients ‖Â‖∞, min_i â_ii and
/// ‖S‖∞ (§3.2.2): κ(Â) ≈ ‖Â‖∞ / min_i â_ii and ‖Â⁻¹‖ ≈ κ/‖Â‖₂ with
/// ‖Â‖₂ ≈ ‖Â‖∞.
inline ConvergenceIndicator proxy_indicator(double a_inf, double min_diag,
                                            double s_norm) {
  ConvergenceIndicator ind;
  ind.s_norm = s_norm;
  if (!(min_diag > 0.0) || a_inf == 0.0) {
    ind.inv_norm = std::numeric_limits<double>::infinity();
  } else {
    const double kappa = a_inf / min_diag;  // condition-number proxy
    ind.inv_norm = kappa / a_inf;
  }
  ind.product = ind.inv_norm * ind.s_norm;
  return ind;
}

/// min_i a_ii over the stored diagonal (a missing one counts as 0).
template <class T>
double min_diagonal(const Csr<T>& a) {
  double min_diag = std::numeric_limits<double>::infinity();
  for (index_t i = 0; i < a.rows; ++i)
    min_diag = std::min(min_diag, static_cast<double>(a.at(i, i)));
  return min_diag;
}

}  // namespace detail

template <class T>
ConvergenceIndicator convergence_indicator(
    const Csr<T>& a_hat, const Csr<T>& s,
    ConditionEstimator estimator = ConditionEstimator::kDiagonalProxy,
    int lanczos_steps = 60) {
  const auto s_norm = static_cast<double>(norm_inf(s));
  if (estimator == ConditionEstimator::kDiagonalProxy)
    return detail::proxy_indicator(static_cast<double>(norm_inf(a_hat)),
                                   detail::min_diagonal(a_hat), s_norm);
  ConvergenceIndicator ind;
  ind.s_norm = s_norm;
  const EigEstimate eig = lanczos_extreme_eigenvalues(a_hat, lanczos_steps);
  ind.inv_norm = eig.lambda_min > 0.0
                     ? 1.0 / eig.lambda_min
                     : std::numeric_limits<double>::infinity();
  ind.product = ind.inv_norm * ind.s_norm;
  return ind;
}

/// Denominator convention for the wavefront-reduction test. The paper's
/// Eq. 7 normalizes by w_A while Algorithm 2 line 10 writes w_Â; Eq. 7 is
/// what the analysis sections use, so it is the default here.
enum class WavefrontDenominator { kOriginal /*Eq. 7*/, kSparsified /*Alg. 2*/ };

/// Tunable knobs of Algorithm 2 (paper defaults: τ=1, ω=10%, t∈{10,5,1}).
struct SparsifyOptions {
  std::vector<double> ratios{10.0, 5.0, 1.0};  // tried in this order
  double tau = 1.0;
  double omega_percent = 10.0;
  ConditionEstimator estimator = ConditionEstimator::kDiagonalProxy;
  WavefrontDenominator denominator = WavefrontDenominator::kOriginal;
  int lanczos_steps = 60;
};

/// Why Algorithm 2 stopped where it did.
enum class SparsifyOutcome {
  kWavefrontAccepted,      // convergence ok and reduction >= ω
  kSmallestRatioFallback,  // all safe ratios lacked reduction -> smallest t
  kUnsafeFallback,         // even smallest t unsafe -> most aggressive t
};

/// Per-ratio diagnostics recorded while Algorithm 2 runs.
struct SparsifyStep {
  double ratio_percent = 0.0;
  index_t dropped = 0;
  ConvergenceIndicator indicator;
  bool convergence_ok = false;
  index_t wavefronts = 0;          // w_Ât (only computed when convergence_ok)
  double reduction_percent = 0.0;  // per the configured denominator
  bool wavefront_ok = false;
};

/// Full result of wavefront-aware sparsification.
template <class T>
struct SparsifyDecision {
  SparsifySplit<T> chosen;
  SparsifyOutcome outcome = SparsifyOutcome::kWavefrontAccepted;
  index_t wavefronts_original = 0;
  index_t wavefronts_chosen = 0;
  double reduction_percent = 0.0;  // Eq. 7 value for the chosen matrix
  std::vector<SparsifyStep> steps;
};

/// Algorithm 2: wavefront-aware sparsification. All ratios share one drop
/// order (detail::DropOrder); each is evaluated on a drop mask over A's own
/// arrays, and Â and S are built once, for the returned ratio. The Lanczos
/// estimator alone builds each evaluated ratio's split. Throws spcg::Error
/// on a non-finite stored value.
template <class T>
SparsifyDecision<T> wavefront_aware_sparsify(const Csr<T>& a,
                                             const SparsifyOptions& opt = {}) {
  SPCG_CHECK_MSG(!opt.ratios.empty(), "need at least one ratio");
  index_t max_target = 0;
  for (const double t : opt.ratios)
    max_target = std::max(max_target, detail::drop_target(a.nnz(), t));
  const detail::DropOrder order(a, max_target);
  const double min_diag = detail::min_diagonal(a);  // S never holds a_ii

  SparsifyDecision<T> out;
  out.wavefronts_original = count_wavefronts(a);  // line 1: w_A

  auto finalize = [&](double t, index_t m, const std::vector<char>& drop,
                      SparsifyOutcome outcome, index_t wavefronts) {
    out.outcome = outcome;
    out.wavefronts_chosen = wavefronts >= 0 ? wavefronts
                                            : count_wavefronts(a, drop);
    out.reduction_percent = wavefront_reduction_percent(
        out.wavefronts_original, out.wavefronts_chosen);
    out.chosen = detail::split_by_mask(a, drop, order.dropped(m), t);
  };

  for (std::size_t idx = 0; idx < opt.ratios.size(); ++idx) {
    const double t = opt.ratios[idx];
    const bool last = (idx + 1 == opt.ratios.size());

    SparsifyStep step;
    step.ratio_percent = t;
    const index_t m = order.prefix(t);  // line 3
    const std::vector<char> drop = order.mask(m);
    step.dropped = order.dropped(m);

    // Lines 4–8: convergence indicator against τ.
    if (opt.estimator == ConditionEstimator::kDiagonalProxy) {
      const auto [a_inf, s_inf] = detail::masked_norms_inf(a, drop);
      step.indicator = detail::proxy_indicator(
          static_cast<double>(a_inf), min_diag, static_cast<double>(s_inf));
    } else {
      const SparsifySplit<T> split =
          detail::split_by_mask(a, drop, step.dropped, t);
      step.indicator = convergence_indicator(split.a_hat, split.s,
                                             opt.estimator, opt.lanczos_steps);
    }
    step.convergence_ok = !(step.indicator.product > opt.tau);
    if (!step.convergence_ok) {
      out.steps.push_back(step);
      if (last) {
        // Line 6: even the smallest ratio is unsafe; fall back to the most
        // aggressive ratio to maximize per-iteration speedup.
        const double front = opt.ratios.front();
        const index_t m_front = order.prefix(front);
        finalize(front, m_front, order.mask(m_front),
                 SparsifyOutcome::kUnsafeFallback, -1);
        return out;
      }
      continue;  // line 7
    }

    // Lines 9–12: wavefront-reduction effectiveness.
    step.wavefronts = count_wavefronts(a, drop);
    const index_t denom =
        opt.denominator == WavefrontDenominator::kOriginal
            ? out.wavefronts_original
            : step.wavefronts;
    step.reduction_percent =
        denom > 0 ? 100.0 *
                        static_cast<double>(out.wavefronts_original -
                                            step.wavefronts) /
                        static_cast<double>(denom)
                  : 0.0;
    step.wavefront_ok = step.reduction_percent >= opt.omega_percent;
    out.steps.push_back(step);

    if (step.wavefront_ok || last) {
      // Accepted (line 11), or the smallest ratio acting as the
      // minimal-error fallback (§3.2.2 closing paragraph).
      finalize(t, m, drop,
               step.wavefront_ok ? SparsifyOutcome::kWavefrontAccepted
                                 : SparsifyOutcome::kSmallestRatioFallback,
               step.wavefronts);
      return out;
    }
  }
  SPCG_CHECK_MSG(false, "unreachable: the last ratio always returns");
  return out;
}

/// Human-readable outcome label (used by reports and benches).
inline const char* to_string(SparsifyOutcome o) {
  switch (o) {
    case SparsifyOutcome::kWavefrontAccepted: return "wavefront-accepted";
    case SparsifyOutcome::kSmallestRatioFallback: return "smallest-ratio";
    case SparsifyOutcome::kUnsafeFallback: return "unsafe-fallback";
  }
  return "unknown";
}

}  // namespace spcg
