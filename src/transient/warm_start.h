// Projected warm starts over a transient sequence's recent solutions.
//
// Consecutive solutions of a drifting sequence A_t x_t = b_t are correlated:
// the last few already span most of the next one. Following Fischer
// ("Projection techniques for iterative solution of Ax = b with successive
// right-hand sides", CMAME 1998), the initial guess for step t is the
// A_t-norm-optimal point of
//
//   x_{t-1} + span{v_1, ..., v_m},   v_j = x_{t-j} - x_{t-j-1} (newest first),
//
// which is the Galerkin solution G d = g with G = VᵀA_tV, g = Vᵀ(b - A_t
// x_{t-1}), and x0 = x_{t-1} + V d. The differences span the same space as
// the raw solutions {x_{t-1}, ..., x_{t-m-1}} but are far less collinear, so
// G stays well conditioned. Because x_{t-1} itself is in the affine space,
// the guess is never worse than the previous solution in the A_t-norm: the
// energy ½xᵀA_tx - bᵀx drops by exactly ½dᵀg.
//
// Cost per step: m + 1 SpMVs (the residual of x_{t-1} and A_t v_j for each
// direction), m(m+3)/2 dot products, an m×m Cholesky solve and one pass
// forming x0. Memory: the m history vectors (owned by the caller) plus two
// scratch vectors the caller reuses — TransientSession lends pcg()'s own
// workspace, which pcg() reassigns anyway.
//
// Guard: a direction whose Cholesky pivot falls below kWarmStartPivotFloor
// of its diagonal lies numerically inside the span of the newer ones (a
// repeated step gives a zero difference); it and every older direction are
// dropped. A non-finite d or a non-positive energy decrease (a NaN in the
// history or in b, b - A x_{t-1} = 0, rounding on a history unrelated to
// the new system) falls back to x_{t-1} exactly.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "sparse/csr.h"
#include "sparse/norms.h"
#include "sparse/ops.h"
#include "support/trace.h"

namespace spcg {

/// Depth m of the warm-start history: the number of solution differences
/// kept beside the previous solution (EXPERIMENTS.md "Transient warm starts"
/// has the sweep that chose it).
inline constexpr std::size_t kWarmStartHistory = 3;

/// Relative Cholesky pivot floor of the warm-start Gram matrix: directions
/// whose pivot is at most this fraction of their own A-norm² are dropped.
inline constexpr double kWarmStartPivotFloor = 1e-10;

/// Form the projected warm start for A x = b from the previous solution
/// `x_prev` and up to kWarmStartHistory solution differences `dirs` (newest
/// first). On success writes x0 = x_prev + V d into `x0` — which may alias
/// any of `dirs`, each entry is read before it is written — and returns the
/// basis size 1 + k, where k ≤ dirs.size() directions were kept. Returns 1
/// and leaves `x0` untouched when the guess is x_prev itself (no history or
/// the guard fell back). `r` and `av` are scratch, resized to A's rows.
template <class T>
std::int32_t project_warm_start(const Csr<T>& a, std::span<const T> b,
                                std::span<const T> x_prev,
                                std::span<const std::span<const T>> dirs,
                                std::span<T> x0, std::vector<T>& r,
                                std::vector<T>& av) {
  Span span("warm_start", "transient");
  constexpr std::size_t kMax = kWarmStartHistory;
  const std::size_t m = dirs.size();
  SPCG_CHECK(m <= kMax);
  if (m == 0) return 1;
  const auto n = static_cast<std::size_t>(a.rows);
  SPCG_CHECK(b.size() == n && x_prev.size() == n && x0.size() == n);

  // r = b - A x_prev; then G = VᵀAV (lower triangle) and g = Vᵀr.
  r.resize(n);
  av.resize(n);
  spmv(a, x_prev, std::span<T>(r));
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  std::array<std::array<double, kMax>, kMax> g_mat{};
  std::array<double, kMax> g{};
  for (std::size_t j = 0; j < m; ++j) {
    spmv(a, dirs[j], std::span<T>(av));
    for (std::size_t k = 0; k <= j; ++k)
      g_mat[j][k] = static_cast<double>(dot(dirs[k], std::span<const T>(av)));
    g[j] = static_cast<double>(dot(dirs[j], std::span<const T>(r)));
  }

  // In-place Cholesky G = L Lᵀ over the newest directions; stop at the first
  // pivot under the floor (NaN included), dropping it and all older ones.
  std::size_t kept = 0;
  for (; kept < m; ++kept) {
    const std::size_t j = kept;
    for (std::size_t k = 0; k < j; ++k) {
      double s = g_mat[j][k];
      for (std::size_t q = 0; q < k; ++q) s -= g_mat[j][q] * g_mat[k][q];
      g_mat[j][k] = s / g_mat[k][k];
    }
    double pivot = g_mat[j][j];
    for (std::size_t q = 0; q < j; ++q) pivot -= g_mat[j][q] * g_mat[j][q];
    if (!(pivot > kWarmStartPivotFloor * g_mat[j][j])) break;
    g_mat[j][j] = std::sqrt(pivot);
  }
  if (kept == 0) return 1;

  // Solve L Lᵀ d = g, then require a finite d and a positive energy drop.
  std::array<double, kMax> d{};
  for (std::size_t j = 0; j < kept; ++j) {
    double s = g[j];
    for (std::size_t q = 0; q < j; ++q) s -= g_mat[j][q] * d[q];
    d[j] = s / g_mat[j][j];
  }
  for (std::size_t j = kept; j-- > 0;) {
    double s = d[j];
    for (std::size_t q = j + 1; q < kept; ++q) s -= g_mat[q][j] * d[q];
    d[j] = s / g_mat[j][j];
  }
  double energy_drop = 0.0;
  for (std::size_t j = 0; j < kept; ++j) {
    if (!std::isfinite(d[j])) return 1;
    energy_drop += 0.5 * d[j] * g[j];
  }
  if (!(energy_drop > 0.0)) return 1;

  for (std::size_t i = 0; i < n; ++i) {
    T acc = x_prev[i];
    for (std::size_t j = 0; j < kept; ++j)
      acc += static_cast<T>(d[j]) * dirs[j][i];
    x0[i] = acc;
  }
  return static_cast<std::int32_t>(kept + 1);
}

}  // namespace spcg
