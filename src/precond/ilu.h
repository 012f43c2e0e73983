// Incomplete LU factorizations.
//
// Both ILU(0) and ILU(K) are expressed as "ILU on a fixed pattern":
//   * ILU(0): the pattern is exactly the pattern of A (no fill-in).
//   * ILU(K): the pattern is A's pattern extended with all fill entries whose
//     level-of-fill is <= K (Saad, "Iterative Methods for Sparse Linear
//     Systems", Alg. 10.5/10.6). The paper obtains this factor from SuperLU
//     on the CPU; here the symbolic and numeric phases are implemented
//     directly.
//
// The numeric phase is the classic IKJ row elimination restricted to the
// pattern, run straight on TriangularFactors (sptrsv/sptrsv.h): row i's
// strict lower part is L's row i, its diagonal and upper part U's row i, and
// every pivot heads a U row. It checks each pivot as it writes it, so the
// factor it leaves is valid by construction. A cold build places A's values
// into a fresh pattern and eliminates; a numeric refresh
// (transient/refactorize.h) gathers new values into the same pattern through
// a precomputed map and runs the same elimination.
//
// ilu0_factors(), iluk_factors() and ilut() (precond/ilut.h) return
// TriangularFactors, the one factor format the library reads. ilu0(), iluk()
// and split_lu() spell the combined layout (IluResult::lu) only for the
// benchmark driver's traced setup (perfbench/spcg_perfbench.cc).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "sparse/csr.h"
#include "sparse/ops.h"
#include "sptrsv/sptrsv.h"
#include "wavefront/levels.h"

namespace spcg {

/// Options controlling pivot handling during the numeric phase.
struct IluOptions {
  /// When a pivot's magnitude falls below `pivot_floor * ||row||_inf`, it is
  /// replaced by that floor (signed). Set boost_zero_pivots=false to throw
  /// instead — useful in tests that must detect breakdown. A pivot that is
  /// exactly zero (possible only with pivot_floor = 0) always throws.
  bool boost_zero_pivots = true;
  double pivot_floor = 1e-12;
};

/// The counts of one elimination and, from ilu0() and iluk() only, the
/// factor in the combined layout `lu`: the strict lower part holds L (unit
/// diagonal implicit), the diagonal and upper part hold U. Every other
/// producer returns TriangularFactors and leaves `lu` empty.
template <class T>
struct IluResult {
  Csr<T> lu;                      // combined factor (ilu0/iluk only)
  index_t fill_nnz = 0;           // nnz(L) + nnz(U) - nnz(A): fill (ILU(K))
  bool breakdown = false;         // a pivot was boosted during elimination
  /// Inner-loop update count of the elimination (one multiply-add per unit);
  /// feeds the factorization cost models.
  std::uint64_t elimination_ops = 0;
};

namespace detail {

/// Numeric ILU in place on `f`, whose values must hold A's values at A's
/// positions and 0 at fill positions; records breakdown and
/// elimination_ops into `info`.
///
/// Each row is eliminated in the dense work row `work` (size n, indexed by
/// column; its contents on entry do not matter): L's and U's row i are
/// scattered in, every update of each pivot row's U part is applied
/// unconditionally, and the pattern positions are gathered back. An update
/// to a column outside the pattern lands in a slot that nothing reads, so
/// every stored value goes through exactly the operations, in the same
/// order, of an elimination restricted to the pattern. Every pivot is
/// checked as it is written: below the floor it is boosted (breakdown) or,
/// with boosting off, rejected; exactly zero it is rejected either way, so
/// no later row divides by it and no sweep reads it.
template <class T>
void ilu_eliminate(TriangularFactors<T>& f, const IluOptions& opt,
                   IluResult<T>& info, std::span<T> work) {
  const index_t n = f.u.rows;
  SPCG_CHECK(static_cast<index_t>(work.size()) == n);
  const index_t* const lp = f.l.rowptr.data();
  const index_t* const lc = f.l.colind.data();
  T* const lv = f.l.values.data();
  const index_t* const up = f.u.rowptr.data();
  const index_t* const uc = f.u.colind.data();
  T* const uv = f.u.values.data();
  T* const row = work.data();
  bool breakdown = false;
  std::uint64_t ops = 0;

  for (index_t i = 0; i < n; ++i) {
    T row_norm{0};
    for (index_t p = lp[i]; p < lp[i + 1]; ++p) {
      row[lc[p]] = lv[p];
      row_norm = std::max(row_norm, std::abs(lv[p]));
    }
    for (index_t p = up[i]; p < up[i + 1]; ++p) {
      row[uc[p]] = uv[p];
      row_norm = std::max(row_norm, std::abs(uv[p]));
    }

    // Eliminate with the rows k < i of L's row i, in column order; row k's
    // pivot heads U's row k, and its U part follows the pivot.
    for (index_t p = lp[i]; p < lp[i + 1]; ++p) {
      const index_t k = lc[p];
      const index_t dk = up[k];
      const T lik = row[k] / uv[dk];
      row[k] = lik;
      ops += static_cast<std::uint64_t>(up[k + 1] - (dk + 1)) + 1;
      for (index_t q = dk + 1; q < up[k + 1]; ++q) row[uc[q]] -= lik * uv[q];
    }
    for (index_t p = lp[i]; p < lp[i + 1]; ++p) lv[p] = row[lc[p]];
    for (index_t p = up[i]; p < up[i + 1]; ++p) uv[p] = row[uc[p]];

    T& pivot = uv[up[i]];
    const T floor = static_cast<T>(opt.pivot_floor) *
                    std::max(row_norm, T{1});
    if (std::abs(pivot) < floor) {
      SPCG_CHECK_MSG(opt.boost_zero_pivots,
                     "zero pivot at row " << i << " (|pivot|=" << std::abs(pivot)
                                          << ")");
      pivot = (pivot < T{0} ? -floor : floor);
      breakdown = true;
    }
    SPCG_CHECK_MSG(pivot != T{0}, "zero pivot at row " << i);
  }
  info.breakdown = breakdown;
  info.elimination_ops = ops;
}

/// Split `m` (column-sorted rows, combined layout) at the diagonal: row i's
/// columns below i become L's row i and the rest U's. Values are copied when
/// `m` holds T; a structural pattern (Csr<char>) gives zero values.
template <class T, class V>
std::pair<Csr<T>, Csr<T>> split_at_diagonal(const Csr<V>& m) {
  SPCG_CHECK_MSG(m.rows == m.cols &&
                     m.rowptr.size() == static_cast<std::size_t>(m.rows) + 1 &&
                     m.rowptr.front() == 0 &&
                     static_cast<std::size_t>(m.rowptr.back()) ==
                         m.colind.size() &&
                     m.values.size() == m.colind.size(),
                 "split_at_diagonal: malformed " << m.rows << "x" << m.cols
                                                 << " factor");
  Csr<T> l(m.rows, m.cols), u(m.rows, m.cols);
  std::vector<index_t> lower(static_cast<std::size_t>(m.rows));
  for (index_t i = 0; i < m.rows; ++i) {
    const auto row = static_cast<std::size_t>(i);
    SPCG_CHECK_MSG(m.rowptr[row] <= m.rowptr[row + 1],
                   "split_at_diagonal: decreasing rowptr at row " << i);
    const auto cols_i = m.row_cols(i);
    lower[row] = static_cast<index_t>(
        std::lower_bound(cols_i.begin(), cols_i.end(), i) - cols_i.begin());
    l.rowptr[row + 1] = l.rowptr[row] + lower[row];
    u.rowptr[row + 1] = u.rowptr[row] +
                        static_cast<index_t>(cols_i.size()) - lower[row];
  }
  l.colind.resize(static_cast<std::size_t>(l.nnz()));
  l.values.resize(static_cast<std::size_t>(l.nnz()));
  u.colind.resize(static_cast<std::size_t>(u.nnz()));
  u.values.resize(static_cast<std::size_t>(u.nnz()));
  for (index_t i = 0; i < m.rows; ++i) {
    const auto row = static_cast<std::size_t>(i);
    const auto src = static_cast<std::size_t>(m.rowptr[row]);
    const auto nl = static_cast<std::size_t>(lower[row]);
    const auto nu = static_cast<std::size_t>(m.rowptr[row + 1]) - src - nl;
    const auto dl = static_cast<std::size_t>(l.rowptr[row]);
    const auto du = static_cast<std::size_t>(u.rowptr[row]);
    std::copy_n(m.colind.data() + src, nl, l.colind.data() + dl);
    std::copy_n(m.colind.data() + src + nl, nu, u.colind.data() + du);
    if constexpr (std::is_same_v<T, V>) {
      std::copy_n(m.values.data() + src, nl, l.values.data() + dl);
      std::copy_n(m.values.data() + src + nl, nu, u.values.data() + du);
    }
  }
  return {std::move(l), std::move(u)};
}

/// The gather map that places `a`'s values into the pattern of `f`: for
/// every position of f.l, then of f.u, the position in `a` of the same
/// (i, j), or -1 where the factor holds fill. Entries of `a` that `dropped`
/// stores are no factor entries: their positions in `a` follow, one per
/// entry of `dropped`, which must lie in `a`'s pattern. One merge walk per
/// row (every pattern is column-sorted). Returns the first row with a kept
/// entry of `a` that the factor pattern lacks, or -1.
template <class T>
index_t factor_gather_map(const Csr<T>& a, const TriangularFactors<T>& f,
                          std::type_identity_t<const Csr<T>*> dropped,
                          std::vector<index_t>& src) {
  SPCG_CHECK(a.rows == f.u.rows && a.cols == f.u.cols);
  SPCG_CHECK(dropped == nullptr || dropped->rows == a.rows);
  const std::size_t nl = f.l.colind.size();
  const std::size_t nu = f.u.colind.size();
  src.assign(nl + nu + (dropped ? dropped->colind.size() : 0), -1);
  index_t* const l_src = src.data();
  index_t* const u_src = l_src + nl;
  index_t* const s_src = u_src + nu;
  index_t lost_row = -1;
  for (index_t i = 0; i < a.rows; ++i) {
    const auto row = static_cast<std::size_t>(i);
    index_t pl = f.l.rowptr[row];
    index_t pu = f.u.rowptr[row];
    index_t ps = dropped ? dropped->rowptr[row] : 0;
    const index_t ps_end = dropped ? dropped->rowptr[row + 1] : 0;
    for (index_t pa = a.rowptr[row]; pa < a.rowptr[row + 1]; ++pa) {
      const index_t j = a.colind[static_cast<std::size_t>(pa)];
      if (ps < ps_end && dropped->colind[static_cast<std::size_t>(ps)] == j) {
        s_src[ps++] = pa;
        continue;
      }
      const bool lower = j < i;
      const Csr<T>& m = lower ? f.l : f.u;
      index_t& p = lower ? pl : pu;
      const index_t p_end = m.rowptr[row + 1];
      while (p < p_end && m.colind[static_cast<std::size_t>(p)] < j) ++p;
      if (p < p_end && m.colind[static_cast<std::size_t>(p)] == j)
        (lower ? l_src : u_src)[p++] = pa;
      else if (lost_row < 0)
        lost_row = i;
    }
    SPCG_CHECK_MSG(ps == ps_end,
                   "dropped entries outside A's pattern at row " << i);
  }
  return lost_row;
}

/// to[p] = from[src[p]], or 0 where src[p] < 0 (fill).
template <class T>
void gather_values(std::span<const T> from, const index_t* src,
                   std::span<T> to) {
  const T* const v = from.data();
  for (std::size_t p = 0; p < to.size(); ++p) {
    const index_t q = src[p];
    to[p] = q >= 0 ? v[q] : T{0};
  }
}

/// f's values from `from` through a factor_gather_map() map: L's, then U's.
template <class T>
void gather_factor_values(std::span<const T> from, const index_t* src,
                          TriangularFactors<T>& f) {
  gather_values(from, src, std::span<T>(f.l.values));
  gather_values(from, src + f.l.values.size(), std::span<T>(f.u.values));
}

/// The combined layout of `f` into r.lu: row i is L's row i followed by
/// U's, whose diagonal comes first.
template <class T>
void join_lu(const TriangularFactors<T>& f, IluResult<T>& r) {
  const index_t n = f.u.rows;
  r.lu = Csr<T>(n, n);
  r.lu.colind.resize(f.l.colind.size() + f.u.colind.size());
  r.lu.values.resize(r.lu.colind.size());
  std::size_t dst = 0;
  for (index_t i = 0; i < n; ++i) {
    const auto row = static_cast<std::size_t>(i);
    for (const Csr<T>* m : {&f.l, &f.u}) {
      const auto begin = static_cast<std::size_t>(m->rowptr[row]);
      const auto len = static_cast<std::size_t>(m->rowptr[row + 1]) - begin;
      std::copy_n(m->colind.data() + begin, len, r.lu.colind.data() + dst);
      std::copy_n(m->values.data() + begin, len, r.lu.values.data() + dst);
      dst += len;
    }
    r.lu.rowptr[row + 1] = static_cast<index_t>(dst);
  }
}

}  // namespace detail

/// Split a combined factor into TriangularFactors, validating it (sorted
/// rows, a nonzero diagonal in every row); throws spcg::Error naming the
/// first malformed row.
template <class T>
TriangularFactors<T> split_lu(const IluResult<T>& r) {
  auto [l, u] = detail::split_at_diagonal<T>(r.lu);
  return TriangularFactors<T>(std::move(l), std::move(u));
}

/// ILU(0): incomplete LU with zero fill-in, on the pattern of `a` (square,
/// sorted rows, a stored diagonal in every row), straight into triangular
/// form. `info`, when given, receives the elimination's counts.
template <class T>
TriangularFactors<T> ilu0_factors(const Csr<T>& a, const IluOptions& opt = {},
                                  IluResult<T>* info = nullptr) {
  SPCG_CHECK(a.rows == a.cols);
  auto [l, u] = detail::split_at_diagonal<T>(a);
  TriangularFactors<T> f(std::move(l), std::move(u),
                         typename TriangularFactors<T>::PatternOnly{});
  IluResult<T> counts;
  std::vector<T> work(static_cast<std::size_t>(a.rows));
  detail::ilu_eliminate(f, opt, counts, std::span<T>(work));
  if (info != nullptr) *info = std::move(counts);
  return f;
}

/// ILU(0) in the combined layout.
template <class T>
IluResult<T> ilu0(const Csr<T>& a, const IluOptions& opt = {}) {
  IluResult<T> r;
  detail::join_lu(ilu0_factors(a, opt, &r), r);
  return r;
}

/// Symbolic ILU(K): returns the filled pattern (colind sorted per row,
/// diagonal included) and the level of fill of every stored entry.
///
/// `max_row_fill` caps the stored entries per row as a safety valve against
/// quadratic blow-up on scattered patterns (0 = unlimited). When the cap
/// trips, the lowest-level (most important) entries are kept and
/// `truncated_rows` counts the affected rows.
struct IlukSymbolic {
  Csr<char> pattern;              // values unused; structure only
  std::vector<index_t> levels;    // level of fill per stored entry
  index_t truncated_rows = 0;
};

namespace detail {
/// The symbolic phase over a square pattern with sorted rows: the fill-path
/// search on a team of fill_path_team() threads when uncapped, the
/// linked-list merge under a cap (precond/iluk_symbolic.cc).
IlukSymbolic iluk_symbolic_pattern(index_t n, std::span<const index_t> rowptr,
                                   std::span<const index_t> colind, index_t k,
                                   index_t max_row_fill);
/// The sequential linked-list merge, capped or not; the verifier recomputes
/// a factor's closure with it, independently of the code that built it.
IlukSymbolic iluk_merge(index_t n, std::span<const index_t> rowptr,
                        std::span<const index_t> colind, index_t k,
                        index_t max_row_fill);
/// The uncapped symbolic phase by fill paths on `team` threads; the output
/// does not depend on `team`.
IlukSymbolic iluk_fill_paths(index_t n, std::span<const index_t> rowptr,
                             std::span<const index_t> colind, index_t k,
                             std::size_t team);
/// min(hardware threads, a cap from the search work nnz * (k+1)); 1 runs the
/// search on the caller alone.
std::size_t fill_path_team(std::size_t nnz, index_t k);
}  // namespace detail

/// Level-of-fill is purely structural: only A's pattern is read.
template <class T>
IlukSymbolic iluk_symbolic(const Csr<T>& a, index_t k,
                           index_t max_row_fill = 0) {
  SPCG_CHECK(a.rows == a.cols);
  return detail::iluk_symbolic_pattern(a.rows, a.rowptr, a.colind, k,
                                       max_row_fill);
}

/// ILU(K): symbolic fill to level `k`, then the numeric phase on the
/// extended pattern, straight into triangular form. `info`, when given,
/// receives the fill and the elimination's counts.
template <class T>
TriangularFactors<T> iluk_factors(const Csr<T>& a, index_t k,
                                  const IluOptions& opt = {},
                                  index_t max_row_fill = 0,
                                  IluResult<T>* info = nullptr) {
  SPCG_CHECK(a.rows == a.cols);
  TriangularFactors<T> f;
  {
    const IlukSymbolic sym = iluk_symbolic(a, k, max_row_fill);
    auto [l, u] = detail::split_at_diagonal<T>(sym.pattern);
    f = TriangularFactors<T>(std::move(l), std::move(u),
                             typename TriangularFactors<T>::PatternOnly{});
    // A's values into the extended pattern. When the per-row fill cap
    // tripped, an original entry may have been truncated out of the pattern
    // — it is then simply absent from the preconditioner (ILUT-style drop).
    // Without truncation a missing entry would be a symbolic-phase bug.
    std::vector<index_t> src;
    const index_t lost_row = detail::factor_gather_map(a, f, nullptr, src);
    SPCG_CHECK_MSG(lost_row < 0 || sym.truncated_rows > 0,
                   "ILU(K) pattern lost original entry at row " << lost_row);
    detail::gather_factor_values(std::span<const T>(a.values), src.data(), f);
  }
  IluResult<T> counts;
  counts.fill_nnz = f.l.nnz() + f.u.nnz() - a.nnz();
  std::vector<T> work(static_cast<std::size_t>(a.rows));
  detail::ilu_eliminate(f, opt, counts, std::span<T>(work));
  if (info != nullptr) *info = std::move(counts);
  return f;
}

/// ILU(K) in the combined layout.
template <class T>
IluResult<T> iluk(const Csr<T>& a, index_t k, const IluOptions& opt = {},
                  index_t max_row_fill = 0) {
  IluResult<T> r;
  detail::join_lu(iluk_factors(a, k, opt, max_row_fill, &r), r);
  return r;
}

}  // namespace spcg
