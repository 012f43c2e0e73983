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
// pattern, producing a combined factor: strict lower part holds L (unit
// diagonal implicit), diagonal + upper part hold U.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sparse/csr.h"
#include "sparse/ops.h"
#include "wavefront/levels.h"

namespace spcg {

/// Options controlling pivot handling during the numeric phase.
struct IluOptions {
  /// When a pivot's magnitude falls below `pivot_floor * ||row||_inf`, it is
  /// replaced by that floor (signed). Set boost_zero_pivots=false to throw
  /// instead — useful in tests that must detect breakdown.
  bool boost_zero_pivots = true;
  double pivot_floor = 1e-12;
};

/// Result of a factorization: combined LU in one CSR plus the diagonal
/// positions (pointing at U's diagonal inside `lu`).
template <class T>
struct IluResult {
  Csr<T> lu;                      // combined factor, same shape as pattern
  std::vector<index_t> diag_pos;  // position of (i,i) in lu for each row
  index_t fill_nnz = 0;           // nnz(lu) - nnz(A): fill introduced (ILU(K))
  bool breakdown = false;         // a pivot was boosted during elimination
  /// Inner-loop update count of the elimination (one multiply-add per unit);
  /// feeds the factorization cost models.
  std::uint64_t elimination_ops = 0;
};

namespace detail {

/// Numeric ILU on the (already sorted, diagonal-present) pattern in `lu`.
/// `lu.values` must hold A's values at A's positions and 0 at fill positions.
///
/// Each row is eliminated in the dense work row `work` (size n, indexed by
/// column; its contents on entry do not matter): the row's values are
/// scattered in, every update of each pivot row's U-part is applied
/// unconditionally, and the pattern positions are gathered back. An update
/// to a column outside the pattern lands in a slot that nothing reads, so
/// every stored value goes through exactly the operations, in the same
/// order, of an elimination restricted to the pattern. The refactorize path
/// passes a preallocated row so a numeric-only refresh never allocates.
template <class T>
void ilu_numeric_in_place(Csr<T>& lu, std::vector<index_t>& diag_pos,
                          const IluOptions& opt, bool& breakdown,
                          std::uint64_t& elimination_ops, std::span<T> work) {
  const index_t n = lu.rows;
  SPCG_CHECK(static_cast<index_t>(work.size()) == n);
  diag_pos.assign(static_cast<std::size_t>(n), -1);
  const index_t* rowptr = lu.rowptr.data();
  const index_t* col = lu.colind.data();
  T* val = lu.values.data();
  T* row = work.data();

  for (index_t i = 0; i < n; ++i) {
    const index_t row_begin = rowptr[i];
    const index_t row_end = rowptr[i + 1];
    T row_norm{0};
    for (index_t p = row_begin; p < row_end; ++p) {
      row[col[p]] = val[p];
      row_norm = std::max(row_norm, std::abs(val[p]));
    }

    // Eliminate using previous rows k < i present in this row's pattern
    // (columns are sorted, so the L-part is a prefix).
    index_t p = row_begin;
    for (; p < row_end && col[p] < i; ++p) {
      const index_t k = col[p];
      const index_t dk = diag_pos[static_cast<std::size_t>(k)];
      const T pivot = val[dk];
      SPCG_CHECK_MSG(pivot != T{0},
                     "zero pivot in row " << k << " while eliminating row "
                                          << i);
      const T lik = row[k] / pivot;
      row[k] = lik;
      // Subtract lik * (U-part of row k) from row i.
      const index_t k_end = rowptr[k + 1];
      elimination_ops += static_cast<std::uint64_t>(k_end - (dk + 1)) + 1;
      for (index_t q = dk + 1; q < k_end; ++q) row[col[q]] -= lik * val[q];
    }
    SPCG_CHECK_MSG(p < row_end && col[p] == i,
                   "pattern row " << i << " has no diagonal entry");
    diag_pos[static_cast<std::size_t>(i)] = p;
    for (index_t q = row_begin; q < row_end; ++q) val[q] = row[col[q]];

    T& pivot = val[p];
    const T floor = static_cast<T>(opt.pivot_floor) *
                    std::max(row_norm, T{1});
    if (std::abs(pivot) < floor) {
      SPCG_CHECK_MSG(opt.boost_zero_pivots,
                     "zero pivot at row " << i << " (|pivot|=" << std::abs(pivot)
                                          << ")");
      pivot = (pivot < T{0} ? -floor : floor);
      breakdown = true;
    }
  }
}

/// Allocating convenience overload: owns the work row itself.
template <class T>
void ilu_numeric_in_place(Csr<T>& lu, std::vector<index_t>& diag_pos,
                          const IluOptions& opt, bool& breakdown,
                          std::uint64_t& elimination_ops) {
  std::vector<T> work(static_cast<std::size_t>(lu.rows));
  ilu_numeric_in_place(lu, diag_pos, opt, breakdown, elimination_ops,
                       std::span<T>(work));
}

/// Set `lu.values` to A's values at A's positions and 0 elsewhere, with one
/// merge walk of each row of A against the same (sorted) row of the factor
/// pattern. Entries of A absent from the pattern are skipped; returns the
/// first row that had one, or -1.
template <class T>
index_t scatter_into_pattern(const Csr<T>& a, Csr<T>& lu) {
  index_t lost_row = -1;
  for (index_t i = 0; i < a.rows; ++i) {
    index_t q = lu.rowptr[static_cast<std::size_t>(i)];
    const index_t q_end = lu.rowptr[static_cast<std::size_t>(i) + 1];
    for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
         p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      const index_t j = a.colind[static_cast<std::size_t>(p)];
      for (; q < q_end && lu.colind[static_cast<std::size_t>(q)] < j; ++q)
        lu.values[static_cast<std::size_t>(q)] = T{0};
      if (q < q_end && lu.colind[static_cast<std::size_t>(q)] == j) {
        lu.values[static_cast<std::size_t>(q++)] =
            a.values[static_cast<std::size_t>(p)];
      } else if (lost_row < 0) {
        lost_row = i;
      }
    }
    for (; q < q_end; ++q) lu.values[static_cast<std::size_t>(q)] = T{0};
  }
  return lost_row;
}

}  // namespace detail

/// ILU(0): incomplete LU with zero fill-in, on A's own pattern. A must be
/// square with a fully stored diagonal.
template <class T>
IluResult<T> ilu0(const Csr<T>& a, const IluOptions& opt = {}) {
  SPCG_CHECK(a.rows == a.cols);
  IluResult<T> r;
  r.lu = a;  // pattern and initial values are A's
  detail::ilu_numeric_in_place(r.lu, r.diag_pos, opt, r.breakdown,
                               r.elimination_ops);
  r.fill_nnz = 0;
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
IlukSymbolic iluk_symbolic_pattern(index_t n, std::span<const index_t> rowptr,
                                   std::span<const index_t> colind, index_t k,
                                   index_t max_row_fill);
}  // namespace detail

/// Level-of-fill is purely structural: only A's pattern is read.
template <class T>
IlukSymbolic iluk_symbolic(const Csr<T>& a, index_t k,
                           index_t max_row_fill = 0) {
  SPCG_CHECK(a.rows == a.cols);
  return detail::iluk_symbolic_pattern(a.rows, a.rowptr, a.colind, k,
                                       max_row_fill);
}

/// ILU(K): symbolic fill to level `k`, then numeric factorization on the
/// extended pattern.
template <class T>
IluResult<T> iluk(const Csr<T>& a, index_t k, const IluOptions& opt = {},
                  index_t max_row_fill = 0) {
  SPCG_CHECK(a.rows == a.cols);
  const IlukSymbolic sym = iluk_symbolic(a, k, max_row_fill);
  IluResult<T> r;
  r.lu.rows = a.rows;
  r.lu.cols = a.cols;
  r.lu.rowptr = sym.pattern.rowptr;
  r.lu.colind = sym.pattern.colind;
  r.lu.values.resize(r.lu.colind.size());
  // Scatter A's values into the extended pattern. When the per-row fill cap
  // tripped, an original entry may have been truncated out of the pattern —
  // it is then simply absent from the preconditioner (ILUT-style drop).
  // Without truncation a missing entry would be a symbolic-phase bug.
  const index_t lost_row = detail::scatter_into_pattern(a, r.lu);
  SPCG_CHECK_MSG(lost_row < 0 || sym.truncated_rows > 0,
                 "ILU(K) pattern lost original entry at row " << lost_row);
  detail::ilu_numeric_in_place(r.lu, r.diag_pos, opt, r.breakdown,
                               r.elimination_ops);
  r.fill_nnz = r.lu.nnz() - a.nnz();
  return r;
}

/// Numeric-only refactorization: rerun the elimination on an existing
/// factorization's pattern with fresh values from `a`. The symbolic
/// structure (lu.rowptr/colind — A's pattern for ILU(0), the level-K closure
/// for ILU(K)) is reused verbatim; only lu.values, diag_pos, breakdown and
/// elimination_ops are recomputed. `a` must have the pattern the original
/// factorization was built from (same rows and the same stored entries —
/// only the values may differ); entries of `a` absent from the pattern are
/// only legal when the ILU(K) per-row fill cap truncated them out of the
/// original setup, mirroring iluk()'s scatter.
///
/// `work`, when non-empty, must be a caller-owned buffer of a.rows values
/// (the elimination's dense work row; its contents do not matter) —
/// passing it makes the refresh allocation-free apart from diag_pos.assign,
/// which reuses its existing capacity. Empty = allocate internally.
template <class T>
void ilu_refactorize(IluResult<T>& r, const Csr<T>& a,
                     const IluOptions& opt = {}, std::span<T> work = {}) {
  SPCG_CHECK(a.rows == a.cols);
  SPCG_CHECK(r.lu.rows == a.rows && r.lu.cols == a.cols);
  // ILU(0) setups (no fill, pattern == A's) must find every entry; ILU(K)
  // setups tolerate misses because the per-row fill cap may have truncated
  // original entries out of the pattern (IluResult does not retain the
  // symbolic truncated_rows count, so the K > 0 case cannot be stricter).
  const bool pattern_is_a = r.fill_nnz == 0 && r.lu.nnz() == a.nnz();
  // A's values at A's positions, 0 at fill — exactly the initial state
  // iluk() hands to the numeric phase.
  const index_t lost_row = detail::scatter_into_pattern(a, r.lu);
  SPCG_CHECK_MSG(lost_row < 0 || !pattern_is_a,
                 "refactorize: pattern lost original entry at row "
                     << lost_row);
  r.breakdown = false;
  r.elimination_ops = 0;
  if (work.empty()) {
    detail::ilu_numeric_in_place(r.lu, r.diag_pos, opt, r.breakdown,
                                 r.elimination_ops);
  } else {
    detail::ilu_numeric_in_place(r.lu, r.diag_pos, opt, r.breakdown,
                                 r.elimination_ops, work);
  }
}

/// Split a combined LU factor into explicit triangular factors:
/// L gets the strict lower part plus a stored unit diagonal; U gets the
/// diagonal and strict upper part. One counting pass sizes both exactly,
/// one pass fills them.
template <class T>
struct TriangularFactors {
  Csr<T> l;  // unit lower triangular (diagonal stored as 1)
  Csr<T> u;  // upper triangular including diagonal
};

template <class T>
TriangularFactors<T> split_lu(const IluResult<T>& r) {
  const Csr<T>& lu = r.lu;
  TriangularFactors<T> f{Csr<T>(lu.rows, lu.cols), Csr<T>(lu.rows, lu.cols)};
  // Counting pass: row i's strict lower part is the prefix of its sorted
  // columns below i; L also stores the unit diagonal.
  for (index_t i = 0; i < lu.rows; ++i) {
    const auto cols_i = lu.row_cols(i);
    const auto lower = static_cast<index_t>(
        std::lower_bound(cols_i.begin(), cols_i.end(), i) - cols_i.begin());
    f.l.rowptr[static_cast<std::size_t>(i) + 1] =
        f.l.rowptr[static_cast<std::size_t>(i)] + lower + 1;
    f.u.rowptr[static_cast<std::size_t>(i) + 1] =
        f.u.rowptr[static_cast<std::size_t>(i)] +
        static_cast<index_t>(cols_i.size()) - lower;
  }
  f.l.colind.resize(static_cast<std::size_t>(f.l.nnz()));
  f.l.values.resize(static_cast<std::size_t>(f.l.nnz()));
  f.u.colind.resize(static_cast<std::size_t>(f.u.nnz()));
  f.u.values.resize(static_cast<std::size_t>(f.u.nnz()));
  const auto at = [](const std::vector<index_t>& rowptr, index_t i) {
    return static_cast<std::size_t>(rowptr[static_cast<std::size_t>(i)]);
  };
  for (index_t i = 0; i < lu.rows; ++i) {
    const std::size_t src = at(lu.rowptr, i);
    const std::size_t dl = at(f.l.rowptr, i);
    const std::size_t du = at(f.u.rowptr, i);
    const std::size_t lower = at(f.l.rowptr, i + 1) - dl - 1;
    const std::size_t upper = at(f.u.rowptr, i + 1) - du;
    std::copy_n(lu.colind.data() + src, lower, f.l.colind.data() + dl);
    std::copy_n(lu.values.data() + src, lower, f.l.values.data() + dl);
    f.l.colind[dl + lower] = i;
    f.l.values[dl + lower] = T{1};
    std::copy_n(lu.colind.data() + src + lower, upper, f.u.colind.data() + du);
    std::copy_n(lu.values.data() + src + lower, upper, f.u.values.data() + du);
  }
  return f;
}

}  // namespace spcg
