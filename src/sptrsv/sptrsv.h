// Sparse triangular solvers (SpTRSV): the executor half of the
// inspector–executor scheme.
//
// Every executor runs the same row kernel (detail::trsv_row), so all of them
// produce bitwise identical solutions by construction:
//   * serial forward/backward substitution (reference),
//   * level-scheduled parallel substitution (OpenMP): rows within a
//     wavefront run in parallel, with an implicit barrier between levels —
//     the same execution structure as cuSPARSE's csrsv2 on the GPU,
//   * the race-checking executor of analysis/race_detector.h, which reads x
//     through an instrumenting hook.
//
// Factors follow the split_lu() convention: L is unit-lower with the unit
// diagonal stored, U is upper with its diagonal stored, columns sorted within
// each row. The kernel reads the diagonal at its structural position (last
// entry of an L row, first of a U row), so every executor rejects with
// spcg::Error, naming the row, a row whose diagonal is missing or zero or
// that stores an entry on the wrong side of the diagonal.
//
// x may alias b in every executor: row i reads b[i] and nothing else of b,
// and every x entry it reads belongs to a row solved before it.
#pragma once

#include <algorithm>
#include <sstream>
#include <span>
#include <vector>

#include "sparse/csr.h"
#include "wavefront/levels.h"

namespace spcg {

namespace detail {

/// Position of row i's diagonal where a sorted triangular factor keeps it —
/// the last entry of an L row, the first of a U row — or -1 when that entry
/// is not a nonzero (i, i): the row lacks its diagonal, stores an entry on
/// the wrong side of it, or its diagonal is zero.
template <bool kLower, class T>
inline index_t trsv_diag(const Csr<T>& m, index_t i) {
  const index_t begin = m.rowptr[static_cast<std::size_t>(i)];
  const index_t end = m.rowptr[static_cast<std::size_t>(i) + 1];
  if (begin == end) return -1;
  const index_t d = kLower ? end - 1 : begin;
  return m.colind[static_cast<std::size_t>(d)] == i &&
                 m.values[static_cast<std::size_t>(d)] != T{0}
             ? d
             : -1;
}

/// Raise the spcg::Error for a row trsv_diag() rejected, naming the row and
/// what is wrong with it.
template <bool kLower, class T>
[[noreturn]] void throw_bad_trsv_row(const Csr<T>& m, index_t i) {
  const auto cols = m.row_cols(i);
  const auto wrong = std::find_if(cols.begin(), cols.end(), [i](index_t j) {
    return kLower ? j > i : j < i;
  });
  std::ostringstream os;
  os << "sptrsv: row " << i;
  if (wrong != cols.end())
    os << " stores column " << *wrong << (kLower ? " above" : " below")
       << " the diagonal of a " << (kLower ? "lower" : "upper")
       << " triangular factor";
  else if (std::find(cols.begin(), cols.end(), i) == cols.end())
    os << " has no diagonal entry";
  else
    os << " has a zero diagonal";
  throw Error(os.str());
}

/// The arithmetic of row i of a triangular solve, shared by every executor:
/// `acc` minus the row's off-diagonal products, times the reciprocal of the
/// diagonal at d = trsv_diag(m, i). Products are subtracted in stored column
/// order. `x_at(j)` reads solved entry j; `x_near(j)` reads the row's nearest
/// dependence (the off-diagonal next to the diagonal: last in an L row,
/// first in a U row), which the serial sweeps serve from a register when it
/// is the adjacent row. The reciprocal depends only on the factor, so its
/// division runs off the row-to-row dependence chain, which is left with a
/// multiply and the subtractions. It is skipped when the diagonal is exactly
/// 1 — every row of ILU's L — since x * 1 == x in IEEE-754.
template <bool kLower, class T, class Read, class ReadNear>
inline T trsv_row(const Csr<T>& m, index_t i, index_t d, T acc, Read x_at,
                  ReadNear x_near) {
  const index_t* col = m.colind.data();
  const T* val = m.values.data();
  if constexpr (kLower) {
    const index_t begin = m.rowptr[static_cast<std::size_t>(i)];
    if (begin < d) {
      for (index_t p = begin; p < d - 1; ++p) acc -= val[p] * x_at(col[p]);
      acc -= val[d - 1] * x_near(col[d - 1]);
    }
  } else {
    const index_t end = m.rowptr[static_cast<std::size_t>(i) + 1];
    if (d + 1 < end) {
      acc -= val[d + 1] * x_near(col[d + 1]);
      for (index_t p = d + 2; p < end; ++p) acc -= val[p] * x_at(col[p]);
    }
  }
  const T diag = val[d];
  return diag == T{1} ? acc : acc * (T{1} / diag);
}

template <class T>
void check_trsv_shape(const Csr<T>& m, std::size_t b_size,
                      std::size_t x_size) {
  SPCG_CHECK(m.rows == m.cols);
  SPCG_CHECK(static_cast<index_t>(b_size) == m.rows);
  SPCG_CHECK(static_cast<index_t>(x_size) == m.rows);
}

/// Level-scheduled sweep: the rows of one wavefront run in parallel, and the
/// implicit barrier closing each level's parallel region orders the levels.
/// An exception must not escape an OpenMP region, so a rejected row is
/// flagged into bad_row and thrown after its level completes (any one
/// offending row suffices for the message).
template <bool kLower, class T>
void sptrsv_level_sweep(const Csr<T>& m, const LevelSchedule& sched,
                        std::span<const T> b, std::span<T> x) {
  check_trsv_shape(m, b.size(), x.size());
  SPCG_CHECK(static_cast<index_t>(sched.level_of_row.size()) == m.rows);
  const T* const bp = b.data();
  T* const xp = x.data();
  index_t bad_row = -1;
  for (index_t l = 0; l < sched.num_levels(); ++l) {
    const index_t begin = sched.level_ptr[static_cast<std::size_t>(l)];
    const index_t end = sched.level_ptr[static_cast<std::size_t>(l) + 1];
#pragma omp parallel for schedule(static)
    for (index_t s = begin; s < end; ++s) {
      const index_t i = sched.rows_by_level[static_cast<std::size_t>(s)];
      const index_t d = trsv_diag<kLower>(m, i);
      if (d < 0) {
#pragma omp atomic write
        bad_row = i;
        continue;
      }
      const auto x_at = [xp](index_t j) { return xp[j]; };
      xp[i] = trsv_row<kLower>(m, i, d, bp[i], x_at, x_at);
    }
    if (bad_row >= 0) throw_bad_trsv_row<kLower>(m, bad_row);
  }
}

/// The serial forward sweep, written once: row i's right-hand side is
/// `rhs(i)`, called once per row in ascending order before x[i] is written.
/// sptrsv_lower_serial reads b[i]; the fused ILU apply of
/// precond/preconditioner.h also updates the CG iterate and residual there.
/// `rhs` is taken and returned by value, like std::for_each's function
/// object, so state it accumulates stays in registers across the sweep.
template <class T, class Rhs>
Rhs sptrsv_lower_sweep(const Csr<T>& l, Rhs rhs, std::span<T> x) {
  const auto x_at = [x](index_t j) { return x[static_cast<std::size_t>(j)]; };
  T prev{};  // x[i - 1], kept in a register for row i
  for (index_t i = 0; i < l.rows; ++i) {
    const index_t d = trsv_diag<true>(l, i);
    if (d < 0) throw_bad_trsv_row<true>(l, i);
    prev = trsv_row<true>(
        l, i, d, rhs(i), x_at,
        [&](index_t j) { return j == i - 1 ? prev : x_at(j); });
    x[static_cast<std::size_t>(i)] = prev;
  }
  return rhs;
}

}  // namespace detail

/// Solve L x = b, L lower triangular with stored diagonal. x may alias b.
template <class T>
void sptrsv_lower_serial(const Csr<T>& l, std::span<const T> b,
                         std::span<T> x) {
  detail::check_trsv_shape(l, b.size(), x.size());
  detail::sptrsv_lower_sweep(
      l, [b](index_t i) { return b[static_cast<std::size_t>(i)]; }, x);
}

/// Solve U x = b, U upper triangular with stored diagonal. x may alias b.
template <class T>
void sptrsv_upper_serial(const Csr<T>& u, std::span<const T> b,
                         std::span<T> x) {
  detail::check_trsv_shape(u, b.size(), x.size());
  const auto x_at = [x](index_t j) { return x[static_cast<std::size_t>(j)]; };
  T next{};  // x[i + 1], kept in a register for row i
  for (index_t i = u.rows - 1; i >= 0; --i) {
    const index_t d = detail::trsv_diag<false>(u, i);
    if (d < 0) detail::throw_bad_trsv_row<false>(u, i);
    next = detail::trsv_row<false>(
        u, i, d, b[static_cast<std::size_t>(i)], x_at,
        [&](index_t j) { return j == i + 1 ? next : x_at(j); });
    x[static_cast<std::size_t>(i)] = next;
  }
}

/// Level-scheduled lower solve. `sched` must be level_schedule(l, kLower).
/// x may alias b.
template <class T>
void sptrsv_lower_levels(const Csr<T>& l, const LevelSchedule& sched,
                         std::span<const T> b, std::span<T> x) {
  detail::sptrsv_level_sweep<true>(l, sched, b, x);
}

/// Level-scheduled upper solve. `sched` must be level_schedule(u, kUpper).
/// x may alias b.
template <class T>
void sptrsv_upper_levels(const Csr<T>& u, const LevelSchedule& sched,
                         std::span<const T> b, std::span<T> x) {
  detail::sptrsv_level_sweep<false>(u, sched, b, x);
}

}  // namespace spcg
