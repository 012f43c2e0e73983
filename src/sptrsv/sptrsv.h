// Sparse triangular solvers (SpTRSV): the executor half of the
// inspector–executor scheme, and the one triangular-factor format every
// executor reads.
//
// TriangularFactors stores M = L U the way the paper's csrsv2 sweeps read it
// under CUSPARSE_DIAG_TYPE_UNIT: L strictly lower with an implicit unit
// diagonal, U upper with its diagonal first in every row, columns sorted and
// unique within each row. The factor is validated once, where it is made —
// its constructor checks the pattern and U's diagonal, and the numeric ILU
// phase (precond/ilu.h) checks every pivot it writes — so the executors
// trust it: no executor looks for a diagonal or tests one per row.
//
// Every executor runs the same row kernel (detail::trsv_row), so all of them
// produce bitwise identical solutions by construction:
//   * serial forward/backward substitution (reference),
//   * level-scheduled parallel substitution on one fork_join team per sweep
//     (support/fork_join.h): the rows of a wavefront run in parallel, and a
//     TeamBarrier closes each level — the same execution structure as
//     cuSPARSE's csrsv2 on the GPU,
//   * the race-checking executor of analysis/race_detector.h, which reads x
//     through an instrumenting hook.
//
// x may alias b in every executor: row i reads b[i] and nothing else of b,
// and every x entry it reads belongs to a row solved before it.
//
// The factor's value type F and the vector type T are separate template
// parameters: a row reads F values and accumulates in T, so float factors
// (half the value bytes) solve double vectors in double arithmetic. With
// F = T every conversion is the identity.
#pragma once

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <span>
#include <string>
#include <utility>

#include "sparse/csr.h"
#include "support/fork_join.h"
#include "wavefront/levels.h"

namespace spcg {

namespace detail {

/// Throw the spcg::Error for a malformed row `i` of factor `tri` ("L"/"U").
[[noreturn]] inline void throw_bad_factor_row(const char* tri, index_t i,
                                              const std::string& what) {
  std::ostringstream os;
  os << "triangular factors: " << tri << " row " << i << " " << what;
  throw Error(os.str());
}

/// Pattern check of one triangle of an n x n factor: a valid CSR (sorted,
/// unique, in-range columns), every entry on the triangle's side — strictly
/// below the diagonal for L, on or above it for U, so with sorted rows only
/// the last entry of an L row and the first of a U row need a look — and
/// U's diagonal first in every row.
template <bool kLower, class T>
void check_triangle(const Csr<T>& m, index_t n) {
  const char* tri = kLower ? "L" : "U";
  SPCG_CHECK_MSG(m.rows == n && m.cols == n,
                 "triangular factors: " << tri << " is " << m.rows << "x"
                                        << m.cols << ", expected " << n << "x"
                                        << n);
  m.validate();
  for (index_t i = 0; i < n; ++i) {
    const auto cols = m.row_cols(i);
    if (kLower && !cols.empty() && cols.back() >= i)
      throw_bad_factor_row(tri, i,
                           "stores column " + std::to_string(cols.back()) +
                               " on or above the diagonal of L, which is "
                               "strictly lower (its unit diagonal is "
                               "implicit)");
    if (!kLower && !cols.empty() && cols.front() < i)
      throw_bad_factor_row(tri, i,
                           "stores column " + std::to_string(cols.front()) +
                               " below the diagonal of U");
    if (!kLower && (cols.empty() || cols.front() != i))
      throw_bad_factor_row(tri, i, "has no diagonal entry");
  }
}

}  // namespace detail

/// An incomplete factorization M = L U in the format every executor reads:
/// `l` strictly lower triangular (its unit diagonal is implicit, not stored),
/// `u` upper triangular with its nonzero diagonal first in every row, both
/// n x n with sorted, unique columns. Construction validates all of that and
/// throws spcg::Error naming the first malformed row. The members are public
/// so a numeric refresh can rewrite values in place; the pattern must not
/// change after construction.
template <class T>
struct TriangularFactors {
  Csr<T> l;
  Csr<T> u;

  /// Tag: check the pattern only, for a numeric phase that writes and checks
  /// every U diagonal itself (precond/ilu.h).
  struct PatternOnly {};

  TriangularFactors() = default;

  TriangularFactors(Csr<T> lower, Csr<T> upper)
      : TriangularFactors(std::move(lower), std::move(upper), PatternOnly{}) {
    for (index_t i = 0; i < u.rows; ++i)
      if (u.values[static_cast<std::size_t>(
              u.rowptr[static_cast<std::size_t>(i)])] == T{0})
        detail::throw_bad_factor_row("U", i, "has a zero diagonal");
  }

  TriangularFactors(Csr<T> lower, Csr<T> upper, PatternOnly)
      : l(std::move(lower)), u(std::move(upper)) {
    detail::check_triangle<true>(l, u.rows);
    detail::check_triangle<false>(u, u.rows);
  }
};

/// The factors with their values converted to `To` (e.g. double -> float),
/// validated again: a U diagonal may round to zero in the narrower type.
template <class To, class From>
TriangularFactors<To> factors_cast(const TriangularFactors<From>& f) {
  return TriangularFactors<To>(csr_cast<To>(f.l), csr_cast<To>(f.u));
}

namespace detail {

/// The arithmetic of row i of a triangular solve, shared by every executor:
/// `acc` minus the row's off-diagonal products, in stored column order, then
/// — U only — times the reciprocal of the diagonal that heads the row. L's
/// unit diagonal costs nothing (x * 1 == x in IEEE-754). `x_at(j)` reads
/// solved entry j; `x_near(j)` reads the row's nearest dependence (the last
/// entry of an L row, the entry after the diagonal of a U row), which the
/// serial sweeps serve from a register when it is the adjacent row. The
/// reciprocal depends only on the factor, so its division runs off the
/// row-to-row dependence chain, which is left with a multiply and the
/// subtractions.
template <bool kLower, class T, class F, class Read, class ReadNear>
inline T trsv_row(const index_t* rowptr, const index_t* col, const F* val,
                  index_t i, T acc, Read x_at, ReadNear x_near) {
  const index_t begin = rowptr[i];
  const index_t end = rowptr[i + 1];
  if constexpr (kLower) {
    if (begin < end) {
      for (index_t p = begin; p < end - 1; ++p)
        acc -= static_cast<T>(val[p]) * x_at(col[p]);
      acc -= static_cast<T>(val[end - 1]) * x_near(col[end - 1]);
    }
    return acc;
  } else {
    if (begin + 1 < end) {
      acc -= static_cast<T>(val[begin + 1]) * x_near(col[begin + 1]);
      for (index_t p = begin + 2; p < end; ++p)
        acc -= static_cast<T>(val[p]) * x_at(col[p]);
    }
    return acc * (T{1} / static_cast<T>(val[begin]));
  }
}

template <class T>
void check_trsv_shape(const Csr<T>& m, std::size_t b_size,
                      std::size_t x_size) {
  SPCG_CHECK(static_cast<index_t>(b_size) == m.rows);
  SPCG_CHECK(static_cast<index_t>(x_size) == m.rows);
}

/// The serial forward sweep over L, written once: row i's right-hand side
/// is `rhs(i)`, called once per row in ascending order before x[i] is
/// written. sptrsv_lower_serial reads b[i]; the fused ILU apply of
/// precond/preconditioner.h also updates the CG iterate and residual there.
/// `rhs` is taken and returned by value, like std::for_each's function
/// object, so state it accumulates stays in registers across the sweep.
template <class T, class F, class Rhs>
Rhs sptrsv_lower_sweep(const Csr<F>& l, Rhs rhs, std::span<T> x) {
  const index_t* const rowptr = l.rowptr.data();
  const index_t* const col = l.colind.data();
  const F* const val = l.values.data();
  T* const xp = x.data();
  const auto x_at = [xp](index_t j) { return xp[j]; };
  T prev{};  // x[i - 1], kept in a register for row i
  for (index_t i = 0; i < l.rows; ++i) {
    prev = trsv_row<true>(rowptr, col, val, i, rhs(i), x_at,
                          [&](index_t j) { return j == i - 1 ? prev : xp[j]; });
    xp[i] = prev;
  }
  return rhs;
}

/// The serial backward sweep over U, rows in descending order.
template <class T, class F>
void sptrsv_upper_sweep(const Csr<F>& u, std::span<const T> b,
                        std::span<T> x) {
  const index_t* const rowptr = u.rowptr.data();
  const index_t* const col = u.colind.data();
  const F* const val = u.values.data();
  const T* const bp = b.data();
  T* const xp = x.data();
  const auto x_at = [xp](index_t j) { return xp[j]; };
  T next{};  // x[i + 1], kept in a register for row i
  for (index_t i = u.rows - 1; i >= 0; --i) {
    next = trsv_row<false>(rowptr, col, val, i, bp[i], x_at,
                           [&](index_t j) { return j == i + 1 ? next : xp[j]; });
    xp[i] = next;
  }
}

/// Level-scheduled sweep over one triangle of a factor on a fork_join team
/// of `team` workers: worker w solves the w-th contiguous slice of every
/// level's rows, and a TeamBarrier after each level orders the levels.
/// Every check runs before the fork and nothing in the team throws, since
/// a worker that left early would hold the others at the barrier forever.
/// A team of one runs the serial sweep in natural row order instead: level
/// order scatters one thread's reads, and measured up to 5x slower.
template <bool kLower, class T, class F>
void sptrsv_level_sweep(const Csr<F>& m, const LevelSchedule& sched,
                        std::span<const T> b, std::span<T> x,
                        std::size_t team) {
  check_trsv_shape(m, b.size(), x.size());
  SPCG_CHECK(static_cast<index_t>(sched.level_of_row.size()) == m.rows);
  SPCG_CHECK(team >= 1);
  const T* const bp = b.data();
  if (team == 1) {
    if constexpr (kLower)
      sptrsv_lower_sweep(m, [bp](index_t i) { return bp[i]; }, x);
    else
      sptrsv_upper_sweep(m, b, x);
    return;
  }
  const index_t* const rowptr = m.rowptr.data();
  const index_t* const col = m.colind.data();
  const F* const val = m.values.data();
  const index_t* const level_ptr = sched.level_ptr.data();
  const index_t* const rows = sched.rows_by_level.data();
  const index_t levels = sched.num_levels();
  T* const xp = x.data();
  TeamBarrier barrier(team);
  fork_join(team, [&](std::size_t w) {
    const auto x_at = [xp](index_t j) { return xp[j]; };
    for (index_t l = 0; l < levels; ++l) {
      const auto begin = static_cast<std::size_t>(level_ptr[l]);
      const auto size = static_cast<std::size_t>(level_ptr[l + 1]) - begin;
      const std::size_t end = begin + size * (w + 1) / team;
      for (std::size_t s = begin + size * w / team; s < end; ++s) {
        const index_t i = rows[s];
        xp[i] = trsv_row<kLower>(rowptr, col, val, i, bp[i], x_at, x_at);
      }
      if (l + 1 < levels) barrier.arrive_and_wait();
    }
  });
}

/// The team a level-scheduled solve runs on: a worker per hardware thread,
/// but no more workers than the widest level has rows.
inline std::size_t level_team(const LevelSchedule& sched) {
  return std::clamp(static_cast<std::size_t>(sched.max_level_size()),
                    std::size_t{1}, hardware_threads());
}

}  // namespace detail

/// Solve L x = b for the factors' unit lower L. x may alias b.
template <class T, class F>
void sptrsv_lower_serial(const TriangularFactors<F>& f, std::span<const T> b,
                         std::span<T> x) {
  detail::check_trsv_shape(f.l, b.size(), x.size());
  const T* const bp = b.data();
  detail::sptrsv_lower_sweep(f.l, [bp](index_t i) { return bp[i]; }, x);
}

/// Solve U x = b for the factors' upper U. x may alias b.
template <class T, class F>
void sptrsv_upper_serial(const TriangularFactors<F>& f, std::span<const T> b,
                         std::span<T> x) {
  detail::check_trsv_shape(f.u, b.size(), x.size());
  detail::sptrsv_upper_sweep(f.u, b, x);
}

/// Level-scheduled lower solve on detail::level_team(sched) workers.
/// `sched` must be level_schedule(f.l, kLower). x may alias b.
template <class T, class F>
void sptrsv_lower_levels(const TriangularFactors<F>& f,
                         const LevelSchedule& sched, std::span<const T> b,
                         std::span<T> x) {
  detail::sptrsv_level_sweep<true>(f.l, sched, b, x,
                                   detail::level_team(sched));
}

/// Level-scheduled upper solve on detail::level_team(sched) workers.
/// `sched` must be level_schedule(f.u, kUpper). x may alias b.
template <class T, class F>
void sptrsv_upper_levels(const TriangularFactors<F>& f,
                         const LevelSchedule& sched, std::span<const T> b,
                         std::span<T> x) {
  detail::sptrsv_level_sweep<false>(f.u, sched, b, x,
                                    detail::level_team(sched));
}

}  // namespace spcg
