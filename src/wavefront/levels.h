// Wavefront (level-set) inspector for sparse triangular dependence DAGs.
//
// For a lower-triangular solve Lx = b, row i depends on every row j < i with
// L(i,j) != 0. The level of row i is 1 + max(level of its dependences); rows
// sharing a level form a wavefront and can be solved in parallel, with a
// barrier between consecutive wavefronts. This is the inspector half of the
// classic inspector–executor scheme (Naumov 2011; Anderson & Saad 1989).
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <span>
#include <vector>

#include "sparse/csr.h"
#include "sparse/ops.h"

namespace spcg {

/// Level schedule: rows grouped into wavefronts.
struct LevelSchedule {
  std::vector<index_t> level_of_row;   // level index (0-based) per row
  std::vector<index_t> level_ptr;      // CSR-style: rows of level l are
  std::vector<index_t> rows_by_level;  //   rows_by_level[level_ptr[l] .. level_ptr[l+1])

  [[nodiscard]] index_t num_levels() const {
    return static_cast<index_t>(level_ptr.empty() ? 0 : level_ptr.size() - 1);
  }

  /// Number of rows in level l.
  [[nodiscard]] index_t level_size(index_t l) const {
    return level_ptr[static_cast<std::size_t>(l) + 1] -
           level_ptr[static_cast<std::size_t>(l)];
  }

  /// Largest wavefront (peak parallelism).
  [[nodiscard]] index_t max_level_size() const {
    index_t best = 0;
    for (index_t l = 0; l < num_levels(); ++l)
      best = std::max(best, level_size(l));
    return best;
  }

  /// Mean rows per wavefront.
  [[nodiscard]] double avg_level_size() const {
    if (num_levels() == 0) return 0.0;
    return static_cast<double>(level_of_row.size()) /
           static_cast<double>(num_levels());
  }
};

/// Build the level schedule for the strictly-triangular dependence pattern of
/// `a`. `tri` selects which triangle drives the dependences: kLower scans
/// rows in increasing order (forward substitution), kUpper in decreasing
/// order (backward substitution). Entries on the other side of the diagonal
/// are ignored, so `a` may be a full symmetric matrix. A non-empty `dropped`
/// flags, per stored entry of `a`, entries to leave out: the schedule of `a`
/// with those entries removed, without building that matrix.
template <class T>
LevelSchedule level_schedule(const Csr<T>& a, Triangle tri,
                             std::span<const char> dropped = {}) {
  SPCG_CHECK(a.rows == a.cols);
  const index_t n = a.rows;
  LevelSchedule s;
  s.level_of_row.assign(static_cast<std::size_t>(n), 0);
  index_t num_levels = 0;

  auto relax = [&](index_t i) {
    index_t lvl = 0;
    for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
         p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      const index_t j = a.colind[static_cast<std::size_t>(p)];
      const bool dep = (tri == Triangle::kLower) ? (j < i) : (j > i);
      if (dep && (dropped.empty() || !dropped[static_cast<std::size_t>(p)]))
        lvl = std::max(lvl, s.level_of_row[static_cast<std::size_t>(j)] + 1);
    }
    s.level_of_row[static_cast<std::size_t>(i)] = lvl;
    num_levels = std::max(num_levels, lvl + 1);
  };

  if (tri == Triangle::kLower) {
    for (index_t i = 0; i < n; ++i) relax(i);
  } else {
    for (index_t i = n - 1; i >= 0; --i) relax(i);
  }
  if (n == 0) {
    s.level_ptr.assign(1, 0);
    return s;
  }

  // Bucket rows by level (counting sort keeps row order inside each level).
  s.level_ptr.assign(static_cast<std::size_t>(num_levels) + 1, 0);
  for (index_t i = 0; i < n; ++i)
    ++s.level_ptr[static_cast<std::size_t>(s.level_of_row[static_cast<std::size_t>(i)]) + 1];
  std::partial_sum(s.level_ptr.begin(), s.level_ptr.end(), s.level_ptr.begin());
  s.rows_by_level.assign(static_cast<std::size_t>(n), 0);
  std::vector<index_t> cursor(s.level_ptr.begin(), s.level_ptr.end() - 1);
  for (index_t i = 0; i < n; ++i) {
    const index_t l = s.level_of_row[static_cast<std::size_t>(i)];
    s.rows_by_level[static_cast<std::size_t>(cursor[static_cast<std::size_t>(l)]++)] = i;
  }
  return s;
}

/// Number of wavefronts of the lower-triangular pattern of `a` — the metric
/// w_A used by the paper (Eq. 7). For a structurally symmetric matrix the
/// upper-triangle count is identical by symmetry. `dropped` as for
/// level_schedule().
template <class T>
index_t count_wavefronts(const Csr<T>& a, std::span<const char> dropped = {}) {
  return level_schedule(a, Triangle::kLower, dropped).num_levels();
}

/// Wavefront reduction percentage as defined by Eq. 7 of the paper:
/// 100 * (w_A - w_Ahat) / w_A.
inline double wavefront_reduction_percent(index_t w_a, index_t w_ahat) {
  if (w_a == 0) return 0.0;
  return 100.0 * static_cast<double>(w_a - w_ahat) / static_cast<double>(w_a);
}

/// Per-level nonzero counts for a triangular pattern (used by the GPU cost
/// model: each level moves its own slice of the factor).
template <class T>
std::vector<index_t> level_nnz(const Csr<T>& a, const LevelSchedule& s,
                               Triangle tri) {
  std::vector<index_t> nnz(static_cast<std::size_t>(s.num_levels()), 0);
  for (index_t i = 0; i < a.rows; ++i) {
    index_t count = 0;
    for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
         p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      const index_t j = a.colind[static_cast<std::size_t>(p)];
      const bool in_tri = (tri == Triangle::kLower) ? (j <= i) : (j >= i);
      if (in_tri) ++count;
    }
    nnz[static_cast<std::size_t>(s.level_of_row[static_cast<std::size_t>(i)])] += count;
  }
  return nnz;
}

}  // namespace spcg
