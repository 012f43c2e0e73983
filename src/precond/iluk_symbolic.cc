// Symbolic phase of ILU(K): level-of-fill pattern computation.
//
// Row-by-row linked-list merge in the style of SPARSKIT's iluk / Saad
// Alg. 10.6. For row i the workspace holds the current fill pattern as a
// sorted singly linked list; eliminating against each k < i fans out the
// U-part of row k, read back from the output pattern, inserting fill
// entries whose level
//   lev(i,j) = lev(i,k) + lev(k,j) + 1
// does not exceed K. Only entries with level <= K are ever inserted, so the
// list never carries dropped entries.

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "precond/ilu.h"

namespace spcg {

namespace detail {

IlukSymbolic iluk_symbolic_pattern(index_t n,
                                   std::span<const index_t> rowptr,
                                   std::span<const index_t> colind, index_t k,
                                   index_t max_row_fill) {
  SPCG_CHECK(k >= 0);
  constexpr index_t kNone = -1;
  constexpr index_t kUnset = std::numeric_limits<index_t>::max();

  IlukSymbolic out;
  Csr<char>& pat = out.pattern;
  pat.rows = n;
  pat.cols = n;
  pat.rowptr.assign(static_cast<std::size_t>(n) + 1, 0);
  // Row k's U-part (strictly j > k) is pattern row k from u_begin[k] on; the
  // elimination of later rows reads it back from the pattern being written.
  std::vector<index_t> u_begin(static_cast<std::size_t>(n));

  const index_t head = n;  // sentinel node of the linked list
  std::vector<index_t> next(static_cast<std::size_t>(n) + 1, kNone);
  std::vector<index_t> lev(static_cast<std::size_t>(n), kUnset);
  std::vector<std::pair<index_t, index_t>> keep;  // (level, col) for capping

  for (index_t i = 0; i < n; ++i) {
    // Seed the list with A's row i (columns already sorted).
    index_t prev = head;
    bool has_diag = false;
    for (index_t p = rowptr[static_cast<std::size_t>(i)];
         p < rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      const index_t j = colind[static_cast<std::size_t>(p)];
      next[static_cast<std::size_t>(prev)] = j;
      lev[static_cast<std::size_t>(j)] = 0;
      prev = j;
      has_diag |= (j == i);
    }
    next[static_cast<std::size_t>(prev)] = kNone;
    SPCG_CHECK_MSG(has_diag, "iluk_symbolic: row " << i << " has no diagonal");

    // Eliminate against rows k' < i in ascending column order.
    for (index_t kk = next[static_cast<std::size_t>(head)];
         kk != kNone && kk < i; kk = next[static_cast<std::size_t>(kk)]) {
      const index_t lev_ik = lev[static_cast<std::size_t>(kk)];
      index_t ins = kk;  // insertion scan pointer (row k's U-part is sorted)
      for (index_t q = u_begin[static_cast<std::size_t>(kk)];
           q < pat.rowptr[static_cast<std::size_t>(kk) + 1]; ++q) {
        const index_t j = pat.colind[static_cast<std::size_t>(q)];
        const index_t new_lev =
            lev_ik + out.levels[static_cast<std::size_t>(q)] + 1;
        if (new_lev > k) continue;
        if (lev[static_cast<std::size_t>(j)] != kUnset) {
          lev[static_cast<std::size_t>(j)] =
              std::min(lev[static_cast<std::size_t>(j)], new_lev);
        } else {
          while (next[static_cast<std::size_t>(ins)] != kNone &&
                 next[static_cast<std::size_t>(ins)] < j)
            ins = next[static_cast<std::size_t>(ins)];
          next[static_cast<std::size_t>(j)] = next[static_cast<std::size_t>(ins)];
          next[static_cast<std::size_t>(ins)] = j;
          lev[static_cast<std::size_t>(j)] = new_lev;
        }
      }
    }

    // Persist the row (already sorted by construction) and reset the
    // workspace.
    const std::size_t row_begin = pat.colind.size();
    for (index_t j = next[static_cast<std::size_t>(head)]; j != kNone;) {
      pat.colind.push_back(j);
      out.levels.push_back(lev[static_cast<std::size_t>(j)]);
      const index_t nj = next[static_cast<std::size_t>(j)];
      lev[static_cast<std::size_t>(j)] = kUnset;
      next[static_cast<std::size_t>(j)] = kNone;
      j = nj;
    }
    next[static_cast<std::size_t>(head)] = kNone;

    // Optional per-row cap: keep original (level-0) entries plus the
    // lowest-level fills, then restore column order.
    if (max_row_fill > 0 && pat.colind.size() - row_begin >
                                static_cast<std::size_t>(max_row_fill)) {
      keep.clear();
      for (std::size_t t = row_begin; t < pat.colind.size(); ++t)
        keep.emplace_back(out.levels[t], pat.colind[t]);
      std::stable_sort(keep.begin(), keep.end());
      keep.resize(static_cast<std::size_t>(max_row_fill));
      std::sort(keep.begin(), keep.end(),
                [](const auto& x, const auto& y) { return x.second < y.second; });
      pat.colind.resize(row_begin);
      out.levels.resize(row_begin);
      for (const auto& [l, j] : keep) {
        pat.colind.push_back(j);
        out.levels.push_back(l);
      }
      ++out.truncated_rows;
    }
    pat.rowptr[static_cast<std::size_t>(i) + 1] =
        static_cast<index_t>(pat.colind.size());
    u_begin[static_cast<std::size_t>(i)] = static_cast<index_t>(
        std::upper_bound(pat.colind.begin() +
                             static_cast<std::ptrdiff_t>(row_begin),
                         pat.colind.end(), i) -
        pat.colind.begin());
  }

  pat.values.assign(pat.colind.size(), char{1});
  return out;
}

}  // namespace detail

}  // namespace spcg
