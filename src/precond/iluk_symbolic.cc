// Symbolic phase of ILU(K): level-of-fill pattern computation.
//
// Row-by-row linked-list merge in the style of SPARSKIT's iluk / Saad
// Alg. 10.6. For row i the workspace holds the current fill pattern as a
// sorted singly linked list; eliminating against each k < i fans out the
// U-part of row k, inserting fill entries whose level
//   lev(i,j) = lev(i,k) + lev(k,j) + 1
// does not exceed K. Only entries with level <= K are ever inserted, so the
// list never carries dropped entries.
//
// Levels are >= 0, so a candidate built from a level-K pivot (lev(i,k) = K)
// or from a level-K U entry (lev(k,j) = K) exceeds K. Both are pruned
// exactly: level-K pivots are skipped, and each pivot row fans out only its
// U entries of level <= K-1, recorded (column, level) in column order as the
// row is written, after any max_row_fill truncation. A pruned candidate
// would have been discarded by the level test without touching the list, so
// the output — pattern, levels, truncated_rows — is that of the unpruned
// merge.

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
  // Row k's U entries of level <= K-1 (the only ones that can create fill of
  // level <= K) are fan[fan_ptr[k], fan_ptr[k+1]), in column order.
  struct FanEntry {
    index_t col;
    index_t level;
  };
  std::vector<FanEntry> fan;
  std::vector<index_t> fan_ptr(static_cast<std::size_t>(n) + 1, 0);

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
      if (lev_ik >= k) continue;  // a level-K pivot creates no fill <= K
      index_t ins = kk;  // insertion scan pointer (row k's U-part is sorted)
      for (index_t q = fan_ptr[static_cast<std::size_t>(kk)];
           q < fan_ptr[static_cast<std::size_t>(kk) + 1]; ++q) {
        const index_t j = fan[static_cast<std::size_t>(q)].col;
        const index_t new_lev =
            lev_ik + fan[static_cast<std::size_t>(q)].level + 1;
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
    for (std::size_t t = row_begin; t < pat.colind.size(); ++t)
      if (pat.colind[t] > i && out.levels[t] < k)
        fan.push_back({pat.colind[t], out.levels[t]});
    fan_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<index_t>(fan.size());
  }

  pat.values.assign(pat.colind.size(), char{1});
  return out;
}

}  // namespace detail

}  // namespace spcg
