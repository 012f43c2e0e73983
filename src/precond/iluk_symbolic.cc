// Symbolic phase of ILU(K): level-of-fill pattern computation, by two exact
// algorithms that return the same bytes.
//
// Fill paths (uncapped runs, max_row_fill == 0). Entry (i, j) has level of
// fill l exactly when the shortest i -> j path in G(A) whose inner vertices
// are all numbered below min(i, j) has l+1 edges (Hysom & Pothen, "A
// scalable parallel algorithm for incomplete factor preconditioning", SIAM
// J. Sci. Comput. 22(6), 2001). So row i's U part is a breadth-first search
// from i, at most K+1 edges deep, that passes only through vertices below i:
// each reached j > i gets level = edges - 1. Its L part is the transpose of
// U's strict part when A's pattern is symmetric; otherwise the same search
// over A^T's pattern gives L's columns. Rows do not depend on one another,
// so chunks of rows run on a fork_join team, each worker with its own
// search state and output; the rows are put together in row order, so the
// team size cannot change a bit.
//
// Linked-list merge (capped runs, and the verifier's independent closure).
// Row-by-row merge in the style of SPARSKIT's iluk / Saad Alg. 10.6. For
// row i the workspace holds the current fill pattern as a sorted singly
// linked list; eliminating against each k < i fans out the U-part of row k,
// inserting fill entries whose level
//   lev(i,j) = lev(i,k) + lev(k,j) + 1
// does not exceed K. Only entries with level <= K are ever inserted, so the
// list never carries dropped entries. Truncating a row to max_row_fill
// changes what later rows fan out, so the fill-path theorem no longer holds
// under a cap and only the merge computes capped patterns.
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
#include <cstdint>
#include <limits>
#include <span>
#include <utility>

#include "precond/ilu.h"
#include "support/fork_join.h"

namespace spcg {

namespace detail {

IlukSymbolic iluk_merge(index_t n, std::span<const index_t> rowptr,
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
        checked_index_cast(pat.colind.size());
    for (std::size_t t = row_begin; t < pat.colind.size(); ++t)
      if (pat.colind[t] > i && out.levels[t] < k)
        fan.push_back({pat.colind[t], out.levels[t]});
    fan_ptr[static_cast<std::size_t>(i) + 1] = checked_index_cast(fan.size());
  }

  pat.values.assign(pat.colind.size(), char{1});
  return out;
}

namespace {

/// A found entry as one sortable key: column in the high half, level in the
/// low half, so sorting a row's keys sorts it by column.
std::uint64_t fill_key(index_t col, std::int64_t level) {
  return static_cast<std::uint64_t>(col) << 32 |
         static_cast<std::uint32_t>(level);
}
index_t key_col(std::uint64_t key) { return static_cast<index_t>(key >> 32); }
index_t key_level(std::uint64_t key) {
  return static_cast<index_t>(key & 0xffffffffu);
}

/// A sparsity pattern as read by the search: sorted rows.
struct Graph {
  std::span<const index_t> rowptr;
  std::span<const index_t> colind;
};

/// One worker's breadth-first search state and output, sized by the calling
/// thread and alone on its cache lines: the search writes `stamp`, `queue`
/// and the output vectors per row.
struct alignas(64) FillSearch {
  explicit FillSearch(index_t n) : seen(static_cast<std::size_t>(n), 0) {
    queue.reserve(static_cast<std::size_t>(n));
  }

  /// Append to `out`, sorted by column, a key for every vertex j > root that
  /// a path of at most `depth` edges whose inner vertices lie below `root`
  /// reaches in `g`, with level = edges - 1 of the shortest such path;
  /// returns how many were appended.
  std::size_t run(index_t root, const Graph& g, std::int64_t depth,
                  std::vector<std::uint64_t>& out) {
    const std::uint32_t mark = ++stamp;
    const std::size_t first = out.size();
    seen[static_cast<std::size_t>(root)] = mark;
    queue.clear();
    queue.push_back(root);
    std::size_t lo = 0;
    for (std::int64_t d = 1; d <= depth && lo < queue.size(); ++d) {
      const std::size_t hi = queue.size();
      const std::int64_t level = d - 1;
      for (std::size_t q = lo; q < hi; ++q) {
        const auto v = static_cast<std::size_t>(queue[q]);
        const index_t begin = g.rowptr[v];
        if (d < depth) {
          for (index_t p = begin; p < g.rowptr[v + 1]; ++p) {
            const index_t u = g.colind[static_cast<std::size_t>(p)];
            if (seen[static_cast<std::size_t>(u)] == mark) continue;
            seen[static_cast<std::size_t>(u)] = mark;
            if (u < root)
              queue.push_back(u);
            else
              out.push_back(fill_key(u, level));
          }
        } else {
          // The last edge only counts when it ends above the root, and a
          // sorted row holds those columns at its end.
          for (index_t p = g.rowptr[v + 1] - 1;
               p >= begin && g.colind[static_cast<std::size_t>(p)] > root;
               --p) {
            const index_t u = g.colind[static_cast<std::size_t>(p)];
            if (seen[static_cast<std::size_t>(u)] == mark) continue;
            seen[static_cast<std::size_t>(u)] = mark;
            out.push_back(fill_key(u, level));
          }
        }
      }
      lo = hi;
    }
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
    return out.size() - first;
  }

  std::vector<std::uint32_t> seen;  // seen[v] == stamp: reached this search
  std::vector<index_t> queue;       // vertices below the root, by depth
  // At most two searches per row a worker owns, plus worker 0's 1-in-64
  // sample when the team is larger: fewer than 2^32 for any index_t n, so
  // the stamp never wraps back to a stale mark.
  std::uint32_t stamp = 0;
  // Keys of this worker's rows, its chunks in order: U's strict part, and
  // L's columns when the pattern is unsymmetric.
  std::vector<std::uint64_t> upper, lower;
};

/// Whether the pattern is structurally symmetric. Visiting rows in order,
/// the rows i < j that hold (i, j) must match row j's entries below the
/// diagonal one by one, in column order.
bool pattern_symmetric(index_t n, const Graph& g) {
  std::vector<index_t> next(g.rowptr.begin(), g.rowptr.end() - 1);
  for (index_t i = 0; i < n; ++i) {
    for (index_t p = g.rowptr[static_cast<std::size_t>(i)];
         p < g.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      const auto j = static_cast<std::size_t>(
          g.colind[static_cast<std::size_t>(p)]);
      if (j <= static_cast<std::size_t>(i)) continue;
      if (next[j] == g.rowptr[j + 1] ||
          g.colind[static_cast<std::size_t>(next[j])] != i)
        return false;
      ++next[j];
    }
  }
  for (index_t j = 0; j < n; ++j) {
    const auto row = static_cast<std::size_t>(j);
    if (next[row] < g.rowptr[row + 1] &&
        g.colind[static_cast<std::size_t>(next[row])] < j)
      return false;
  }
  return true;
}

/// Chunks each worker of a team of size > 1 takes, interleaved with the
/// other workers' so that each worker's rows spread over the whole matrix.
constexpr std::size_t kChunksPerWorker = 8;

/// One row in this many sizes the workers' output before the fork.
constexpr std::int64_t kSampleStride = 64;

}  // namespace

IlukSymbolic iluk_fill_paths(index_t n, std::span<const index_t> rowptr,
                             std::span<const index_t> colind, index_t k,
                             std::size_t team) {
  SPCG_CHECK(k >= 0 && team >= 1);
  const Graph a{rowptr, colind};
  // The lowest row without a diagonal, before any worker starts.
  for (index_t i = 0; i < n; ++i) {
    const auto row = a.colind.begin() + rowptr[static_cast<std::size_t>(i)];
    const auto end = a.colind.begin() + rowptr[static_cast<std::size_t>(i) + 1];
    SPCG_CHECK_MSG(std::binary_search(row, end, i),
                   "iluk_symbolic: row " << i << " has no diagonal");
  }
  // L's columns come from the search over A^T's pattern, which is A's own
  // when it is symmetric.
  const bool symmetric = pattern_symmetric(n, a);
  Csr<char> a_t;
  if (!symmetric) {
    Csr<char> pattern(n, n);
    pattern.rowptr.assign(rowptr.begin(), rowptr.end());
    pattern.colind.assign(colind.begin(), colind.end());
    pattern.values.assign(colind.size(), char{1});
    a_t = transpose(pattern);
  }
  const Graph at = symmetric ? a : Graph{a_t.rowptr, a_t.colind};
  // Inner vertices of a path are distinct, so no shortest path is longer
  // than n edges.
  const std::int64_t depth = std::min<std::int64_t>(k, n) + 1;

  // Chunk c runs on worker c % team.
  const auto rows = static_cast<std::size_t>(n);
  const std::size_t chunks =
      team == 1 ? 1
                : std::max<std::size_t>(
                      1, std::min(rows, team * kChunksPerWorker));
  const auto chunk_begin = [&](std::size_t c) {
    return static_cast<index_t>(rows * c / chunks);
  };
  std::vector<FillSearch> searches;
  searches.reserve(team);
  for (std::size_t w = 0; w < team; ++w) searches.emplace_back(n);
  if (team > 1) {
    // Size each worker's output here, from a sample of its rows: memory a
    // worker thread allocates stays in that thread's malloc arena once
    // freed, out of reach of the caller's later allocations.
    FillSearch& probe = searches[0];
    std::vector<double> upper_est(team, 0.0), lower_est(team, 0.0);
    for (std::size_t c = 0; c < chunks; ++c) {
      std::size_t sampled = 0;
      for (std::int64_t i = chunk_begin(c); i < chunk_begin(c + 1);
           i += kSampleStride, ++sampled) {
        probe.run(static_cast<index_t>(i), a, depth, probe.upper);
        if (!symmetric)
          probe.run(static_cast<index_t>(i), at, depth, probe.lower);
      }
      if (sampled == 0) continue;
      const double scale = static_cast<double>(chunk_begin(c + 1) -
                                               chunk_begin(c)) /
                           static_cast<double>(sampled);
      upper_est[c % team] += scale * static_cast<double>(probe.upper.size());
      lower_est[c % team] += scale * static_cast<double>(probe.lower.size());
      probe.upper.clear();
      probe.lower.clear();
    }
    // A quarter over the estimate, plus room for the widest stencil row.
    const auto room = [](double est) {
      return static_cast<std::size_t>(1.25 * est) + 1024;
    };
    for (std::size_t w = 0; w < team; ++w) {
      searches[w].upper.reserve(room(upper_est[w]));
      if (!symmetric) searches[w].lower.reserve(room(lower_est[w]));
    }
  }
  std::vector<index_t> upper_len(rows), lower_len(symmetric ? 0 : rows);
  fork_join(team, [&](std::size_t w) {
    FillSearch& s = searches[w];
    for (std::size_t c = w; c < chunks; c += team) {
      for (index_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
        const auto row = static_cast<std::size_t>(i);
        upper_len[row] = static_cast<index_t>(s.run(i, a, depth, s.upper));
        if (!symmetric)
          lower_len[row] = static_cast<index_t>(s.run(i, at, depth, s.lower));
      }
    }
  });
  for (FillSearch& s : searches) {
    std::vector<std::uint32_t>().swap(s.seen);
    std::vector<index_t>().swap(s.queue);
  }

  // Row lengths: an entry (r, t) found from row r's L search sits in L's
  // row t; each row also holds its diagonal and its U part.
  IlukSymbolic out;
  Csr<char>& pat = out.pattern;
  pat.rows = n;
  pat.cols = n;
  std::vector<index_t> slot(rows, 0);  // row lengths, then next L slot
  for (const FillSearch& s : searches)
    for (const std::uint64_t key : symmetric ? s.upper : s.lower)
      ++slot[static_cast<std::size_t>(key_col(key))];
  pat.rowptr.assign(rows + 1, 0);
  std::size_t total = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    total += static_cast<std::size_t>(slot[r]) + 1 +
             static_cast<std::size_t>(upper_len[r]);
    pat.rowptr[r + 1] = checked_index_cast(total);
    slot[r] = pat.rowptr[r];
  }
  pat.colind.resize(total);
  out.levels.resize(total);

  // Rows in order: row r's diagonal and U part go after its L part, and its
  // L columns go to the next slot of their rows, so every L row fills in
  // ascending column order.
  const auto put = [&](index_t at_pos, index_t col, index_t level) {
    pat.colind[static_cast<std::size_t>(at_pos)] = col;
    out.levels[static_cast<std::size_t>(at_pos)] = level;
  };
  std::vector<const std::uint64_t*> next_upper(team), next_lower(team);
  for (std::size_t w = 0; w < team; ++w) {
    next_upper[w] = searches[w].upper.data();
    next_lower[w] = symmetric ? next_upper[w] : searches[w].lower.data();
  }
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::uint64_t*& u = next_upper[c % team];
    const std::uint64_t*& l = next_lower[c % team];
    for (index_t r = chunk_begin(c); r < chunk_begin(c + 1); ++r) {
      const auto row = static_cast<std::size_t>(r);
      const index_t nu = upper_len[row];
      index_t pos = pat.rowptr[row + 1] - nu - 1;
      put(pos++, r, 0);
      for (index_t t = 0; t < nu; ++t, ++u)
        put(pos++, key_col(*u), key_level(*u));
      const index_t nl = symmetric ? nu : lower_len[row];
      for (index_t t = 0; t < nl; ++t, ++l)
        put(slot[static_cast<std::size_t>(key_col(*l))]++, r, key_level(*l));
    }
  }
  pat.values.assign(total, char{1});
  return out;
}

namespace {

/// Search work (stored entries times search depth) each thread of the team
/// gets at least; smaller inputs run on the caller alone. On a 4-vCPU host
/// (gcc 12.2, -O2), best of 21 runs on gen_poisson2d grids, a second thread
/// saved 10% of the symbolic phase at 63k units (80x80, K = 1) and 18% at
/// 149k (100x100, K = 2), and lost time below 25k.
constexpr std::size_t kFillPathWorkPerThread = std::size_t{1} << 17;

}  // namespace

std::size_t fill_path_team(std::size_t nnz, index_t k) {
  const std::size_t work = nnz * (static_cast<std::size_t>(k) + 1);
  return std::clamp<std::size_t>(work / kFillPathWorkPerThread, 1,
                                 hardware_threads());
}

IlukSymbolic iluk_symbolic_pattern(index_t n, std::span<const index_t> rowptr,
                                   std::span<const index_t> colind, index_t k,
                                   index_t max_row_fill) {
  if (max_row_fill > 0)
    return iluk_merge(n, rowptr, colind, k, max_row_fill);
  return iluk_fill_paths(n, rowptr, colind, k,
                         fill_path_team(colind.size(), k));
}

}  // namespace detail

}  // namespace spcg
