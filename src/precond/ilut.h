// ILUT(tau, p): Saad's dual-threshold incomplete LU.
//
// Unlike ILU(K), which fixes the pattern symbolically by level of fill, ILUT
// decides *numerically* during elimination: entries below a relative drop
// tolerance `tau` are discarded, and each row keeps at most `p` entries in
// its L part and `p` in its U part (largest magnitudes win; the diagonal is
// always kept).
//
// This is the in-factor counterpart of SPCG's sparsification: ILUT drops
// *after* the numeric values exist, SPCG drops from A *before*
// factorization. The paper's related work notes that incomplete solvers
// "still retain many fill-ins that are not essential" — the
// bench/ablation_ilut study compares the two dropping points directly.
//
// Caveat for CG: unlike ILU(0)/ILU(K) on a symmetric pattern (which yield a
// symmetric M = L D L^T), ILUT's thresholding is not symmetric, so M is only
// approximately symmetric. With aggressive tolerances (>~ 5e-2) plain CG can
// stagnate a few orders above the target residual; use moderate tolerances
// for CG, or a flexible outer iteration. SPCG sidesteps this entirely by
// dropping from A (symmetrically) before the factorization.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "precond/ilu.h"
#include "sparse/csr.h"
#include "sptrsv/sptrsv.h"

namespace spcg {

struct IlutOptions {
  double drop_tol = 1e-3;  // relative to the current row's 2-norm
  index_t max_fill = 20;   // p: kept entries per row, per triangle part
  double pivot_floor = 1e-12;
};

/// ILUT factorization, straight into triangular form: row i's kept entries
/// left of the diagonal become L's row i, and its pivot followed by its kept
/// entries right of the diagonal U's row i. The factor is validated as it is
/// returned. `info`, when given, receives the fill and the elimination's
/// counts.
template <class T>
TriangularFactors<T> ilut(const Csr<T>& a, const IlutOptions& opt = {},
                          IluResult<T>* info = nullptr) {
  SPCG_CHECK(a.rows == a.cols);
  SPCG_CHECK(opt.max_fill >= 1);
  const index_t n = a.rows;

  // The factor, one row appended per step: row i eliminates against the
  // finished U rows k < i, whose pivot heads the row.
  Csr<T> l(n, n), u(n, n);
  bool breakdown = false;
  std::uint64_t ops = 0;

  // Dense workspace.
  std::vector<T> w(static_cast<std::size_t>(n), T{0});
  std::vector<char> in_w(static_cast<std::size_t>(n), 0);
  std::vector<index_t> pattern;  // nonzero positions of w (unsorted)
  // Kept (|value|, column) candidates of the current row's two parts.
  std::vector<std::pair<T, index_t>> lower, upper;

  auto scatter = [&](index_t j, T v) {
    if (!in_w[static_cast<std::size_t>(j)]) {
      in_w[static_cast<std::size_t>(j)] = 1;
      pattern.push_back(j);
      w[static_cast<std::size_t>(j)] = v;
    } else {
      w[static_cast<std::size_t>(j)] += v;
    }
  };

  for (index_t i = 0; i < n; ++i) {
    pattern.clear();
    T row_norm{0};
    index_t a_row_nnz = 0;
    for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
         p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      scatter(a.colind[static_cast<std::size_t>(p)],
              a.values[static_cast<std::size_t>(p)]);
      row_norm += a.values[static_cast<std::size_t>(p)] *
                  a.values[static_cast<std::size_t>(p)];
      ++a_row_nnz;
    }
    SPCG_CHECK_MSG(in_w[static_cast<std::size_t>(i)],
                   "ilut: row " << i << " has no diagonal");
    row_norm = std::sqrt(row_norm / static_cast<T>(std::max<index_t>(1, a_row_nnz)));
    const T drop = static_cast<T>(opt.drop_tol) * row_norm;

    // Eliminate against previous rows in ascending column order.
    std::sort(pattern.begin(), pattern.end());
    for (std::size_t t = 0; t < pattern.size(); ++t) {
      const index_t k = pattern[t];
      if (k >= i) break;
      const auto kk = static_cast<std::size_t>(k);
      const auto dk = static_cast<std::size_t>(u.rowptr[kk]);
      const auto ek = static_cast<std::size_t>(u.rowptr[kk + 1]);
      const T lik = w[kk] / u.values[dk];
      if (std::abs(lik) < drop) {
        // Drop the multiplier entirely (first threshold).
        w[kk] = T{0};
        continue;
      }
      w[kk] = lik;
      ops += ek - dk - 1;
      for (std::size_t q = dk + 1; q < ek; ++q) {
        const index_t j = u.colind[q];
        const T upd = -lik * u.values[q];
        if (!in_w[static_cast<std::size_t>(j)]) {
          // New fill: subject to the drop tolerance immediately.
          if (std::abs(upd) < drop) continue;
          in_w[static_cast<std::size_t>(j)] = 1;
          w[static_cast<std::size_t>(j)] = upd;
          pattern.push_back(j);
          // Keep `pattern` sorted from the current position on.
          for (std::size_t b = pattern.size() - 1;
               b > t + 1 && pattern[b] < pattern[b - 1]; --b)
            std::swap(pattern[b], pattern[b - 1]);
        } else {
          w[static_cast<std::size_t>(j)] += upd;
        }
      }
    }

    // Gather, apply thresholds, keep top-p per part.
    lower.clear();
    upper.clear();
    T diag_val{0};
    for (const index_t j : pattern) {
      const T v = w[static_cast<std::size_t>(j)];
      in_w[static_cast<std::size_t>(j)] = 0;
      w[static_cast<std::size_t>(j)] = T{0};
      if (j == i) {
        diag_val = v;
      } else if (v != T{0} && std::abs(v) >= drop) {
        (j < i ? lower : upper).push_back({std::abs(v), j});
        w[static_cast<std::size_t>(j)] = v;  // stash; re-cleared below
        in_w[static_cast<std::size_t>(j)] = 2;
      }
    }
    auto keep_top = [&](std::vector<std::pair<T, index_t>>& part) {
      if (static_cast<index_t>(part.size()) > opt.max_fill) {
        std::nth_element(part.begin(),
                         part.begin() + static_cast<std::ptrdiff_t>(opt.max_fill),
                         part.end(), [](const auto& x, const auto& y) {
                           return x.first > y.first;
                         });
        part.resize(static_cast<std::size_t>(opt.max_fill));
      }
      std::sort(part.begin(), part.end(),
                [](const auto& x, const auto& y) { return x.second < y.second; });
    };
    keep_top(lower);
    keep_top(upper);

    const T floor = static_cast<T>(opt.pivot_floor) * std::max(row_norm, T{1});
    if (std::abs(diag_val) < floor) {
      // Pivot collapsed (aggressive dropping): fall back to A's diagonal,
      // which keeps the preconditioner locally scaled like the matrix —
      // a tiny floor value would make M^{-1} explode instead.
      const T aii = a.at(i, i);
      diag_val = (std::abs(aii) > floor) ? aii : floor;
      breakdown = true;
    }

    // Append the row, clearing the stash.
    auto append = [&](Csr<T>& m,
                      const std::vector<std::pair<T, index_t>>& part) {
      for (const auto& [mag, j] : part) {
        m.colind.push_back(j);
        m.values.push_back(w[static_cast<std::size_t>(j)]);
        w[static_cast<std::size_t>(j)] = T{0};
        in_w[static_cast<std::size_t>(j)] = 0;
      }
      m.rowptr[static_cast<std::size_t>(i) + 1] =
          static_cast<index_t>(m.colind.size());
    };
    append(l, lower);
    u.colind.push_back(i);
    u.values.push_back(diag_val);
    append(u, upper);
  }

  if (info != nullptr) {
    *info = IluResult<T>{};
    info->fill_nnz = l.nnz() + u.nnz() - a.nnz();
    info->breakdown = breakdown;
    info->elimination_ops = ops;
  }
  return TriangularFactors<T>(std::move(l), std::move(u));
}

}  // namespace spcg
