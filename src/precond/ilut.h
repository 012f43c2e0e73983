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
#include <vector>

#include "precond/ilu.h"
#include "sparse/csr.h"

namespace spcg {

struct IlutOptions {
  double drop_tol = 1e-3;  // relative to the current row's 2-norm
  index_t max_fill = 20;   // p: kept entries per row, per triangle part
  double pivot_floor = 1e-12;
};

/// ILUT factorization; returns the usual combined-LU layout.
template <class T>
IluResult<T> ilut(const Csr<T>& a, const IlutOptions& opt = {}) {
  SPCG_CHECK(a.rows == a.cols);
  SPCG_CHECK(opt.max_fill >= 1);
  const index_t n = a.rows;

  // Rows of the factor built so far (combined layout per row).
  std::vector<std::vector<index_t>> row_cols(static_cast<std::size_t>(n));
  std::vector<std::vector<T>> row_vals(static_cast<std::size_t>(n));
  std::vector<index_t> diag_in_row(static_cast<std::size_t>(n), -1);

  // Dense workspace.
  std::vector<T> w(static_cast<std::size_t>(n), T{0});
  std::vector<char> in_w(static_cast<std::size_t>(n), 0);
  std::vector<index_t> pattern;  // nonzero positions of w (unsorted)
  // Kept (|value|, column) candidates of the current row's two parts.
  std::vector<std::pair<T, index_t>> lower, upper;

  IluResult<T> out;
  out.lu.rows = n;
  out.lu.cols = n;
  out.lu.rowptr.assign(static_cast<std::size_t>(n) + 1, 0);
  out.diag_pos.assign(static_cast<std::size_t>(n), -1);

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
      T lik = w[static_cast<std::size_t>(k)];
      const auto dk = static_cast<std::size_t>(diag_in_row[static_cast<std::size_t>(k)]);
      const T pivot = row_vals[static_cast<std::size_t>(k)][dk];
      lik /= pivot;
      if (std::abs(lik) < drop) {
        // Drop the multiplier entirely (first threshold).
        w[static_cast<std::size_t>(k)] = T{0};
        continue;
      }
      w[static_cast<std::size_t>(k)] = lik;
      out.elimination_ops +=
          row_cols[static_cast<std::size_t>(k)].size() - dk - 1;
      for (std::size_t q = dk + 1; q < row_cols[static_cast<std::size_t>(k)].size();
           ++q) {
        const index_t j = row_cols[static_cast<std::size_t>(k)][q];
        const T upd = -lik * row_vals[static_cast<std::size_t>(k)][q];
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
      out.breakdown = true;
    }

    auto& rc = row_cols[static_cast<std::size_t>(i)];
    auto& rv = row_vals[static_cast<std::size_t>(i)];
    rc.reserve(lower.size() + upper.size() + 1);
    rv.reserve(rc.capacity());
    for (const auto& [mag, j] : lower) {
      rc.push_back(j);
      rv.push_back(w[static_cast<std::size_t>(j)]);
    }
    diag_in_row[static_cast<std::size_t>(i)] = static_cast<index_t>(rc.size());
    rc.push_back(i);
    rv.push_back(diag_val);
    for (const auto& [mag, j] : upper) {
      rc.push_back(j);
      rv.push_back(w[static_cast<std::size_t>(j)]);
    }
    // Clear the stash.
    for (const auto& [mag, j] : lower) {
      w[static_cast<std::size_t>(j)] = T{0};
      in_w[static_cast<std::size_t>(j)] = 0;
    }
    for (const auto& [mag, j] : upper) {
      w[static_cast<std::size_t>(j)] = T{0};
      in_w[static_cast<std::size_t>(j)] = 0;
    }
  }

  // Assemble the CSR factor.
  for (index_t i = 0; i < n; ++i) {
    out.diag_pos[static_cast<std::size_t>(i)] = static_cast<index_t>(
        out.lu.colind.size() +
        static_cast<std::size_t>(diag_in_row[static_cast<std::size_t>(i)]));
    out.lu.colind.insert(out.lu.colind.end(),
                         row_cols[static_cast<std::size_t>(i)].begin(),
                         row_cols[static_cast<std::size_t>(i)].end());
    out.lu.values.insert(out.lu.values.end(),
                         row_vals[static_cast<std::size_t>(i)].begin(),
                         row_vals[static_cast<std::size_t>(i)].end());
    out.lu.rowptr[static_cast<std::size_t>(i) + 1] =
        static_cast<index_t>(out.lu.colind.size());
  }
  out.fill_nnz = out.lu.nnz() - a.nnz();
  return out;
}

}  // namespace spcg
