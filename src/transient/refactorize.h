// Numeric-only refresh of a SpcgSetup — the values-only fast path of the
// transient subsystem.
//
// The setup pipeline splits cleanly into pattern-only and value-only work:
// ILU(K) symbolic closure, level schedules, wavefront inspection and the
// sparsification *pattern* decision depend only on (rowptr, colind), while
// factor values depend on A's values. When a time-stepping client presents
// a matrix with the same pattern and new values (same `pattern_hash`, new
// `values_hash`), everything symbolic in an existing SpcgSetup is still
// valid — only the numbers must be recomputed.
//
// refresh_setup_numerics() does exactly that: it re-scatters the new values
// through the retained sparsification split (the same entries are kept and
// dropped — the pattern decision is reused verbatim, not re-derived), reruns
// the numeric ILU elimination into the retained symbolic structure via
// ilu_refactorize(), and propagates the combined factor into the split L/U
// the schedules were built for. No symbolic work, no schedule rebuild, and —
// given a prebuilt NumericRefreshWorkspace — no heap allocation.
//
// Stale after a refresh (by design): SparsifyDecision::indicator, steps and
// outcome describe the values the decision was *made* on, not the current
// ones. TransientSession treats them as provenance, not state.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "core/spcg.h"
#include "precond/ilu.h"
#include "sparse/csr.h"
#include "support/trace.h"

namespace spcg {

/// Precomputed index maps + scratch for refresh_setup_numerics(). Built once
/// per (setup, pattern) by build_numeric_refresh(); every refresh through it
/// is allocation-free. All maps are positions (CSR entry indices), so a
/// refresh is pure gather/scatter over value arrays.
struct NumericRefreshWorkspace {
  /// Dense work row of the numeric elimination (ilu_numeric_in_place): n
  /// values, contents irrelevant between uses. Setups are built in double,
  /// the value type refresh_setup_numerics() is defined for.
  std::vector<double> work;
  /// For each a_hat entry: the position of the same (i, j) in A. Empty for
  /// baseline setups (no sparsification — the factorization input is A).
  std::vector<index_t> keep_pos;
  /// For each entry of the residual matrix S: its position in A.
  std::vector<index_t> s_pos;
  /// Shape guards: the A this workspace was built against.
  index_t expected_rows = 0;
  index_t expected_nnz = 0;
};

/// Build the refresh maps for `setup` against the matrix `a` it was built
/// from (same pattern; values are irrelevant here). One merge-walk over A's
/// rows recovers the keep/drop split positions. The split factors need no
/// map: split_lu() lays each row of L and U out as a prefix and the suffix
/// of the combined factor's row.
template <class T>
NumericRefreshWorkspace build_numeric_refresh(const SpcgSetup<T>& setup,
                                              const Csr<T>& a) {
  static_assert(std::is_same_v<T, double>,
                "the refresh workspace's work row holds doubles");
  NumericRefreshWorkspace ws;
  ws.expected_rows = a.rows;
  ws.expected_nnz = a.nnz();
  ws.work.resize(static_cast<std::size_t>(a.rows));

  if (setup.decision.has_value()) {
    const Csr<T>& a_hat = setup.decision->chosen.a_hat;
    const Csr<T>& s = setup.decision->chosen.s;
    SPCG_CHECK(a_hat.rows == a.rows && s.rows == a.rows);
    SPCG_CHECK(a_hat.nnz() + s.nnz() == a.nnz());
    ws.keep_pos.assign(static_cast<std::size_t>(a_hat.nnz()), -1);
    ws.s_pos.assign(static_cast<std::size_t>(s.nnz()), -1);
    // Â and S partition A's entries row by row, both column-sorted: one
    // synchronized walk over each A row assigns every position.
    for (index_t i = 0; i < a.rows; ++i) {
      index_t ph = a_hat.rowptr[static_cast<std::size_t>(i)];
      const index_t ph_end = a_hat.rowptr[static_cast<std::size_t>(i) + 1];
      index_t ps = s.rowptr[static_cast<std::size_t>(i)];
      const index_t ps_end = s.rowptr[static_cast<std::size_t>(i) + 1];
      for (index_t pa = a.rowptr[static_cast<std::size_t>(i)];
           pa < a.rowptr[static_cast<std::size_t>(i) + 1]; ++pa) {
        const index_t col = a.colind[static_cast<std::size_t>(pa)];
        if (ph < ph_end &&
            a_hat.colind[static_cast<std::size_t>(ph)] == col) {
          ws.keep_pos[static_cast<std::size_t>(ph++)] = pa;
        } else if (ps < ps_end &&
                   s.colind[static_cast<std::size_t>(ps)] == col) {
          ws.s_pos[static_cast<std::size_t>(ps++)] = pa;
        } else {
          SPCG_CHECK_MSG(false, "sparsify split does not partition A at row "
                                    << i << " col " << col);
        }
      }
      SPCG_CHECK(ph == ph_end && ps == ps_end);
    }
  }
  return ws;
}

/// Values-only refresh: recompute every numeric artifact of `setup` from
/// `a_new` (same pattern as the matrix the setup was built from), reusing
/// the symbolic structure verbatim. With `ws` from build_numeric_refresh()
/// this performs zero heap allocations.
///
/// Equivalence guarantee: when a cold spcg_setup(a_new, opt) would make the
/// same sparsification *pattern* decision (same kept/dropped entry set —
/// e.g. a single-ratio configuration, or a values change that preserves the
/// drop ordering), the refreshed factors are bitwise-equal to that cold
/// setup's. verify_numeric_refactorize (analysis/verify.h) checks this.
template <class T>
void refresh_setup_numerics(SpcgSetup<T>& setup, const Csr<T>& a_new,
                            const SpcgOptions& opt,
                            NumericRefreshWorkspace& ws) {
  Span span("refactorize", "setup");
  SPCG_CHECK_MSG(a_new.rows == ws.expected_rows &&
                     a_new.nnz() == ws.expected_nnz,
                 "refresh workspace was built for a different pattern");

  const Csr<T>* input = &a_new;
  if (setup.decision.has_value()) {
    SparsifySplit<T>& split = setup.decision->chosen;
    SPCG_CHECK(static_cast<std::size_t>(split.a_hat.nnz()) ==
               ws.keep_pos.size());
    SPCG_CHECK(static_cast<std::size_t>(split.s.nnz()) == ws.s_pos.size());
    for (std::size_t j = 0; j < ws.keep_pos.size(); ++j)
      split.a_hat.values[j] =
          a_new.values[static_cast<std::size_t>(ws.keep_pos[j])];
    for (std::size_t j = 0; j < ws.s_pos.size(); ++j)
      split.s.values[j] = a_new.values[static_cast<std::size_t>(ws.s_pos[j])];
    input = &split.a_hat;
  }

  ilu_refactorize(setup.factorization, *input, opt.ilu,
                  std::span<T>(ws.work));

  // Propagate the combined factor into the split L/U the level schedules
  // reference — value writes only, the triangular patterns are untouched.
  // split_lu() stores row i of L as the combined row's strict-lower prefix
  // plus the unit diagonal, and row i of U as the rest of the row.
  Csr<T>& l = setup.factors.l;
  Csr<T>& u = setup.factors.u;
  const Csr<T>& lu = setup.factorization.lu;
  SPCG_CHECK(l.rows == lu.rows && u.rows == lu.rows &&
             l.nnz() + u.nnz() == lu.nnz() + lu.rows);
  for (index_t i = 0; i < lu.rows; ++i) {
    const auto row = static_cast<std::size_t>(i);
    const auto src = static_cast<std::size_t>(lu.rowptr[row]);
    const auto dl = static_cast<std::size_t>(l.rowptr[row]);
    const auto du = static_cast<std::size_t>(u.rowptr[row]);
    const std::size_t lower = static_cast<std::size_t>(l.rowptr[row + 1]) -
                              dl - 1;
    std::copy_n(lu.values.data() + src, lower, l.values.data() + dl);
    l.values[dl + lower] = T{1};
    std::copy_n(lu.values.data() + src + lower,
                static_cast<std::size_t>(u.rowptr[row + 1]) - du,
                u.values.data() + du);
  }
}

}  // namespace spcg
