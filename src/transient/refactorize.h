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
// refresh_setup_numerics() does exactly that: it gathers A's kept values
// straight into the positions of the setup's L and U (and A's dropped
// values into S) through one precomputed map, which holds 0 for fill, and
// reruns the numeric ILU elimination in place (precond/ilu.h) — the same
// elimination a cold build runs on a fresh pattern. The sparsification
// pattern decision is reused verbatim, not re-derived. No symbolic work, no
// schedule rebuild, no intermediate copy of A, and — given a prebuilt
// NumericRefreshWorkspace — no heap allocation.
//
// Stale after a refresh (by design): SparsifyDecision::indicator, steps and
// outcome describe the values the decision was *made* on, not the current
// ones. TransientSession treats them as provenance, not state. So are the
// combined layout in `factorization` and `decision->chosen.a_hat` on a setup
// that carries them (spcg_setup leaves both empty).
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "core/spcg.h"
#include "precond/ilu.h"
#include "sparse/csr.h"
#include "support/trace.h"

namespace spcg {

/// Precomputed gather map + scratch for refresh_setup_numerics(). Built once
/// per (setup, pattern) by build_numeric_refresh(); every refresh through it
/// is allocation-free.
struct NumericRefreshWorkspace {
  /// Dense work row of the numeric elimination (detail::ilu_eliminate): n
  /// values, contents irrelevant between uses. Setups are built in double,
  /// the value type refresh_setup_numerics() is defined for.
  std::vector<double> work;
  /// The one gather map (detail::factor_gather_map): for every position of
  /// L, then U, then S, the position in A it takes its value from, or -1
  /// where the factor holds fill.
  std::vector<index_t> src;
  /// Shape guards: the A this workspace was built against.
  index_t expected_rows = 0;
  index_t expected_nnz = 0;
};

/// Build the refresh map for `setup` against the matrix `a` it was built
/// from (same pattern; values are irrelevant here): one merge walk over A's
/// rows against S, L and U. Every kept entry of A must have a factor
/// position, except where an ILU(K) per-row fill cap truncated it out of the
/// pattern.
template <class T>
NumericRefreshWorkspace build_numeric_refresh(const SpcgSetup<T>& setup,
                                              const Csr<T>& a) {
  static_assert(std::is_same_v<T, double>,
                "the refresh workspace's work row holds doubles");
  NumericRefreshWorkspace ws;
  ws.expected_rows = a.rows;
  ws.expected_nnz = a.nnz();
  ws.work.resize(static_cast<std::size_t>(a.rows));
  const Csr<T>* s =
      setup.decision.has_value() ? &setup.decision->chosen.s : nullptr;
  const index_t lost_row =
      detail::factor_gather_map(a, setup.factors, s, ws.src);
  // ILU(0) setups (no fill, pattern == Â's) must place every kept entry;
  // ILU(K) setups tolerate misses because the per-row fill cap may have
  // truncated original entries out of the pattern (the setup does not
  // retain the symbolic truncated_rows count, so K > 0 cannot be stricter).
  const index_t kept = a.nnz() - (s != nullptr ? s->nnz() : 0);
  const bool pattern_is_kept =
      setup.factorization.fill_nnz == 0 &&
      setup.factors.l.nnz() + setup.factors.u.nnz() == kept;
  SPCG_CHECK_MSG(lost_row < 0 || !pattern_is_kept,
                 "refactorize: pattern lost original entry at row "
                     << lost_row);
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
  TriangularFactors<T>& f = setup.factors;
  Csr<T>* s = setup.decision.has_value() ? &setup.decision->chosen.s : nullptr;
  SPCG_CHECK(ws.src.size() == f.l.values.size() + f.u.values.size() +
                                  (s != nullptr ? s->values.size() : 0));
  const std::span<const T> from(a_new.values);
  detail::gather_factor_values(from, ws.src.data(), f);
  if (s != nullptr)
    detail::gather_values(
        from, ws.src.data() + f.l.values.size() + f.u.values.size(),
        std::span<T>(s->values));
  detail::ilu_eliminate(f, opt.ilu, setup.factorization,
                        std::span<T>(ws.work));
}

}  // namespace spcg
