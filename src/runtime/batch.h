// Fused batched multi-RHS PCG.
//
// Solves A x_c = b_c for a block of right-hand sides over ONE shared ILU
// setup. Each column runs the exact per-column recurrence of pcg()
// (solver/pcg.h) — own alpha/beta/residual, own convergence/breakdown exit —
// but the two matrix-wide sweeps of every iteration (SpMV and the two
// triangular solves of the preconditioner apply) are fused across columns:
// one pass over A serves all columns, and one level-schedule sweep pays its
// per-wavefront barrier once instead of once per column. Converged columns
// drop out of the fused sweeps immediately.
//
// Because the fused kernels visit each column's entries in the same order as
// the single-RHS kernels, every column's iterate sequence — and therefore
// its solution, status and iteration count — is identical to a sequential
// pcg() call on that column.
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "analysis/alloc_audit.h"
#include "precond/ilu.h"
#include "solver/pcg.h"
#include "sparse/csr.h"
#include "sparse/norms.h"
#include "sparse/ops.h"
#include "sptrsv/sptrsv.h"
#include "wavefront/levels.h"

namespace spcg {

/// Multi-RHS ILU apply over shared immutable factors: Z[c] = (LU)^{-1} R[c]
/// for all columns in one pair of fused level-sweeps — L solves R[c] into
/// Z[c], then U solves Z[c] in place. Holds no scratch.
template <class T>
class BatchedIluApplier {
 public:
  BatchedIluApplier(const TriangularFactors<T>& factors,
                    const LevelSchedule& l_sched, const LevelSchedule& u_sched)
      : factors_(&factors), l_sched_(&l_sched), u_sched_(&u_sched) {}

  void apply(std::span<const T* const> rs, std::span<T* const> zs) const {
    SPCG_CHECK(rs.size() == zs.size());
    sptrsv_lower_levels_multi(factors_->l, *l_sched_, rs, zs);
    sptrsv_upper_levels_multi(factors_->u, *u_sched_,
                              std::span<const T* const>(zs.data(), zs.size()),
                              zs);
  }

 private:
  const TriangularFactors<T>* factors_;
  const LevelSchedule* l_sched_;
  const LevelSchedule* u_sched_;
};

/// Fused batched PCG over one shared factorization. Returns one SolveResult
/// per right-hand side, each identical to a sequential pcg() on that column.
/// `x0s` optionally supplies one initial guess per column (empty span = all
/// columns start from zero; an empty inner vector = that column starts from
/// zero). Warm columns mirror pcg()'s x0 path: r0 = b - A x0.
template <class T>
std::vector<SolveResult<T>> pcg_batched(const Csr<T>& a,
                                        std::span<const std::vector<T>> bs,
                                        const TriangularFactors<T>& factors,
                                        const LevelSchedule& l_sched,
                                        const LevelSchedule& u_sched,
                                        const PcgOptions& opt = {},
                                        std::span<const std::vector<T>> x0s =
                                            {}) {
  SPCG_CHECK(a.rows == a.cols);
  const auto n = static_cast<std::size_t>(a.rows);
  const std::size_t k_cols = bs.size();
  if (!x0s.empty()) SPCG_CHECK(x0s.size() == k_cols);

  struct Column {
    std::vector<T> x, r, z, p, w;
    T rz{};
    double r_norm = 0.0;
    double target = 0.0;
    bool done = false;
    SolveResult<T>* out = nullptr;
  };

  std::vector<SolveResult<T>> results(k_cols);
  std::vector<Column> cols(k_cols);
  const BatchedIluApplier<T> applier(factors, l_sched, u_sched);

  // Per-column initialization, mirroring pcg()'s preamble (including the
  // zero-RHS early exit).
  std::vector<std::size_t> active;  // columns still iterating
  for (std::size_t c = 0; c < k_cols; ++c) {
    SPCG_CHECK(static_cast<index_t>(bs[c].size()) == a.rows);
    Column& col = cols[c];
    col.out = &results[c];
    col.out->x.assign(n, T{0});
    const double b_norm = static_cast<double>(norm2(std::span<const T>(bs[c])));
    if (b_norm == 0.0) {
      col.out->status = SolveStatus::kConverged;
      if (opt.record_history) col.out->residual_history.push_back(0.0);
      col.done = true;
      continue;
    }
    const bool warm = !x0s.empty() && !x0s[c].empty();
    if (warm) SPCG_CHECK(static_cast<index_t>(x0s[c].size()) == a.rows);
    if (warm) {
      col.x.assign(x0s[c].begin(), x0s[c].end());
    } else {
      col.x.assign(n, T{0});
    }
    col.r.assign(bs[c].begin(), bs[c].end());
    col.z.assign(n, T{0});
    col.w.assign(n, T{0});
    if (warm) {  // r0 = b - A x0
      spmv(a, std::span<const T>(col.x), std::span<T>(col.w));
      for (std::size_t i = 0; i < n; ++i) col.r[i] -= col.w[i];
      col.w.assign(n, T{0});
    }
    col.target = opt.relative ? opt.tolerance * b_norm : opt.tolerance;
    col.r_norm = static_cast<double>(norm2(std::span<const T>(col.r)));
    active.push_back(c);
  }

  // Initial z = M r, p = z, rz = <r, z>, fused across all live columns.
  if (!active.empty()) {
    std::vector<const T*> rs;
    std::vector<T*> zs;
    for (const std::size_t c : active) {
      rs.push_back(cols[c].r.data());
      zs.push_back(cols[c].z.data());
    }
    applier.apply(std::span<const T* const>(rs), std::span<T* const>(zs));
    for (const std::size_t c : active) {
      Column& col = cols[c];
      col.p = col.z;
      col.rz = dot(std::span<const T>(col.r), std::span<const T>(col.z));
      if (opt.record_history)
        col.out->residual_history.push_back(col.r_norm);
    }
  }

  auto finish = [](Column& col, SolveStatus status, std::int32_t iterations) {
    col.out->status = status;
    col.out->iterations = iterations;
    col.out->x = std::move(col.x);
    col.done = true;
  };

  std::vector<std::size_t> iterating;
  std::vector<const T*> in_ptrs;
  std::vector<T*> out_ptrs;
  std::int32_t k = 0;
  for (; k < opt.max_iterations && !active.empty(); ++k) {
    // Allocation probe (see pcg()): after the first iteration the pointer
    // batches and per-column vectors are warm, so a steady-state batched
    // iteration must not allocate either (history recording excepted).
    const analysis::AllocAuditScope alloc_scope("batch.iteration",
                                                /*steady_state=*/k > 0);
    // Top-of-loop convergence test (pcg() line order preserved).
    iterating.clear();
    for (const std::size_t c : active) {
      Column& col = cols[c];
      if (col.r_norm < col.target) {
        finish(col, SolveStatus::kConverged, k);
      } else {
        iterating.push_back(c);
      }
    }
    if (iterating.empty()) {
      active.clear();  // every column just finished; nothing left to iterate
      break;
    }

    // Fused w = A p over the iterating columns.
    in_ptrs.clear();
    out_ptrs.clear();
    for (const std::size_t c : iterating) {
      in_ptrs.push_back(cols[c].p.data());
      out_ptrs.push_back(cols[c].w.data());
    }
    spmv_multi(a, std::span<const T* const>(in_ptrs),
               std::span<T* const>(out_ptrs));

    // Curvature check + x/r updates per column.
    active.clear();
    for (const std::size_t c : iterating) {
      Column& col = cols[c];
      const T pw =
          dot(std::span<const T>(col.p), std::span<const T>(col.w));
      if (!(pw > T{0})) {  // SPD curvature must be positive; catches NaN too
        finish(col, SolveStatus::kBreakdown, k);
        continue;
      }
      const T alpha = col.rz / pw;
      axpy(alpha, std::span<const T>(col.p), std::span<T>(col.x));
      axpy(-alpha, std::span<const T>(col.w), std::span<T>(col.r));
      active.push_back(c);
    }
    if (active.empty()) break;

    // Fused z = M r over the surviving columns.
    in_ptrs.clear();
    out_ptrs.clear();
    for (const std::size_t c : active) {
      in_ptrs.push_back(cols[c].r.data());
      out_ptrs.push_back(cols[c].z.data());
    }
    applier.apply(std::span<const T* const>(in_ptrs),
                  std::span<T* const>(out_ptrs));

    // rho update, direction update, residual norm per column.
    iterating.swap(active);
    active.clear();
    for (const std::size_t c : iterating) {
      Column& col = cols[c];
      const T rz_next =
          dot(std::span<const T>(col.r), std::span<const T>(col.z));
      if (col.rz == T{0} || rz_next != rz_next) {  // NaN guard
        finish(col, SolveStatus::kBreakdown, k + 1);
        continue;
      }
      const T beta = rz_next / col.rz;
      col.rz = rz_next;
      xpby(std::span<const T>(col.z), beta, std::span<T>(col.p));
      col.r_norm = static_cast<double>(norm2(std::span<const T>(col.r)));
      if (opt.record_history) col.out->residual_history.push_back(col.r_norm);
      active.push_back(c);
    }
  }

  // Columns that ran out of iterations (pcg()'s post-loop tail check).
  for (const std::size_t c : active) {
    Column& col = cols[c];
    finish(col,
           col.r_norm < col.target ? SolveStatus::kConverged
                                   : SolveStatus::kMaxIterations,
           k);
  }

  // True residuals, fused: one multi-SpMV over every column's solution.
  in_ptrs.clear();
  std::vector<std::vector<T>> ax(k_cols, std::vector<T>(n));
  out_ptrs.clear();
  for (std::size_t c = 0; c < k_cols; ++c) {
    in_ptrs.push_back(results[c].x.data());
    out_ptrs.push_back(ax[c].data());
  }
  spmv_multi(a, std::span<const T* const>(in_ptrs),
             std::span<T* const>(out_ptrs));
  for (std::size_t c = 0; c < k_cols; ++c) {
    double true_norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d =
          static_cast<double>(bs[c][i]) - static_cast<double>(ax[c][i]);
      true_norm += d * d;
    }
    results[c].final_residual_norm = std::sqrt(true_norm);
  }
  return results;
}

}  // namespace spcg
