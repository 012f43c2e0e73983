// Thermal-simulation demo: ILU(K) preconditioning with best-K selection.
//
// Mirrors the paper's §3.3 protocol end to end on a variable-conductivity
// heat problem: pick the best-converging K in {10,20,30,40} for the
// non-sparsified PCG-ILU(K), reuse that K for SPCG, and compare fill,
// wavefronts, iterations and modeled times — including the host-side
// factorization cost that dominates the ILU(K) end-to-end win.
#include <iostream>

#include "autotune/fill_level.h"
#include "core/spcg.h"
#include "gen/generators.h"
#include "gpumodel/cost_model.h"
#include "support/table.h"

int main() {
  using namespace spcg;

  const Csr<double> a = gen_varcoef2d(56, 56, 2.2, 99);
  const std::vector<double> b = make_rhs(a, 99);
  std::cout << "thermal diffusion, n=" << a.rows << ", nnz=" << a.nnz()
            << "\n\n";

  // 1. Paper protocol: best-converging K on the baseline.
  SpcgOptions opt;
  opt.pcg.tolerance = 1e-10;
  opt.preconditioner = PrecondKind::kIluK;
  opt.max_row_fill = 512;
  const std::vector<index_t> ks{2, 3, 5, 8};  // scale-adjusted, see DESIGN.md
  const KSelection<double> sel = tune_fill_level(a, b, opt, ks);
  std::cout << "best-converging K for the baseline: " << sel.k << " ("
            << sel.baseline.solve.iterations << " iterations)\n\n";

  // 2. SPCG with the same K.
  opt.sparsify_enabled = true;
  opt.fill_level = sel.k;
  const SpcgResult<double> spcg = spcg_solve(a, b, opt);

  // 3. Compare.
  const CostModel dev(device_a100(), 4);
  const CostModel host(device_host_cpu(), 4);
  auto report = [&](const char* name, const SpcgResult<double>& r,
                    double sparsify_s) {
    const double it =
        dev.pcg_iteration(pcg_iteration_shape(a, r.factorization.lu)).seconds;
    const double fact = host.iluk_factorization_host(
                                r.factorization.elimination_ops,
                                r.factorization.lu.nnz())
                            .seconds;
    std::cout << name << ": factor nnz " << r.factorization.lu.nnz()
              << " (fill " << r.factorization.fill_nnz << "), factor wavefronts "
              << r.wavefronts_factor << ", iterations "
              << r.solve.iterations << (r.solve.converged() ? "" : " (DNF)")
              << "\n    modeled: factorization " << fact * 1e3
              << " ms (host), per-iteration " << it * 1e6 << " us (A100)"
              << ", end-to-end "
              << (sparsify_s + fact + r.solve.iterations * it) * 1e3
              << " ms\n";
    return sparsify_s + fact + r.solve.iterations * it;
  };
  const double sp_cost = host.sparsify_host(a.nnz(), 3).seconds;
  const double t_base = report("baseline PCG-ILU(K)", sel.baseline, 0.0);
  const double t_spcg = report("SPCG-ILU(K)       ", spcg, sp_cost);
  std::cout << "\nmodeled end-to-end speedup: " << t_base / t_spcg << "x\n";
  std::cout << "Sparsifying before ILU(K) shrinks the fill, which cuts both "
               "the (host)\nfactorization cost and the triangular-solve "
               "dependence depth — the two effects\nbehind the paper's 3.73x "
               "gmean end-to-end ILU(K) speedup.\n";
  return 0;
}
