// Circuit-simulation demo: the sweet spot for SPCG.
//
// Conductance matrices from circuit netlists have heavy-tailed magnitude
// distributions — a few strong couplings and many weak parasitics. Dropping
// the parasitics barely perturbs the preconditioner but shortens triangular
// dependence chains. The paper's Figure 9 shows circuit simulation among the
// strongest end-to-end categories; this demo shows why, sweeping the
// heavy-tail parameter.
#include <iostream>

#include "core/spcg.h"
#include "gen/generators.h"
#include "gpumodel/cost_model.h"
#include "support/table.h"

int main() {
  using namespace spcg;

  std::cout << "SPCG-ILU(0) on circuit-style conductance grids (56x56), "
               "sweeping weight spread\n\n";
  TextTable t;
  t.set_header({"weight sigma", "chosen ratio", "wf reduction", "iters base",
                "iters spcg", "per-iter speedup", "e2e speedup"});

  const CostModel model(device_a100(), 4);
  for (const double sigma : {0.5, 1.0, 1.5, 2.0, 2.5}) {
    const Csr<double> a = gen_grid_laplacian(56, 56, sigma, 0.4, 11);
    const std::vector<double> b = make_rhs(a, 11);

    SpcgOptions opt;
    opt.sparsify_enabled = false;
    opt.pcg.tolerance = 1e-10;
    const SpcgResult<double> base = spcg_solve(a, b, opt);
    opt.sparsify_enabled = true;
    const SpcgResult<double> spcg = spcg_solve(a, b, opt);

    const CostModel host(device_host_cpu(), 4);
    const double tb =
        model.pcg_iteration(pcg_iteration_shape(a, base.factors)).seconds;
    const double ts =
        model.pcg_iteration(pcg_iteration_shape(a, spcg.factors)).seconds;
    const double fb = model
                          .ilu0_factorization(
                              trisolve_structure(base.factors.l,
                                                 Triangle::kLower),
                              base.factorization.elimination_ops)
                          .seconds;
    const double fs = model
                          .ilu0_factorization(
                              trisolve_structure(spcg.factors.l,
                                                 Triangle::kLower),
                              spcg.factorization.elimination_ops)
                          .seconds;
    const double sp_cost = host.sparsify_host(a.nnz(), 3).seconds;
    std::string e2e = "n/a";
    if (base.solve.converged() && spcg.solve.converged()) {
      e2e = fmt_speedup((fb + base.solve.iterations * tb) /
                        (sp_cost + fs + spcg.solve.iterations * ts));
    }
    t.add_row({fmt(sigma, 1),
               fmt(spcg.decision->chosen.ratio_percent, 0) + "%",
               fmt(spcg.decision->reduction_percent, 1) + "%",
               std::to_string(base.solve.iterations),
               std::to_string(spcg.solve.iterations), fmt_speedup(tb / ts),
               e2e});
  }
  std::cout << t.render();
  std::cout << "\nThe wider the conductance spread, the cheaper sparsification"
               " is numerically\n(the dropped mass is negligible) and the more "
               "wavefronts it removes.\n";
  return 0;
}
