// Poisson / CFD-style demo: anisotropic diffusion operators.
//
// Reproduces the paper's §5.1 observation for stencil-based PDE categories:
// per-iteration time improves under sparsification, but on uniform stencils
// every entry matters, so convergence can degrade and dilute the end-to-end
// gain. The demo sweeps the anisotropy and reports both effects.
#include <iostream>

#include "core/spcg.h"
#include "gen/generators.h"
#include "gpumodel/cost_model.h"
#include "support/table.h"

int main() {
  using namespace spcg;

  std::cout << "SPCG on anisotropic 2D diffusion (-eps*u_xx - u_yy), 64x64 "
               "grid\n\n";
  TextTable t;
  t.set_header({"eps", "ratio", "wf A", "wf Ahat", "iters base", "iters spcg",
                "per-iter speedup (A100)", "e2e speedup (A100)"});

  const CostModel model(device_a100(), 4);
  for (const double eps : {1.0, 0.1, 0.01, 0.001}) {
    const Csr<double> a = gen_anisotropic2d(64, 64, eps);
    const std::vector<double> b = make_rhs(a, 7);

    SpcgOptions opt;
    opt.sparsify_enabled = false;
    opt.pcg.tolerance = 1e-10;
    const SpcgResult<double> base = spcg_solve(a, b, opt);
    opt.sparsify_enabled = true;
    const SpcgResult<double> spcg = spcg_solve(a, b, opt);

    const double tb =
        model.pcg_iteration(pcg_iteration_shape(a, base.factors)).seconds;
    const double ts =
        model.pcg_iteration(pcg_iteration_shape(a, spcg.factors)).seconds;
    const double per_iter = tb / ts;
    std::string e2e = "n/a";
    if (base.solve.converged() && spcg.solve.converged()) {
      const double base_e2e = base.solve.iterations * tb;
      const double spcg_e2e = spcg.solve.iterations * ts;
      e2e = fmt_speedup(base_e2e / spcg_e2e);
    }
    t.add_row({fmt(eps, 3), fmt(spcg.decision->chosen.ratio_percent, 0) + "%",
               std::to_string(base.matrix_wavefronts),
               std::to_string(spcg.matrix_wavefronts),
               std::to_string(base.solve.iterations),
               std::to_string(spcg.solve.iterations), fmt_speedup(per_iter),
               e2e});
  }
  std::cout << t.render();
  std::cout << "\nStrong anisotropy concentrates magnitude in one axis: the "
               "weak-axis entries\nare dropped, shortening dependence chains; "
               "for eps ~ 1 all entries are equal\nand sparsification mostly "
               "trades iterations for per-iteration speed.\n";
  return 0;
}
