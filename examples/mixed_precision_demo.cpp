// Mixed-precision SPCG demo (the paper's §6.2 extension): the (sparsified)
// ILU factors are stored in float and applied to the double CG vectors in
// double arithmetic — half the factor's value bytes for essentially the same
// convergence.
#include <iostream>

#include "core/sparsify.h"
#include "gen/generators.h"
#include "gpumodel/cost_model.h"
#include "precond/preconditioner.h"
#include "solver/pcg.h"
#include "support/table.h"

int main() {
  using namespace spcg;

  const Csr<double> a = gen_grid_laplacian(64, 64, 2.0, 0.4, 21);
  const std::vector<double> b = make_rhs(a, 21);
  std::cout << "circuit-style system, n=" << a.rows << ", nnz=" << a.nnz()
            << "\n\n";

  PcgOptions opt;
  opt.tolerance = 1e-11;

  TextTable t;
  t.set_header({"configuration", "iterations", "final residual",
                "factor bytes", "modeled A100 per-iter (us)"});

  // Sparsify once (Algorithm 2), factor once.
  const SparsifyDecision<double> d = wavefront_aware_sparsify(a);
  const TriangularFactors<double> factors = ilu0_factors(d.chosen.a_hat);
  const PcgIterationShape shape64 = pcg_iteration_shape(a, factors);

  {
    IluPreconditioner<double> m(factors);
    const SolveResult<double> r = pcg(a, b, m, opt);
    const CostModel model(device_a100(), 8);  // double-precision factor
    const std::size_t bytes =
        static_cast<std::size_t>(factors.l.nnz() + factors.u.nnz()) *
        (sizeof(double) + sizeof(index_t));
    t.add_row({"SPCG, double factor", std::to_string(r.iterations),
               fmt(r.final_residual_norm, 14), std::to_string(bytes),
               fmt(model.pcg_iteration(shape64).seconds * 1e6, 1)});
  }
  {
    const IluPreconditioner<double, float> m(factors_cast<float>(factors));
    const SolveResult<double> r = pcg(a, b, m, opt);
    const CostModel model(device_a100(), 4);  // float factor on the device
    const std::size_t bytes =
        static_cast<std::size_t>(factors.l.nnz() + factors.u.nnz()) *
        (sizeof(float) + sizeof(index_t));
    t.add_row({"SPCG, float factor (mixed)", std::to_string(r.iterations),
               fmt(r.final_residual_norm, 14), std::to_string(bytes),
               fmt(model.pcg_iteration(shape64).seconds * 1e6, 1)});
  }
  std::cout << t.render();
  std::cout << "\nThe float factor halves the value bytes the bandwidth-bound "
               "triangular solves\nmove, while the double outer recurrence "
               "still converges to ~1e-11.\n";
  return 0;
}
