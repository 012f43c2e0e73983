// Ablation: SPCG against the wavefront-free preconditioner families the
// paper's related work discusses (§6.2) — sparse approximate inverse (SAI,
// applied as one SpMV) and block-Jacobi (independent dense blocks).
//
// Modeled A100 time-to-solution = setup-free solve comparison:
// iterations (real PCG runs) x modeled per-iteration time. SAI/block-Jacobi
// pay no wavefront synchronization at all but take more iterations; SPCG
// keeps ILU-class convergence while shrinking the wavefront cost.
#include <iostream>

#include "common/runner.h"
#include "core/sparsify.h"
#include "gpumodel/cost_model.h"
#include "precond/block_jacobi.h"
#include "precond/sai.h"
#include "support/table.h"

using namespace spcg;
using namespace spcg::bench;

namespace {

struct Outcome {
  std::int32_t iterations = 0;
  bool converged = false;
  double per_iter_s = 0.0;
  [[nodiscard]] double solve_s() const {
    return static_cast<double>(iterations) * per_iter_s;
  }
};

}  // namespace

int main() {
  const CostModel model(device_a100(), 4);
  PcgOptions popt;
  popt.tolerance = 1e-10;
  popt.max_iterations = 1000;

  // One representative per major category family.
  const std::vector<index_t> ids = {0, 14, 33, 50, 62, 95, 101};

  std::cout << "=== Ablation: SPCG vs wavefront-free preconditioners "
               "(modeled A100 solve phase) ===\n\n";
  TextTable t;
  t.set_header({"matrix", "method", "iters", "per-iter (us)", "solve (ms)",
                "vs ILU(0)"});
  std::vector<double> sp_spcg, sp_sai, sp_bj;
  for (const index_t id : ids) {
    const GeneratedMatrix g = generate_suite_matrix(id);

    auto eval_ilu = [&](const Csr<double>& precond_input) {
      Outcome o;
      TriangularFactors<double> f = ilu0_factors(precond_input);
      o.per_iter_s = model.pcg_iteration(pcg_iteration_shape(g.a, f)).seconds;
      IluPreconditioner<double> m(std::move(f));
      const SolveResult<double> r = pcg(g.a, g.b, m, popt);
      o.iterations = r.iterations;
      o.converged = r.converged();
      return o;
    };
    // Wavefront-free apply = one SpMV with the (possibly denser) M.
    auto eval_spmv_apply = [&](const Preconditioner<double>& m,
                               index_t m_nnz) {
      Outcome o;
      const OpCost apply = model.spmv(g.a.rows, m_nnz);
      OpCost iter = model.spmv(g.a.rows, g.a.nnz());
      iter += apply;
      iter += model.blas1(g.a.rows, 2, 2);
      iter += model.blas1(g.a.rows, 3, 2);
      iter += model.blas1(g.a.rows, 3, 2);
      iter += model.blas1(g.a.rows, 2, 2);
      iter += model.blas1(g.a.rows, 3, 2);
      iter += model.blas1(g.a.rows, 1, 2);
      o.per_iter_s = iter.seconds;
      const SolveResult<double> r = pcg(g.a, g.b, m, popt);
      o.iterations = r.iterations;
      o.converged = r.converged();
      return o;
    };

    const Outcome base = eval_ilu(g.a);
    const SparsifyDecision<double> d = wavefront_aware_sparsify(g.a);
    const Outcome spcg = eval_ilu(d.chosen.a_hat);
    SaiPreconditioner<double> sai(g.a);
    const Outcome sai_o = eval_spmv_apply(sai, sai.matrix().nnz());
    BlockJacobiPreconditioner<double> bj(g.a, 64);
    // Block apply moves bs entries per row of each dense factor: ~64*n.
    const Outcome bj_o = eval_spmv_apply(bj, 64 * g.a.rows);

    auto add = [&](const char* name, const Outcome& o) {
      const double rel = o.converged && base.converged
                             ? base.solve_s() / o.solve_s()
                             : 0.0;
      t.add_row({g.spec.name, name,
                 o.converged ? std::to_string(o.iterations) : "DNF",
                 fmt(o.per_iter_s * 1e6, 1), fmt(o.solve_s() * 1e3, 2),
                 o.converged && base.converged ? fmt_speedup(rel) : "n/a"});
      return rel;
    };
    add("PCG-ILU(0)", base);
    const double s1 = add("SPCG-ILU(0)", spcg);
    const double s2 = add("PCG-SAI", sai_o);
    const double s3 = add("PCG-BlockJacobi(64)", bj_o);
    if (s1 > 0) sp_spcg.push_back(s1);
    if (s2 > 0) sp_sai.push_back(s2);
    if (s3 > 0) sp_bj.push_back(s3);
  }
  std::cout << t.render() << "\n";
  auto gm = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : summarize_speedups(v).gmean;
  };
  std::cout << "gmean solve-phase speedup vs PCG-ILU(0):  SPCG "
            << fmt_speedup(gm(sp_spcg)) << ",  SAI " << fmt_speedup(gm(sp_sai))
            << ",  BlockJacobi " << fmt_speedup(gm(sp_bj)) << "\n";
  std::cout << "\nShape: wavefront-free methods trade iterations for cheap "
               "applies and win on\ndeep-schedule matrices; SPCG gets much of "
               "that per-iteration relief while\nkeeping ILU-class iteration "
               "counts — and, unlike SAI, it applies to any SPD\nmatrix "
               "regardless of whether a sparse approximate inverse exists "
               "(paper §6.2).\n";
  return 0;
}
