// Ablation: where should the dropping happen — in the factor (ILUT) or in
// the matrix before factorization (SPCG)?
//
// The paper's related work argues incomplete solvers "still retain many
// fill-ins that are not essential". This bench compares, per matrix:
//   * PCG-ILU(0)                      (no dropping; the paper's baseline)
//   * PCG-ILUT(1e-3, p=20)           (in-factor dropping)
//   * SPCG-ILU(0)                     (pre-factorization dropping, Alg. 2)
// on factor nnz, factor wavefronts, iterations, and modeled A100
// per-iteration time.
#include <iostream>

#include "common/runner.h"
#include "core/spcg.h"
#include "gpumodel/cost_model.h"
#include "precond/ilut.h"
#include "support/table.h"

using namespace spcg;
using namespace spcg::bench;

int main() {
  RunConfig config = apply_env_overrides(RunConfig{});
  config.kind = PrecondKind::kIlu0;
  const std::vector<MatrixRecord> records = run_suite(config, &std::cerr);
  const CostModel model(device_a100(), 4);

  std::vector<double> ilut_pi, spcg_pi;
  std::vector<double> ilut_wf_red, spcg_wf_red;
  int ilut_conv = 0, spcg_conv = 0, base_conv = 0;
  TextTable t;
  t.set_header({"matrix", "wf base", "wf ilut", "wf spcg", "it base",
                "it ilut", "it spcg"});
  for (const MatrixRecord& r : records) {
    const GeneratedMatrix g = generate_suite_matrix(r.spec.id);

    IlutOptions iopt;
    iopt.drop_tol = 1e-3;
    iopt.max_fill = 20;
    TriangularFactors<double> f_ilut = ilut(g.a, iopt);
    const PcgIterationShape ilut_shape = pcg_iteration_shape(g.a, f_ilut);
    std::int32_t it_ilut = 0;
    bool conv_ilut = false;
    {
      IluPreconditioner<double> m(std::move(f_ilut));
      PcgOptions popt;
      popt.tolerance = config.tolerance;
      popt.max_iterations = config.max_iterations;
      const SolveResult<double> s = pcg(g.a, g.b, m, popt);
      it_ilut = s.iterations;
      conv_ilut = s.converged();
    }

    const double t_base = r.baseline.device.at("A100").per_iteration_s;
    const double t_ilut = model.pcg_iteration(ilut_shape).seconds;
    const double t_spcg = r.spcg().device.at("A100").per_iteration_s;
    ilut_pi.push_back(t_base / t_ilut);
    spcg_pi.push_back(t_base / t_spcg);
    const auto wfb = static_cast<double>(r.baseline.factor_wavefronts);
    ilut_wf_red.push_back(
        (wfb - static_cast<double>(ilut_shape.lower.levels())) / wfb);
    spcg_wf_red.push_back(
        (wfb - static_cast<double>(r.spcg().factor_wavefronts)) / wfb);
    if (conv_ilut) ++ilut_conv;
    if (r.spcg().converged) ++spcg_conv;
    if (r.baseline.converged) ++base_conv;
    t.add_row({r.spec.name, std::to_string(r.baseline.factor_wavefronts),
               std::to_string(ilut_shape.lower.levels()),
               std::to_string(r.spcg().factor_wavefronts),
               std::to_string(r.baseline.iterations), std::to_string(it_ilut),
               std::to_string(r.spcg().iterations)});
  }
  std::cout << "=== Ablation: in-factor dropping (ILUT) vs pre-factorization "
               "dropping (SPCG) ===\n\n";
  std::cout << t.render() << "\n";
  TextTable s;
  s.set_header({"method", "gmean per-iter speedup vs ILU(0)",
                "mean wf reduction", "%converged"});
  const double n = static_cast<double>(records.size());
  s.add_row({"ILUT(1e-3, 20)",
             fmt_speedup(summarize_speedups(ilut_pi).gmean),
             fmt_percent(mean(ilut_wf_red)),
             fmt_percent(ilut_conv / n)});
  s.add_row({"SPCG-ILU(0)", fmt_speedup(summarize_speedups(spcg_pi).gmean),
             fmt_percent(mean(spcg_wf_red)), fmt_percent(spcg_conv / n)});
  s.add_row({"PCG-ILU(0) baseline", "1.00x", "0.00%",
             fmt_percent(base_conv / n)});
  std::cout << s.render();
  std::cout << "\nShape: ILUT keeps (or adds) fill wherever values are large "
               "— it rarely removes\nthe dependence-critical entries, so its "
               "wavefront count stays near (or above)\nILU(0)'s. SPCG's "
               "wavefront-aware dropping targets exactly those entries.\n"
               "ILUT can also lose symmetry (see precond/ilut.h), costing "
               "convergence at\naggressive thresholds.\n";
  return 0;
}
