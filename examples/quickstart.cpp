// Quickstart: solve an SPD system with SPCG in ~20 lines.
//
// Builds a 2D Poisson system, solves it twice — baseline PCG-ILU(0) and
// sparsified SPCG-ILU(0) — and prints both run summaries plus the modeled
// A100 per-iteration times.
#include <iostream>

#include "core/spcg.h"
#include "core/spcg_report.h"
#include "gen/generators.h"
#include "gpumodel/cost_model.h"

int main() {
  using namespace spcg;

  // 1. A sparse SPD system A x = b (here: generated; read_matrix_market()
  //    loads .mtx files the same way).
  const Csr<double> a = gen_poisson2d(64, 64);
  const std::vector<double> b = make_rhs(a, /*seed=*/1);

  // 2. Baseline: plain PCG with an ILU(0) preconditioner.
  SpcgOptions baseline;
  baseline.sparsify_enabled = false;
  baseline.pcg.tolerance = 1e-10;
  const SpcgResult<double> base = spcg_solve(a, b, baseline);

  // 3. SPCG: wavefront-aware sparsification (Algorithm 2), then ILU(0) on
  //    the sparsified matrix, then PCG on the ORIGINAL system.
  SpcgOptions sparsified = baseline;
  sparsified.sparsify_enabled = true;
  const SpcgResult<double> spcg = spcg_solve(a, b, sparsified);

  std::cout << render_run_summary(summarize("baseline PCG", a, base,
                                            PrecondKind::kIlu0));
  std::cout << render_run_summary(summarize("SPCG", a, spcg,
                                            PrecondKind::kIlu0));

  // 4. What the wavefront reduction buys on a GPU: modeled per-iteration
  //    time on an A100 for both preconditioners.
  const CostModel model(device_a100(), /*value_bytes=*/4);
  const double t_base =
      model.pcg_iteration(pcg_iteration_shape(a, base.factors)).seconds;
  const double t_spcg =
      model.pcg_iteration(pcg_iteration_shape(a, spcg.factors)).seconds;
  std::cout << "modeled A100 per-iteration: baseline " << t_base * 1e6
            << " us, SPCG " << t_spcg * 1e6 << " us (speedup "
            << t_base / t_spcg << "x)\n";
  return 0;
}
