// Ablation: does SPCG still pay off under a synchronization-free SpTRSV
// executor (Liu et al. / CapelliniSpTRSV style, cited in the paper's related
// work as the alternative to barriered wavefront execution)?
//
// The sync-free model removes the per-level barrier but keeps one
// dependent-latency hop per level on the critical path. SPCG's wavefront
// reduction therefore still shortens the solve — by a smaller factor.
#include <iostream>

#include "common/runner.h"
#include "gpumodel/cost_model.h"
#include "support/table.h"

using namespace spcg;
using namespace spcg::bench;

int main() {
  RunConfig config = apply_env_overrides(RunConfig{});
  config.kind = PrecondKind::kIlu0;
  const std::vector<MatrixRecord> records = run_suite(config, &std::cerr);
  const CostModel model(device_a100(), 4);

  std::vector<double> barriered, syncfree, syncfree_gain;
  for (const MatrixRecord& r : records) {
    const GeneratedMatrix g = generate_suite_matrix(r.spec.id);
    const TriangularFactors<double> base_fact = ilu0_factors(g.a);
    const SparsifySplit<double> split =
        sparsify_by_ratio(g.a, r.spcg().ratio_percent);
    const TriangularFactors<double> spcg_fact = ilu0_factors(split.a_hat);

    auto solve_time = [&](const TriangularFactors<double>& f,
                          bool sync_free) {
      const TriSolveStructure lo = trisolve_structure(f.l, Triangle::kLower);
      const TriSolveStructure up = trisolve_structure(f.u, Triangle::kUpper);
      return sync_free
                 ? model.trisolve_syncfree(lo).seconds +
                       model.trisolve_syncfree(up).seconds
                 : model.trisolve(lo).seconds + model.trisolve(up).seconds;
    };
    barriered.push_back(solve_time(base_fact, false) /
                        solve_time(spcg_fact, false));
    syncfree.push_back(solve_time(base_fact, true) /
                       solve_time(spcg_fact, true));
    syncfree_gain.push_back(solve_time(base_fact, false) /
                            solve_time(base_fact, true));
  }

  std::cout << "=== Ablation: SPCG under barriered vs sync-free SpTRSV "
               "executors (A100 model) ===\n\n";
  TextTable t;
  t.set_header({"metric", "gmean", "%>1", "max"});
  for (const auto& [name, v] :
       {std::pair<const char*, const std::vector<double>&>{
            "SPCG speedup, barriered executor", barriered},
        {"SPCG speedup, sync-free executor", syncfree},
        {"sync-free over barriered (baseline)", syncfree_gain}}) {
    const SpeedupSummary s = summarize_speedups(v);
    t.add_row({name, fmt_speedup(s.gmean), fmt_percent(s.pct_accelerated),
               fmt_speedup(s.max)});
  }
  std::cout << t.render();
  std::cout << "\nShape: the sync-free executor is the stronger baseline "
               "(as the related work\nclaims), and sparsification still "
               "speeds it up — wavefront reduction shortens\nthe dependence "
               "critical path, not just the barrier count.\n";
  return 0;
}
