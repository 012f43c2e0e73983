// Ablation: how matrix ordering interacts with SPCG.
//
// Wavefront counts are a property of the ordering, not just the pattern:
// natural band orderings produce deep schedules (many wavefronts), random
// orderings flatten them, and RCM restores band behavior. This bench
// quantifies, for a few representative matrices, the wavefronts and the
// modeled A100 per-iteration time of baseline vs SPCG under each ordering —
// showing that sparsification helps most exactly where orderings are deep.
#include <iostream>

#include "core/spcg.h"
#include "gen/suite.h"
#include "gpumodel/cost_model.h"
#include "sparse/reorder.h"
#include "support/table.h"

using namespace spcg;

namespace {

struct Row {
  std::string ordering;
  index_t wf_base = 0, wf_spcg = 0;
  double t_base = 0, t_spcg = 0;
  std::int32_t it_base = 0, it_spcg = 0;
};

Row evaluate(const Csr<double>& a, const std::vector<double>& b,
             const std::string& ordering) {
  Row row;
  row.ordering = ordering;
  SpcgOptions base;
  base.sparsify_enabled = false;
  base.pcg.tolerance = 1e-10;
  SpcgOptions sp = base;
  sp.sparsify_enabled = true;
  const SpcgResult<double> rb = spcg_solve(a, std::span<const double>(b), base);
  const SpcgResult<double> rs = spcg_solve(a, std::span<const double>(b), sp);
  const CostModel model(device_a100(), 4);
  row.wf_base = rb.wavefronts_factor;
  row.wf_spcg = rs.wavefronts_factor;
  row.t_base =
      model.pcg_iteration(pcg_iteration_shape(a, rb.factors)).seconds;
  row.t_spcg =
      model.pcg_iteration(pcg_iteration_shape(a, rs.factors)).seconds;
  row.it_base = rb.solve.iterations;
  row.it_spcg = rs.solve.iterations;
  return row;
}

}  // namespace

int main() {
  std::cout << "=== Ablation: ordering sensitivity of SPCG (ILU(0), modeled "
               "A100) ===\n\n";
  TextTable t;
  t.set_header({"matrix", "ordering", "wf base", "wf spcg", "per-iter speedup",
                "iters base", "iters spcg"});
  for (const index_t id : {0, 14, 55, 94}) {  // grid, circuit, em, structural
    const GeneratedMatrix g = generate_suite_matrix(id);
    const std::vector<std::pair<std::string, Permutation>> orderings = [&] {
      std::vector<std::pair<std::string, Permutation>> o;
      Permutation identity(static_cast<std::size_t>(g.a.rows));
      std::iota(identity.begin(), identity.end(), 0);
      o.emplace_back("natural", std::move(identity));
      o.emplace_back("random", random_permutation(g.a.rows, 17));
      o.emplace_back("rcm", reverse_cuthill_mckee(g.a));
      return o;
    }();
    for (const auto& [name, perm] : orderings) {
      const Csr<double> pa = permute_symmetric(g.a, perm);
      const std::vector<double> pb = permute_vector(g.b, perm);
      const Row r = evaluate(pa, pb, name);
      t.add_row({g.spec.name, r.ordering, std::to_string(r.wf_base),
                 std::to_string(r.wf_spcg), fmt_speedup(r.t_base / r.t_spcg),
                 std::to_string(r.it_base), std::to_string(r.it_spcg)});
    }
  }
  std::cout << t.render();
  std::cout << "\nDeep (natural band) orderings leave the most wavefronts for "
               "sparsification to\nremove; random orderings flatten the "
               "schedule and shrink SPCG's headroom.\nConvergence is "
               "ordering-independent (same preconditioner quality class).\n";
  return 0;
}
