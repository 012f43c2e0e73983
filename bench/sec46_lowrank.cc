// Reproduces §4.6: how often HSS-style low-rank compression would trigger on
// incomplete factors. Paper (STRUMPACK): HSS effectively applied for only
// 5.61% of matrices at default settings; shrinking the minimum separator
// size raises coverage to 28.04% but hurts performance and memory.
#include <iostream>

#include "common/runner.h"
#include "gen/suite.h"
#include "lowrank/lowrank.h"
#include "precond/ilu.h"
#include "support/table.h"

using namespace spcg;
using namespace spcg::bench;

namespace {

struct Coverage {
  int matrices = 0;
  int triggered = 0;        // at least one block compresses
  double storage_ratio = 0; // sum compressed / sum dense over eligible tiles
};

Coverage study(const std::vector<index_t>& ids, PrecondKind kind,
               const LowRankOptions& opt) {
  Coverage c;
  double dense = 0.0, compressed = 0.0;
  for (const index_t id : ids) {
    const GeneratedMatrix g = generate_suite_matrix(id);
    // The study reads only strictly-lower tiles, all of which lie in L.
    const TriangularFactors<double> f =
        kind == PrecondKind::kIlu0 ? ilu0_factors(g.a)
                                   : iluk_factors(g.a, 10, IluOptions{}, 512);
    const LowRankStudy s = analyze_factor_blocks(f.l, opt);
    ++c.matrices;
    if (s.blocks_compressed > 0) ++c.triggered;
    dense += s.stored_entries_dense;
    compressed += s.stored_entries_compressed;
  }
  c.storage_ratio = dense > 0 ? compressed / dense : 0.0;
  return c;
}

}  // namespace

int main() {
  // Every third suite matrix keeps the SVD workload modest while covering
  // all 17 categories.
  std::vector<index_t> ids;
  for (index_t id = 0; id < suite_size(); id += 3) ids.push_back(id);
  if (const char* fast = std::getenv("SPCG_FAST"); fast && std::string(fast) != "0")
    ids.resize(std::min<std::size_t>(ids.size(), 8));

  LowRankOptions defaults;  // leaf 32, min separator 32, rel tol 1e-2
  LowRankOptions small_sep = defaults;
  small_sep.min_separator = 4;

  std::cout << "=== Section 4.6: low-rank (HSS-style) compression on "
               "incomplete factors ===\n\n";
  TextTable t;
  t.set_header({"factor", "min-separator", "matrices", "%matrices triggered",
                "rank-storage/dense"});
  for (const auto& [label, kind] :
       {std::pair<const char*, PrecondKind>{"ILU(0)", PrecondKind::kIlu0},
        {"ILU(10)", PrecondKind::kIluK}}) {
    for (const auto& [sep_label, opt] :
         {std::pair<const char*, const LowRankOptions&>{"default (32)",
                                                        defaults},
          {"small (4)", small_sep}}) {
      const Coverage c = study(ids, kind, opt);
      t.add_row({label, sep_label, std::to_string(c.matrices),
                 fmt_percent(static_cast<double>(c.triggered) /
                             std::max(1, c.matrices)),
                 fmt(c.storage_ratio, 3)});
    }
  }
  std::cout << t.render() << "\n";
  std::cout
      << "paper: HSS compression effectively applied on 5.61% of matrices at "
         "default\nsettings, 28.04% with a reduced minimum separator size — "
         "and the latter hurt\nperformance and memory. Expected shape here: "
         "low trigger rates at the default\nseparator, higher coverage but "
         "storage ratios near or above 1 with small\nseparators (compression "
         "does not pay on sparse incomplete factors).\n";
  return 0;
}
