// Perf-regression harness: runs a small fixed panel of suite matrices
// through the fully traced SPCG pipeline and writes machine-readable
// per-phase timings plus convergence facts to BENCH_regress.json.
//
// CI uploads the file as a workflow artifact, so consecutive runs can be
// diffed for phase-level regressions (a SpTRSV slowdown shows up in
// solve/sptrsv_* seconds even when end-to-end wall clock hides it in noise).
// Iteration counts and residuals are deterministic and double as a semantic
// regression check; wall-clock fields are host-measured and jittery.
//
// Usage: regress [--out FILE] [--fill K] [--repeat N]
//   --out FILE   output path (default BENCH_regress.json)
//   --fill K     also run an ILU(K) configuration (default 4)
//   --repeat N   solves per matrix per configuration (default 3; phase
//                totals aggregate across repeats, seconds report the sum)
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/alloc_audit.h"
#include "core/spcg.h"
#include "gen/suite.h"
#include "support/expo.h"
#include "support/timer.h"
#include "support/trace.h"

using namespace spcg;

namespace {

// Panel: one matrix per broad size band, fixed ids so the JSON is comparable
// across commits (suite generation is deterministic).
constexpr index_t kPanel[] = {0, 9, 23, 41, 66};

struct ConfigRun {
  std::string config;  // "ilu0" / "iluk4"
  MatrixSpec spec;
  index_t rows = 0;
  std::int64_t nnz = 0;
  std::int32_t iterations = 0;
  bool converged = false;
  double final_residual = 0.0;
  double setup_seconds = 0.0;   // sparsify + factorization (summed repeats)
  double solve_seconds = 0.0;   // PCG wall clock (summed repeats)
  std::vector<PhaseTotal> phases;
  // Zero-allocation trajectory (DESIGN.md §6.4): steady-state PCG
  // iteration allocations measured by one extra untraced solve under the
  // allocation auditor. All zero when hooks are not compiled.
  std::uint64_t steady_iterations = 0;
  std::uint64_t steady_allocs = 0;
  std::uint64_t steady_violations = 0;
};

ConfigRun run_config(const std::string& config, const GeneratedMatrix& gm,
                     const SpcgOptions& opt, int repeat) {
  ConfigRun out;
  out.config = config;
  out.spec = gm.spec;
  out.rows = gm.a.rows;
  out.nnz = static_cast<std::int64_t>(gm.a.nnz());
  global_trace().clear();
  for (int r = 0; r < repeat; ++r) {
    const SpcgResult<double> res = spcg_solve(gm.a, gm.b, opt);
    out.iterations = res.solve.iterations;
    out.converged = res.solve.converged();
    out.final_residual = res.solve.final_residual_norm;
    out.setup_seconds += res.sparsify_seconds + res.factorization_seconds;
    out.solve_seconds += res.solve_seconds;
  }
  const std::vector<TraceEvent> events = global_trace().drain();
  out.phases = aggregate_phases(events);

  // Allocation probe: one untraced, history-free solve — tracing allocates
  // by design, so it must be off for the steady-state claim to be
  // measurable. Tracing is restored for the next configuration.
  if (analysis::alloc_audit_compiled()) {
    global_trace().set_enabled(false);
    SpcgOptions probe_opt = opt;
    probe_opt.pcg.trace_every = 0;
    probe_opt.pcg.record_history = false;
    analysis::AllocAudit::instance().reset();
    analysis::AllocAudit::instance().set_enabled(true);
    (void)spcg_solve(gm.a, gm.b, probe_opt);
    analysis::AllocAudit::instance().set_enabled(false);
    for (const analysis::PhaseAllocStats& s :
         analysis::AllocAudit::instance().snapshot()) {
      if (s.phase != "pcg.iteration") continue;
      out.steady_iterations = s.steady_scopes;
      out.steady_allocs = s.steady_allocs;
      out.steady_violations = s.steady_violations;
    }
    global_trace().set_enabled(true);
  }
  return out;
}

std::string to_json(const std::vector<ConfigRun>& runs, int repeat) {
  std::ostringstream os;
  os.precision(9);
  os << "{\n"
     << "  \"schema\": \"spcg-regress-v1\",\n"
     << "  \"repeat\": " << repeat << ",\n"
     << "  \"alloc_audit_compiled\": "
     << (analysis::alloc_audit_compiled() ? "true" : "false") << ",\n"
     << "  \"suite_checksum\": \"" << std::hex << suite_checksum() << std::dec
     << "\",\n"
     << "  \"runs\": [";
  bool first_run = true;
  for (const ConfigRun& r : runs) {
    os << (first_run ? "\n" : ",\n") << "    {\n"
       << "      \"config\": " << json_quote(r.config) << ",\n"
       << "      \"matrix\": " << json_quote(r.spec.name) << ",\n"
       << "      \"category\": " << json_quote(r.spec.category) << ",\n"
       << "      \"rows\": " << r.rows << ",\n"
       << "      \"nnz\": " << r.nnz << ",\n"
       << "      \"iterations\": " << r.iterations << ",\n"
       << "      \"converged\": " << (r.converged ? "true" : "false") << ",\n"
       << "      \"final_residual\": " << r.final_residual << ",\n"
       << "      \"setup_seconds\": " << r.setup_seconds << ",\n"
       << "      \"solve_seconds\": " << r.solve_seconds << ",\n"
       << "      \"steady_iterations\": " << r.steady_iterations << ",\n"
       << "      \"steady_allocs\": " << r.steady_allocs << ",\n"
       << "      \"steady_violations\": " << r.steady_violations << ",\n"
       << "      \"phases\": [";
    bool first_phase = true;
    for (const PhaseTotal& p : r.phases) {
      os << (first_phase ? "\n" : ",\n") << "        {\"category\": "
         << json_quote(p.category) << ", \"phase\": " << json_quote(p.name)
         << ", \"count\": " << p.count
         << ", \"seconds\": " << p.total_seconds() << "}";
      first_phase = false;
    }
    os << (first_phase ? "]" : "\n      ]") << "\n    }";
    first_run = false;
  }
  os << (first_run ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_regress.json";
  index_t fill = 4;
  int repeat = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "error: " << arg << " expects a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      out_path = next();
    } else if (arg == "--fill") {
      fill = static_cast<index_t>(std::atoi(next()));
    } else if (arg == "--repeat") {
      repeat = std::max(1, std::atoi(next()));
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--out FILE] [--fill K] [--repeat N]\n";
      return 2;
    }
  }

  // Full-fidelity tracing: every iteration sampled, so phase totals cover
  // the complete solve rather than a statistical slice.
  global_trace().set_enabled(true);
  SpcgOptions ilu0;
  ilu0.pcg.tolerance = 1e-10;
  ilu0.pcg.trace_every = 1;
  SpcgOptions iluk = ilu0;
  iluk.preconditioner = PrecondKind::kIluK;
  iluk.fill_level = fill;

  std::vector<ConfigRun> runs;
  for (const index_t id : kPanel) {
    const GeneratedMatrix gm = generate_suite_matrix(id);
    runs.push_back(run_config("ilu0", gm, ilu0, repeat));
    runs.push_back(
        run_config("iluk" + std::to_string(fill), gm, iluk, repeat));
    std::cout << gm.spec.name << ": ilu0 " << runs[runs.size() - 2].iterations
              << " it / " << runs[runs.size() - 2].solve_seconds << " s, "
              << runs.back().config << " " << runs.back().iterations
              << " it / " << runs.back().solve_seconds << " s\n";
  }

  const std::string doc = to_json(runs, repeat);
  if (!is_valid_json(doc)) {
    std::cerr << "error: generated document failed JSON self-check\n";
    return 1;
  }
  std::ofstream out(out_path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 1;
  }
  out << doc;
  std::cout << runs.size() << " runs -> " << out_path << "\n";
  return 0;
}
