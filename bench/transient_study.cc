// Transient-solve study: amortized per-step cost of the values-only fast
// path vs cold setup+solve on an implicit diffusion stepper.
//
// Problem: backward-Euler time stepping of u_t = -div(k grad u) + f on a
// variable-coefficient 2D grid (gen_varcoef2d). Each step solves
//
//   (I + dt * g(t) * L) u_{t+1} = u_t + dt * f
//
// where g(t) = 1 + 0.5 sin(2*pi*t/steps) models a smoothly drifting
// diffusivity. The matrix pattern is constant; every off-diagonal scales by
// the same positive factor per step, so the sparsification drop ordering —
// and therefore the pattern decision — is preserved, and the session's
// numeric-only refactorization is exactly equivalent to a cold setup.
//
// The driver steps one TransientSession through the sequence (values-only
// refactorize + projected warm start + PCG per step), replays each step's
// system with the previous solution as the only seed (the warm start the
// projection replaces), and samples cold baselines (full spcg_setup +
// zero-start PCG at the same tolerance) at a few steps.
// It also runs a short MPS_DAWN-style fixed-iteration-budget segment and
// reports the residual each budgeted step reached.
//
// Gates (exit 1 on violation):
//   * amortized per-step cost / cold setup+solve < --gate-ratio (def. 0.5)
//   * the session's refactorized factors are bitwise-equal to a cold
//     spcg_setup on the final step's matrix
//   * zero steady-state allocations per step (enforced when the binary was
//     built with -DSPCG_ALLOC_AUDIT=ON; reported as not-compiled otherwise)
//   * every fixed-budget step runs exactly its iteration budget
//
// Usage: transient_study [--nx N] [--steps N] [--budget N] [--out FILE]
//                        [--gate-ratio R] [--smoke]
//   --nx N         grid edge; the system has N*N rows (default 128)
//   --steps N      time steps in the main sequence (default 60)
//   --budget N     iterations per step in the fixed-budget segment (def. 8)
//   --out FILE     JSON artifact path (default BENCH_transient.json)
//   --gate-ratio R amortized/cold gate (default 0.5)
//   --smoke        CI-sized run: nx = 48, steps = 12
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/alloc_audit.h"
#include "gen/generators.h"
#include "precond/preconditioner.h"
#include "support/expo.h"
#include "support/table.h"
#include "support/timer.h"
#include "transient/transient.h"

using namespace spcg;

namespace {

constexpr double kPi = 3.14159265358979323846;

/// A_t = I + dt * g * L written into `a` (same pattern as L).
void assemble_step_matrix(const Csr<double>& l,
                          const std::vector<index_t>& diag_pos, double dt_g,
                          Csr<double>& a) {
  for (std::size_t k = 0; k < l.values.size(); ++k)
    a.values[k] = dt_g * l.values[k];
  for (index_t i = 0; i < l.rows; ++i)
    a.values[static_cast<std::size_t>(diag_pos[static_cast<std::size_t>(i)])] +=
        1.0;
}

}  // namespace

int main(int argc, char** argv) {
  index_t nx = 128;
  int steps = 60;
  std::int32_t budget = 8;
  int budget_steps = 5;
  double gate_ratio = 0.5;
  std::string out_path = "BENCH_transient.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "usage: " << argv[0]
                  << " [--nx N] [--steps N] [--budget N] [--out FILE]"
                     " [--gate-ratio R] [--smoke]\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--nx") {
      nx = static_cast<index_t>(std::atoi(next()));
    } else if (arg == "--steps") {
      steps = std::atoi(next());
    } else if (arg == "--budget") {
      budget = static_cast<std::int32_t>(std::atoi(next()));
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--gate-ratio") {
      gate_ratio = std::atof(next());
    } else if (arg == "--smoke") {
      nx = 48;
      steps = 12;
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--nx N] [--steps N] [--budget N] [--out FILE]"
                   " [--gate-ratio R] [--smoke]\n";
      return 2;
    }
  }
  if (nx < 8 || steps < 4) {
    std::cerr << "error: need --nx >= 8 and --steps >= 4\n";
    return 2;
  }

  const double dt = 0.1;
  const Csr<double> l = gen_varcoef2d(nx, nx, /*contrast=*/1.0, /*seed=*/7);
  const auto n = static_cast<std::size_t>(l.rows);
  std::vector<index_t> diag_pos(n);
  for (index_t i = 0; i < l.rows; ++i) {
    diag_pos[static_cast<std::size_t>(i)] = l.find(i, i);
    SPCG_CHECK(diag_pos[static_cast<std::size_t>(i)] >= 0);
  }

  Csr<double> a = l;  // mutated in place each step, pattern never changes
  const std::vector<double> f = make_rhs(l, /*seed=*/3);
  std::vector<double> b(n);

  TransientOptions topt;
  // One sparsification ratio: every Algorithm-2 outcome path then lands on
  // the same split, so the retained pattern decision matches what a cold
  // setup would choose for any of this sequence's value sets — the
  // precondition of the bitwise gate below.
  topt.base.sparsify.ratios = {10.0};
  topt.policy.mode = StepMode::kTolerance;
  topt.policy.tolerance = 1e-8;
  topt.warm_start = true;

  auto g_of = [&](int t) {
    return 1.0 + 0.5 * std::sin(2.0 * kPi * static_cast<double>(t) /
                                static_cast<double>(steps));
  };

  std::cout << "transient_study: varcoef2d " << nx << "x" << nx << " ("
            << l.rows << " rows, " << l.nnz() << " nnz), " << steps
            << " steps, dt=" << dt << "\n"
            << "alloc audit hooks: "
            << (analysis::alloc_audit_compiled() ? "compiled" : "not compiled")
            << "\n\n";

  assemble_step_matrix(l, diag_pos, dt * g_of(0), a);
  TransientSession<double> session(a, topt);

  analysis::AllocAudit::instance().reset();
  analysis::AllocAudit::instance().set_enabled(true);

  // Main sequence. Step 0 pays the cold build; steps >= 1 are steady. Each
  // steady step is replayed with pcg(x0 = previous solution) on the same
  // matrix, preconditioner and right-hand side (own workspace, untimed).
  double steady_seconds = 0.0;
  std::int64_t steady_iters = 0;
  std::int64_t previous_seed_iters = 0;
  double cold_build_seconds = 0.0;
  std::int32_t cold_iters_step0 = 0;
  std::vector<double> u(n, 0.0);
  PcgWorkspace<double> replay_ws;
  for (int t = 0; t < steps; ++t) {
    assemble_step_matrix(l, diag_pos, dt * g_of(t), a);
    session.update_matrix(a);
    for (std::size_t i = 0; i < n; ++i) b[i] = u[i] + dt * f[i];
    const TransientStepStats& st = session.step(b);
    if (t == 0) {
      cold_build_seconds = st.refactorize_seconds;
      cold_iters_step0 = st.iterations;
    } else {
      steady_seconds += st.refactorize_seconds + st.solve_seconds;
      steady_iters += st.iterations;
      const SpcgSetup<double>& live = session.setup();
      const IluApplier<double> m(live.factors, live.l_schedule,
                                 live.u_schedule, topt.base.executor);
      previous_seed_iters +=  // u holds x_{t-1} until the step ends
          pcg(a, std::span<const double>(b), m,
              step_solve_options(topt.policy), std::span<const double>(u),
              &replay_ws)
              .iterations;
    }
    u = session.solution();
  }
  analysis::AllocAudit::instance().set_enabled(false);
  const std::uint64_t steady_violations =
      analysis::AllocAudit::instance().steady_violations();
  const TransientStats seq = session.stats();

  // Cold baselines: full setup + zero-start solve at the same tolerance, on
  // a few of the sequence's matrices.
  double cold_seconds_sum = 0.0;
  std::int64_t cold_iters_sum = 0;
  int cold_samples = 0;
  for (const int t : {steps / 4, steps / 2, steps - 1}) {
    assemble_step_matrix(l, diag_pos, dt * g_of(t), a);
    WallTimer timer;
    SpcgSetup<double> cold = spcg_setup(a, topt.base);
    IluPreconditioner<double> m(std::move(cold.factors),
                                std::move(cold.l_schedule),
                                std::move(cold.u_schedule),
                                topt.base.executor);
    PcgOptions popt = step_solve_options(topt.policy);
    const SolveResult<double> r = pcg(a, b, m, popt);
    cold_seconds_sum += timer.seconds();
    cold_iters_sum += r.iterations;
    ++cold_samples;
  }
  const double cold_seconds = cold_seconds_sum / cold_samples;
  const double cold_iters =
      static_cast<double>(cold_iters_sum) / cold_samples;
  const double amortized_seconds =
      steady_seconds / static_cast<double>(steps - 1);
  const double ratio = amortized_seconds / cold_seconds;
  const double warm_iters =
      static_cast<double>(steady_iters) / static_cast<double>(steps - 1);
  const double previous_seed_warm_iters =
      static_cast<double>(previous_seed_iters) / static_cast<double>(steps - 1);

  // Bitwise gate: bring the session to the final step's matrix and compare
  // its refactorized factors against a cold setup on the same values.
  assemble_step_matrix(l, diag_pos, dt * g_of(steps - 1), a);
  session.update_matrix(a);
  session.step(b);
  const SpcgSetup<double> cold_final = spcg_setup(a, topt.base);
  const auto& live = session.setup();
  const bool bitwise_equal =
      live.factorization.lu.values.size() ==
          cold_final.factorization.lu.values.size() &&
      std::memcmp(live.factorization.lu.values.data(),
                  cold_final.factorization.lu.values.data(),
                  live.factorization.lu.values.size() * sizeof(double)) == 0 &&
      live.factors.l.values == cold_final.factors.l.values &&
      live.factors.u.values == cold_final.factors.u.values &&
      live.factorization.diag_pos == cold_final.factorization.diag_pos;

  // Fixed-budget segment (MPS_DAWN-style): every step runs exactly `budget`
  // iterations; the residual at budget is the quality actually delivered.
  TransientOptions bopt = topt;
  bopt.policy.mode = StepMode::kFixedBudget;
  bopt.policy.iteration_budget = budget;
  TransientSession<double> budget_session(a, bopt);
  bool budget_honored = true;
  double budget_residual_sum = 0.0;
  for (int t = 0; t < budget_steps; ++t) {
    assemble_step_matrix(l, diag_pos, dt * g_of(t % steps), a);
    budget_session.update_matrix(a);
    const TransientStepStats& st = budget_session.step(b);
    if (st.iterations != budget && st.status != SolveStatus::kBreakdown)
      budget_honored = false;
    budget_residual_sum += st.final_residual_norm;
  }
  const double budget_residual_mean = budget_residual_sum / budget_steps;

  TextTable table;
  table.set_header({"metric", "value"});
  table.add_row({"cold setup+solve (sampled mean)", fmt(cold_seconds)});
  table.add_row({"amortized per-step (refresh+solve)", fmt(amortized_seconds)});
  table.add_row({"amortized / cold", fmt(ratio)});
  table.add_row({"warm iterations / step", fmt(warm_iters)});
  table.add_row({"previous-solution seed iterations / step",
                 fmt(previous_seed_warm_iters)});
  table.add_row({"projected steps", std::to_string(seq.projected_steps)});
  table.add_row({"cold iterations (sampled mean)", fmt(cold_iters)});
  table.add_row({"refactorize steps", std::to_string(seq.refactorize_steps)});
  table.add_row({"symbolic rebuilds", std::to_string(seq.symbolic_rebuilds)});
  table.add_row({"steady alloc violations", std::to_string(steady_violations)});
  table.add_row({"budget-mode residual @" + std::to_string(budget),
                 fmt(budget_residual_mean)});
  std::cout << table.render() << "\n";

  const bool alloc_ok =
      !analysis::alloc_audit_compiled() || steady_violations == 0;
  const bool ratio_ok = ratio < gate_ratio;
  std::cout << "gates: amortized/cold " << fmt(ratio) << " < "
            << fmt(gate_ratio) << " -> " << (ratio_ok ? "ok" : "FAILED")
            << "; bitwise factors -> " << (bitwise_equal ? "ok" : "FAILED")
            << "; steady allocs -> " << (alloc_ok ? "ok" : "FAILED")
            << "; budget honored -> " << (budget_honored ? "ok" : "FAILED")
            << "\n";

  std::ostringstream os;
  os << "{\n"
     << "  \"schema\": \"spcg-transient-v1\",\n"
     << "  \"matrix\": {\"generator\": \"varcoef2d\", \"nx\": " << nx
     << ", \"rows\": " << l.rows << ", \"nnz\": " << l.nnz() << "},\n"
     << "  \"steps\": " << steps << ",\n"
     << "  \"dt\": " << dt << ",\n"
     << "  \"tolerance\": " << topt.policy.tolerance << ",\n"
     << "  \"cold_build_seconds_step0\": " << cold_build_seconds << ",\n"
     << "  \"cold_setup_solve_seconds\": " << cold_seconds << ",\n"
     << "  \"amortized_step_seconds\": " << amortized_seconds << ",\n"
     << "  \"amortized_over_cold\": " << ratio << ",\n"
     << "  \"gate_ratio\": " << gate_ratio << ",\n"
     << "  \"warm_iterations_mean\": " << warm_iters << ",\n"
     << "  \"warm_iterations_previous_mean\": " << previous_seed_warm_iters
     << ",\n"
     << "  \"cold_iterations_mean\": " << cold_iters << ",\n"
     << "  \"cold_iterations_step0\": " << cold_iters_step0 << ",\n"
     << "  \"refactorize_steps\": " << seq.refactorize_steps << ",\n"
     << "  \"symbolic_rebuilds\": " << seq.symbolic_rebuilds << ",\n"
     << "  \"warm_steps\": " << seq.warm_steps << ",\n"
     << "  \"projected_steps\": " << seq.projected_steps << ",\n"
     << "  \"bitwise_equal\": " << (bitwise_equal ? "true" : "false") << ",\n"
     << "  \"alloc_audit_compiled\": "
     << (analysis::alloc_audit_compiled() ? "true" : "false") << ",\n"
     << "  \"steady_violations\": " << steady_violations << ",\n"
     << "  \"budget\": {\"iterations\": " << budget
     << ", \"steps\": " << budget_steps
     << ", \"honored\": " << (budget_honored ? "true" : "false")
     << ", \"residual_mean\": " << budget_residual_mean << "}\n"
     << "}\n";
  const std::string doc = os.str();
  if (!is_valid_json(doc)) {
    std::cerr << "error: internal JSON artifact invalid\n";
    return 2;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 2;
  }
  out << doc;
  std::cout << "wrote " << out_path << "\n";

  return (ratio_ok && bitwise_equal && alloc_ok && budget_honored) ? 0 : 1;
}
