// Tests for the transient-solve subsystem (src/transient/): the values-only
// numeric refactorization fast path, TransientSession step classification,
// projected warm starts, step policies, and the zero-allocation steady-step
// guarantee.
//
// Fixture naming is load-bearing: TransientVerify runs under the CI verify
// job (`ctest -R 'AllocAudit|Verify'`) alongside the spcg-verify corpus
// sweep, and TransientAllocAudit runs in the SPCG_ALLOC_AUDIT build.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numbers>
#include <vector>

#include "analysis/alloc_audit.h"
#include "analysis/verify.h"
#include "core/spcg.h"
#include "gen/generators.h"
#include "solver/pipelined_cg.h"
#include "support/rng.h"
#include "transient/refactorize.h"
#include "transient/step_policy.h"
#include "transient/transient.h"
#include "transient/warm_start.h"

namespace spcg {
namespace {

// A single candidate ratio makes the sparsification pattern decision
// invariant under uniform off-diagonal scaling: the chosen ratio is forced
// and the drop ordering (by magnitude) is preserved, so a cold setup on the
// scaled matrix picks the same pattern — the precondition for the bitwise
// refactorize gate.
SpcgOptions transient_options(PrecondKind kind = PrecondKind::kIlu0) {
  SpcgOptions opt;
  opt.preconditioner = kind;
  if (kind == PrecondKind::kIluK) opt.fill_level = 1;
  opt.sparsify.ratios = {10.0};
  opt.pcg.tolerance = 1e-10;
  return opt;
}

// Scale every off-diagonal by `factor`, leaving the diagonal alone. Preserves
// the pattern and the off-diagonal magnitude ordering.
Csr<double> scale_offdiag(const Csr<double>& a, double factor) {
  Csr<double> out = a;
  for (index_t i = 0; i < out.rows; ++i)
    for (index_t k = out.rowptr[static_cast<std::size_t>(i)];
         k < out.rowptr[static_cast<std::size_t>(i) + 1]; ++k)
      if (out.colind[static_cast<std::size_t>(k)] != i)
        out.values[static_cast<std::size_t>(k)] *= factor;
  return out;
}

template <class V>
bool bitwise_equal(const std::vector<V>& x, const std::vector<V>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(V)) == 0);
}

// A_t = I + D_t K D_t with D_t = diag(1 + 0.05 sin(phase_i + 2πt/20)): the
// benchmark's drift recipe at test size, drifting faster. Same pattern every
// step, smoothly moving values, so consecutive solutions are correlated.
void drift_into(const Csr<double>& k, index_t wave, int t, Csr<double>& a) {
  auto d = [&](index_t i) {
    const double phase = 2.0 * std::numbers::pi *
                         static_cast<double>(i % wave) /
                         static_cast<double>(wave);
    return 1.0 + 0.05 * std::sin(phase + 2.0 * std::numbers::pi * t / 20.0);
  };
  a = k;
  for (index_t i = 0; i < k.rows; ++i)
    for (index_t q = k.rowptr[static_cast<std::size_t>(i)];
         q < k.rowptr[static_cast<std::size_t>(i) + 1]; ++q) {
      const auto pos = static_cast<std::size_t>(q);
      const index_t j = k.colind[pos];
      a.values[pos] = d(i) * k.values[pos] * d(j) + (i == j ? 1.0 : 0.0);
    }
}

// Energy ½xᵀAx - bᵀx, minimized by the solution of A x = b; for any x it
// is ½‖x - x*‖²_A up to a constant.
double energy(const Csr<double>& a, const std::vector<double>& b,
              const std::vector<double>& x) {
  const std::vector<double> ax = spmv(a, x);
  return 0.5 * dot(x, ax) - dot(b, x);
}

// Gaussian elimination with partial pivoting on a dense row-major k×k
// system — an independent reference for the Galerkin solve.
std::vector<double> dense_solve(std::vector<double> m,
                                std::vector<double> rhs) {
  const std::size_t k = rhs.size();
  for (std::size_t c = 0; c < k; ++c) {
    std::size_t p = c;
    for (std::size_t r = c + 1; r < k; ++r)
      if (std::abs(m[r * k + c]) > std::abs(m[p * k + c])) p = r;
    for (std::size_t j = 0; j < k; ++j) std::swap(m[c * k + j], m[p * k + j]);
    std::swap(rhs[c], rhs[p]);
    for (std::size_t r = c + 1; r < k; ++r) {
      const double f = m[r * k + c] / m[c * k + c];
      for (std::size_t j = c; j < k; ++j) m[r * k + j] -= f * m[c * k + j];
      rhs[r] -= f * rhs[c];
    }
  }
  std::vector<double> y(k);
  for (std::size_t c = k; c-- > 0;) {
    double acc = rhs[c];
    for (std::size_t j = c + 1; j < k; ++j) acc -= m[c * k + j] * y[j];
    y[c] = acc / m[c * k + c];
  }
  return y;
}

std::vector<double> random_vector(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal();
  return v;
}

// project_warm_start over owned vectors; returns the guess it selects (the
// projection when the basis exceeds 1, else x_prev) and the basis size.
std::pair<std::vector<double>, std::int32_t> projected_guess(
    const Csr<double>& a, const std::vector<double>& b,
    const std::vector<double>& x_prev,
    const std::vector<std::vector<double>>& dirs) {
  std::vector<std::span<const double>> views(dirs.begin(), dirs.end());
  std::vector<double> x0(x_prev.size(), -7.0), r, av;
  const std::int32_t basis = project_warm_start(
      a, std::span<const double>(b), std::span<const double>(x_prev),
      std::span<const std::span<const double>>(views), std::span<double>(x0),
      r, av);
  return {basis > 1 ? x0 : x_prev, basis};
}

// ---------------------------------------------------------- refactorization

TEST(TransientVerify, RefactorizeReproducesColdSetupIlu0) {
  const Csr<double> a = gen_varcoef2d(20, 20, 1.0, 3);
  const analysis::Diagnostics d =
      analysis::verify_numeric_refactorize(a, transient_options());
  EXPECT_TRUE(d.ok()) << d;
}

TEST(TransientVerify, RefactorizeReproducesColdSetupIluK) {
  const Csr<double> a = gen_varcoef2d(18, 18, 2.0, 5);
  const analysis::Diagnostics d = analysis::verify_numeric_refactorize(
      a, transient_options(PrecondKind::kIluK));
  EXPECT_TRUE(d.ok()) << d;
}

TEST(TransientVerify, RefreshOnNewValuesMatchesColdSetupBitwise) {
  // Same pattern, new values: refreshing the old setup must produce factors
  // bit-identical to a cold setup on the new matrix (single-ratio options +
  // uniform off-diagonal scaling keep the pattern decision fixed).
  const SpcgOptions opt = transient_options();
  const Csr<double> a1 = gen_varcoef2d(16, 16, 1.5, 11);
  const Csr<double> a2 = scale_offdiag(a1, 1.25);

  SpcgSetup<double> live = spcg_setup(a1, opt);
  NumericRefreshWorkspace ws = build_numeric_refresh(live, a1);
  refresh_setup_numerics(live, a2, opt, ws);

  const SpcgSetup<double> cold = spcg_setup(a2, opt);
  EXPECT_TRUE(bitwise_equal(live.factors.l.values, cold.factors.l.values));
  EXPECT_TRUE(bitwise_equal(live.factors.u.values, cold.factors.u.values));
  EXPECT_EQ(live.factorization.breakdown, cold.factorization.breakdown);
}

TEST(TransientVerify, RefreshRejectsShapeMismatch) {
  const SpcgOptions opt = transient_options();
  const Csr<double> a = gen_poisson2d(10, 10);
  SpcgSetup<double> setup = spcg_setup(a, opt);
  NumericRefreshWorkspace ws = build_numeric_refresh(setup, a);
  const Csr<double> other = gen_poisson2d(11, 11);
  EXPECT_THROW(refresh_setup_numerics(setup, other, opt, ws), Error);
}

// ------------------------------------------------------------------ session

TEST(TransientSession, ValuesOnlyUpdateRefactorizesWithoutRebuild) {
  const TransientOptions topt{transient_options(), StepPolicy{}, true};
  Csr<double> a = gen_varcoef2d(16, 16, 1.5, 7);
  const std::vector<double> b = make_rhs(a, 1);

  TransientSession<double> session(a, topt);
  const TransientStepStats s0 = session.step(b);
  EXPECT_TRUE(s0.symbolic_rebuild);
  EXPECT_FALSE(s0.refactorized);

  // Mutate values in place and re-present: numeric refresh only.
  for (double& v : a.values) v *= 1.125;
  session.update_matrix(a);
  const TransientStepStats s1 = session.step(b);
  EXPECT_FALSE(s1.symbolic_rebuild);
  EXPECT_TRUE(s1.refactorized);
  EXPECT_EQ(session.stats().symbolic_rebuilds, 1);
  EXPECT_EQ(session.stats().refactorize_steps, 1);

  // The refreshed factors must equal a cold setup on the mutated matrix.
  const SpcgSetup<double> cold = spcg_setup(a, topt.base);
  EXPECT_TRUE(bitwise_equal(session.setup().factors.l.values,
                            cold.factors.l.values));
  EXPECT_TRUE(bitwise_equal(session.setup().factors.u.values,
                            cold.factors.u.values));
}

TEST(TransientSession, IdenticalMatrixUpdateIsANoOp) {
  const TransientOptions topt{transient_options(), StepPolicy{}, true};
  const Csr<double> a = gen_poisson2d(14, 14);
  const std::vector<double> b = make_rhs(a, 2);
  TransientSession<double> session(a, topt);
  session.step(b);
  session.update_matrix(a);  // bit-identical
  const TransientStepStats s1 = session.step(b);
  EXPECT_FALSE(s1.symbolic_rebuild);
  EXPECT_FALSE(s1.refactorized);
  EXPECT_EQ(s1.refactorize_seconds, 0.0);
}

TEST(TransientSession, PatternChangeTriggersSymbolicRebuild) {
  const TransientOptions topt{transient_options(), StepPolicy{}, true};
  TransientSession<double> session(
      std::make_shared<const Csr<double>>(gen_poisson2d(12, 12)), topt);
  // Fill the warm-start history with moving right-hand sides.
  std::vector<double> b(144, 1.0);
  for (std::size_t t = 0; t < kWarmStartHistory + 2; ++t) {
    session.step(b);
    b[t] += 1.0;
  }
  EXPECT_GT(session.last_step().warm_basis, 1);

  // Same row count, different pattern: nothing from the old layout survives.
  auto wider = std::make_shared<const Csr<double>>(gen_poisson2d(16, 9));
  session.update_matrix(wider);
  const TransientStepStats s1 = session.step(b);
  EXPECT_TRUE(s1.symbolic_rebuild);
  EXPECT_EQ(s1.warm_basis, 0);  // new unknown layout discards the guess
  EXPECT_EQ(session.stats().symbolic_rebuilds, 2);
  b[0] += 1.0;
  EXPECT_EQ(session.step(b).warm_basis, 1);  // the history ring was cleared
}

TEST(TransientSession, WarmStartCutsIterations) {
  // Solving the same system twice: the warm second step starts at the
  // solution and must converge in (far) fewer iterations than the cold one.
  const Csr<double> a = gen_varcoef2d(24, 24, 2.0, 9);
  const std::vector<double> b = make_rhs(a, 3);

  TransientOptions warm{transient_options(), StepPolicy{}, true};
  TransientSession<double> session(a, warm);
  const std::int32_t cold_iters = session.step(b).iterations;
  const TransientStepStats s1 = session.step(b);
  EXPECT_EQ(s1.warm_basis, 1);
  EXPECT_LT(s1.iterations, cold_iters);
  EXPECT_EQ(session.stats().warm_steps, 1);

  TransientOptions off = warm;
  off.warm_start = false;
  TransientSession<double> cold_session(a, off);
  cold_session.step(b);
  const TransientStepStats c1 = cold_session.step(b);
  EXPECT_EQ(c1.warm_basis, 0);
  EXPECT_LT(s1.iterations, c1.iterations);
}

TEST(TransientSession, FixedBudgetRunsExactlyBudgetIterations) {
  TransientOptions topt{transient_options(), StepPolicy{}, true};
  topt.policy.mode = StepMode::kFixedBudget;
  topt.policy.iteration_budget = 6;
  const Csr<double> a = gen_varcoef2d(20, 20, 1.5, 13);
  std::vector<double> b = make_rhs(a, 4);

  TransientSession<double> session(a, topt);
  for (int t = 0; t < 4; ++t) {
    const TransientStepStats s = session.step(b);
    ASSERT_NE(s.status, SolveStatus::kBreakdown);
    EXPECT_EQ(s.iterations, 6) << "step " << t;
    for (double& v : b) v *= 1.01;  // keep the sequence moving
  }
  EXPECT_EQ(session.stats().total_iterations, 24);
}

TEST(TransientSession, AdaptiveModeScalesTargetToInitialResidual) {
  TransientOptions topt{transient_options(), StepPolicy{}, true};
  topt.policy.mode = StepMode::kAdaptive;
  topt.policy.adaptive_reduction = 1e-4;
  topt.policy.adaptive_floor = 1e-14;
  const Csr<double> a = gen_varcoef2d(16, 16, 1.0, 17);
  const std::vector<double> b = make_rhs(a, 5);

  TransientSession<double> session(a, topt);
  const TransientStepStats s0 = session.step(b);
  // Cold step: target = reduction * ||b||.
  EXPECT_NEAR(s0.target_tolerance, 1e-4 * norm2(std::span<const double>(b)),
              1e-12);
  EXPECT_LE(s0.final_residual_norm, s0.target_tolerance * (1.0 + 1e-9));

  // Warm step on the same system: r0 is tiny, so the floor binds and the
  // solve tightens instead of quitting immediately.
  const TransientStepStats s1 = session.step(b);
  EXPECT_EQ(s1.warm_basis, 1);
  EXPECT_GE(s1.target_tolerance, topt.policy.adaptive_floor);
  EXPECT_LT(s1.target_tolerance, s0.target_tolerance);
}

// ------------------------------------------------- projected warm starts

TEST(TransientWarmStart, GuessIsTheGalerkinSolutionAndBeatsPreviousSolution) {
  const Csr<double> a = gen_varcoef2d(6, 6, 1.0, 41);
  const auto n = static_cast<std::size_t>(a.rows);
  const std::vector<double> b = make_rhs(a, 12);
  Rng rng(5);
  std::vector<double> x_prev = random_vector(n, rng);
  std::vector<std::vector<double>> dirs;
  for (std::size_t j = 0; j < kWarmStartHistory; ++j)
    dirs.push_back(random_vector(n, rng));

  const auto [x0, basis] = projected_guess(a, b, x_prev, dirs);
  ASSERT_EQ(basis, static_cast<std::int32_t>(kWarmStartHistory) + 1);
  // The A-norm error is the energy up to a constant.
  EXPECT_LT(energy(a, b, x0), energy(a, b, x_prev));

  // Dense reference: G = VᵀAV, g = Vᵀ(b - A x_prev), x_prev + V G⁻¹g.
  const std::size_t k = dirs.size();
  std::vector<double> r = spmv(a, x_prev);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  std::vector<double> g_mat(k * k), g(k);
  for (std::size_t p = 0; p < k; ++p) {
    const std::vector<double> av = spmv(a, dirs[p]);
    for (std::size_t q = 0; q < k; ++q) g_mat[q * k + p] = dot(dirs[q], av);
    g[p] = dot(dirs[p], r);
  }
  const std::vector<double> d = dense_solve(g_mat, g);
  for (std::size_t i = 0; i < n; ++i) {
    double expect = x_prev[i];
    for (std::size_t p = 0; p < k; ++p) expect += d[p] * dirs[p][i];
    EXPECT_NEAR(x0[i], expect, 1e-10 * (1.0 + std::abs(expect))) << i;
  }

  // Forming the guess in place over the oldest direction gives the same bits.
  std::vector<std::vector<double>> ring = dirs;
  std::vector<std::span<const double>> views(ring.begin(), ring.end());
  std::vector<double> r_scratch, av_scratch;
  ASSERT_EQ(project_warm_start(a, std::span<const double>(b),
                               std::span<const double>(x_prev),
                               std::span<const std::span<const double>>(views),
                               std::span<double>(ring.back()), r_scratch,
                               av_scratch),
            basis);
  EXPECT_TRUE(bitwise_equal(ring.back(), x0));
}

TEST(TransientWarmStart, UnrelatedHistoryNeverRaisesTheEnergy) {
  const Csr<double> a = gen_varcoef2d(12, 12, 2.0, 47);
  const Csr<double> other = gen_poisson2d(12, 12);
  const auto n = static_cast<std::size_t>(a.rows);
  const SpcgOptions opt = transient_options();
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const std::vector<double> b = make_rhs(a, 100 + seed);
    // x_prev solves a different right-hand side; the history comes from
    // solutions of a different matrix.
    const std::vector<double> x_prev =
        cg(a, make_rhs(a, 200 + seed), opt.pcg).x;
    std::vector<std::vector<double>> dirs;
    std::vector<double> last = cg(other, make_rhs(other, 300 + seed)).x;
    for (std::size_t j = 0; j < kWarmStartHistory; ++j) {
      std::vector<double> next =
          cg(other, make_rhs(other, 400 + seed * 10 + j)).x;
      std::vector<double> diff(n);
      for (std::size_t i = 0; i < n; ++i) diff[i] = next[i] - last[i];
      dirs.push_back(std::move(diff));
      last = std::move(next);
    }
    const auto [x0, basis] = projected_guess(a, b, x_prev, dirs);
    const double e_prev = energy(a, b, x_prev);
    EXPECT_LE(energy(a, b, x0), e_prev + 1e-12 * std::abs(e_prev))
        << "seed " << seed << " basis " << basis;
  }
}

TEST(TransientWarmStart, ZeroOrNanHistoryFallsBackToPreviousSolution) {
  const Csr<double> a = gen_varcoef2d(10, 10, 1.0, 53);
  const auto n = static_cast<std::size_t>(a.rows);
  const std::vector<double> b = make_rhs(a, 14);
  Rng rng(9);
  const std::vector<double> x_prev = random_vector(n, rng);
  const std::vector<double> untouched(n, -7.0);

  // Two identical steps leave zero differences behind.
  const std::vector<std::vector<double>> zeros(kWarmStartHistory,
                                               std::vector<double>(n, 0.0));
  std::vector<std::span<const double>> views(zeros.begin(), zeros.end());
  std::vector<double> x0 = untouched, r, av;
  EXPECT_EQ(project_warm_start(a, std::span<const double>(b),
                               std::span<const double>(x_prev),
                               std::span<const std::span<const double>>(views),
                               std::span<double>(x0), r, av),
            1);
  EXPECT_TRUE(bitwise_equal(x0, untouched));

  // A NaN in the newest difference poisons its pivot and every older one.
  std::vector<std::vector<double>> dirs;
  for (std::size_t j = 0; j < kWarmStartHistory; ++j)
    dirs.push_back(random_vector(n, rng));
  dirs.front()[n / 2] = std::numeric_limits<double>::quiet_NaN();
  const auto [nan_guess, nan_basis] = projected_guess(a, b, x_prev, dirs);
  EXPECT_EQ(nan_basis, 1);
  EXPECT_TRUE(bitwise_equal(nan_guess, x_prev));

  // A NaN in the right-hand side reaches d through g = Vᵀr: same fallback.
  dirs.front()[n / 2] = 1.0;
  std::vector<double> b_nan = b;
  b_nan[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(projected_guess(a, b_nan, x_prev, dirs).second, 1);

  // An exact previous solution leaves nothing to gain: g = 0.
  const std::vector<double> exact_b = spmv(a, x_prev);
  EXPECT_EQ(projected_guess(a, exact_b, x_prev, dirs).second, 1);
}

TEST(TransientWarmStart, ProjectedStepsBeatPreviousSolutionSeedOnSmoothDrift) {
  const Csr<double> k = gen_varcoef2d(32, 32, 1.0, 43);
  const std::vector<double> b = make_rhs(k, 15);
  Csr<double> a;
  drift_into(k, 32, 0, a);
  const TransientOptions topt{transient_options(), StepPolicy{}, true};
  const PcgOptions popt = step_solve_options(topt.policy);
  TransientSession<double> session(a, topt);
  session.step(b);

  std::int64_t projected = 0, previous = 0;
  for (int t = 1; t < 16; ++t) {
    const std::vector<double> x_prev = session.solution();
    drift_into(k, 32, t, a);
    session.update_matrix(a);
    const TransientStepStats& st = session.step(b);
    ASSERT_TRUE(st.status == SolveStatus::kConverged) << "step " << t;
    const SpcgSetup<double>& s = session.setup();
    const IluApplier<double> m(s.factors, s.l_schedule, s.u_schedule,
                               topt.base.executor);
    const SolveResult<double> replay =
        pcg(a, std::span<const double>(b), m, popt,
            std::span<const double>(x_prev));
    ASSERT_TRUE(replay.converged());
    if (st.warm_basis > 1) {
      projected += st.iterations;
      previous += replay.iterations;
    } else {
      // The previous-solution seed is the same code path, bit for bit.
      EXPECT_EQ(st.iterations, replay.iterations) << "step " << t;
      EXPECT_TRUE(bitwise_equal(session.solution(), replay.x));
    }
  }
  EXPECT_GE(session.stats().projected_steps, 10);
  EXPECT_LT(projected, previous);
}

TEST(TransientWarmStart, AdaptiveTargetFollowsProjectedResidual) {
  const Csr<double> k = gen_varcoef2d(16, 16, 1.0, 59);
  const std::vector<double> b = make_rhs(k, 16);
  Csr<double> a;
  drift_into(k, 16, 0, a);
  TransientOptions topt{transient_options(), StepPolicy{}, true};
  topt.policy.mode = StepMode::kAdaptive;
  topt.policy.adaptive_reduction = 1e-6;
  topt.policy.adaptive_floor = 1e-14;
  TransientSession<double> session(a, topt);
  session.step(b);

  // Replay the session's history: solutions in, differences in the same
  // floating-point order, newest first.
  std::vector<std::vector<double>> xs{session.solution()};
  auto residual_norm = [&](const std::vector<double>& x) {
    const std::vector<double> ax = spmv(a, x);
    double acc = 0.0;
    for (std::size_t i = 0; i < ax.size(); ++i)
      acc += (b[i] - ax[i]) * (b[i] - ax[i]);
    return std::sqrt(acc);
  };
  int projected = 0;
  for (int t = 1; t < 8; ++t) {
    drift_into(k, 16, t, a);
    std::vector<std::vector<double>> dirs;
    for (std::size_t j = xs.size() - 1;
         j > 0 && dirs.size() < kWarmStartHistory; --j) {
      std::vector<double> diff(xs[j].size());
      for (std::size_t i = 0; i < diff.size(); ++i)
        diff[i] = xs[j][i] - xs[j - 1][i];
      dirs.push_back(std::move(diff));
    }
    const auto [x0, basis] = projected_guess(a, b, xs.back(), dirs);

    session.update_matrix(a);
    const TransientStepStats& st = session.step(b);
    ASSERT_EQ(st.warm_basis, basis) << "step " << t;
    EXPECT_DOUBLE_EQ(st.target_tolerance, 1e-6 * residual_norm(x0));
    if (basis > 1) {
      ++projected;
      EXPECT_LT(st.target_tolerance, 1e-6 * residual_norm(xs.back()));
    }
    xs.push_back(session.solution());
  }
  EXPECT_GE(projected, 4);
}

TEST(TransientWarmStart, WarmStartOffIsBitwiseColdPcg) {
  const Csr<double> k = gen_varcoef2d(16, 16, 1.0, 61);
  const std::vector<double> b = make_rhs(k, 17);
  Csr<double> a;
  drift_into(k, 16, 0, a);
  TransientOptions topt{transient_options(), StepPolicy{}, false};
  const PcgOptions popt = step_solve_options(topt.policy);
  TransientSession<double> session(a, topt);
  for (int t = 0; t < 2 + static_cast<int>(kWarmStartHistory); ++t) {
    drift_into(k, 16, t, a);
    session.update_matrix(a);
    const TransientStepStats& st = session.step(b);
    EXPECT_EQ(st.warm_basis, 0);
    const SpcgSetup<double>& s = session.setup();
    const IluApplier<double> m(s.factors, s.l_schedule, s.u_schedule,
                               topt.base.executor);
    const SolveResult<double> ref = pcg(a, std::span<const double>(b), m, popt);
    EXPECT_EQ(st.iterations, ref.iterations) << "step " << t;
    EXPECT_TRUE(bitwise_equal(session.solution(), ref.x)) << "step " << t;
  }
  EXPECT_EQ(session.stats().warm_steps, 0);
}

// -------------------------------------------------------------- alloc audit

TEST(TransientAllocAudit, SteadyStepIsAllocationFree) {
  if (!analysis::alloc_audit_compiled())
    GTEST_SKIP() << "built without SPCG_ALLOC_AUDIT";
  // After the first (structural) step, a values-only step — numeric
  // refresh + projected warm start + solve — must not touch the heap. Enough
  // steps run for the warm-start history ring to fill and wrap.
  const TransientOptions topt{transient_options(), StepPolicy{}, true};
  Csr<double> a = gen_varcoef2d(20, 20, 1.5, 29);
  const std::vector<double> b = make_rhs(a, 8);

  TransientSession<double> session(a, topt);
  session.step(b);  // structural warmup: allowed to allocate

  constexpr auto kSteps = static_cast<int>(kWarmStartHistory) + 2;
  analysis::AllocAudit::instance().reset();
  analysis::AllocAudit::instance().set_enabled(true);
  for (int t = 0; t < kSteps; ++t) {
    for (index_t i = 0; i < a.rows; ++i)
      for (index_t k = a.rowptr[static_cast<std::size_t>(i)];
           k < a.rowptr[static_cast<std::size_t>(i) + 1]; ++k)
        if (a.colind[static_cast<std::size_t>(k)] != i)
          a.values[static_cast<std::size_t>(k)] *= 1.02;
    session.update_matrix(a);
    session.step(b);
  }
  analysis::AllocAudit::instance().set_enabled(false);
  EXPECT_EQ(analysis::AllocAudit::instance().steady_violations(), 0u);
  bool found = false;
  for (const auto& s : analysis::AllocAudit::instance().snapshot()) {
    if (s.phase != "transient.step") continue;
    found = true;
    EXPECT_EQ(s.steady_scopes, static_cast<std::uint64_t>(kSteps));
    EXPECT_EQ(s.steady_allocs, 0u)
        << s.steady_violations << " steady step(s) allocated";
  }
  EXPECT_TRUE(found);
  EXPECT_GT(session.stats().projected_steps, 0);
  analysis::AllocAudit::instance().reset();
}

// ------------------------------------------------------------- step policy

TEST(TransientStepPolicy, ModesMapToSolveOptions) {
  StepPolicy p;
  p.tolerance = 1e-8;
  p.relative = true;
  p.max_iterations = 123;
  const PcgOptions tol = step_solve_options(p);
  EXPECT_EQ(tol.tolerance, 1e-8);
  EXPECT_TRUE(tol.relative);
  EXPECT_EQ(tol.max_iterations, 123);

  p.mode = StepMode::kFixedBudget;
  p.iteration_budget = 9;
  const PcgOptions fixed = step_solve_options(p);
  EXPECT_EQ(fixed.tolerance, 0.0);
  EXPECT_FALSE(fixed.relative);
  EXPECT_EQ(fixed.max_iterations, 9);

  p.mode = StepMode::kAdaptive;
  p.adaptive_reduction = 1e-6;
  p.adaptive_floor = 1e-12;
  const PcgOptions adapt = step_solve_options(p, /*r0_norm=*/10.0);
  EXPECT_DOUBLE_EQ(adapt.tolerance, 1e-5);
  EXPECT_FALSE(adapt.relative);
  const PcgOptions floored = step_solve_options(p, /*r0_norm=*/1e-9);
  EXPECT_DOUBLE_EQ(floored.tolerance, 1e-12);
}

// -------------------------------------------------------------- warm starts

TEST(TransientSolvers, ExplicitZeroGuessMatchesOmittedGuessBitwise) {
  // x0 = 0 must take the exact historical code path: bitwise-identical
  // iterates to the no-guess overload.
  const Csr<double> a = gen_varcoef2d(16, 16, 1.5, 31);
  const std::vector<double> b = make_rhs(a, 9);
  const SpcgOptions opt = transient_options();
  const SpcgSetup<double> setup = spcg_setup(a, opt);
  const IluApplier<double> m(setup.factors, setup.l_schedule, setup.u_schedule,
                             opt.executor);
  const SolveResult<double> plain = pcg(a, b, m, opt.pcg);
  const SolveResult<double> empty_guess =
      pcg(a, std::span<const double>(b), m, opt.pcg, std::span<const double>{});
  EXPECT_EQ(plain.iterations, empty_guess.iterations);
  EXPECT_TRUE(bitwise_equal(plain.x, empty_guess.x));
}

TEST(TransientSolvers, WarmStartHelpsAllSolverVariants) {
  const Csr<double> a = gen_varcoef2d(20, 20, 2.0, 37);
  const std::vector<double> b = make_rhs(a, 10);
  const SpcgOptions opt = transient_options();
  const SpcgSetup<double> setup = spcg_setup(a, opt);
  const IluApplier<double> m(setup.factors, setup.l_schedule, setup.u_schedule,
                             opt.executor);

  const SolveResult<double> cold = pcg(a, b, m, opt.pcg);
  ASSERT_TRUE(cold.converged());

  const SolveResult<double> warm = pcg(a, std::span<const double>(b), m,
                                       opt.pcg, std::span<const double>(cold.x));
  EXPECT_LT(warm.iterations, cold.iterations);

  const SolveResult<double> pipelined =
      pipelined_pcg(a, std::span<const double>(b), m, opt.pcg,
                    std::span<const double>(cold.x));
  EXPECT_LT(pipelined.iterations, cold.iterations);
  EXPECT_TRUE(pipelined.converged());
}

}  // namespace
}  // namespace spcg
