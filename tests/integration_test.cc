// Cross-module integration tests: the full SPCG pipeline against ground
// truth, paper-shaped end-to-end behaviours, and suite-wide smoke coverage.
#include <gtest/gtest.h>

#include <cmath>

#include "core/spcg.h"
#include "gen/suite.h"
#include "gpumodel/cost_model.h"
#include "solver/lanczos.h"
#include "sparse/norms.h"

namespace spcg {
namespace {

/// Dense Cholesky solve as an independent ground truth for small systems.
std::vector<double> dense_spd_solve(const Csr<double>& a,
                                    const std::vector<double>& b) {
  const auto n = static_cast<std::size_t>(a.rows);
  std::vector<double> m(n * n, 0.0);
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
      m[static_cast<std::size_t>(i) * n +
        static_cast<std::size_t>(a.colind[static_cast<std::size_t>(p)])] =
          a.values[static_cast<std::size_t>(p)];
    }
  }
  // Cholesky m = L L^T (in place, lower).
  for (std::size_t j = 0; j < n; ++j) {
    double d = m[j * n + j];
    for (std::size_t k = 0; k < j; ++k) d -= m[j * n + k] * m[j * n + k];
    EXPECT_GT(d, 0.0) << "matrix not SPD at column " << j;
    const double ljj = std::sqrt(d);
    m[j * n + j] = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = m[i * n + j];
      for (std::size_t k = 0; k < j; ++k) v -= m[i * n + k] * m[j * n + k];
      m[i * n + j] = v / ljj;
    }
  }
  // Forward/backward substitution.
  std::vector<double> y(n), x(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= m[i * n + k] * y[k];
    y[i] = v / m[i * n + i];
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double v = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= m[k * n + ii] * x[k];
    x[ii] = v / m[ii * n + ii];
  }
  return x;
}

TEST(Integration, SpcgMatchesDenseCholesky) {
  const Csr<double> a = gen_grid_laplacian(12, 12, 1.5, 0.4, 31);
  const std::vector<double> b = make_rhs(a, 31);
  const std::vector<double> x_ref = dense_spd_solve(a, b);

  SpcgOptions opt;
  opt.pcg.tolerance = 1e-13;
  for (const PrecondKind kind : {PrecondKind::kIlu0, PrecondKind::kIluK}) {
    opt.preconditioner = kind;
    const SpcgResult<double> r = spcg_solve(a, b, opt);
    ASSERT_TRUE(r.solve.converged()) << to_string(kind);
    for (std::size_t i = 0; i < x_ref.size(); ++i)
      EXPECT_NEAR(r.solve.x[i], x_ref[i], 1e-8) << to_string(kind);
  }
}

TEST(Integration, SparsificationKeepsConvergenceOnSafeFamilies) {
  // Heavy-tailed families: the dropped mass is tiny, iterations must stay
  // approximately the same (paper §4.3: ~94% of systems).
  for (const index_t id : {13, 14, 61, 62}) {  // circuit + materials entries
    const GeneratedMatrix g = generate_suite_matrix(id);
    SpcgOptions base;
    base.sparsify_enabled = false;
    base.pcg.tolerance = 1e-10;
    SpcgOptions sp = base;
    sp.sparsify_enabled = true;
    const SpcgResult<double> rb = spcg_solve(g.a, std::span<const double>(g.b), base);
    const SpcgResult<double> rs = spcg_solve(g.a, std::span<const double>(g.b), sp);
    ASSERT_TRUE(rb.solve.converged()) << g.spec.name;
    ASSERT_TRUE(rs.solve.converged()) << g.spec.name;
    EXPECT_LE(rs.solve.iterations,
              static_cast<std::int32_t>(rb.solve.iterations * 1.5) + 4)
        << g.spec.name;
  }
}

TEST(Integration, WeakChainCounterExampleCollapsesWavefronts) {
  // The counter-example family demonstrates the paper's motivating effect:
  // sparsification removes near-zero chain entries, collapsing wavefronts
  // and making the modeled per-iteration time drop sharply.
  const GeneratedMatrix g = generate_suite_matrix(32);  // ce_weakchain_2000
  ASSERT_EQ(g.spec.category, "counter-example");

  SpcgOptions base;
  base.sparsify_enabled = false;
  base.pcg.tolerance = 1e-10;
  SpcgOptions sp = base;
  sp.sparsify_enabled = true;
  const SpcgResult<double> rb = spcg_solve(g.a, std::span<const double>(g.b), base);
  const SpcgResult<double> rs = spcg_solve(g.a, std::span<const double>(g.b), sp);

  EXPECT_LT(rs.matrix_wavefronts, rb.matrix_wavefronts / 4);

  const CostModel model(device_a100(), 4);
  const double tb =
      model.pcg_iteration(pcg_iteration_shape(g.a, rb.factors)).seconds;
  const double ts =
      model.pcg_iteration(pcg_iteration_shape(g.a, rs.factors)).seconds;
  EXPECT_GT(tb / ts, 2.0);  // strong modeled per-iteration speedup
  ASSERT_TRUE(rs.solve.converged());
}

TEST(Integration, ModeledEndToEndPipelineIsConsistent) {
  const GeneratedMatrix g = generate_suite_matrix(0);  // grid2d_32
  SpcgOptions opt;
  opt.pcg.tolerance = 1e-10;
  const SpcgResult<double> r = spcg_solve(g.a, std::span<const double>(g.b), opt);
  ASSERT_TRUE(r.solve.converged());

  const CostModel dev(device_a100(), 4);
  const CostModel host(device_host_cpu(), 4);
  const OpCost iter =
      dev.pcg_iteration(pcg_iteration_shape(g.a, r.factors));
  const OpCost fact = dev.ilu0_factorization(
      trisolve_structure(r.factors.l, Triangle::kLower),
      r.factorization.elimination_ops);
  const OpCost sp = host.sparsify_host(g.a.nnz(), 3);
  const double e2e =
      sp.seconds + fact.seconds + r.solve.iterations * iter.seconds;
  EXPECT_GT(e2e, 0.0);
  EXPECT_GT(iter.seconds, 0.0);
  EXPECT_GT(fact.seconds, 0.0);
  // Solve phase dominates setup for iterative runs of this size.
  EXPECT_GT(r.solve.iterations * iter.seconds, fact.seconds);
}

TEST(Integration, ConditionNumberDropsForImprovableMatrix) {
  // §5.4-style behaviour: for a matrix whose smallest couplings are noise,
  // sparsified preconditioning must not worsen the preconditioned system.
  const GeneratedMatrix g = generate_suite_matrix(15);  // circuit family
  const SparsifyDecision<double> d = wavefront_aware_sparsify(g.a);
  const EigEstimate before = lanczos_extreme_eigenvalues(g.a, 50);
  const EigEstimate after = lanczos_extreme_eigenvalues(d.chosen.a_hat, 50);
  EXPECT_GT(after.lambda_min, 0.0);
  // Condition number changes by at most a modest factor.
  EXPECT_LT(after.condition_number(),
            before.condition_number() * 3.0 + 10.0);
}

// Suite-wide smoke: every matrix survives the full SPCG-ILU(0) pipeline
// (generation, Algorithm 2, factorization, a few PCG steps) without
// exceptions. Kept cheap by capping iterations.
class SuitePipelineTest : public ::testing::TestWithParam<int> {};

TEST_P(SuitePipelineTest, FullPipelineRuns) {
  const GeneratedMatrix g =
      generate_suite_matrix(static_cast<index_t>(GetParam()));
  SpcgOptions opt;
  opt.pcg.max_iterations = 25;
  opt.pcg.tolerance = 1e-10;
  const SpcgResult<double> r =
      spcg_solve(g.a, std::span<const double>(g.b), opt);
  EXPECT_GE(r.solve.iterations, 0);
  EXPECT_TRUE(std::isfinite(r.solve.final_residual_norm)) << g.spec.name;
  ASSERT_TRUE(r.decision.has_value());
  EXPECT_LE(r.decision->wavefronts_chosen, r.decision->wavefronts_original);
}

INSTANTIATE_TEST_SUITE_P(EveryFourth, SuitePipelineTest,
                         ::testing::Range(0, 107, 4));

}  // namespace
}  // namespace spcg
