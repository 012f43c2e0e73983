// Tests for pipelined PCG: algebraic equivalence with classic PCG and
// robustness across preconditioners.
#include <gtest/gtest.h>

#include "core/sparsify.h"
#include "gen/generators.h"
#include "solver/pipelined_cg.h"

namespace spcg {
namespace {

TEST(PipelinedPcg, MatchesClassicPcgIterationForIteration) {
  const Csr<double> a = gen_poisson2d(16, 16);
  const std::vector<double> b = make_rhs(a, 3);
  IluPreconditioner<double> m(ilu0_factors(a));
  PcgOptions opt;
  opt.tolerance = 1e-10;
  opt.record_history = true;
  const SolveResult<double> classic = pcg(a, b, m, opt);
  const SolveResult<double> piped = pipelined_pcg(a, b, m, opt);
  ASSERT_TRUE(classic.converged());
  ASSERT_TRUE(piped.converged());
  // Algebraically identical recurrences: iteration counts match exactly (or
  // within one due to rounding drift) and residual histories track closely.
  EXPECT_LE(std::abs(piped.iterations - classic.iterations), 1);
  const std::size_t common =
      std::min(classic.residual_history.size(), piped.residual_history.size());
  for (std::size_t i = 0; i + 1 < common; ++i) {
    EXPECT_NEAR(std::log10(piped.residual_history[i] + 1e-300),
                std::log10(classic.residual_history[i] + 1e-300), 0.5)
        << "iteration " << i;
  }
  for (std::size_t i = 0; i < classic.x.size(); ++i)
    EXPECT_NEAR(piped.x[i], classic.x[i], 1e-7);
}

TEST(PipelinedPcg, SolvesDiagonalSystemImmediately) {
  const Csr<double> a = csr_from_triplets<double>(
      3, 3, {{0, 0, 2.0}, {1, 1, 4.0}, {2, 2, 8.0}});
  const std::vector<double> b{2.0, 4.0, 8.0};
  JacobiPreconditioner<double> m(a);
  PcgOptions opt;
  opt.tolerance = 1e-13;
  const SolveResult<double> r = pipelined_pcg(a, b, m, opt);
  ASSERT_TRUE(r.converged());
  for (const double x : r.x) EXPECT_NEAR(x, 1.0, 1e-11);
}

TEST(PipelinedPcg, WorksWithSparsifiedPreconditioner) {
  const Csr<double> a = gen_grid_laplacian(20, 20, 2.0, 0.4, 7);
  const std::vector<double> b = make_rhs(a, 7);
  const SparsifyDecision<double> d = wavefront_aware_sparsify(a);
  IluPreconditioner<double> m(ilu0_factors(d.chosen.a_hat));
  PcgOptions opt;
  opt.tolerance = 1e-10;
  const SolveResult<double> r = pipelined_pcg(a, b, m, opt);
  EXPECT_TRUE(r.converged());
  EXPECT_LT(r.final_residual_norm, 1e-9);
}

TEST(PipelinedPcg, MaxIterationCap) {
  const Csr<double> a = gen_poisson2d(24, 24);
  const std::vector<double> b = make_rhs(a, 9);
  IdentityPreconditioner<double> m(a.rows);
  PcgOptions opt;
  opt.tolerance = 1e-30;
  opt.max_iterations = 5;
  const SolveResult<double> r = pipelined_pcg(a, b, m, opt);
  EXPECT_EQ(r.status, SolveStatus::kMaxIterations);
  EXPECT_EQ(r.iterations, 5);
}

TEST(PipelinedPcg, ZeroRhs) {
  const Csr<double> a = gen_poisson2d(8, 8);
  const std::vector<double> b(static_cast<std::size_t>(a.rows), 0.0);
  IdentityPreconditioner<double> m(a.rows);
  const SolveResult<double> r = pipelined_pcg(a, b, m);
  EXPECT_TRUE(r.converged());
  EXPECT_EQ(r.iterations, 0);
}

}  // namespace
}  // namespace spcg
