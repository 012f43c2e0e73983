// Tests for the mixed-precision preconditioner extension (paper §6.2).
#include <gtest/gtest.h>

#include "gen/generators.h"
#include "core/sparsify.h"
#include "solver/mixed.h"
#include "solver/pcg.h"

namespace spcg {
namespace {

TEST(Mixed, ApplyMatchesDoubleWithinFloatAccuracy) {
  const Csr<double> a = gen_grid_laplacian(12, 12, 1.0, 0.5, 5);
  const TriangularFactors<double> fact = ilu0_factors(a);
  IluPreconditioner<double> full(fact);
  MixedPrecisionIluPreconditioner mixed(fact);

  std::vector<double> r(static_cast<std::size_t>(a.rows));
  Rng rng(9);
  for (double& v : r) v = rng.uniform(-1.0, 1.0);
  std::vector<double> z64(r.size()), z32(r.size());
  full.apply(r, std::span<double>(z64));
  mixed.apply(r, std::span<double>(z32));
  double scale = 0.0;
  for (const double v : z64) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < r.size(); ++i)
    EXPECT_NEAR(z32[i], z64[i], 1e-5 * scale);
}

TEST(Mixed, OuterPcgStillReachesDoubleAccuracy) {
  // The preconditioner only steers the search direction: float apply must
  // not prevent the double-precision outer CG from converging tightly.
  const Csr<double> a = gen_poisson2d(24, 24);
  const std::vector<double> b = make_rhs(a, 3);
  MixedPrecisionIluPreconditioner mixed(ilu0_factors(a));
  PcgOptions opt;
  opt.tolerance = 1e-11;
  const SolveResult<double> r = pcg(a, b, mixed, opt);
  EXPECT_TRUE(r.converged());
  EXPECT_LT(r.final_residual_norm, 1e-10);
}

TEST(Mixed, IterationCountNearDoublePrecision) {
  const Csr<double> a = gen_varcoef2d(20, 20, 1.5, 7);
  const std::vector<double> b = make_rhs(a, 7);
  const TriangularFactors<double> fact = ilu0_factors(a);
  PcgOptions opt;
  opt.tolerance = 1e-10;
  IluPreconditioner<double> full(fact);
  MixedPrecisionIluPreconditioner mixed(fact);
  const SolveResult<double> r64 = pcg(a, b, full, opt);
  const SolveResult<double> r32 = pcg(a, b, mixed, opt);
  ASSERT_TRUE(r64.converged());
  ASSERT_TRUE(r32.converged());
  EXPECT_LE(std::abs(r32.iterations - r64.iterations), 5);
}

TEST(Mixed, FactorBytesHalved) {
  const Csr<double> a = gen_poisson2d(16, 16);
  const TriangularFactors<double> fact = ilu0_factors(a);
  MixedPrecisionIluPreconditioner mixed(fact);
  // values float (4B) + indices (4B) vs values double (8B) + indices (4B).
  const auto nnz_total = static_cast<std::size_t>(fact.l.nnz() + fact.u.nnz());
  EXPECT_EQ(mixed.factor_bytes(), nnz_total * (sizeof(float) + sizeof(index_t)));
  EXPECT_EQ(mixed.rows(), a.rows);
}

TEST(Mixed, ComposesWithSparsification) {
  // SPCG + mixed precision: sparsify, factor, store in float, solve.
  const Csr<double> a = gen_grid_laplacian(20, 20, 2.0, 0.4, 11);
  const std::vector<double> b = make_rhs(a, 11);
  const SparsifyDecision<double> d = wavefront_aware_sparsify(a);
  MixedPrecisionIluPreconditioner mixed(ilu0_factors(d.chosen.a_hat));
  PcgOptions opt;
  opt.tolerance = 1e-10;
  const SolveResult<double> r = pcg(a, b, mixed, opt);
  EXPECT_TRUE(r.converged());
}

}  // namespace
}  // namespace spcg
