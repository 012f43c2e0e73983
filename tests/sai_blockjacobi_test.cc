// Tests for the wavefront-free preconditioners: sparse approximate inverse
// (SAI) and block-Jacobi.
#include <gtest/gtest.h>

#include "gen/generators.h"
#include "precond/block_jacobi.h"
#include "precond/sai.h"
#include "solver/pcg.h"
#include "sparse/norms.h"

namespace spcg {
namespace {

TEST(Sai, ExactInverseForDiagonalMatrix) {
  const Csr<double> a = csr_from_triplets<double>(
      3, 3, {{0, 0, 2.0}, {1, 1, 4.0}, {2, 2, 5.0}});
  const Csr<double> m = sai_inverse(a);
  EXPECT_NEAR(m.at(0, 0), 0.5, 1e-10);
  EXPECT_NEAR(m.at(1, 1), 0.25, 1e-10);
  EXPECT_NEAR(m.at(2, 2), 0.2, 1e-10);
}

TEST(Sai, PatternMatchesRequestLevel) {
  const Csr<double> a = gen_poisson2d(6, 6);
  SaiOptions l0;
  const Csr<double> m0 = sai_inverse(a, l0);
  EXPECT_EQ(m0.colind, a.colind);  // level-0 pattern is A's
  SaiOptions l1;
  l1.pattern_level = 1;
  const Csr<double> m1 = sai_inverse(a, l1);
  EXPECT_GT(m1.nnz(), m0.nnz());  // neighbor expansion densifies
}

TEST(Sai, ReducesResidualNormOfIdentity) {
  // ||I - M A||_F must be substantially below ||I - alpha A||_F for the
  // best diagonal alpha (i.e., SAI beats trivial scaling).
  const Csr<double> a = gen_varcoef2d(8, 8, 1.0, 3);
  const Csr<double> m = sai_inverse(a);
  // Compute ||I - M A||_F densely (small n).
  const index_t n = a.rows;
  double fro = 0.0;
  for (index_t i = 0; i < n; ++i) {
    // row i of M*A
    std::vector<double> row(static_cast<std::size_t>(n), 0.0);
    const auto mc = m.row_cols(i);
    const auto mv = m.row_vals(i);
    for (std::size_t p = 0; p < mc.size(); ++p) {
      const auto ac = a.row_cols(mc[p]);
      const auto av = a.row_vals(mc[p]);
      for (std::size_t q = 0; q < ac.size(); ++q)
        row[static_cast<std::size_t>(ac[q])] += mv[p] * av[q];
    }
    for (index_t j = 0; j < n; ++j) {
      const double target = (i == j) ? 1.0 : 0.0;
      const double d = row[static_cast<std::size_t>(j)] - target;
      fro += d * d;
    }
  }
  fro = std::sqrt(fro);
  EXPECT_LT(fro, std::sqrt(static_cast<double>(n)) * 0.8);
}

TEST(Sai, PreconditionsCgFasterThanJacobi) {
  const Csr<double> a = gen_poisson2d(16, 16);
  const std::vector<double> b = make_rhs(a, 5);
  PcgOptions opt;
  opt.tolerance = 1e-10;
  JacobiPreconditioner<double> jac(a);
  SaiPreconditioner<double> sai(a, SaiOptions{1, 1e-12});
  const SolveResult<double> rj = pcg(a, b, jac, opt);
  const SolveResult<double> rs = pcg(a, b, sai, opt);
  ASSERT_TRUE(rj.converged());
  ASSERT_TRUE(rs.converged());
  EXPECT_LT(rs.iterations, rj.iterations);
}

TEST(Sai, SymmetricPatternKeepsCgStable) {
  const Csr<double> a = gen_grid_laplacian(12, 12, 1.5, 0.4, 7);
  const std::vector<double> b = make_rhs(a, 7);
  SaiPreconditioner<double> m(a);
  PcgOptions opt;
  opt.tolerance = 1e-9;
  const SolveResult<double> r = pcg(a, b, m, opt);
  EXPECT_TRUE(r.converged());
  EXPECT_LT(r.final_residual_norm, 1e-8);
}

TEST(BlockJacobi, BlockSizeNSolvesExactly) {
  // One block covering the matrix = a dense Cholesky solve.
  const Csr<double> a = gen_grid_laplacian(6, 6, 1.0, 0.5, 9);
  BlockJacobiPreconditioner<double> m(a, a.rows);
  std::vector<double> x_true(static_cast<std::size_t>(a.rows));
  for (std::size_t i = 0; i < x_true.size(); ++i)
    x_true[i] = std::sin(static_cast<double>(i));
  const std::vector<double> r = spmv(a, x_true);
  std::vector<double> z(x_true.size());
  m.apply(r, std::span<double>(z));
  for (std::size_t i = 0; i < x_true.size(); ++i)
    EXPECT_NEAR(z[i], x_true[i], 1e-9);
}

TEST(BlockJacobi, BlockSizeOneIsJacobi) {
  const Csr<double> a = gen_poisson2d(8, 8);
  BlockJacobiPreconditioner<double> blk(a, 1);
  JacobiPreconditioner<double> jac(a);
  std::vector<double> r(static_cast<std::size_t>(a.rows), 1.0);
  std::vector<double> z1(r.size()), z2(r.size());
  blk.apply(r, std::span<double>(z1));
  jac.apply(r, std::span<double>(z2));
  for (std::size_t i = 0; i < r.size(); ++i) EXPECT_NEAR(z1[i], z2[i], 1e-13);
}

TEST(BlockJacobi, LargerBlocksConvergeFaster) {
  const Csr<double> a = gen_poisson2d(20, 20);
  const std::vector<double> b = make_rhs(a, 3);
  PcgOptions opt;
  opt.tolerance = 1e-10;
  std::int32_t prev = 0;
  for (const index_t bs : {1, 8, 40, 200}) {
    BlockJacobiPreconditioner<double> m(a, bs);
    const SolveResult<double> r = pcg(a, b, m, opt);
    ASSERT_TRUE(r.converged()) << "block=" << bs;
    if (prev > 0) {
      EXPECT_LE(r.iterations, prev + 2) << "block=" << bs;
    }
    prev = r.iterations;
  }
}

TEST(BlockJacobi, RejectsIndefiniteBlocks) {
  const Csr<double> a = csr_from_triplets<double>(
      2, 2, {{0, 0, 1.0}, {0, 1, 3.0}, {1, 0, 3.0}, {1, 1, 1.0}});
  EXPECT_THROW((BlockJacobiPreconditioner<double>(a, 2)), Error);
}

TEST(BlockJacobi, WeakerThanIluButWavefrontFree) {
  const Csr<double> a = gen_varcoef2d(16, 16, 1.5, 11);
  const std::vector<double> b = make_rhs(a, 11);
  PcgOptions opt;
  opt.tolerance = 1e-10;
  BlockJacobiPreconditioner<double> bj(a, 16);
  IluPreconditioner<double> ilu(ilu0_factors(a));
  const SolveResult<double> rb = pcg(a, b, bj, opt);
  const SolveResult<double> ri = pcg(a, b, ilu, opt);
  ASSERT_TRUE(rb.converged());
  ASSERT_TRUE(ri.converged());
  EXPECT_GE(rb.iterations, ri.iterations);  // the quality trade-off
}

}  // namespace
}  // namespace spcg
