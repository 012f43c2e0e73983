// Tests for the block low-rank (HSS stand-in) analysis.
#include <gtest/gtest.h>

#include <cmath>

#include "gen/generators.h"
#include "lowrank/lowrank.h"
#include "precond/ilu.h"
#include "support/rng.h"

namespace spcg {
namespace {

TEST(Svd, DiagonalMatrix) {
  // 3x3 diag(3, 2, 1) -> singular values {3, 2, 1}.
  std::vector<double> a{3, 0, 0, 0, 2, 0, 0, 0, 1};
  const std::vector<double> s = dense_singular_values(a, 3, 3);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_NEAR(s[0], 3.0, 1e-12);
  EXPECT_NEAR(s[1], 2.0, 1e-12);
  EXPECT_NEAR(s[2], 1.0, 1e-12);
}

TEST(Svd, RankOneMatrix) {
  // Outer product u v^T has one nonzero singular value = |u||v|.
  const std::vector<double> u{1, 2, 2};  // |u| = 3
  const std::vector<double> v{3, 4};     // |v| = 5
  std::vector<double> a(6);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 2; ++j)
      a[static_cast<std::size_t>(i * 2 + j)] =
          u[static_cast<std::size_t>(i)] * v[static_cast<std::size_t>(j)];
  const std::vector<double> s = dense_singular_values(a, 3, 2);
  EXPECT_NEAR(s[0], 15.0, 1e-10);
  EXPECT_NEAR(s[1], 0.0, 1e-10);
}

TEST(Svd, OrthogonalMatrixHasUnitSingularValues) {
  const double c = std::cos(0.7), s = std::sin(0.7);
  std::vector<double> rot{c, -s, s, c};
  const std::vector<double> sv = dense_singular_values(rot, 2, 2);
  EXPECT_NEAR(sv[0], 1.0, 1e-12);
  EXPECT_NEAR(sv[1], 1.0, 1e-12);
}

TEST(Svd, FrobeniusNormPreserved) {
  Rng rng(5);
  const index_t m = 12, n = 9;
  std::vector<double> a(static_cast<std::size_t>(m * n));
  double fro2 = 0.0;
  for (double& v : a) {
    v = rng.normal();
    fro2 += v * v;
  }
  const std::vector<double> s = dense_singular_values(a, m, n);
  double sum2 = 0.0;
  for (const double v : s) sum2 += v * v;
  EXPECT_NEAR(sum2, fro2, 1e-8 * fro2);
}

TEST(Rank, CountsAboveRelativeCutoff) {
  const std::vector<double> s{10.0, 1.0, 0.5, 1e-14};
  EXPECT_EQ(numerical_rank(s, 1e-2, 1e-12), 3);
  EXPECT_EQ(numerical_rank(s, 0.5, 1e-12), 1);
  EXPECT_EQ(numerical_rank({}, 1e-2, 1e-12), 0);
}

TEST(LowRank, RankOneTilesTriggerCompression) {
  // Build a matrix whose lower off-diagonal tile is exactly rank 1.
  const index_t n = 64, leaf = 32;
  std::vector<Triplet<double>> ts;
  for (index_t i = 0; i < n; ++i) ts.push_back({i, i, 1.0});
  for (index_t i = leaf; i < n; ++i) {
    for (index_t j = 0; j < leaf; ++j) {
      ts.push_back({i, j, static_cast<double>(i - leaf + 1) *
                              static_cast<double>(j + 1)});
    }
  }
  const Csr<double> a = csr_from_triplets<double>(n, n, std::move(ts));
  LowRankOptions opt;
  opt.leaf_size = leaf;
  opt.min_separator = 8;
  const LowRankStudy study = analyze_factor_blocks(a, opt);
  EXPECT_EQ(study.blocks_total, 1);
  EXPECT_EQ(study.blocks_nonempty, 1);
  EXPECT_EQ(study.blocks_compressed, 1);
  EXPECT_DOUBLE_EQ(study.trigger_rate(), 1.0);
  EXPECT_LT(study.stored_entries_compressed, study.stored_entries_dense);
}

TEST(LowRank, IluFactorsRarelyCompress) {
  // The paper's §4.6 finding: incomplete factors rarely expose low-rank
  // blocks at STRUMPACK-like tolerances.
  const Csr<double> a = gen_varcoef2d(40, 40, 1.5, 17);
  const TriangularFactors<double> f = iluk_factors(a, 3);
  LowRankOptions opt;
  opt.leaf_size = 32;
  opt.min_separator = 24;
  opt.rel_tol = 1e-6;  // tight tolerance, like a meaningful preconditioner
  const LowRankStudy study = analyze_factor_blocks(f.l, opt);
  EXPECT_GT(study.blocks_nonempty, 0);
  EXPECT_LT(study.trigger_rate(), 0.15);
}

TEST(LowRank, SmallerSeparatorIncreasesCoverage) {
  // Matches the paper: reducing the minimum separator size raises HSS usage.
  const Csr<double> a = gen_varcoef2d(36, 36, 1.5, 23);
  const TriangularFactors<double> f = iluk_factors(a, 5);
  LowRankOptions strict;
  strict.leaf_size = 32;
  strict.min_separator = 28;
  LowRankOptions loose = strict;
  loose.min_separator = 2;
  const LowRankStudy s1 = analyze_factor_blocks(f.l, strict);
  const LowRankStudy s2 = analyze_factor_blocks(f.l, loose);
  EXPECT_GE(s2.blocks_eligible, s1.blocks_eligible);
  EXPECT_GE(s2.blocks_compressed, s1.blocks_compressed);
}

TEST(LowRank, EmptyOffDiagonalRegion) {
  const Csr<double> diag = csr_from_triplets<double>(
      64, 64, [] {
        std::vector<Triplet<double>> ts;
        for (index_t i = 0; i < 64; ++i) ts.push_back({i, i, 1.0});
        return ts;
      }());
  const LowRankStudy study = analyze_factor_blocks(diag);
  EXPECT_EQ(study.blocks_nonempty, 0);
  EXPECT_DOUBLE_EQ(study.trigger_rate(), 0.0);
}

}  // namespace
}  // namespace spcg
