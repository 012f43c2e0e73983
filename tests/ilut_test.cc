// Tests for ILUT(tau, p), the dual-threshold incomplete LU.
#include <gtest/gtest.h>

#include "core/sparsify.h"
#include "gen/generators.h"
#include "precond/ilut.h"
#include "precond/preconditioner.h"
#include "solver/pcg.h"

namespace spcg {
namespace {

TEST(Ilut, ZeroTolUnlimitedFillEqualsExactLu) {
  // With no dropping, ILUT is a complete LU: it must match ILU(huge K).
  const Csr<double> a = gen_grid_laplacian(6, 6, 1.0, 0.5, 3);
  IlutOptions opt;
  opt.drop_tol = 0.0;
  opt.max_fill = a.rows;
  const TriangularFactors<double> t = ilut(a, opt);
  const TriangularFactors<double> exact = iluk_factors(a, 100);
  for (const auto& [got, want] :
       {std::pair{&t.l, &exact.l}, std::pair{&t.u, &exact.u}}) {
    ASSERT_EQ(got->rowptr, want->rowptr);
    ASSERT_EQ(got->colind, want->colind);
    for (std::size_t p = 0; p < got->values.size(); ++p)
      EXPECT_NEAR(got->values[p], want->values[p], 1e-10);
  }
}

TEST(Ilut, FactorIsValidCombinedLu) {
  // ILUT returns the triangular form: a strictly lower L, and U rows that
  // each start with a nonzero diagonal.
  const Csr<double> a = gen_varcoef2d(14, 14, 1.5, 7);
  const TriangularFactors<double> t = ilut(a);
  t.l.validate();
  t.u.validate();
  for (index_t i = 0; i < a.rows; ++i) {
    for (const index_t j : t.l.row_cols(i)) EXPECT_LT(j, i);
    const auto cols_i = t.u.row_cols(i);
    ASSERT_FALSE(cols_i.empty()) << i;
    EXPECT_EQ(cols_i.front(), i);
    EXPECT_NE(t.u.row_vals(i).front(), 0.0);
  }
}

TEST(Ilut, MaxFillCapsRowParts) {
  const Csr<double> a = gen_poisson2d(14, 14);
  IlutOptions opt;
  opt.drop_tol = 0.0;  // only the fill cap binds
  opt.max_fill = 3;
  const TriangularFactors<double> t = ilut(a, opt);
  for (index_t i = 0; i < a.rows; ++i) {
    EXPECT_LE(t.l.row_cols(i).size(), 3u);
    EXPECT_LE(t.u.row_cols(i).size(), 4u);  // the diagonal, then at most 3
  }
}

TEST(Ilut, TighterTolGivesBetterPreconditioner) {
  const Csr<double> a = gen_poisson2d(20, 20);
  const std::vector<double> b = make_rhs(a, 5);
  PcgOptions popt;
  popt.tolerance = 1e-10;
  std::int32_t prev_iters = 0;
  for (const double tol : {1e-2, 1e-3, 1e-4}) {
    IlutOptions opt;
    opt.drop_tol = tol;
    opt.max_fill = 30;
    IluPreconditioner<double> m(ilut(a, opt));
    const SolveResult<double> r = pcg(a, b, m, popt);
    ASSERT_TRUE(r.converged()) << "tol=" << tol;
    if (prev_iters > 0) {
      EXPECT_LE(r.iterations, prev_iters + 1) << tol;
    }
    prev_iters = r.iterations;
  }
}

TEST(Ilut, MoreAccurateThanIlu0AtModestFill) {
  const Csr<double> a = gen_varcoef2d(20, 20, 1.5, 9);
  const std::vector<double> b = make_rhs(a, 9);
  PcgOptions popt;
  popt.tolerance = 1e-10;
  IluPreconditioner<double> m0(ilu0_factors(a));
  IlutOptions opt;
  opt.drop_tol = 1e-3;
  opt.max_fill = 20;
  IluPreconditioner<double> mt(ilut(a, opt));
  const SolveResult<double> r0 = pcg(a, b, m0, popt);
  const SolveResult<double> rt = pcg(a, b, mt, popt);
  ASSERT_TRUE(r0.converged());
  ASSERT_TRUE(rt.converged());
  EXPECT_LE(rt.iterations, r0.iterations);
}

TEST(Ilut, TightFillCapSurvivesViaDiagonalFallback) {
  // With a binding fill cap on a high-contrast matrix the elimination can
  // lose its pivot; the factorization must flag breakdown yet still return
  // a usable (diagonally anchored) preconditioner.
  const Csr<double> a = gen_varcoef2d(20, 20, 1.5, 9);
  const std::vector<double> b = make_rhs(a, 9);
  IlutOptions opt;
  opt.drop_tol = 1e-3;
  opt.max_fill = 8;
  IluResult<double> info;
  IluPreconditioner<double> m(ilut(a, opt, &info));
  EXPECT_TRUE(info.breakdown);
  PcgOptions popt;
  popt.tolerance = 1e-8;
  const SolveResult<double> r = pcg(a, b, m, popt);
  EXPECT_TRUE(r.converged());
}

TEST(Ilut, AggressiveThresholdYieldsAsymmetricMAndCgStalls) {
  // Documented caveat: ILUT's dropping is not symmetric, so with a coarse
  // tolerance plain CG stagnates above a tight target — while still making
  // several orders of progress. (SPCG avoids this by dropping from A
  // symmetrically before factorization.)
  const Csr<double> a = gen_poisson2d(20, 20);
  const std::vector<double> b = make_rhs(a, 5);
  IlutOptions opt;
  opt.drop_tol = 1e-1;
  opt.max_fill = 30;
  IluPreconditioner<double> m(ilut(a, opt));
  PcgOptions popt;
  popt.tolerance = 1e-10;
  const SolveResult<double> r = pcg(a, b, m, popt);
  EXPECT_FALSE(r.converged());
  EXPECT_LT(r.final_residual_norm, 1e-3);  // progressed, then stalled
}

TEST(Ilut, MissingDiagonalThrows) {
  const Csr<double> a =
      csr_from_triplets<double>(2, 2, {{0, 0, 1.0}, {1, 0, 1.0}});
  EXPECT_THROW(ilut(a), Error);
}

TEST(Ilut, ComposesWithSptrsvAndSparsify) {
  const Csr<double> a = gen_grid_laplacian(16, 16, 2.0, 0.4, 11);
  const std::vector<double> b = make_rhs(a, 11);
  const SparsifyDecision<double> d = wavefront_aware_sparsify(a);
  IlutOptions opt;
  opt.drop_tol = 1e-3;
  opt.max_fill = 10;
  IluPreconditioner<double> m(ilut(d.chosen.a_hat, opt),
                              TrsvExec::kLevelScheduled);
  PcgOptions popt;
  popt.tolerance = 1e-10;
  const SolveResult<double> r = pcg(a, b, m, popt);
  EXPECT_TRUE(r.converged());
}

}  // namespace
}  // namespace spcg
