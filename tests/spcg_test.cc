// Tests for the end-to-end SPCG driver (Figure 2 pipeline).
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/spcg.h"
#include "core/spcg_report.h"
#include "gen/generators.h"
#include "autotune/fill_level.h"

namespace spcg {
namespace {

TEST(Spcg, BaselineSolvesSystem) {
  const Csr<double> a = gen_poisson2d(20, 20);
  const std::vector<double> b = make_rhs(a, 1);
  SpcgOptions opt;
  opt.sparsify_enabled = false;
  opt.pcg.tolerance = 1e-10;
  const SpcgResult<double> r = spcg_solve(a, b, opt);
  EXPECT_TRUE(r.solve.converged());
  EXPECT_FALSE(r.decision.has_value());
  EXPECT_EQ(r.factor_nnz, a.nnz());  // ILU(0): no fill
  EXPECT_GT(r.matrix_wavefronts, 0);
}

TEST(Spcg, SparsifiedRunSolvesOriginalSystem) {
  const Csr<double> a = gen_grid_laplacian(24, 24, 2.0, 0.3, 7);
  const std::vector<double> b = make_rhs(a, 2);
  SpcgOptions opt;
  opt.pcg.tolerance = 1e-10;
  const SpcgResult<double> r = spcg_solve(a, b, opt);
  ASSERT_TRUE(r.decision.has_value());
  EXPECT_TRUE(r.solve.converged());
  // The true residual is measured against the ORIGINAL A (Figure 2):
  // r.solve.final_residual_norm is recomputed with A inside pcg().
  EXPECT_LT(r.solve.final_residual_norm, 1e-9);
  // Preconditioner built on the sparsified pattern: Â = A minus S.
  EXPECT_EQ(r.factor_nnz, a.nnz() - r.decision->chosen.s.nnz());
  EXPECT_LE(r.factor_nnz, a.nnz());
}

TEST(Spcg, SparsifiedWavefrontsNeverExceedBaseline) {
  const Csr<double> a = gen_mesh_laplacian(20, 20, 0.4, 0.05, 3);
  const std::vector<double> b = make_rhs(a, 3);
  SpcgOptions base;
  base.sparsify_enabled = false;
  SpcgOptions sp;
  const SpcgResult<double> rb = spcg_solve(a, b, base);
  const SpcgResult<double> rs = spcg_solve(a, b, sp);
  EXPECT_LE(rs.matrix_wavefronts, rb.matrix_wavefronts);
  EXPECT_LE(rs.wavefronts_factor, rb.wavefronts_factor);
}

TEST(Spcg, IlukVariantFactorsWithFill) {
  const Csr<double> a = gen_poisson2d(16, 16);
  const std::vector<double> b = make_rhs(a, 4);
  SpcgOptions opt;
  opt.sparsify_enabled = false;
  opt.preconditioner = PrecondKind::kIluK;
  opt.fill_level = 5;
  opt.pcg.tolerance = 1e-10;
  const SpcgResult<double> r = spcg_solve(a, b, opt);
  EXPECT_TRUE(r.solve.converged());
  EXPECT_GT(r.factorization.fill_nnz, 0);
  EXPECT_GT(r.factor_nnz, a.nnz());
}

TEST(Spcg, IlukConvergesFasterThanIlu0) {
  const Csr<double> a = gen_poisson2d(24, 24);
  const std::vector<double> b = make_rhs(a, 5);
  SpcgOptions opt;
  opt.sparsify_enabled = false;
  opt.pcg.tolerance = 1e-10;
  const SpcgResult<double> r0 = spcg_solve(a, b, opt);
  opt.preconditioner = PrecondKind::kIluK;
  opt.fill_level = 10;
  const SpcgResult<double> rk = spcg_solve(a, b, opt);
  ASSERT_TRUE(r0.solve.converged());
  ASSERT_TRUE(rk.solve.converged());
  EXPECT_LT(rk.solve.iterations, r0.solve.iterations);
}

TEST(Spcg, SelectBestFillLevelPrefersConvergenceThenIterations) {
  const Csr<double> a = gen_varcoef2d(18, 18, 1.5, 9);
  const std::vector<double> b = make_rhs(a, 6);
  SpcgOptions opt;
  opt.pcg.tolerance = 1e-10;
  const std::vector<index_t> ks{0, 2, 5};
  const KSelection<double> sel = tune_fill_level<double>(a, b, opt, ks);
  EXPECT_TRUE(sel.k == 0 || sel.k == 2 || sel.k == 5);
  // The winner must not lose to any candidate on (converged, iterations).
  for (const index_t k : ks) {
    SpcgOptions o = opt;
    o.sparsify_enabled = false;
    o.preconditioner = PrecondKind::kIluK;
    o.fill_level = k;
    const SpcgResult<double> r = spcg_solve(a, b, o);
    if (r.solve.converged()) {
      ASSERT_TRUE(sel.baseline.solve.converged());
      EXPECT_LE(sel.baseline.solve.iterations, r.solve.iterations);
    }
  }
}

TEST(Spcg, TimingsArePopulated) {
  const Csr<double> a = gen_poisson2d(12, 12);
  const std::vector<double> b = make_rhs(a, 7);
  const SpcgResult<double> r = spcg_solve(a, b);
  EXPECT_GE(r.sparsify_seconds, 0.0);
  EXPECT_GE(r.factorization_seconds, 0.0);
  EXPECT_GT(r.solve_seconds, 0.0);
  EXPECT_NEAR(r.end_to_end_seconds(),
              r.sparsify_seconds + r.factorization_seconds + r.solve_seconds,
              1e-12);
}

TEST(Spcg, ReportRendersAllFields) {
  const Csr<double> a = gen_poisson2d(10, 10);
  const std::vector<double> b = make_rhs(a, 8);
  const SpcgResult<double> r = spcg_solve(a, b);
  const RunSummary s = summarize("demo", a, r, PrecondKind::kIlu0);
  const std::string text = render_run_summary(s);
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("ILU(0)"), std::string::npos);
  EXPECT_NE(text.find("wavefront"), std::string::npos);
  EXPECT_NE(text.find("iterations"), std::string::npos);
}

TEST(Spcg, LevelScheduledExecutorMatchesSerialResult) {
  const Csr<double> a = gen_grid_laplacian(16, 16, 1.5, 0.4, 11);
  const std::vector<double> b = make_rhs(a, 9);
  SpcgOptions serial;
  serial.pcg.tolerance = 1e-10;
  SpcgOptions level = serial;
  level.executor = TrsvExec::kLevelScheduled;
  const SpcgResult<double> r1 = spcg_solve(a, b, serial);
  const SpcgResult<double> r2 = spcg_solve(a, b, level);
  ASSERT_TRUE(r1.solve.converged());
  ASSERT_TRUE(r2.solve.converged());
  EXPECT_EQ(r1.solve.iterations, r2.solve.iterations);
  for (std::size_t i = 0; i < r1.solve.x.size(); ++i)
    EXPECT_NEAR(r1.solve.x[i], r2.solve.x[i], 1e-8);
}

bool same_bytes(const Csr<double>& x, const Csr<double>& y) {
  return x.rows == y.rows && x.rowptr == y.rowptr && x.colind == y.colind &&
         x.values.size() == y.values.size() &&
         std::memcmp(x.values.data(), y.values.data(),
                     x.values.size() * sizeof(double)) == 0;
}

// A setup stores each factor value once: L without its unit diagonal, no
// combined LU and no Â beside the factors, which are bitwise split_lu() of
// the combined factor ilu0/iluk compute on the same input.
TEST(Spcg, SetupStoresEachFactorValueOnce) {
  const Csr<double> a = gen_grid_laplacian(24, 24, 2.0, 0.3, 7);
  for (const bool sparsify : {true, false}) {
    for (const PrecondKind kind : {PrecondKind::kIlu0, PrecondKind::kIluK}) {
      SpcgOptions opt;
      opt.sparsify_enabled = sparsify;
      opt.preconditioner = kind;
      opt.fill_level = 2;
      const SpcgSetup<double> s = spcg_setup(a, opt);
      const std::string at = std::string(sparsify ? "sparsified " : "") +
                             to_string(kind);
      for (index_t i = 0; i < a.rows; ++i)
        EXPECT_EQ(s.factors.l.find(i, i), -1) << at << " row " << i;
      EXPECT_TRUE(s.factorization.lu.values.empty()) << at;
      EXPECT_TRUE(s.factorization.lu.colind.empty()) << at;
      EXPECT_EQ(s.decision.has_value(), sparsify) << at;
      const Csr<double> input =
          sparsify ? wavefront_aware_sparsify(a, opt.sparsify).chosen.a_hat
                   : a;
      if (sparsify) {
        EXPECT_EQ(s.decision->chosen.a_hat.nnz(), 0) << at;
        EXPECT_TRUE(s.decision->chosen.a_hat.values.empty()) << at;
        EXPECT_EQ(s.decision->chosen.s.nnz() + input.nnz(), a.nnz()) << at;
      }
      const IluResult<double> combined =
          kind == PrecondKind::kIlu0 ? ilu0(input, opt.ilu)
                                     : iluk(input, opt.fill_level, opt.ilu);
      const TriangularFactors<double> want = split_lu(combined);
      EXPECT_TRUE(same_bytes(s.factors.l, want.l)) << at;
      EXPECT_TRUE(same_bytes(s.factors.u, want.u)) << at;
      EXPECT_EQ(s.factor_nnz, combined.lu.nnz()) << at;
      EXPECT_EQ(s.factorization.fill_nnz, combined.fill_nnz) << at;
      EXPECT_EQ(s.factorization.elimination_ops, combined.elimination_ops)
          << at;
    }
  }
}

}  // namespace
}  // namespace spcg
