// Unit + property tests for CG/PCG (Algorithm 1) and the Lanczos estimator,
// plus frozen references: test-local copies of the serial pcg() and
// pipelined_pcg() loops as they stood before both became instantiations of
// the policy-templated bodies, compared bit for bit over the whole suite.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/spcg.h"
#include "gen/generators.h"
#include "gen/suite.h"
#include "precond/preconditioner.h"
#include "solver/lanczos.h"
#include "solver/pcg.h"
#include "solver/pipelined_cg.h"
#include "sparse/norms.h"

namespace spcg {
namespace {

TEST(Pcg, SolvesDiagonalSystemInOneIteration) {
  const Csr<double> a = csr_from_triplets<double>(
      3, 3, {{0, 0, 2.0}, {1, 1, 4.0}, {2, 2, 8.0}});
  const std::vector<double> b{2.0, 4.0, 8.0};
  JacobiPreconditioner<double> m(a);
  PcgOptions opt;
  opt.tolerance = 1e-14;
  const SolveResult<double> r = pcg(a, b, m, opt);
  EXPECT_TRUE(r.converged());
  EXPECT_LE(r.iterations, 2);
  for (const double x : r.x) EXPECT_NEAR(x, 1.0, 1e-12);
}

TEST(Pcg, CgConvergesOnPoisson) {
  const Csr<double> a = gen_poisson2d(16, 16);
  const std::vector<double> b = make_rhs(a, 1);
  PcgOptions opt;
  opt.tolerance = 1e-10;
  const SolveResult<double> r = cg(a, b, opt);
  EXPECT_TRUE(r.converged());
  EXPECT_LT(r.final_residual_norm, 1e-9);
}

TEST(Pcg, IluPreconditioningReducesIterations) {
  const Csr<double> a = gen_poisson2d(24, 24);
  const std::vector<double> b = make_rhs(a, 2);
  PcgOptions opt;
  opt.tolerance = 1e-10;
  const SolveResult<double> plain = cg(a, b, opt);
  IluPreconditioner<double> m(ilu0(a));
  const SolveResult<double> pre = pcg(a, b, m, opt);
  ASSERT_TRUE(plain.converged());
  ASSERT_TRUE(pre.converged());
  EXPECT_LT(pre.iterations, plain.iterations);
}

TEST(Pcg, ExactPreconditionerConvergesImmediately) {
  const Csr<double> a = gen_grid_laplacian(8, 8, 1.0, 0.5, 5);
  const std::vector<double> b = make_rhs(a, 3);
  IluPreconditioner<double> m(iluk(a, 100));  // complete LU
  PcgOptions opt;
  opt.tolerance = 1e-12;
  const SolveResult<double> r = pcg(a, b, m, opt);
  EXPECT_TRUE(r.converged());
  EXPECT_LE(r.iterations, 3);
}

TEST(Pcg, MaxIterationCapRespected) {
  const Csr<double> a = gen_poisson2d(32, 32);
  const std::vector<double> b = make_rhs(a, 4);
  PcgOptions opt;
  opt.tolerance = 1e-30;  // unreachable
  opt.max_iterations = 7;
  const SolveResult<double> r = cg(a, b, opt);
  EXPECT_EQ(r.status, SolveStatus::kMaxIterations);
  EXPECT_EQ(r.iterations, 7);
}

TEST(Pcg, ZeroRhsConvergesWithZeroSolution) {
  const Csr<double> a = gen_poisson2d(8, 8);
  const std::vector<double> b(static_cast<std::size_t>(a.rows), 0.0);
  const SolveResult<double> r = cg(a, b);
  EXPECT_TRUE(r.converged());
  EXPECT_EQ(r.iterations, 0);
  for (const double x : r.x) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(Pcg, ZeroRhsConvergesUnderRelativeTolerance) {
  // With relative=true the target is tolerance * ||b|| = 0 and ||r|| < 0 can
  // never hold; the solver must answer x = 0 directly instead of spinning to
  // the iteration cap.
  const Csr<double> a = gen_poisson2d(8, 8);
  const std::vector<double> b(static_cast<std::size_t>(a.rows), 0.0);
  PcgOptions opt;
  opt.relative = true;
  opt.tolerance = 1e-10;
  opt.record_history = true;
  const SolveResult<double> r = cg(a, b, opt);
  EXPECT_TRUE(r.converged());
  EXPECT_EQ(r.iterations, 0);
  EXPECT_DOUBLE_EQ(r.final_residual_norm, 0.0);
  ASSERT_EQ(r.residual_history.size(), 1u);
  EXPECT_DOUBLE_EQ(r.residual_history.front(), 0.0);
  for (const double x : r.x) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(Pcg, RecordsMonotonicallyUsefulHistory) {
  const Csr<double> a = gen_poisson2d(20, 20);
  const std::vector<double> b = make_rhs(a, 6);
  PcgOptions opt;
  opt.tolerance = 1e-10;
  opt.record_history = true;
  IluPreconditioner<double> m(ilu0(a));
  const SolveResult<double> r = pcg(a, b, m, opt);
  ASSERT_TRUE(r.converged());
  ASSERT_GT(r.residual_history.size(), 1u);
  // First entry is ||b|| = 1, last is below tolerance.
  EXPECT_NEAR(r.residual_history.front(), 1.0, 1e-12);
  EXPECT_LT(r.residual_history.back(), 1e-10);
  // CG residuals are not strictly monotone, but must shrink overall.
  EXPECT_LT(r.residual_history.back(), r.residual_history.front());
}

TEST(Pcg, RelativeToleranceScalesWithRhs) {
  const Csr<double> a = gen_poisson2d(12, 12);
  std::vector<double> b = make_rhs(a, 7);
  for (double& v : b) v *= 1e6;
  PcgOptions opt;
  opt.relative = true;
  opt.tolerance = 1e-8;
  const SolveResult<double> r = cg(a, b, opt);
  EXPECT_TRUE(r.converged());
  EXPECT_LT(r.final_residual_norm, 1e6 * 1e-7);
}

TEST(Pcg, BreakdownDetectedOnIndefiniteMatrix) {
  // CG requires SPD; an indefinite matrix produces non-positive curvature.
  const Csr<double> a = csr_from_triplets<double>(
      2, 2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 2.0}, {1, 1, 1.0}});
  const std::vector<double> b{1.0, -1.0};
  PcgOptions opt;
  opt.tolerance = 1e-14;
  const SolveResult<double> r = cg(a, b, opt);
  EXPECT_EQ(r.status, SolveStatus::kBreakdown);
}

TEST(Pcg, SizeMismatchThrows) {
  const Csr<double> a = gen_poisson2d(4, 4);
  const std::vector<double> b(3, 1.0);
  EXPECT_THROW(cg(a, b), Error);
}

TEST(Pcg, FloatPathConvergesAtLooserTolerance) {
  const Csr<float> a = csr_cast<float>(gen_poisson2d(16, 16));
  std::vector<float> b(static_cast<std::size_t>(a.rows), 0.0f);
  b[0] = 1.0f;
  PcgOptions opt;
  opt.tolerance = 1e-4;
  IluPreconditioner<float> m(ilu0(a));
  const SolveResult<float> r = pcg<float>(a, b, m, opt);
  EXPECT_TRUE(r.converged());
}

TEST(Pcg, SolutionMatchesGroundTruth) {
  // b was built as normalized A*x_true; recover a scaled x_true.
  const Csr<double> a = gen_varcoef2d(10, 10, 1.0, 12);
  Rng rng(0x5bc6u + 100);
  std::vector<double> x_true(static_cast<std::size_t>(a.rows));
  for (double& v : x_true) v = rng.uniform(-1.0, 1.0);
  const std::vector<double> b = spmv(a, x_true);
  PcgOptions opt;
  opt.tolerance = 1e-12;
  opt.relative = true;
  IluPreconditioner<double> m(ilu0(a));
  const SolveResult<double> r = pcg(a, b, m, opt);
  ASSERT_TRUE(r.converged());
  for (std::size_t i = 0; i < x_true.size(); ++i)
    EXPECT_NEAR(r.x[i], x_true[i], 1e-7);
}

// --- Frozen references ------------------------------------------------------

/// ||b - A x|| in double, as both reference loops finish.
double reference_true_residual(const Csr<double>& a, std::span<const double> b,
                               const std::vector<double>& x) {
  std::vector<double> ax(b.size());
  spmv(a, std::span<const double>(x), std::span<double>(ax));
  double true_norm = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double d = b[i] - ax[i];
    true_norm += d * d;
  }
  return std::sqrt(true_norm);
}

/// Test-local copy of the classic pcg() loop before the policy-templated
/// body (spans, allocation probes and the workspace left out; they do not
/// touch the arithmetic).
SolveResult<double> reference_pcg(const Csr<double>& a,
                                  std::span<const double> b,
                                  const Preconditioner<double>& m,
                                  const PcgOptions& opt,
                                  std::span<const double> x0) {
  const auto n = static_cast<std::size_t>(a.rows);
  const bool warm = !x0.empty();
  SolveResult<double> res;
  if (warm) {
    res.x.assign(x0.begin(), x0.end());
  } else {
    res.x.assign(n, 0.0);
  }
  const double b_norm = norm2(b);
  if (b_norm == 0.0) {
    res.x.assign(n, 0.0);
    res.status = SolveStatus::kConverged;
    if (opt.record_history) res.residual_history.push_back(0.0);
    return res;
  }
  std::vector<double> r(b.begin(), b.end()), z(n), p(n), w(n);
  if (warm) {
    spmv(a, std::span<const double>(res.x), std::span<double>(w));
    for (std::size_t i = 0; i < n; ++i) r[i] -= w[i];
  }
  m.apply(std::span<const double>(r), std::span<double>(z));
  p = z;
  double rz = dot(r, z);
  const double target = opt.relative ? opt.tolerance * b_norm : opt.tolerance;
  double r_norm = norm2(r);
  if (opt.record_history) res.residual_history.push_back(r_norm);

  std::int32_t k = 0;
  for (; k < opt.max_iterations; ++k) {
    if (r_norm < target) {
      res.status = SolveStatus::kConverged;
      break;
    }
    spmv(a, std::span<const double>(p), std::span<double>(w));
    const double pw = dot(p, w);
    if (!(pw > 0.0)) {
      res.status = SolveStatus::kBreakdown;
      break;
    }
    const double alpha = rz / pw;
    axpy(alpha, std::span<const double>(p), std::span<double>(res.x));
    axpy(-alpha, std::span<const double>(w), std::span<double>(r));
    m.apply(std::span<const double>(r), std::span<double>(z));
    const double rz_next = dot(r, z);
    if (rz == 0.0 || rz_next != rz_next) {
      res.status = SolveStatus::kBreakdown;
      ++k;
      break;
    }
    const double beta = rz_next / rz;
    rz = rz_next;
    xpby(std::span<const double>(z), beta, std::span<double>(p));
    r_norm = norm2(r);
    if (opt.record_history) res.residual_history.push_back(r_norm);
  }
  if (res.status == SolveStatus::kMaxIterations && r_norm < target)
    res.status = SolveStatus::kConverged;
  res.iterations = k;
  res.final_residual_norm = reference_true_residual(a, b, res.x);
  return res;
}

/// Test-local copy of the pipelined_pcg() loop before the policy-templated
/// body: delta = (w, z) and mw = M^{-1} w at the top of each iteration, and
/// a breakdown only on a zero or NaN denominator.
SolveResult<double> reference_pipelined_pcg(const Csr<double>& a,
                                            std::span<const double> b,
                                            const Preconditioner<double>& m,
                                            const PcgOptions& opt,
                                            std::span<const double> x0) {
  const auto n = static_cast<std::size_t>(a.rows);
  const bool warm = !x0.empty();
  SolveResult<double> res;
  if (warm) {
    res.x.assign(x0.begin(), x0.end());
  } else {
    res.x.assign(n, 0.0);
  }
  std::vector<double> r(b.begin(), b.end());
  std::vector<double> z(n), w(n), mw(n), p(n), s(n), q(n);
  if (warm) {
    spmv(a, std::span<const double>(res.x), std::span<double>(w));
    for (std::size_t i = 0; i < n; ++i) r[i] -= w[i];
    w.assign(n, 0.0);
  }
  m.apply(std::span<const double>(r), std::span<double>(z));
  spmv(a, std::span<const double>(z), std::span<double>(w));
  const double b_norm = norm2(b);
  const double target =
      opt.relative ? opt.tolerance * (b_norm > 0.0 ? b_norm : 1.0)
                   : opt.tolerance;
  double gamma = dot(r, z);
  double alpha = 0.0, gamma_old = 0.0;
  double r_norm = norm2(r);
  if (opt.record_history) res.residual_history.push_back(r_norm);

  std::int32_t k = 0;
  for (; k < opt.max_iterations; ++k) {
    if (r_norm < target) {
      res.status = SolveStatus::kConverged;
      break;
    }
    const double delta = dot(w, z);
    m.apply(std::span<const double>(w), std::span<double>(mw));
    double beta;
    if (k == 0) {
      beta = 0.0;
      alpha = gamma / delta;
    } else {
      beta = gamma / gamma_old;
      const double denom = delta - beta * gamma / alpha;
      if (!(denom != 0.0) || denom != denom) {
        res.status = SolveStatus::kBreakdown;
        break;
      }
      alpha = gamma / denom;
    }
    if (!(alpha == alpha)) {
      res.status = SolveStatus::kBreakdown;
      break;
    }
    xpby(std::span<const double>(z), beta, std::span<double>(p));
    xpby(std::span<const double>(w), beta, std::span<double>(s));
    xpby(std::span<const double>(mw), beta, std::span<double>(q));
    axpy(alpha, std::span<const double>(p), std::span<double>(res.x));
    axpy(-alpha, std::span<const double>(s), std::span<double>(r));
    axpy(-alpha, std::span<const double>(q), std::span<double>(z));
    spmv(a, std::span<const double>(z), std::span<double>(w));
    gamma_old = gamma;
    gamma = dot(r, z);
    if (gamma != gamma) {
      res.status = SolveStatus::kBreakdown;
      ++k;
      break;
    }
    r_norm = norm2(r);
    if (opt.record_history) res.residual_history.push_back(r_norm);
  }
  if (res.status == SolveStatus::kMaxIterations && r_norm < target)
    res.status = SolveStatus::kConverged;
  res.iterations = k;
  res.final_residual_norm = reference_true_residual(a, b, res.x);
  return res;
}

void expect_bitwise_equal(const SolveResult<double>& ref,
                          const SolveResult<double>& got,
                          const std::string& at) {
  EXPECT_EQ(got.status, ref.status) << at;
  EXPECT_EQ(got.iterations, ref.iterations) << at;
  EXPECT_EQ(got.x, ref.x) << at;
  EXPECT_EQ(got.residual_history, ref.residual_history) << at;
  EXPECT_EQ(got.final_residual_norm, ref.final_residual_norm) << at;
}

class PcgReferenceTest : public ::testing::TestWithParam<int> {};

/// Both serial entry points against their frozen loops, under the
/// sparsified and the baseline ILU(0), cold and from a warm guess, with one
/// workspace reused across all of a matrix's solves.
TEST_P(PcgReferenceTest, SerialSolversMatchFrozenLoops) {
  const GeneratedMatrix g =
      generate_suite_matrix(static_cast<index_t>(GetParam()));
  const std::span<const double> b(g.b);
  PcgWorkspace<double> ws;
  for (const bool sparsify : {true, false}) {
    SpcgOptions opt;
    opt.sparsify_enabled = sparsify;
    opt.pcg.tolerance = 1e-10;
    opt.pcg.record_history = true;
    const SpcgSetup<double> setup = spcg_setup(g.a, opt);
    const IluApplier<double> m(setup.factors, setup.l_schedule,
                               setup.u_schedule, opt.executor);
    const SolveResult<double> cold_ref =
        reference_pcg(g.a, b, m, opt.pcg, {});
    std::vector<double> guess = cold_ref.x;
    for (std::size_t i = 0; i < guess.size(); ++i)
      guess[i] *= 0.75 + 0.5 * std::sin(static_cast<double>(i));
    for (const bool warm : {false, true}) {
      const std::span<const double> x0 =
          warm ? std::span<const double>(guess) : std::span<const double>();
      const std::string at = g.spec.name +
                             (sparsify ? " sparsified" : " baseline") +
                             (warm ? " warm" : " cold");
      expect_bitwise_equal(reference_pcg(g.a, b, m, opt.pcg, x0),
                           pcg(g.a, b, m, opt.pcg, x0, &ws), "pcg " + at);
      expect_bitwise_equal(reference_pipelined_pcg(g.a, b, m, opt.pcg, x0),
                           pipelined_pcg(g.a, b, m, opt.pcg, x0, &ws),
                           "pipelined_pcg " + at);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMatrices, PcgReferenceTest,
                         ::testing::Range(0, 107));

/// Test-local ILU apply as it stood before the row kernel multiplied by the
/// diagonal's reciprocal: both sweeps serial, every row divided by its
/// diagonal (ILU's unit L rows divide by 1, which is exact). pcg() runs it
/// through the base-class update_and_apply.
class DividingIlu final : public Preconditioner<double> {
 public:
  explicit DividingIlu(const TriangularFactors<double>& f) : f_(f) {}

  void apply(std::span<const double> r, std::span<double> z) const override {
    const index_t n = f_.l.rows;
    for (index_t i = 0; i < n; ++i)
      z[static_cast<std::size_t>(i)] =
          row(f_.l, i, r[static_cast<std::size_t>(i)], z);
    for (index_t i = n - 1; i >= 0; --i)
      z[static_cast<std::size_t>(i)] =
          row(f_.u, i, z[static_cast<std::size_t>(i)], z);
  }

  [[nodiscard]] index_t rows() const override { return f_.l.rows; }

 private:
  /// acc minus row i's off-diagonal products in stored column order, divided
  /// by the diagonal.
  static double row(const Csr<double>& m, index_t i, double acc,
                    std::span<const double> x) {
    double diag = 0.0;
    const auto cols = m.row_cols(i);
    const auto vals = m.row_vals(i);
    for (std::size_t p = 0; p < cols.size(); ++p) {
      if (cols[p] == i)
        diag = vals[p];
      else
        acc -= vals[p] * x[static_cast<std::size_t>(cols[p])];
    }
    return acc / diag;
  }

  const TriangularFactors<double>& f_;
};

class PcgReciprocalTest : public ::testing::TestWithParam<int> {};

/// The one declared bit change of the fused iteration: every triangular row
/// multiplies by its diagonal's reciprocal instead of dividing. Against the
/// dividing apply, each suite solve under the sparsified and the baseline
/// ILU(0) keeps its status, moves by at most three iterations, and both
/// true residuals stay under the tolerance.
TEST_P(PcgReciprocalTest, ReciprocalSweepKeepsEverySuiteSolve) {
  const GeneratedMatrix g =
      generate_suite_matrix(static_cast<index_t>(GetParam()));
  const std::span<const double> b(g.b);
  for (const bool sparsify : {true, false}) {
    SpcgOptions opt;
    opt.sparsify_enabled = sparsify;
    opt.pcg.tolerance = 1e-10;
    const SpcgSetup<double> setup = spcg_setup(g.a, opt);
    const IluApplier<double> m(setup.factors, setup.l_schedule,
                               setup.u_schedule, opt.executor);
    const SolveResult<double> got = pcg(g.a, b, m, opt.pcg);
    const SolveResult<double> ref =
        pcg(g.a, b, DividingIlu(setup.factors), opt.pcg);
    const std::string at =
        g.spec.name + (sparsify ? " sparsified" : " baseline");
    EXPECT_EQ(got.status, ref.status) << at;
    EXPECT_LE(std::abs(got.iterations - ref.iterations), 3) << at;
    EXPECT_LT(got.final_residual_norm, opt.pcg.tolerance) << at;
    EXPECT_LT(ref.final_residual_norm, opt.pcg.tolerance) << at;
  }
}

INSTANTIATE_TEST_SUITE_P(AllMatrices, PcgReciprocalTest,
                         ::testing::Range(0, 107));

// --- Lanczos ---------------------------------------------------------------

TEST(Lanczos, DiagonalMatrixEigenvalues) {
  const Csr<double> a = csr_from_triplets<double>(
      4, 4, {{0, 0, 1.0}, {1, 1, 2.0}, {2, 2, 3.0}, {3, 3, 10.0}});
  const EigEstimate e = lanczos_extreme_eigenvalues(a, 4);
  EXPECT_NEAR(e.lambda_min, 1.0, 1e-8);
  EXPECT_NEAR(e.lambda_max, 10.0, 1e-8);
  EXPECT_NEAR(e.condition_number(), 10.0, 1e-6);
}

TEST(Lanczos, PoissonEigenvaluesMatchClosedForm) {
  // 1D Laplacian eigenvalues: 2 - 2 cos(k pi / (n+1)).
  const index_t n = 64;
  std::vector<Triplet<double>> ts;
  for (index_t i = 0; i < n; ++i) {
    ts.push_back({i, i, 2.0});
    if (i > 0) ts.push_back({i, i - 1, -1.0});
    if (i + 1 < n) ts.push_back({i, i + 1, -1.0});
  }
  const Csr<double> a = csr_from_triplets<double>(n, n, std::move(ts));
  const EigEstimate e = lanczos_extreme_eigenvalues(a, 64);
  const double pi = 3.14159265358979323846;
  const double lmin = 2.0 - 2.0 * std::cos(pi / (n + 1));
  const double lmax = 2.0 - 2.0 * std::cos(n * pi / (n + 1));
  EXPECT_NEAR(e.lambda_min, lmin, 1e-6 * lmax);
  EXPECT_NEAR(e.lambda_max, lmax, 1e-6 * lmax);
}

TEST(Lanczos, SpdMatricesReportPositiveSpectrum) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Csr<double> a = gen_grid_laplacian(12, 12, 1.5, 0.3, seed);
    const EigEstimate e = lanczos_extreme_eigenvalues(a, 50, seed);
    EXPECT_GT(e.lambda_min, 0.0);
    EXPECT_GT(e.lambda_max, e.lambda_min);
    EXPECT_TRUE(std::isfinite(e.condition_number()));
  }
}

}  // namespace
}  // namespace spcg
