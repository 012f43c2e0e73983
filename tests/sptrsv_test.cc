// Unit + property tests for the sparse triangular solvers.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>

#include "analysis/race_detector.h"
#include "gen/generators.h"
#include "gen/suite.h"
#include "precond/ilu.h"
#include "precond/preconditioner.h"
#include "sparse/ops.h"
#include "sptrsv/sptrsv.h"
#include "wavefront/levels.h"

namespace spcg {
namespace {

TEST(Sptrsv, LowerSerialSmall) {
  // L = [2 0; 1 4], b = [2, 9] -> x = [1, 2].
  const Csr<double> l = csr_from_triplets<double>(
      2, 2, {{0, 0, 2.0}, {1, 0, 1.0}, {1, 1, 4.0}});
  std::vector<double> b{2.0, 9.0}, x(2);
  sptrsv_lower_serial(l, std::span<const double>(b), std::span<double>(x));
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

TEST(Sptrsv, UpperSerialSmall) {
  // U = [2 1; 0 4], b = [4, 8] -> x = [1, 2].
  const Csr<double> u = csr_from_triplets<double>(
      2, 2, {{0, 0, 2.0}, {0, 1, 1.0}, {1, 1, 4.0}});
  std::vector<double> b{4.0, 8.0}, x(2);
  sptrsv_upper_serial(u, std::span<const double>(b), std::span<double>(x));
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

TEST(Sptrsv, ZeroDiagonalThrows) {
  const Csr<double> l =
      csr_from_triplets<double>(2, 2, {{0, 0, 0.0}, {1, 1, 1.0}});
  std::vector<double> b{1.0, 1.0}, x(2);
  EXPECT_THROW(
      sptrsv_lower_serial(l, std::span<const double>(b), std::span<double>(x)),
      Error);
  const Csr<double> u =
      csr_from_triplets<double>(2, 2, {{0, 0, 1.0}, {1, 1, 0.0}});
  EXPECT_THROW(
      sptrsv_upper_serial(u, std::span<const double>(b), std::span<double>(x)),
      Error);
}

TEST(Sptrsv, InPlaceAliasingWorksForSerial) {
  const Csr<double> l = csr_from_triplets<double>(
      3, 3, {{0, 0, 1.0}, {1, 0, 1.0}, {1, 1, 2.0}, {2, 1, 1.0}, {2, 2, 4.0}});
  std::vector<double> bx{1.0, 3.0, 5.0};
  sptrsv_lower_serial(l, std::span<const double>(bx), std::span<double>(bx));
  EXPECT_DOUBLE_EQ(bx[0], 1.0);
  EXPECT_DOUBLE_EQ(bx[1], 1.0);
  EXPECT_DOUBLE_EQ(bx[2], 1.0);
}

/// Residual check ||L x - b||_inf for a solve.
double lower_residual(const Csr<double>& l, const std::vector<double>& x,
                      const std::vector<double>& b) {
  const std::vector<double> lx = spmv(l, x);
  double r = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i)
    r = std::max(r, std::abs(lx[i] - b[i]));
  return r;
}

class SptrsvPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SptrsvPropertyTest, SerialAndLevelScheduledMatchOnFactors) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Csr<double> a = gen_grid_laplacian(14, 14, 1.5, 0.4, seed);
  const TriangularFactors<double> f = split_lu(ilu0(a));

  std::vector<double> b(static_cast<std::size_t>(a.rows));
  Rng rng(seed * 97 + 1);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);

  std::vector<double> x_serial(b.size()), x_level(b.size());
  sptrsv_lower_serial(f.l, std::span<const double>(b),
                      std::span<double>(x_serial));
  const LevelSchedule ls = level_schedule(f.l, Triangle::kLower);
  sptrsv_lower_levels(f.l, ls, std::span<const double>(b),
                      std::span<double>(x_level));
  EXPECT_EQ(x_serial, x_level);
  EXPECT_LT(lower_residual(f.l, x_serial, b), 1e-10);

  // Upper side.
  std::vector<double> y_serial(b.size()), y_level(b.size());
  sptrsv_upper_serial(f.u, std::span<const double>(b),
                      std::span<double>(y_serial));
  const LevelSchedule us = level_schedule(f.u, Triangle::kUpper);
  sptrsv_upper_levels(f.u, us, std::span<const double>(b),
                      std::span<double>(y_level));
  EXPECT_EQ(y_serial, y_level);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SptrsvPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Sptrsv, FloatInstantiationRoundTrips) {
  const Csr<double> ad = gen_poisson2d(8, 8);
  const Csr<float> a = csr_cast<float>(ad);
  const TriangularFactors<float> f = split_lu(ilu0(a));
  std::vector<float> b(static_cast<std::size_t>(a.rows), 1.0f);
  std::vector<float> y(b.size()), x(b.size());
  sptrsv_lower_serial(f.l, std::span<const float>(b), std::span<float>(y));
  sptrsv_upper_serial(f.u, std::span<const float>(y), std::span<float>(x));
  // Result must be finite and nonzero.
  for (const float v : x) {
    EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_GT(std::abs(x[0]), 0.0f);
}

TEST(Sptrsv, SolveAgainstFullLuRecoversInput) {
  // With complete LU (ILU with huge K), L(Ux) = b solves A x = b exactly.
  const Csr<double> a = gen_varcoef2d(7, 7, 1.0, 11);
  const TriangularFactors<double> f = split_lu(iluk(a, 100));
  std::vector<double> x_true(static_cast<std::size_t>(a.rows));
  for (std::size_t i = 0; i < x_true.size(); ++i)
    x_true[i] = std::cos(static_cast<double>(i));
  const std::vector<double> b = spmv(a, x_true);
  std::vector<double> y(b.size()), x(b.size());
  sptrsv_lower_serial(f.l, std::span<const double>(b), std::span<double>(y));
  sptrsv_upper_serial(f.u, std::span<const double>(y), std::span<double>(x));
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

// --- bit identity with the substitution kernels the row kernel replaced -----

/// Test-local copy of the serial kernels before the structural row kernel:
/// every entry is tested against the diagonal, the diagonal is found by that
/// test, and every row multiplies by the diagonal's reciprocal (the row
/// kernel's one declared change from dividing; on ILU's unit L both forms
/// return acc unchanged).
template <bool kLower>
std::vector<double> reference_solve(const Csr<double>& m,
                                    const std::vector<double>& b) {
  const index_t n = m.rows;
  std::vector<double> x(b.size());
  for (index_t s = 0; s < n; ++s) {
    const index_t i = kLower ? s : n - 1 - s;
    double acc = b[static_cast<std::size_t>(i)];
    double diag = 0.0;
    for (index_t p = m.rowptr[static_cast<std::size_t>(i)];
         p < m.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      const index_t j = m.colind[static_cast<std::size_t>(p)];
      if (kLower ? j < i : j > i)
        acc -= m.values[static_cast<std::size_t>(p)] *
               x[static_cast<std::size_t>(j)];
      else if (j == i)
        diag = m.values[static_cast<std::size_t>(p)];
    }
    x[static_cast<std::size_t>(i)] = acc * (1.0 / diag);
  }
  return x;
}

bool same_bits(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         std::equal(x.begin(), x.end(), y.begin(), [](double a, double b) {
           return std::bit_cast<std::uint64_t>(a) ==
                  std::bit_cast<std::uint64_t>(b);
         });
}

using Solve = std::function<void(std::span<const double>, std::span<double>)>;

/// The executors of one triangle, by name: the single-threaded ones (serial
/// and race-checked), then, with `threaded`, the OpenMP level executors.
std::vector<std::pair<std::string, Solve>> executors(const Csr<double>& m,
                                                     const LevelSchedule& s,
                                                     bool lower,
                                                     bool threaded = true) {
  using CSpan = std::span<const double>;
  using MSpan = std::span<double>;
  std::vector<std::pair<std::string, Solve>> out{
      {"serial",
       [&m, lower](CSpan b, MSpan x) {
         lower ? sptrsv_lower_serial(m, b, x) : sptrsv_upper_serial(m, b, x);
       }},
      {"checked",
       [&m, &s, lower](CSpan b, MSpan x) {
         const analysis::RaceReport r =
             lower ? analysis::sptrsv_lower_levels_checked(m, s, b, x)
                   : analysis::sptrsv_upper_levels_checked(m, s, b, x);
         EXPECT_TRUE(r.ok());
       }}};
  if (!threaded) return out;
  out.emplace_back("levels", [&m, &s, lower](CSpan b, MSpan x) {
    lower ? sptrsv_lower_levels(m, s, b, x) : sptrsv_upper_levels(m, s, b, x);
  });
  return out;
}

/// The executors, out of place and in place (x aliasing b), reproduce the
/// reference bit for bit on both factors of `f`.
void expect_executors_match_reference(const TriangularFactors<double>& f,
                                      const std::string& what,
                                      std::uint64_t seed, bool threaded) {
  std::vector<double> b(static_cast<std::size_t>(f.l.rows));
  Rng rng(seed);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  for (const bool lower : {true, false}) {
    const Csr<double>& m = lower ? f.l : f.u;
    const LevelSchedule s =
        level_schedule(m, lower ? Triangle::kLower : Triangle::kUpper);
    const std::vector<double> ref =
        lower ? reference_solve<true>(m, b) : reference_solve<false>(m, b);
    for (const auto& [name, solve] : executors(m, s, lower, threaded)) {
      const std::string at = what + (lower ? " L " : " U ") + name;
      std::vector<double> x(b.size());
      solve(std::span<const double>(b), std::span<double>(x));
      EXPECT_TRUE(same_bits(ref, x)) << at;
      std::vector<double> bx = b;
      solve(std::span<const double>(bx), std::span<double>(bx));
      EXPECT_TRUE(same_bits(ref, bx)) << at << " in place";
    }
  }
}

// The OpenMP level executors fork a team per level, and under a parallel
// ctest run each level can cost a descheduled barrier (about 20 s per suite
// matrix), so they are compared on small instances and the single-threaded
// executors on every suite matrix. All of them run the same row kernel.
class SptrsvIdentityTest : public ::testing::TestWithParam<int> {};

TEST_P(SptrsvIdentityTest, ExecutorsMatchBranchySerialOnIlu0Factors) {
  const GeneratedMatrix g =
      generate_suite_matrix(static_cast<index_t>(GetParam()));
  expect_executors_match_reference(split_lu(ilu0(g.a)), g.spec.name + " ILU(0)",
                                   static_cast<std::uint64_t>(GetParam()) + 1,
                                   /*threaded=*/false);
}

INSTANTIATE_TEST_SUITE_P(AllMatrices, SptrsvIdentityTest,
                         ::testing::Range(0, 107));

TEST(SptrsvIdentity, ExecutorsMatchBranchySerialOnIlu2Factors) {
  // Every 7th suite matrix, except the scattered patterns whose ILU(1)
  // already fills past 4x nnz(A) (their ILU(2) is near-dense).
  int compared = 0;
  for (index_t id = 0; id < suite_size(); id += 7) {
    const GeneratedMatrix g = generate_suite_matrix(id);
    if (iluk_symbolic(g.a, 1).pattern.nnz() > 4 * g.a.nnz()) continue;
    expect_executors_match_reference(split_lu(iluk(g.a, 2)),
                                     g.spec.name + " ILU(2)",
                                     static_cast<std::uint64_t>(id) + 500,
                                     /*threaded=*/false);
    ++compared;
  }
  EXPECT_GE(compared, 10);
}

TEST(SptrsvIdentity, LevelExecutorsMatchBranchySerial) {
  for (const Csr<double>& a :
       {gen_grid_laplacian(14, 14, 1.5, 0.4, 3),
        gen_mesh_laplacian(12, 12, 0.3, 0.05, 8),
        gen_banded(150, 6, 0.4, false, 2)}) {
    const std::string what = "n=" + std::to_string(a.rows);
    expect_executors_match_reference(split_lu(ilu0(a)), what + " ILU(0)", 7,
                                     /*threaded=*/true);
    expect_executors_match_reference(split_lu(iluk(a, 2)), what + " ILU(2)",
                                     8, /*threaded=*/true);
  }
}

TEST(SptrsvIdentity, IluApplyIsBitwiseEqualAcrossExecutorsAndInPlace) {
  const Csr<double> a = gen_mesh_laplacian(12, 12, 0.3, 0.05, 8);
  std::vector<double> r(static_cast<std::size_t>(a.rows));
  for (std::size_t i = 0; i < r.size(); ++i)
    r[i] = std::sin(static_cast<double>(i) + 0.5);
  const IluPreconditioner<double> serial(iluk(a, 1), TrsvExec::kSerial);
  std::vector<double> z_ref(r.size());
  serial.apply(r, std::span<double>(z_ref));
  for (const TrsvExec exec :
       {TrsvExec::kSerial, TrsvExec::kLevelScheduled,
        TrsvExec::kLevelScheduledChecked}) {
    const IluPreconditioner<double> m(iluk(a, 1), exec);
    std::vector<double> z(r.size());
    m.apply(r, std::span<double>(z));
    EXPECT_TRUE(same_bits(z_ref, z)) << static_cast<int>(exec);
    std::vector<double> rz = r;
    m.apply(std::span<const double>(rz), std::span<double>(rz));
    EXPECT_TRUE(same_bits(z_ref, rz)) << static_cast<int>(exec) << " in place";
  }
}

// The serial ILU's update_and_apply runs one fused forward pass (x and r
// updates, ||r||^2 and the L solve); the level executors run the base-class
// sequence axpy, axpy, apply, sumsq. Every output must agree bit for bit.
TEST(SptrsvIdentity, FusedSerialUpdateAndApplyMatchesUnfusedSequence) {
  struct Step {
    std::vector<double> x, r, z;
    double rr = 0.0;
  };
  for (const Csr<double>& a :
       {gen_grid_laplacian(14, 14, 1.5, 0.4, 3),
        gen_mesh_laplacian(12, 12, 0.3, 0.05, 8),
        gen_banded(150, 6, 0.4, false, 2)}) {
    const auto n = static_cast<std::size_t>(a.rows);
    std::vector<double> p(n), w(n), x0(n), r0(n);
    Rng rng(n);
    for (std::vector<double>* v : {&p, &w, &x0, &r0})
      for (double& e : *v) e = rng.uniform(-1.0, 1.0);
    const double alpha = 0.37;
    for (const int level : {0, 2}) {
      const TriangularFactors<double> f =
          split_lu(level == 0 ? ilu0(a) : iluk(a, level));
      const LevelSchedule ls = level_schedule(f.l, Triangle::kLower);
      const LevelSchedule us = level_schedule(f.u, Triangle::kUpper);
      const auto step = [&](TrsvExec exec, bool base_class) {
        const IluApplier<double> m(f, ls, us, exec);
        Step s{x0, r0, std::vector<double>(n), 0.0};
        const std::span<const double> ps(p), ws(w);
        const std::span<double> xs(s.x), rs(s.r), zs(s.z);
        s.rr = base_class ? m.Preconditioner<double>::update_and_apply(
                                alpha, ps, ws, xs, rs, zs)
                          : m.update_and_apply(alpha, ps, ws, xs, rs, zs);
        return s;
      };
      const Step fused = step(TrsvExec::kSerial, /*base_class=*/false);
      for (const auto& [name, unfused] :
           {std::pair{"serial unfused", step(TrsvExec::kSerial, true)},
            std::pair{"levels", step(TrsvExec::kLevelScheduled, false)},
            std::pair{"checked",
                      step(TrsvExec::kLevelScheduledChecked, false)}}) {
        const std::string at = "n=" + std::to_string(n) + " ILU(" +
                               std::to_string(level) + ") " + name;
        EXPECT_TRUE(same_bits(fused.x, unfused.x)) << at;
        EXPECT_TRUE(same_bits(fused.r, unfused.r)) << at;
        EXPECT_TRUE(same_bits(fused.z, unfused.z)) << at;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(fused.rr),
                  std::bit_cast<std::uint64_t>(unfused.rr))
            << at;
      }
    }
  }
}

// --- typed errors at the SpTRSV boundary -------------------------------------

/// Runs `solve` and returns the spcg::Error message it raised ("" if none).
std::string error_of(const Solve& solve, std::vector<double> b) {
  std::vector<double> x(b.size());
  try {
    solve(std::span<const double>(b), std::span<double>(x));
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(SptrsvErrors, EveryExecutorRejectsAFullSymmetricMatrix) {
  const Csr<double> a = gen_poisson2d(5, 5);
  const std::vector<double> b(static_cast<std::size_t>(a.rows), 1.0);
  for (const bool lower : {true, false}) {
    // level_schedule still accepts the full matrix: only the solve rejects.
    const LevelSchedule s =
        level_schedule(a, lower ? Triangle::kLower : Triangle::kUpper);
    for (const auto& [name, solve] : executors(a, s, lower)) {
      const std::string msg = error_of(solve, b);
      EXPECT_NE(msg.find(lower ? "above the diagonal" : "below the diagonal"),
                std::string::npos)
          << name << ": " << msg;
      EXPECT_NE(msg.find("sptrsv: row "), std::string::npos) << name;
    }
  }
}

/// Rebuild `m` with entry (row, row) removed or zeroed.
Csr<double> with_bad_diagonal(const Csr<double>& m, index_t row, bool remove) {
  std::vector<Triplet<double>> ts;
  for (index_t i = 0; i < m.rows; ++i)
    for (index_t p = m.rowptr[static_cast<std::size_t>(i)];
         p < m.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      const index_t j = m.colind[static_cast<std::size_t>(p)];
      if (i == row && j == row && remove) continue;
      ts.push_back({i, j,
                    i == row && j == row
                        ? 0.0
                        : m.values[static_cast<std::size_t>(p)]});
    }
  return csr_from_triplets<double>(m.rows, m.cols, std::move(ts));
}

TEST(SptrsvErrors, EveryExecutorNamesTheRowOfAMissingOrZeroDiagonal) {
  const TriangularFactors<double> f = split_lu(ilu0(gen_poisson2d(5, 5)));
  const std::vector<double> b(static_cast<std::size_t>(f.l.rows), 1.0);
  const index_t row = 7;
  for (const bool lower : {true, false}) {
    for (const bool remove : {true, false}) {
      const Csr<double> m = with_bad_diagonal(lower ? f.l : f.u, row, remove);
      const LevelSchedule s =
          level_schedule(m, lower ? Triangle::kLower : Triangle::kUpper);
      const std::string want =
          "sptrsv: row " + std::to_string(row) +
          (remove ? " has no diagonal entry" : " has a zero diagonal");
      for (const auto& [name, solve] : executors(m, s, lower)) {
        const std::string msg = error_of(solve, b);
        EXPECT_NE(msg.find(want), std::string::npos)
            << (lower ? "L " : "U ") << name << ": '" << msg << "'";
      }
    }
  }
}

}  // namespace
}  // namespace spcg
