// Unit + property tests for the sparse triangular solvers.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
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

/// Factors from triplets: L's strictly lower entries and U's entries.
TriangularFactors<double> factors_of(index_t n,
                                     std::vector<Triplet<double>> l,
                                     std::vector<Triplet<double>> u) {
  return TriangularFactors<double>(
      csr_from_triplets<double>(n, n, std::move(l)),
      csr_from_triplets<double>(n, n, std::move(u)));
}

/// The identity as a U factor.
std::vector<Triplet<double>> unit_diagonal(index_t n) {
  std::vector<Triplet<double>> ts;
  for (index_t i = 0; i < n; ++i) ts.push_back({i, i, 1.0});
  return ts;
}

TEST(Sptrsv, LowerSerialSmall) {
  // L = [1 0; 0.5 1] (unit diagonal implicit), b = [2, 3] -> x = [2, 2].
  const TriangularFactors<double> f =
      factors_of(2, {{1, 0, 0.5}}, unit_diagonal(2));
  std::vector<double> b{2.0, 3.0}, x(2);
  sptrsv_lower_serial(f, std::span<const double>(b), std::span<double>(x));
  EXPECT_DOUBLE_EQ(x[0], 2.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

TEST(Sptrsv, UpperSerialSmall) {
  // U = [2 1; 0 4], b = [4, 8] -> x = [1, 2].
  const TriangularFactors<double> f =
      factors_of(2, {}, {{0, 0, 2.0}, {0, 1, 1.0}, {1, 1, 4.0}});
  std::vector<double> b{4.0, 8.0}, x(2);
  sptrsv_upper_serial(f, std::span<const double>(b), std::span<double>(x));
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

TEST(Sptrsv, ZeroDiagonalThrows) {
  // Rejected where the factors are made: a zero U diagonal, and a stored L
  // diagonal (L's unit diagonal is implicit).
  EXPECT_THROW(factors_of(2, {}, {{0, 0, 1.0}, {1, 1, 0.0}}), Error);
  EXPECT_THROW(factors_of(2, {{0, 0, 0.0}}, unit_diagonal(2)), Error);
}

TEST(Sptrsv, InPlaceAliasingWorksForSerial) {
  const TriangularFactors<double> f =
      factors_of(3, {{1, 0, 1.0}, {2, 1, 1.0}}, unit_diagonal(3));
  std::vector<double> bx{1.0, 2.0, 2.0};
  sptrsv_lower_serial(f, std::span<const double>(bx), std::span<double>(bx));
  EXPECT_DOUBLE_EQ(bx[0], 1.0);
  EXPECT_DOUBLE_EQ(bx[1], 1.0);
  EXPECT_DOUBLE_EQ(bx[2], 1.0);
}

/// Residual check ||L x - b||_inf for a solve with the unit lower L.
double lower_residual(const Csr<double>& l, const std::vector<double>& x,
                      const std::vector<double>& b) {
  const std::vector<double> lx = spmv(l, x);
  double r = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i)
    r = std::max(r, std::abs(x[i] + lx[i] - b[i]));
  return r;
}

class SptrsvPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SptrsvPropertyTest, SerialAndLevelScheduledMatchOnFactors) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Csr<double> a = gen_grid_laplacian(14, 14, 1.5, 0.4, seed);
  const TriangularFactors<double> f = ilu0_factors(a);

  std::vector<double> b(static_cast<std::size_t>(a.rows));
  Rng rng(seed * 97 + 1);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);

  std::vector<double> x_serial(b.size()), x_level(b.size());
  sptrsv_lower_serial(f, std::span<const double>(b),
                      std::span<double>(x_serial));
  const LevelSchedule ls = level_schedule(f.l, Triangle::kLower);
  sptrsv_lower_levels(f, ls, std::span<const double>(b),
                      std::span<double>(x_level));
  EXPECT_EQ(x_serial, x_level);
  EXPECT_LT(lower_residual(f.l, x_serial, b), 1e-10);

  // Upper side.
  std::vector<double> y_serial(b.size()), y_level(b.size());
  sptrsv_upper_serial(f, std::span<const double>(b),
                      std::span<double>(y_serial));
  const LevelSchedule us = level_schedule(f.u, Triangle::kUpper);
  sptrsv_upper_levels(f, us, std::span<const double>(b),
                      std::span<double>(y_level));
  EXPECT_EQ(y_serial, y_level);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SptrsvPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Sptrsv, FloatInstantiationRoundTrips) {
  const Csr<double> ad = gen_poisson2d(8, 8);
  const Csr<float> a = csr_cast<float>(ad);
  const TriangularFactors<float> f = ilu0_factors(a);
  std::vector<float> b(static_cast<std::size_t>(a.rows), 1.0f);
  std::vector<float> y(b.size()), x(b.size());
  sptrsv_lower_serial(f, std::span<const float>(b), std::span<float>(y));
  sptrsv_upper_serial(f, std::span<const float>(y), std::span<float>(x));
  // Result must be finite and nonzero.
  for (const float v : x) {
    EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_GT(std::abs(x[0]), 0.0f);
}

TEST(Sptrsv, SolveAgainstFullLuRecoversInput) {
  // With complete LU (ILU with huge K), L(Ux) = b solves A x = b exactly.
  const Csr<double> a = gen_varcoef2d(7, 7, 1.0, 11);
  const TriangularFactors<double> f = iluk_factors(a, 100);
  std::vector<double> x_true(static_cast<std::size_t>(a.rows));
  for (std::size_t i = 0; i < x_true.size(); ++i)
    x_true[i] = std::cos(static_cast<double>(i));
  const std::vector<double> b = spmv(a, x_true);
  std::vector<double> y(b.size()), x(b.size());
  sptrsv_lower_serial(f, std::span<const double>(b), std::span<double>(y));
  sptrsv_upper_serial(f, std::span<const double>(y), std::span<double>(x));
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

// --- bit identity with the substitution kernels the row kernel replaced -----

/// Test-local copy of the serial kernels before the structural row kernel:
/// every entry is tested against the diagonal, the diagonal is found by that
/// test, and every row multiplies by the diagonal's reciprocal (the row
/// kernel's one declared change from dividing; on ILU's unit L, whose
/// diagonal is implicit, both forms return acc unchanged).
template <bool kLower>
std::vector<double> reference_solve(const Csr<double>& m,
                                    const std::vector<double>& b) {
  const index_t n = m.rows;
  std::vector<double> x(b.size());
  for (index_t s = 0; s < n; ++s) {
    const index_t i = kLower ? s : n - 1 - s;
    double acc = b[static_cast<std::size_t>(i)];
    double diag = kLower ? 1.0 : 0.0;
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

/// The executors of one triangle of `f`, by name: the single-threaded ones
/// (serial and race-checked), then, with `threaded`, the OpenMP level
/// executors.
std::vector<std::pair<std::string, Solve>> executors(
    const TriangularFactors<double>& f, const LevelSchedule& s, bool lower,
    bool threaded = true) {
  using CSpan = std::span<const double>;
  using MSpan = std::span<double>;
  std::vector<std::pair<std::string, Solve>> out{
      {"serial",
       [&f, lower](CSpan b, MSpan x) {
         lower ? sptrsv_lower_serial(f, b, x) : sptrsv_upper_serial(f, b, x);
       }},
      {"checked",
       [&f, &s, lower](CSpan b, MSpan x) {
         const analysis::RaceReport r =
             lower ? analysis::sptrsv_lower_levels_checked(f, s, b, x)
                   : analysis::sptrsv_upper_levels_checked(f, s, b, x);
         EXPECT_TRUE(r.ok());
       }}};
  if (!threaded) return out;
  out.emplace_back("levels", [&f, &s, lower](CSpan b, MSpan x) {
    lower ? sptrsv_lower_levels(f, s, b, x) : sptrsv_upper_levels(f, s, b, x);
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
    for (const auto& [name, solve] : executors(f, s, lower, threaded)) {
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
  expect_executors_match_reference(ilu0_factors(g.a), g.spec.name + " ILU(0)",
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
    expect_executors_match_reference(iluk_factors(g.a, 2),
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
    expect_executors_match_reference(ilu0_factors(a), what + " ILU(0)", 7,
                                     /*threaded=*/true);
    expect_executors_match_reference(iluk_factors(a, 2), what + " ILU(2)",
                                     8, /*threaded=*/true);
  }
}

/// Every executor's ILU apply over `f`, out of place and in place, is the
/// serial apply's bit for bit.
template <class F>
void expect_ilu_apply_bitwise_equal(const TriangularFactors<F>& f,
                                    const std::vector<double>& r,
                                    const std::string& what) {
  const IluPreconditioner<double, F> serial(f, TrsvExec::kSerial);
  std::vector<double> z_ref(r.size());
  serial.apply(r, std::span<double>(z_ref));
  for (const TrsvExec exec :
       {TrsvExec::kSerial, TrsvExec::kLevelScheduled,
        TrsvExec::kLevelScheduledChecked}) {
    const IluPreconditioner<double, F> m(f, exec);
    const std::string at = what + " " + std::to_string(static_cast<int>(exec));
    std::vector<double> z(r.size());
    m.apply(r, std::span<double>(z));
    EXPECT_TRUE(same_bits(z_ref, z)) << at;
    std::vector<double> rz = r;
    m.apply(std::span<const double>(rz), std::span<double>(rz));
    EXPECT_TRUE(same_bits(z_ref, rz)) << at << " in place";
  }
}

TEST(SptrsvIdentity, IluApplyIsBitwiseEqualAcrossExecutorsAndInPlace) {
  const Csr<double> a = gen_mesh_laplacian(12, 12, 0.3, 0.05, 8);
  std::vector<double> r(static_cast<std::size_t>(a.rows));
  for (std::size_t i = 0; i < r.size(); ++i)
    r[i] = std::sin(static_cast<double>(i) + 0.5);
  const TriangularFactors<double> f = iluk_factors(a, 1);
  expect_ilu_apply_bitwise_equal(f, r, "double factors");
  expect_ilu_apply_bitwise_equal(factors_cast<float>(f), r, "float factors");
}

/// The outputs of one update_and_apply call.
struct Step {
  std::vector<double> x, r, z;
  double rr = 0.0;
};

/// The serial ILU's fused update_and_apply over `f` against the base-class
/// sequence under the serial, level and race-checked executors, from the
/// CG state (alpha, p, w, x0, r0): every output must agree bit for bit.
template <class F>
void expect_fused_matches_unfused(const TriangularFactors<F>& f, double alpha,
                                  const std::vector<double>& p,
                                  const std::vector<double>& w,
                                  const std::vector<double>& x0,
                                  const std::vector<double>& r0,
                                  const std::string& what) {
  const LevelSchedule ls = level_schedule(f.l, Triangle::kLower);
  const LevelSchedule us = level_schedule(f.u, Triangle::kUpper);
  const auto step = [&](TrsvExec exec, bool base_class) {
    const IluApplier<double, F> m(f, ls, us, exec);
    Step s{x0, r0, std::vector<double>(x0.size()), 0.0};
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
        std::pair{"checked", step(TrsvExec::kLevelScheduledChecked, false)}}) {
    const std::string at = what + " " + name;
    EXPECT_TRUE(same_bits(fused.x, unfused.x)) << at;
    EXPECT_TRUE(same_bits(fused.r, unfused.r)) << at;
    EXPECT_TRUE(same_bits(fused.z, unfused.z)) << at;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fused.rr),
              std::bit_cast<std::uint64_t>(unfused.rr))
        << at;
  }
}

// The serial ILU's update_and_apply runs one fused forward pass (x and r
// updates, ||r||^2 and the L solve); the level executors run the base-class
// sequence axpy, axpy, apply, sumsq. Every output must agree bit for bit,
// with double factors and with float ones.
TEST(SptrsvIdentity, FusedSerialUpdateAndApplyMatchesUnfusedSequence) {
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
          level == 0 ? ilu0_factors(a) : iluk_factors(a, level);
      const std::string what =
          "n=" + std::to_string(n) + " ILU(" + std::to_string(level) + ")";
      expect_fused_matches_unfused(f, alpha, p, w, x0, r0, what);
      expect_fused_matches_unfused(factors_cast<float>(f), alpha, p, w, x0,
                                   r0, what + " float factors");
    }
  }
}

// --- typed errors where the factors are made -------------------------------
//
// The executors trust TriangularFactors, so a malformed factor is rejected
// once, by its constructor (and by split_lu, which builds one), with an
// spcg::Error naming the row; no executor tests a row.

/// Runs `make` and returns the spcg::Error message it raised ("" if none).
std::string error_of(const std::function<void()>& make) {
  try {
    make();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(SptrsvErrors, EveryExecutorRejectsAFullSymmetricMatrix) {
  const Csr<double> a = gen_poisson2d(5, 5);
  const TriangularFactors<double> f = ilu0_factors(a);
  for (const bool lower : {true, false}) {
    const std::string msg = error_of([&] {
      lower ? TriangularFactors<double>(a, f.u)
            : TriangularFactors<double>(f.l, a);
    });
    EXPECT_NE(msg.find(lower ? "L row 0 stores column 5 on or above the "
                               "diagonal"
                             : "U row 1 stores column 0 below the diagonal"),
              std::string::npos)
        << msg;
  }
}

/// Rebuild `m` with entry (row, col) removed (`value` empty) or set to
/// `value`, inserted when absent.
Csr<double> with_entry(const Csr<double>& m, index_t row, index_t col,
                       std::optional<double> value) {
  std::vector<Triplet<double>> ts;
  for (index_t i = 0; i < m.rows; ++i)
    for (index_t p = m.rowptr[static_cast<std::size_t>(i)];
         p < m.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      const index_t j = m.colind[static_cast<std::size_t>(p)];
      if (i != row || j != col)
        ts.push_back({i, j, m.values[static_cast<std::size_t>(p)]});
    }
  if (value) ts.push_back({row, col, *value});
  return csr_from_triplets<double>(m.rows, m.cols, std::move(ts));
}

TEST(SptrsvErrors, EveryExecutorNamesTheRowOfAMissingOrZeroDiagonal) {
  const TriangularFactors<double> f = ilu0_factors(gen_poisson2d(5, 5));
  const index_t row = 7;
  for (const bool remove : {true, false}) {
    const Csr<double> u = with_entry(f.u, row, row,
                                     remove ? std::nullopt
                                            : std::optional(0.0));
    const std::string msg =
        error_of([&] { TriangularFactors<double>(f.l, u); });
    const std::string want =
        "U row " + std::to_string(row) +
        (remove ? " has no diagonal entry" : " has a zero diagonal");
    EXPECT_NE(msg.find(want), std::string::npos) << "'" << msg << "'";
  }
  // L's unit diagonal is implicit: a stored one is on the wrong side.
  const Csr<double> l = with_entry(f.l, row, row, 1.0);
  EXPECT_NE(error_of([&] { TriangularFactors<double>(l, f.u); })
                .find("L row 7 stores column 7 on or above the diagonal"),
            std::string::npos);
}

TEST(SptrsvErrors, MalformedFactorsNameTheirRow) {
  const TriangularFactors<double> f = ilu0_factors(gen_poisson2d(5, 5));
  const auto expect_error = [](const std::string& want,
                               const std::function<void()>& make) {
    const std::string msg = error_of(make);
    EXPECT_NE(msg.find(want), std::string::npos)
        << "want '" << want << "', got '" << msg << "'";
  };
  // An unsorted row, in either triangle.
  Csr<double> l = f.l;
  const auto l6 = static_cast<std::size_t>(l.rowptr[6]);
  ASSERT_GE(l.rowptr[7] - l.rowptr[6], 2);
  std::swap(l.colind[l6], l.colind[l6 + 1]);
  expect_error("cols not sorted/unique in row 6",
               [&] { TriangularFactors<double>(l, f.u); });
  Csr<double> u = f.u;
  const auto u3 = static_cast<std::size_t>(u.rowptr[3]);
  ASSERT_GE(u.rowptr[4] - u.rowptr[3], 3);
  std::swap(u.colind[u3 + 1], u.colind[u3 + 2]);
  expect_error("cols not sorted/unique in row 3",
               [&] { TriangularFactors<double>(f.l, u); });
  // A column outside the matrix.
  u = f.u;
  u.colind[static_cast<std::size_t>(u.rowptr[4] - 1)] = 99;
  expect_error("col 99 out of range in row 3",
               [&] { TriangularFactors<double>(f.l, u); });
  // An entry on the wrong side, and mismatched shapes.
  expect_error("U row 1 stores column 0 below the diagonal", [&] {
    TriangularFactors<double>(f.l, with_entry(f.u, 1, 0, 2.0));
  });
  expect_error("triangular factors: L is 24x24, expected 25x25", [&] {
    TriangularFactors<double>(ilu0_factors(gen_poisson2d(4, 6)).l, f.u);
  });
  // split_lu validates the factor it splits.
  IluResult<double> fact = ilu0(gen_poisson2d(5, 5));
  fact.lu.values[static_cast<std::size_t>(fact.lu.find(9, 9))] = 0.0;
  expect_error("U row 9 has a zero diagonal", [&] { split_lu(fact); });
  // factors_cast validates the factor it converts: 1e-50 is a valid double
  // pivot that rounds to zero in float.
  u = f.u;
  u.values[static_cast<std::size_t>(u.rowptr[7])] = 1e-50;
  const TriangularFactors<double> tiny(f.l, u);
  expect_error("U row 7 has a zero diagonal",
               [&] { (void)factors_cast<float>(tiny); });
}

}  // namespace
}  // namespace spcg
