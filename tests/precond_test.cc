// Unit + property tests for ILU(0), symbolic/numeric ILU(K), and the
// preconditioner wrappers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/generators.h"
#include "gen/suite.h"
#include "precond/ilu.h"
#include "precond/preconditioner.h"
#include "sparse/norms.h"
#include "sparse/ops.h"
#include "support/fork_join.h"
#include "transient/refactorize.h"

namespace spcg {
namespace {

/// Dense reconstruction of L*U, for small checks.
std::vector<double> dense_lu_product(const TriangularFactors<double>& f) {
  const index_t n = f.l.rows;
  std::vector<double> out(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0.0);
  for (index_t i = 0; i < n; ++i) {
    // L's row i: its stored entries, then the implicit unit diagonal.
    for (index_t p = f.l.rowptr[i]; p <= f.l.rowptr[i + 1]; ++p) {
      const bool diag = p == f.l.rowptr[i + 1];
      const index_t k = diag ? i : f.l.colind[static_cast<std::size_t>(p)];
      const double lik = diag ? 1.0 : f.l.values[static_cast<std::size_t>(p)];
      for (index_t q = f.u.rowptr[k]; q < f.u.rowptr[k + 1]; ++q) {
        const index_t j = f.u.colind[static_cast<std::size_t>(q)];
        out[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
            static_cast<std::size_t>(j)] +=
            lik * f.u.values[static_cast<std::size_t>(q)];
      }
    }
  }
  return out;
}

TEST(Ilu0, ExactForTridiagonal) {
  // A tridiagonal matrix has no fill, so ILU(0) == exact LU: L*U == A.
  const index_t n = 12;
  std::vector<Triplet<double>> ts;
  for (index_t i = 0; i < n; ++i) {
    ts.push_back({i, i, 3.0});
    if (i > 0) ts.push_back({i, i - 1, -1.0});
    if (i + 1 < n) ts.push_back({i, i + 1, -1.0});
  }
  const Csr<double> a = csr_from_triplets<double>(n, n, std::move(ts));
  IluResult<double> r;
  const std::vector<double> lu = dense_lu_product(ilu0_factors(a, {}, &r));
  EXPECT_FALSE(r.breakdown);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      EXPECT_NEAR(lu[static_cast<std::size_t>(i * n + j)], a.at(i, j), 1e-12)
          << "(" << i << "," << j << ")";
    }
  }
}

TEST(Ilu0, MatchesOnPatternForPoisson) {
  // ILU(0) residual A - L*U must vanish exactly ON the pattern of A.
  const Csr<double> a = gen_poisson2d(8, 8);
  const std::vector<double> lu = dense_lu_product(ilu0_factors(a));
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
      const index_t j = a.colind[static_cast<std::size_t>(p)];
      EXPECT_NEAR(lu[static_cast<std::size_t>(i) * static_cast<std::size_t>(a.rows) +
                     static_cast<std::size_t>(j)],
                  a.values[static_cast<std::size_t>(p)], 1e-10);
    }
  }
}

TEST(Ilu0, ZeroPivotThrowsWhenBoostDisabled) {
  // [0 1; 1 0] has a zero pivot immediately.
  const Csr<double> a = csr_from_triplets<double>(
      2, 2, {{0, 0, 0.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 0.0}});
  IluOptions opt;
  opt.boost_zero_pivots = false;
  EXPECT_THROW(ilu0_factors(a, opt), Error);
  // With boosting it survives and flags breakdown.
  IluResult<double> r;
  ilu0_factors(a, {}, &r);
  EXPECT_TRUE(r.breakdown);
}

TEST(Ilu0, ZeroPivotUnderZeroFloorThrowsOnBuildAndRefresh) {
  // [1 1; 1 1]: u11 = 1 - 1 * 1 cancels to exactly 0 on the last row, which
  // no later row pivots on. A zero floor boosts nothing, so the numeric
  // phase itself must reject the pivot — on a build and on a refresh.
  const Csr<double> singular = csr_from_triplets<double>(
      2, 2, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 1.0}});
  const Csr<double> healthy = csr_from_triplets<double>(
      2, 2, {{0, 0, 2.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 2.0}});
  SpcgOptions opt;
  opt.sparsify_enabled = false;
  opt.ilu.boost_zero_pivots = true;
  opt.ilu.pivot_floor = 0.0;
  const auto message = [](const auto& make) -> std::string {
    try {
      make();
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  const std::string want = "zero pivot at row 1";
  EXPECT_NE(message([&] { ilu0_factors(singular, opt.ilu); }).find(want),
            std::string::npos);
  EXPECT_NE(message([&] { iluk_factors(singular, 1, opt.ilu); }).find(want),
            std::string::npos);
  EXPECT_NE(message([&] { spcg_setup(singular, opt); }).find(want),
            std::string::npos);
  SpcgSetup<double> setup = spcg_setup(healthy, opt);
  NumericRefreshWorkspace ws = build_numeric_refresh(setup, healthy);
  EXPECT_NE(message([&] { refresh_setup_numerics(setup, singular, opt, ws); })
                .find(want),
            std::string::npos);
}

TEST(Ilu0, MissingDiagonalThrows) {
  const Csr<double> a =
      csr_from_triplets<double>(2, 2, {{0, 0, 1.0}, {1, 0, 1.0}});
  EXPECT_THROW(ilu0_factors(a), Error);
}

TEST(Ilu0, CountsEliminationOps) {
  const Csr<double> a = gen_poisson2d(6, 6);
  IluResult<double> r;
  ilu0_factors(a, {}, &r);
  EXPECT_GT(r.elimination_ops, 0u);
  EXPECT_EQ(r.fill_nnz, 0);
}

TEST(IlukSymbolic, Level0EqualsInputPattern) {
  const Csr<double> a = gen_poisson2d(7, 7);
  const IlukSymbolic sym = iluk_symbolic(a, 0);
  EXPECT_EQ(sym.pattern.rowptr, a.rowptr);
  EXPECT_EQ(sym.pattern.colind, a.colind);
  for (const index_t lev : sym.levels) EXPECT_EQ(lev, 0);
}

TEST(IlukSymbolic, FillGrowsMonotonicallyWithK) {
  const Csr<double> a = gen_poisson2d(10, 10);
  index_t prev = a.nnz();
  for (const index_t k : {1, 2, 3, 5, 8}) {
    const IlukSymbolic sym = iluk_symbolic(a, k);
    sym.pattern.validate();
    EXPECT_GE(sym.pattern.nnz(), prev) << "k=" << k;
    prev = sym.pattern.nnz();
    // Levels are within bounds and original entries keep level 0.
    for (std::size_t p = 0; p < sym.levels.size(); ++p)
      EXPECT_LE(sym.levels[p], k);
  }
}

TEST(IlukSymbolic, TridiagonalNeverFills) {
  // Tridiagonal elimination creates no fill at any level.
  const index_t n = 30;
  std::vector<Triplet<double>> ts;
  for (index_t i = 0; i < n; ++i) {
    ts.push_back({i, i, 2.0});
    if (i > 0) ts.push_back({i, i - 1, -1.0});
    if (i + 1 < n) ts.push_back({i, i + 1, -1.0});
  }
  const Csr<double> a = csr_from_triplets<double>(n, n, std::move(ts));
  const IlukSymbolic sym = iluk_symbolic(a, 40);
  EXPECT_EQ(sym.pattern.nnz(), a.nnz());
}

TEST(IlukSymbolic, GappedBandFillsTheGapAtLevelOne) {
  // Pattern holds distances {0, 1, 3} only. Eliminating (i, i-1) against row
  // i-1 (whose U-part reaches i-1+3 = i+2) creates fill at distance 2 with
  // level 0+0+1 = 1. All level-1 fill stays within distance 4.
  const index_t n = 20;
  std::vector<Triplet<double>> ts;
  for (index_t i = 0; i < n; ++i) {
    ts.push_back({i, i, 4.0});
    for (const index_t d : {1, 3}) {
      if (i + d < n) {
        ts.push_back({i, i + d, -1.0});
        ts.push_back({i + d, i, -1.0});
      }
    }
  }
  const Csr<double> a = csr_from_triplets<double>(n, n, std::move(ts));
  const IlukSymbolic s1 = iluk_symbolic(a, 1);
  EXPECT_GT(s1.pattern.nnz(), a.nnz());
  bool fill_at_distance2 = false;
  for (index_t i = 0; i < n; ++i) {
    for (index_t p = s1.pattern.rowptr[i]; p < s1.pattern.rowptr[i + 1]; ++p) {
      const index_t j = s1.pattern.colind[static_cast<std::size_t>(p)];
      EXPECT_LE(std::abs(i - j), 4);
      if (std::abs(i - j) == 2) fill_at_distance2 = true;
    }
  }
  EXPECT_TRUE(fill_at_distance2);
}

TEST(IlukSymbolic, FullBandNeverFills) {
  // A dense band of half-bandwidth 2 is closed under elimination: LU fill
  // stays inside the band, which is already fully stored -> no new entries.
  const index_t n = 20;
  std::vector<Triplet<double>> ts;
  for (index_t i = 0; i < n; ++i) {
    ts.push_back({i, i, 4.0});
    for (index_t d = 1; d <= 2; ++d) {
      if (i + d < n) {
        ts.push_back({i, i + d, -1.0});
        ts.push_back({i + d, i, -1.0});
      }
    }
  }
  const Csr<double> a = csr_from_triplets<double>(n, n, std::move(ts));
  const IlukSymbolic s = iluk_symbolic(a, 5);
  EXPECT_EQ(s.pattern.nnz(), a.nnz());
}

TEST(IlukSymbolic, RowCapTruncatesAndReports) {
  const Csr<double> a = gen_poisson2d(12, 12);
  const IlukSymbolic full = iluk_symbolic(a, 10);
  index_t max_row = 0;
  for (index_t i = 0; i < a.rows; ++i)
    max_row = std::max(max_row, full.pattern.rowptr[i + 1] -
                                    full.pattern.rowptr[i]);
  ASSERT_GT(max_row, 6);
  const index_t cap = max_row - 2;
  const IlukSymbolic capped = iluk_symbolic(a, 10, cap);
  EXPECT_GT(capped.truncated_rows, 0);
  for (index_t i = 0; i < a.rows; ++i) {
    EXPECT_LE(capped.pattern.rowptr[i + 1] - capped.pattern.rowptr[i], cap);
  }
  capped.pattern.validate();
}

TEST(Iluk, RowCapMayDropOriginalEntriesWithoutThrowing) {
  // A dense-ish row exceeding the cap: the symbolic phase truncates it and
  // the numeric scatter must tolerate the lost original entries.
  const index_t n = 40;
  std::vector<Triplet<double>> ts;
  for (index_t i = 0; i < n; ++i) ts.push_back({i, i, 10.0 + i});
  for (index_t j = 1; j < n; ++j) {
    ts.push_back({0, j, -0.1});
    ts.push_back({j, 0, -0.1});
  }
  const Csr<double> a = csr_from_triplets<double>(n, n, std::move(ts));
  const TriangularFactors<double> f =
      iluk_factors(a, 2, IluOptions{}, /*max_row_fill=*/8);
  EXPECT_LE(f.l.rowptr[1] - f.l.rowptr[0] + f.u.rowptr[1] - f.u.rowptr[0], 8);
  for (index_t i = 0; i < n; ++i)
    EXPECT_GT(f.u.row_vals(i).front(), 0.0);
}

TEST(Iluk, LargeKEqualsExactLuOnSmallMatrix) {
  // For K >= n the factorization is a complete LU: L*U == A everywhere.
  const Csr<double> a = gen_grid_laplacian(5, 5, 1.0, 0.5, 3);
  IluResult<double> r;
  const std::vector<double> lu =
      dense_lu_product(iluk_factors(a, 60, {}, 0, &r));
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t j = 0; j < a.cols; ++j) {
      EXPECT_NEAR(lu[static_cast<std::size_t>(i) * static_cast<std::size_t>(a.rows) +
                     static_cast<std::size_t>(j)],
                  a.at(i, j), 1e-9);
    }
  }
  EXPECT_GT(r.fill_nnz, 0);
}

TEST(Iluk, K0MatchesIlu0) {
  const Csr<double> a = gen_varcoef2d(9, 9, 1.0, 5);
  const TriangularFactors<double> f0 = ilu0_factors(a);
  const TriangularFactors<double> fk = iluk_factors(a, 0);
  for (const auto& [m0, mk] :
       {std::pair{&f0.l, &fk.l}, std::pair{&f0.u, &fk.u}}) {
    ASSERT_EQ(m0->rowptr, mk->rowptr);
    ASSERT_EQ(m0->colind, mk->colind);
    for (std::size_t p = 0; p < m0->values.size(); ++p)
      EXPECT_NEAR(m0->values[p], mk->values[p], 1e-14);
  }
}

TEST(Iluk, PreconditionerQualityImprovesWithK) {
  // ||A - L*U||_F should shrink as K grows.
  const Csr<double> a = gen_poisson2d(9, 9);
  double prev = std::numeric_limits<double>::infinity();
  for (const index_t k : {0, 1, 2, 4, 8}) {
    const std::vector<double> lu = dense_lu_product(iluk_factors(a, k));
    double err = 0.0;
    for (index_t i = 0; i < a.rows; ++i) {
      for (index_t j = 0; j < a.cols; ++j) {
        const double d =
            lu[static_cast<std::size_t>(i) * static_cast<std::size_t>(a.rows) +
               static_cast<std::size_t>(j)] -
            a.at(i, j);
        err += d * d;
      }
    }
    err = std::sqrt(err);
    EXPECT_LE(err, prev * (1.0 + 1e-12)) << "k=" << k;
    prev = err;
  }
}

TEST(Iluk, FillDeepensTheSchedule) {
  // The paper's ILU(K) premise: fill-in adds dependences, so the factor's
  // wavefront count grows (weakly) with K — which is why sparsification has
  // more to remove for ILU(K) than for ILU(0).
  for (const Csr<double>& a :
       {gen_poisson2d(16, 16), gen_varcoef2d(14, 14, 1.5, 5),
        gen_kernel2d(16, 16, 2.5, 0.8, true, 7)}) {
    index_t prev = 0;
    for (const index_t k : {0, 1, 2, 4}) {
      const index_t wf = count_wavefronts(iluk_factors(a, k).l);
      EXPECT_GE(wf, prev) << "k=" << k;
      prev = wf;
    }
  }
}

TEST(SplitLu, ShapesAndUnitDiagonal) {
  const Csr<double> a = gen_poisson2d(6, 6);
  const IluResult<double> r = ilu0(a);
  const TriangularFactors<double> f = split_lu(r);
  f.l.validate();
  f.u.validate();
  EXPECT_EQ(f.l.nnz() + f.u.nnz(), r.lu.nnz());  // unit diagonal implicit
  for (index_t i = 0; i < a.rows; ++i) {
    EXPECT_EQ(f.l.find(i, i), -1);
    EXPECT_EQ(f.u.colind[static_cast<std::size_t>(f.u.rowptr[i])], i);
    // Strict triangularity.
    for (index_t p = f.l.rowptr[i]; p < f.l.rowptr[i + 1]; ++p)
      EXPECT_LT(f.l.colind[static_cast<std::size_t>(p)], i);
    for (index_t p = f.u.rowptr[i]; p < f.u.rowptr[i + 1]; ++p)
      EXPECT_GE(f.u.colind[static_cast<std::size_t>(p)], i);
  }
}

// --- references for the setup path ------------------------------------------

/// Dense level-of-fill reference (Saad Alg. 10.5): A's entries have level 0;
/// row i is eliminated against each k < i with lev(i,k) <= K in ascending k,
/// relaxing lev(i,j) = min(lev(i,j), lev(i,k) + lev(k,j) + 1) over row k's
/// stored entries j > k. Levels above K are never stored, and a row over
/// `cap` entries keeps its lowest (level, column) ones.
IlukSymbolic dense_level_of_fill(const Csr<double>& a, index_t k,
                                 index_t cap) {
  const auto n = static_cast<std::size_t>(a.rows);
  constexpr index_t kAbsent = std::numeric_limits<index_t>::max();
  std::vector<index_t> lev(n * n, kAbsent);
  IlukSymbolic out;
  out.pattern = Csr<char>(a.rows, a.cols);
  for (std::size_t i = 0; i < n; ++i) {
    index_t* row = &lev[i * n];
    for (const index_t j : a.row_cols(static_cast<index_t>(i)))
      row[static_cast<std::size_t>(j)] = 0;
    for (std::size_t kk = 0; kk < i; ++kk) {
      if (row[kk] > k) continue;
      for (std::size_t j = kk + 1; j < n; ++j) {
        const index_t lkj = lev[kk * n + j];
        if (lkj == kAbsent) continue;
        const index_t cand = row[kk] + lkj + 1;
        if (cand <= k) row[j] = std::min(row[j], cand);
      }
    }
    std::vector<std::pair<index_t, index_t>> stored;  // (level, col)
    for (std::size_t j = 0; j < n; ++j)
      if (row[j] != kAbsent)
        stored.emplace_back(row[j], static_cast<index_t>(j));
    if (cap > 0 && static_cast<index_t>(stored.size()) > cap) {
      std::sort(stored.begin(), stored.end());
      for (auto t = static_cast<std::size_t>(cap); t < stored.size(); ++t)
        row[static_cast<std::size_t>(stored[t].second)] = kAbsent;
      ++out.truncated_rows;
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (row[j] == kAbsent) continue;
      out.pattern.colind.push_back(static_cast<index_t>(j));
      out.levels.push_back(row[j]);
    }
    out.pattern.rowptr[i + 1] =
        static_cast<index_t>(out.pattern.colind.size());
  }
  out.pattern.values.assign(out.pattern.colind.size(), char{1});
  return out;
}

/// Small matrices with distinct fill structure, including an unsymmetric
/// pattern.
std::vector<Csr<double>> small_symbolic_inputs() {
  std::vector<Triplet<double>> ts;
  const index_t n = 30;
  for (index_t i = 0; i < n; ++i) {
    ts.push_back({i, i, 4.0});
    if (i + 4 < n) ts.push_back({i, i + 4, -1.0});
    if (i >= 1) ts.push_back({i, i - 1, -1.0});
    if (i % 5 == 0 && i + 11 < n) ts.push_back({i + 11, i, -0.5});
  }
  return {gen_poisson2d(6, 6), gen_grid_laplacian(7, 6, 2.0, 0.3, 4),
          gen_mesh_laplacian(6, 6, 0.4, 0.05, 2),
          gen_banded(50, 4, 0.3, true, 3), gen_economic(60, 5, 0.9, 4),
          csr_from_triplets<double>(n, n, std::move(ts))};
}

TEST(IlukSymbolic, MatchesDenseLevelOfFillReference) {
  for (const Csr<double>& a : small_symbolic_inputs()) {
    for (const index_t k : {0, 1, 2, 3}) {
      for (const index_t cap : {0, 4, 7}) {
        const IlukSymbolic ref = dense_level_of_fill(a, k, cap);
        const IlukSymbolic got = iluk_symbolic(a, k, cap);
        const std::string at = "n=" + std::to_string(a.rows) +
                               " K=" + std::to_string(k) +
                               " cap=" + std::to_string(cap);
        EXPECT_EQ(got.pattern.rows, ref.pattern.rows) << at;
        EXPECT_EQ(got.pattern.rowptr, ref.pattern.rowptr) << at;
        EXPECT_EQ(got.pattern.colind, ref.pattern.colind) << at;
        EXPECT_EQ(got.pattern.values, ref.pattern.values) << at;
        EXPECT_EQ(got.levels, ref.levels) << at;
        EXPECT_EQ(got.truncated_rows, ref.truncated_rows) << at;
      }
    }
  }
}

/// split_lu as the composition of extract_triangle calls it replaces.
TriangularFactors<double> reference_split_lu(const IluResult<double>& r) {
  TriangularFactors<double> f;
  f.l = extract_triangle(r.lu, Triangle::kLower, DiagonalPolicy::kExclude);
  f.u = extract_triangle(r.lu, Triangle::kUpper, DiagonalPolicy::kInclude);
  return f;
}

void expect_same_bytes(const Csr<double>& ref, const Csr<double>& got,
                       const std::string& what) {
  EXPECT_EQ(ref.rows, got.rows) << what;
  EXPECT_EQ(ref.rowptr, got.rowptr) << what;
  EXPECT_EQ(ref.colind, got.colind) << what;
  ASSERT_EQ(ref.values.size(), got.values.size()) << what;
  EXPECT_TRUE(std::equal(ref.values.begin(), ref.values.end(),
                         got.values.begin(), [](double x, double y) {
                           return std::bit_cast<std::uint64_t>(x) ==
                                  std::bit_cast<std::uint64_t>(y);
                         }))
      << what;
}

TEST(SplitLu, MatchesExtractTriangleComposition) {
  std::vector<IluResult<double>> factors{
      ilu0(gen_poisson2d(8, 8)),
      iluk(gen_grid_laplacian(9, 9, 2.0, 0.3, 5), 2),
      iluk(gen_economic(80, 6, 0.9, 7), 1)};
  for (std::size_t c = 0; c < factors.size(); ++c) {
    const TriangularFactors<double> ref = reference_split_lu(factors[c]);
    const TriangularFactors<double> got = split_lu(factors[c]);
    expect_same_bytes(ref.l, got.l, "case " + std::to_string(c) + " L");
    expect_same_bytes(ref.u, got.u, "case " + std::to_string(c) + " U");
  }
  // Rows without a diagonal, without a lower part and empty: split_lu
  // validates the factor it makes, so it rejects them.
  IluResult<double> odd;
  odd.lu = csr_from_triplets<double>(
      4, 4, {{0, 2, 1.5}, {1, 0, -2.0}, {2, 0, 0.5}, {2, 2, 3.0}, {2, 3, 1.0}});
  EXPECT_THROW(split_lu(odd), Error);
}

TEST(Preconditioner, JacobiApply) {
  const Csr<double> a = csr_from_triplets<double>(
      2, 2, {{0, 0, 2.0}, {1, 1, 4.0}});
  JacobiPreconditioner<double> m(a);
  std::vector<double> r{2.0, 2.0}, z(2);
  m.apply(r, std::span<double>(z));
  EXPECT_DOUBLE_EQ(z[0], 1.0);
  EXPECT_DOUBLE_EQ(z[1], 0.5);
}

TEST(Preconditioner, JacobiRejectsZeroDiagonal) {
  const Csr<double> a =
      csr_from_triplets<double>(2, 2, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}});
  EXPECT_THROW(JacobiPreconditioner<double>{a}, Error);
}

TEST(Preconditioner, IdentityCopies) {
  IdentityPreconditioner<double> m(3);
  std::vector<double> r{1, 2, 3}, z(3);
  m.apply(r, std::span<double>(z));
  EXPECT_EQ(z, r);
}

TEST(Preconditioner, IluApplySolvesLuSystem) {
  // With ILU(huge K) == exact LU, apply() must invert A exactly.
  const Csr<double> a = gen_grid_laplacian(6, 6, 1.0, 0.5, 9);
  IluPreconditioner<double> m(iluk_factors(a, 100), TrsvExec::kSerial);
  std::vector<double> x_true(static_cast<std::size_t>(a.rows));
  for (std::size_t i = 0; i < x_true.size(); ++i)
    x_true[i] = 0.1 * static_cast<double>(i) - 1.0;
  const std::vector<double> r = spmv(a, x_true);
  std::vector<double> z(x_true.size());
  m.apply(r, std::span<double>(z));
  for (std::size_t i = 0; i < x_true.size(); ++i)
    EXPECT_NEAR(z[i], x_true[i], 1e-8);
}

TEST(Preconditioner, SerialAndLevelScheduledAgree) {
  const Csr<double> a = gen_mesh_laplacian(10, 10, 0.3, 0.05, 21);
  IluPreconditioner<double> serial(ilu0_factors(a), TrsvExec::kSerial);
  IluPreconditioner<double> levels(ilu0_factors(a), TrsvExec::kLevelScheduled);
  std::vector<double> r(static_cast<std::size_t>(a.rows));
  for (std::size_t i = 0; i < r.size(); ++i)
    r[i] = std::sin(static_cast<double>(i));
  std::vector<double> z1(r.size()), z2(r.size());
  serial.apply(r, std::span<double>(z1));
  levels.apply(r, std::span<double>(z2));
  EXPECT_EQ(z1, z2);
}

TEST(Preconditioner, Ic0AcceptsSpdRejectsIndefinite) {
  const Csr<double> spd = gen_poisson2d(5, 5);
  EXPECT_NO_THROW(make_ic0(spd));
  // Indefinite symmetric matrix -> negative pivot somewhere.
  const Csr<double> indef = csr_from_triplets<double>(
      2, 2, {{0, 0, 1.0}, {0, 1, 3.0}, {1, 0, 3.0}, {1, 1, 1.0}});
  EXPECT_THROW(make_ic0(indef), Error);
}

// Property sweep: ILU across generator families never breaks down on the
// diagonally dominant constructions and produces positive U pivots.
class IluPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(IluPropertyTest, PositivePivotsOnDominantMatrices) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const Csr<double>& a :
       {gen_grid_laplacian(12, 12, 2.0, 0.3, seed),
        gen_varcoef2d(12, 12, 1.5, seed),
        gen_banded(150, 6, 0.4, false, seed)}) {
    IluOptions strict;
    strict.boost_zero_pivots = false;
    const TriangularFactors<double> f = ilu0_factors(a, strict);
    for (index_t i = 0; i < a.rows; ++i)
      EXPECT_GT(f.u.row_vals(i).front(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IluPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// --- bit identity with the ILU construction kernels they replaced ------------

/// Test-local copy of the symbolic phase before pruning: every pivot in the
/// row's list fans out its whole U-part, read back from the pattern, and the
/// level test discards what exceeds K.
IlukSymbolic reference_symbolic(const Csr<double>& a, index_t k,
                                index_t max_row_fill) {
  const index_t n = a.rows;
  constexpr index_t kNone = -1;
  constexpr index_t kUnset = std::numeric_limits<index_t>::max();
  IlukSymbolic out;
  Csr<char>& pat = out.pattern;
  pat.rows = n;
  pat.cols = n;
  pat.rowptr.assign(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> u_begin(static_cast<std::size_t>(n));
  const index_t head = n;
  std::vector<index_t> next(static_cast<std::size_t>(n) + 1, kNone);
  std::vector<index_t> lev(static_cast<std::size_t>(n), kUnset);
  std::vector<std::pair<index_t, index_t>> keep;
  const auto at = [](index_t v) { return static_cast<std::size_t>(v); };
  for (index_t i = 0; i < n; ++i) {
    index_t prev = head;
    for (const index_t j : a.row_cols(i)) {
      next[at(prev)] = j;
      lev[at(j)] = 0;
      prev = j;
    }
    next[at(prev)] = kNone;
    for (index_t kk = next[at(head)]; kk != kNone && kk < i;
         kk = next[at(kk)]) {
      const index_t lev_ik = lev[at(kk)];
      index_t ins = kk;
      for (index_t q = u_begin[at(kk)]; q < pat.rowptr[at(kk) + 1]; ++q) {
        const index_t j = pat.colind[at(q)];
        const index_t new_lev = lev_ik + out.levels[at(q)] + 1;
        if (new_lev > k) continue;
        if (lev[at(j)] != kUnset) {
          lev[at(j)] = std::min(lev[at(j)], new_lev);
        } else {
          while (next[at(ins)] != kNone && next[at(ins)] < j) ins = next[at(ins)];
          next[at(j)] = next[at(ins)];
          next[at(ins)] = j;
          lev[at(j)] = new_lev;
        }
      }
    }
    const std::size_t row_begin = pat.colind.size();
    for (index_t j = next[at(head)]; j != kNone;) {
      pat.colind.push_back(j);
      out.levels.push_back(lev[at(j)]);
      const index_t nj = next[at(j)];
      lev[at(j)] = kUnset;
      next[at(j)] = kNone;
      j = nj;
    }
    next[at(head)] = kNone;
    if (max_row_fill > 0 &&
        pat.colind.size() - row_begin > static_cast<std::size_t>(max_row_fill)) {
      keep.clear();
      for (std::size_t t = row_begin; t < pat.colind.size(); ++t)
        keep.emplace_back(out.levels[t], pat.colind[t]);
      std::stable_sort(keep.begin(), keep.end());
      keep.resize(static_cast<std::size_t>(max_row_fill));
      std::sort(keep.begin(), keep.end(),
                [](const auto& x, const auto& y) { return x.second < y.second; });
      pat.colind.resize(row_begin);
      out.levels.resize(row_begin);
      for (const auto& [l, j] : keep) {
        pat.colind.push_back(j);
        out.levels.push_back(l);
      }
      ++out.truncated_rows;
    }
    pat.rowptr[at(i) + 1] = static_cast<index_t>(pat.colind.size());
    u_begin[at(i)] = static_cast<index_t>(
        std::upper_bound(pat.colind.begin() +
                             static_cast<std::ptrdiff_t>(row_begin),
                         pat.colind.end(), i) -
        pat.colind.begin());
  }
  pat.values.assign(pat.colind.size(), char{1});
  return out;
}

/// Test-local copy of the numeric phase before the dense work row: a
/// column -> position map, and each update guarded by a pattern-membership
/// test.
void reference_numeric(Csr<double>& lu, std::vector<index_t>& diag_pos,
                       const IluOptions& opt, bool& breakdown,
                       std::uint64_t& elimination_ops) {
  const index_t n = lu.rows;
  const auto at = [](index_t v) { return static_cast<std::size_t>(v); };
  std::vector<index_t> pos(at(n), -1);
  diag_pos.assign(at(n), -1);
  for (index_t i = 0; i < n; ++i) {
    const index_t row_begin = lu.rowptr[at(i)];
    const index_t row_end = lu.rowptr[at(i) + 1];
    for (index_t p = row_begin; p < row_end; ++p) pos[at(lu.colind[at(p)])] = p;
    double row_norm = 0.0;
    for (index_t p = row_begin; p < row_end; ++p)
      row_norm = std::max(row_norm, std::abs(lu.values[at(p)]));
    for (index_t p = row_begin; p < row_end; ++p) {
      const index_t k = lu.colind[at(p)];
      if (k >= i) break;
      const index_t dk = diag_pos[at(k)];
      SPCG_CHECK(dk >= 0);
      const double pivot = lu.values[at(dk)];
      SPCG_CHECK(pivot != 0.0);
      const double lik = lu.values[at(p)] / pivot;
      lu.values[at(p)] = lik;
      elimination_ops +=
          static_cast<std::uint64_t>(lu.rowptr[at(k) + 1] - (dk + 1)) + 1;
      for (index_t q = dk + 1; q < lu.rowptr[at(k) + 1]; ++q) {
        const index_t pj = pos[at(lu.colind[at(q)])];
        if (pj >= 0) lu.values[at(pj)] -= lik * lu.values[at(q)];
      }
    }
    const index_t di = pos[at(i)];
    SPCG_CHECK(di >= 0);
    diag_pos[at(i)] = di;
    double& pivot = lu.values[at(di)];
    const double floor = opt.pivot_floor * std::max(row_norm, 1.0);
    if (std::abs(pivot) < floor) {
      SPCG_CHECK(opt.boost_zero_pivots);
      pivot = (pivot < 0.0 ? -floor : floor);
      breakdown = true;
    }
    for (index_t p = row_begin; p < row_end; ++p) pos[at(lu.colind[at(p)])] = -1;
  }
}

/// The reference ILU(K) pipeline: unpruned symbolic phase, A's values placed
/// by a binary search per entry, position-map elimination. K = 0 factors A's
/// own pattern, as ilu0() does. Returns false where the elimination threw.
bool reference_ilu(const Csr<double>& a, index_t k, index_t cap,
                   const IluOptions& opt, IluResult<double>& r) {
  r = IluResult<double>{};
  if (k == 0) {
    r.lu = a;
  } else {
    const IlukSymbolic sym = reference_symbolic(a, k, cap);
    r.lu = Csr<double>(a.rows, a.cols);
    r.lu.rowptr = sym.pattern.rowptr;
    r.lu.colind = sym.pattern.colind;
    r.lu.values.assign(r.lu.colind.size(), 0.0);
    for (index_t i = 0; i < a.rows; ++i)
      for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
           p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
        const index_t q = r.lu.find(i, a.colind[static_cast<std::size_t>(p)]);
        if (q >= 0)
          r.lu.values[static_cast<std::size_t>(q)] =
              a.values[static_cast<std::size_t>(p)];
      }
    r.fill_nnz = r.lu.nnz() - a.nnz();
  }
  std::vector<index_t> diag_pos;
  try {
    reference_numeric(r.lu, diag_pos, opt, r.breakdown, r.elimination_ops);
  } catch (const Error&) {
    return false;
  }
  return true;
}

void expect_same_factor(const IluResult<double>& ref,
                        const IluResult<double>& got, const std::string& at) {
  expect_same_bytes(ref.lu, got.lu, at);
  EXPECT_EQ(ref.fill_nnz, got.fill_nnz) << at;
  EXPECT_EQ(ref.breakdown, got.breakdown) << at;
  EXPECT_EQ(ref.elimination_ops, got.elimination_ops) << at;
}

/// Pivot policies: the default, strict, and a floor high enough that many
/// pivots are boosted (or, strict, that the elimination throws).
std::vector<std::pair<std::string, IluOptions>> pivot_policies() {
  IluOptions strict;
  strict.boost_zero_pivots = false;
  IluOptions high;
  high.pivot_floor = 0.3;
  IluOptions high_strict = high;
  high_strict.boost_zero_pivots = false;
  return {{"boost", {}},
          {"strict", strict},
          {"boost floor=0.3", high},
          {"strict floor=0.3", high_strict}};
}

/// Whether uncapped ILU(K > 0) is affordable on `a` in a unit test. A
/// quarter of the suite (scattered patterns: normal equations, economic, the
/// counter-examples) fills ILU(1) to 15-95x nnz(A) and uncapped ILU(3) to
/// near-dense, seconds to a minute per symbolic phase; the rest stays within
/// 2.3x. The scattered matrices are compared under the row caps only.
bool moderate_fill(const Csr<double>& a) {
  return iluk_symbolic(a, 1).pattern.nnz() <= 4 * a.nnz();
}

class IluIdentityTest : public ::testing::TestWithParam<int> {};

TEST_P(IluIdentityTest, SymbolicMatchesUnprunedLinkedList) {
  const GeneratedMatrix g =
      generate_suite_matrix(static_cast<index_t>(GetParam()));
  const bool moderate = moderate_fill(g.a);
  for (const index_t k : {0, 1, 2, 3}) {
    for (const index_t cap : {0, 4, 7}) {
      if (cap == 0 && k > 0 && !moderate) continue;
      const IlukSymbolic ref = reference_symbolic(g.a, k, cap);
      const IlukSymbolic got = iluk_symbolic(g.a, k, cap);
      const std::string at = g.spec.name + " K=" + std::to_string(k) +
                             " cap=" + std::to_string(cap);
      EXPECT_EQ(got.pattern.rows, ref.pattern.rows) << at;
      EXPECT_EQ(got.pattern.rowptr, ref.pattern.rowptr) << at;
      EXPECT_EQ(got.pattern.colind, ref.pattern.colind) << at;
      EXPECT_EQ(got.pattern.values, ref.pattern.values) << at;
      EXPECT_EQ(got.levels, ref.levels) << at;
      EXPECT_EQ(got.truncated_rows, ref.truncated_rows) << at;
    }
  }
}

TEST_P(IluIdentityTest, FactorsMatchPositionMapElimination) {
  const GeneratedMatrix g =
      generate_suite_matrix(static_cast<index_t>(GetParam()));
  // Same pattern, other values: the refresh path starts from a factor of
  // `g.a` and re-eliminates these.
  Csr<double> a2 = g.a;
  for (std::size_t p = 0; p < a2.values.size(); ++p)
    a2.values[p] *= 1.0 + 0.25 * std::sin(static_cast<double>(p));
  const bool moderate = moderate_fill(g.a);
  for (const auto& [policy, opt] : pivot_policies()) {
    for (const index_t k : {0, 1, 2, 3}) {
      for (const index_t cap : {0, 7}) {
        if (k == 0 && cap > 0) continue;
        if (k > 0 && cap == 0 && !moderate) continue;
        const std::string at = g.spec.name + " K=" + std::to_string(k) +
                               " cap=" + std::to_string(cap) + " " + policy;
        IluResult<double> ref;
        const bool ref_ok = reference_ilu(g.a, k, cap, opt, ref);
        if (!ref_ok) {
          EXPECT_THROW(k == 0 ? ilu0(g.a, opt) : iluk(g.a, k, opt, cap), Error)
              << at;
          continue;
        }
        IluResult<double> got = k == 0 ? ilu0(g.a, opt) : iluk(g.a, k, opt, cap);
        expect_same_factor(ref, got, at);

        // The refresh path on got's pattern: a2's values gathered in
        // through the refresh map and re-eliminated, as a transient step
        // does.
        SpcgSetup<double> setup;
        setup.factors = split_lu(got);
        setup.factorization.fill_nnz = got.fill_nnz;
        NumericRefreshWorkspace ws = build_numeric_refresh(setup, g.a);
        SpcgOptions sopt;
        sopt.ilu = opt;
        IluResult<double> ref2;
        if (reference_ilu(a2, k, cap, opt, ref2)) {
          refresh_setup_numerics(setup, a2, sopt, ws);
          const TriangularFactors<double> want = split_lu(ref2);
          expect_same_bytes(want.l, setup.factors.l, at + " refactorized L");
          expect_same_bytes(want.u, setup.factors.u, at + " refactorized U");
          EXPECT_EQ(ref2.breakdown, setup.factorization.breakdown) << at;
          EXPECT_EQ(ref2.elimination_ops, setup.factorization.elimination_ops)
              << at;
        } else {
          EXPECT_THROW(refresh_setup_numerics(setup, a2, sopt, ws), Error)
              << at;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMatrices, IluIdentityTest, ::testing::Range(0, 107));

// --- the fill-path symbolic phase against the sequential merge --------------

constexpr std::size_t kTeamSizes[] = {1, 2, 4};

/// The fill path at team sizes 1, 2 and 4 is byte for byte the merge.
void expect_fill_path_matches_merge(const Csr<double>& a, index_t k,
                                    const std::string& what) {
  const IlukSymbolic ref =
      detail::iluk_merge(a.rows, a.rowptr, a.colind, k, 0);
  for (const std::size_t team : kTeamSizes) {
    const IlukSymbolic got =
        detail::iluk_fill_paths(a.rows, a.rowptr, a.colind, k, team);
    const std::string at = what + " K=" + std::to_string(k) +
                           " team=" + std::to_string(team);
    EXPECT_EQ(got.pattern.rows, ref.pattern.rows) << at;
    EXPECT_EQ(got.pattern.cols, ref.pattern.cols) << at;
    EXPECT_EQ(got.pattern.rowptr, ref.pattern.rowptr) << at;
    EXPECT_EQ(got.pattern.colind, ref.pattern.colind) << at;
    EXPECT_EQ(got.pattern.values, ref.pattern.values) << at;
    EXPECT_EQ(got.levels, ref.levels) << at;
    EXPECT_EQ(got.truncated_rows, 0) << at;
    EXPECT_EQ(got.truncated_rows, ref.truncated_rows) << at;
  }
}

/// A random pattern with a full diagonal and `per_row` off-diagonal entries
/// per row, each mirrored with probability `mirror`: unsymmetric unless
/// mirror = 1.
Csr<double> random_pattern(index_t n, index_t per_row, double mirror,
                           std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<index_t> col(0, n - 1);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<Triplet<double>> ts;
  for (index_t i = 0; i < n; ++i) {
    ts.push_back({i, i, 4.0});
    for (index_t t = 0; t < per_row; ++t) {
      const index_t j = col(rng);
      ts.push_back({i, j, -1.0});
      if (coin(rng) < mirror) ts.push_back({j, i, -1.0});
    }
  }
  return csr_from_triplets<double>(n, n, std::move(ts));
}

class IlukFillPath : public ::testing::TestWithParam<int> {};

TEST_P(IlukFillPath, MatchesMergeOnModerateFillSuite) {
  const GeneratedMatrix g =
      generate_suite_matrix(static_cast<index_t>(GetParam()));
  // The scattered patterns fill heavily past K = 1 (see moderate_fill).
  const index_t max_k = moderate_fill(g.a) ? 3 : 1;
  for (index_t k = 1; k <= max_k; ++k)
    expect_fill_path_matches_merge(g.a, k, g.spec.name);
}

INSTANTIATE_TEST_SUITE_P(AllMatrices, IlukFillPath, ::testing::Range(0, 107));

TEST_F(IlukFillPath, MatchesMergeOnSmallInputs) {
  const std::vector<Csr<double>> inputs = small_symbolic_inputs();
  for (std::size_t c = 0; c < inputs.size(); ++c)
    for (const index_t k : {0, 1, 2, 3})
      expect_fill_path_matches_merge(inputs[c], k,
                                     "small input " + std::to_string(c));
}

TEST_F(IlukFillPath, MatchesMergeOnRandomUnsymmetricPatterns) {
  for (std::uint32_t seed = 1; seed <= 12; ++seed) {
    const Csr<double> a = random_pattern(200, 2, seed % 3 == 0 ? 0.0 : 0.5,
                                         seed);
    for (const index_t k : {0, 1, 2, 3})
      expect_fill_path_matches_merge(a, k, "seed " + std::to_string(seed));
  }
  // A pattern mirrored in full takes the symmetric path (L as the
  // transpose of U) and must agree all the same.
  expect_fill_path_matches_merge(random_pattern(200, 2, 1.0, 99), 2,
                                 "mirrored");
}

TEST_F(IlukFillPath, MissingDiagonalNamesTheLowestRowAtEveryTeamSize) {
  Csr<double> a = gen_poisson2d(8, 8);
  std::vector<Triplet<double>> ts;
  for (index_t i = 0; i < a.rows; ++i)
    for (index_t p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
      const index_t j = a.colind[static_cast<std::size_t>(p)];
      if (i == j && (i == 21 || i == 50)) continue;
      ts.push_back({i, j, a.values[static_cast<std::size_t>(p)]});
    }
  a = csr_from_triplets<double>(a.rows, a.cols, std::move(ts));
  const auto message = [](const auto& fn) -> std::string {
    try {
      fn();
    } catch (const Error& e) {
      return e.what();
    }
    return "no error";
  };
  const std::string want = "iluk_symbolic: row 21 has no diagonal";
  EXPECT_NE(message([&] {
              (void)detail::iluk_merge(a.rows, a.rowptr, a.colind, 2, 0);
            }).find(want),
            std::string::npos);
  for (const std::size_t team : kTeamSizes)
    EXPECT_NE(message([&] {
                (void)detail::iluk_fill_paths(a.rows, a.rowptr, a.colind, 2,
                                              team);
              }).find(want),
              std::string::npos)
        << "team " << team;
}

TEST_F(IlukFillPath, WorkerExceptionReachesCallerAfterEveryJoin) {
  constexpr std::size_t kWorkers = 4;
  std::atomic<int> finished{0};
  std::string caught;
  try {
    fork_join(kWorkers, [&](std::size_t w) {
      if (w == 1 || w == 3)
        throw std::runtime_error("worker " + std::to_string(w));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished.fetch_add(1);
    });
  } catch (const std::runtime_error& e) {
    caught = e.what();
  }
  // The lowest-numbered failure, and only once the sleeping workers ended.
  EXPECT_EQ(caught, "worker 1");
  EXPECT_EQ(finished.load(), 2);

  // Worker 0 runs on the caller; a team of one spawns no thread.
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  fork_join(1, [&](std::size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
}

TEST_F(IlukFillPath, SmallInputsRunOnTheCaller) {
  EXPECT_EQ(detail::fill_path_team(1000, 3), 1u);
  EXPECT_EQ(detail::fill_path_team(std::size_t{1} << 30, 2),
            hardware_threads());
}

}  // namespace
}  // namespace spcg
