// Unit + property tests for wavefront-aware sparsification (Algorithm 2).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "core/sparsify.h"
#include "core/spcg.h"
#include "gen/generators.h"
#include "gen/suite.h"
#include "sparse/norms.h"
#include "sparse/ops.h"

namespace spcg {
namespace {

TEST(SparsifyRatio, SplitsExactlyIntoAhatPlusS) {
  const Csr<double> a = gen_grid_laplacian(16, 16, 2.0, 0.3, 42);
  const SparsifySplit<double> s = sparsify_by_ratio(a, 10.0);
  s.a_hat.validate();
  s.s.validate();
  // A = Â + S entrywise (the split is a partition of A's entries).
  const Csr<double> sum = add(s.a_hat, s.s);
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
      const index_t j = a.colind[static_cast<std::size_t>(p)];
      EXPECT_DOUBLE_EQ(sum.at(i, j), a.values[static_cast<std::size_t>(p)]);
    }
  }
  EXPECT_EQ(s.a_hat.nnz() + s.s.nnz(), a.nnz());
  EXPECT_EQ(s.s.nnz(), s.dropped);
}

TEST(SparsifyRatio, RespectsTargetCount) {
  const Csr<double> a = gen_grid_laplacian(20, 20, 2.0, 0.3, 7);
  for (const double t : {1.0, 5.0, 10.0, 25.0}) {
    const SparsifySplit<double> s = sparsify_by_ratio(a, t);
    const auto target = static_cast<index_t>(
        std::llround(t / 100.0 * static_cast<double>(a.nnz())));
    EXPECT_LE(s.dropped, target) << "t=" << t;
    // Pairs are size 2, so we can be at most 2 short (1 for the last pair).
    EXPECT_GE(s.dropped, std::max<index_t>(0, target - 2)) << "t=" << t;
  }
}

TEST(SparsifyRatio, PreservesDiagonal) {
  const Csr<double> a = gen_varcoef2d(14, 14, 2.0, 5);
  const SparsifySplit<double> s = sparsify_by_ratio(a, 30.0);
  for (index_t i = 0; i < a.rows; ++i) {
    EXPECT_NE(s.a_hat.find(i, i), -1) << "diagonal dropped at row " << i;
    EXPECT_EQ(s.s.find(i, i), -1);
  }
}

TEST(SparsifyRatio, PreservesSymmetry) {
  const Csr<double> a = gen_mesh_laplacian(12, 12, 0.4, 0.05, 9);
  ASSERT_TRUE(is_symmetric(a));
  const SparsifySplit<double> s = sparsify_by_ratio(a, 10.0);
  EXPECT_TRUE(is_symmetric(s.a_hat));
  EXPECT_TRUE(is_symmetric(s.s));
}

TEST(SparsifyRatio, DropsSmallestMagnitudesFirst) {
  const Csr<double> a = gen_grid_laplacian(16, 16, 2.5, 0.3, 11);
  const SparsifySplit<double> s = sparsify_by_ratio(a, 10.0);
  // max |dropped| <= min |kept off-diagonal|.
  double max_dropped = 0.0;
  for (const double v : s.s.values) max_dropped = std::max(max_dropped, std::abs(v));
  double min_kept = std::numeric_limits<double>::infinity();
  for (index_t i = 0; i < s.a_hat.rows; ++i) {
    const auto cols_i = s.a_hat.row_cols(i);
    const auto vals_i = s.a_hat.row_vals(i);
    for (std::size_t p = 0; p < cols_i.size(); ++p) {
      if (cols_i[p] != i)
        min_kept = std::min(min_kept, std::abs(vals_i[p]));
    }
  }
  EXPECT_LE(max_dropped, min_kept);
}

TEST(SparsifyRatio, ZeroRatioDropsNothing) {
  const Csr<double> a = gen_poisson2d(8, 8);
  const SparsifySplit<double> s = sparsify_by_ratio(a, 0.0);
  EXPECT_EQ(s.dropped, 0);
  EXPECT_EQ(s.a_hat.nnz(), a.nnz());
  EXPECT_EQ(s.s.nnz(), 0);
}

TEST(SparsifyRatio, DeterministicOnTies) {
  // Poisson has all off-diagonals equal: the tie-break must be stable.
  const Csr<double> a = gen_poisson2d(10, 10);
  const SparsifySplit<double> s1 = sparsify_by_ratio(a, 10.0);
  const SparsifySplit<double> s2 = sparsify_by_ratio(a, 10.0);
  EXPECT_EQ(s1.a_hat.colind, s2.a_hat.colind);
  EXPECT_EQ(s1.s.colind, s2.s.colind);
}

TEST(Indicator, DiagonalProxyMatchesHandComputation) {
  // Â = diag(2, 5) with off-diagonal 1; S holds a single pair of 0.1.
  const Csr<double> a_hat = csr_from_triplets<double>(
      2, 2, {{0, 0, 2.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 5.0}});
  const Csr<double> s = csr_from_triplets<double>(
      2, 2, {{0, 1, 0.1}, {1, 0, 0.1}});
  const ConvergenceIndicator ind = convergence_indicator(a_hat, s);
  // ||Â||_inf = 6, min diag = 2 -> kappa = 3; ||Â^{-1}|| = 3/6 = 0.5.
  EXPECT_NEAR(ind.inv_norm, 0.5, 1e-12);
  EXPECT_NEAR(ind.s_norm, 0.1, 1e-12);
  EXPECT_NEAR(ind.product, 0.05, 1e-12);
}

TEST(Indicator, NonPositiveDiagonalIsUnsafe) {
  const Csr<double> a_hat = csr_from_triplets<double>(
      2, 2, {{0, 0, -1.0}, {1, 1, 1.0}});
  const Csr<double> s = csr_from_triplets<double>(2, 2, {{0, 1, 0.5}});
  const ConvergenceIndicator ind = convergence_indicator(a_hat, s);
  EXPECT_TRUE(std::isinf(ind.product));
}

TEST(Indicator, LanczosEstimatorTighterThanProxyOnWellConditioned) {
  const Csr<double> a = gen_grid_laplacian(12, 12, 1.0, 1.0, 3);
  const SparsifySplit<double> split = sparsify_by_ratio(a, 5.0);
  const ConvergenceIndicator proxy =
      convergence_indicator(split.a_hat, split.s,
                            ConditionEstimator::kDiagonalProxy);
  const ConvergenceIndicator exact = convergence_indicator(
      split.a_hat, split.s, ConditionEstimator::kLanczos, 80);
  EXPECT_GT(proxy.product, 0.0);
  EXPECT_GT(exact.product, 0.0);
  // For this diagonally dominant family 1/min_diag >= 1/lambda_min is not
  // guaranteed in general, but both must be finite and of the same scale.
  EXPECT_LT(std::abs(std::log10(proxy.product / exact.product)), 2.0);
}

TEST(Algorithm2, ReturnsAValidDecision) {
  const Csr<double> a = gen_grid_laplacian(24, 24, 2.2, 0.3, 77);
  const SparsifyDecision<double> d = wavefront_aware_sparsify(a);
  EXPECT_GT(d.wavefronts_original, 0);
  EXPECT_LE(d.wavefronts_chosen, d.wavefronts_original);
  EXPECT_FALSE(d.steps.empty());
  d.chosen.a_hat.validate();
  // Chosen ratio must be one of the candidates.
  EXPECT_TRUE(d.chosen.ratio_percent == 10.0 || d.chosen.ratio_percent == 5.0 ||
              d.chosen.ratio_percent == 1.0);
}

TEST(Algorithm2, AcceptsAggressiveRatioWhenReductionIsLarge) {
  // Weak chain: the entire dependence chain is carried by tiny entries, so a
  // 10% drop collapses the wavefronts and passes both tests immediately.
  const Csr<double> a = gen_chain_with_skips(600, 4, 1e-5, 1.0, 13);
  const SparsifyDecision<double> d = wavefront_aware_sparsify(a);
  EXPECT_EQ(d.outcome, SparsifyOutcome::kWavefrontAccepted);
  // One of the aggressive ratios wins on the wavefront test.
  EXPECT_GE(d.chosen.ratio_percent, 5.0);
  EXPECT_GT(d.reduction_percent, 50.0);
}

TEST(Algorithm2, FallsBackToSmallestRatioWithoutReduction) {
  // Poisson: dropping equal-magnitude entries barely changes the wavefront
  // count, so Algorithm 2 should land on the most conservative ratio.
  const Csr<double> a = gen_poisson2d(20, 20);
  SparsifyOptions opt;
  opt.omega_percent = 60.0;  // unreachable reduction
  const SparsifyDecision<double> d = wavefront_aware_sparsify(a, opt);
  EXPECT_EQ(d.outcome, SparsifyOutcome::kSmallestRatioFallback);
  EXPECT_DOUBLE_EQ(d.chosen.ratio_percent, 1.0);
}

TEST(Algorithm2, UnsafeFallbackPicksMostAggressiveRatio) {
  const Csr<double> a = gen_grid_laplacian(16, 16, 2.0, 0.3, 21);
  SparsifyOptions opt;
  opt.tau = 0.0;  // every candidate fails the convergence check
  const SparsifyDecision<double> d = wavefront_aware_sparsify(a, opt);
  EXPECT_EQ(d.outcome, SparsifyOutcome::kUnsafeFallback);
  EXPECT_DOUBLE_EQ(d.chosen.ratio_percent, 10.0);
  // All steps were evaluated and all failed.
  EXPECT_EQ(d.steps.size(), 3u);
  for (const SparsifyStep& s : d.steps) EXPECT_FALSE(s.convergence_ok);
}

TEST(Algorithm2, StepDiagnosticsAreConsistent) {
  const Csr<double> a = gen_varcoef2d(20, 20, 2.5, 33);
  const SparsifyDecision<double> d = wavefront_aware_sparsify(a);
  for (const SparsifyStep& s : d.steps) {
    EXPECT_GT(s.ratio_percent, 0.0);
    if (s.convergence_ok) {
      EXPECT_GE(s.wavefronts, 1);
      EXPECT_LE(s.wavefronts, d.wavefronts_original);
    }
  }
}

TEST(Algorithm2, CustomRatioListIsHonored) {
  const Csr<double> a = gen_grid_laplacian(14, 14, 2.0, 0.3, 55);
  SparsifyOptions opt;
  opt.ratios = {20.0, 2.0};
  opt.omega_percent = 0.0;  // accept first safe ratio
  const SparsifyDecision<double> d = wavefront_aware_sparsify(a, opt);
  EXPECT_TRUE(d.chosen.ratio_percent == 20.0 || d.chosen.ratio_percent == 2.0);
}

TEST(Algorithm2, AlgorithmLine10DenominatorVariant) {
  // The Alg.-2-literal denominator (w_Â) yields a >= reduction value than
  // Eq. 7's (w_A); both must pick a valid candidate.
  const Csr<double> a = gen_chain_with_skips(500, 4, 1e-5, 1.0, 17);
  SparsifyOptions eq7;
  SparsifyOptions alg2;
  alg2.denominator = WavefrontDenominator::kSparsified;
  const auto d7 = wavefront_aware_sparsify(a, eq7);
  const auto d2 = wavefront_aware_sparsify(a, alg2);
  d7.chosen.a_hat.validate();
  d2.chosen.a_hat.validate();
}

TEST(SparsifyRatio, PreservesDiagonalDominance) {
  // Removing off-diagonal mass can only strengthen row dominance, so a
  // dominant matrix stays dominant after any sparsification ratio.
  const Csr<double> a = gen_grid_laplacian(14, 14, 2.0, 0.3, 3);
  ASSERT_TRUE(is_diagonally_dominant(a));
  for (const double t : {1.0, 10.0, 30.0}) {
    EXPECT_TRUE(is_diagonally_dominant(sparsify_by_ratio(a, t).a_hat)) << t;
  }
}

// Property sweep: invariants hold across families and ratios.
class SparsifyPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(SparsifyPropertyTest, InvariantsAcrossFamilies) {
  const double ratio = GetParam();
  const std::vector<Csr<double>> family{
      gen_poisson2d(14, 14),
      gen_grid_laplacian(14, 14, 2.0, 0.3, 1),
      gen_mesh_laplacian(12, 12, 0.4, 0.05, 2),
      gen_banded(300, 10, 0.3, true, 3),
      gen_economic(300, 8, 0.9, 4),
  };
  for (const Csr<double>& a : family) {
    const SparsifySplit<double> s = sparsify_by_ratio(a, ratio);
    // Partition invariant.
    EXPECT_EQ(s.a_hat.nnz() + s.s.nnz(), a.nnz());
    // Symmetry preserved.
    EXPECT_TRUE(is_symmetric(s.a_hat, 0.0));
    // Diagonal untouched.
    for (index_t i = 0; i < a.rows; ++i)
      EXPECT_DOUBLE_EQ(s.a_hat.at(i, i), a.at(i, i));
    // Wavefronts never increase.
    EXPECT_LE(count_wavefronts(s.a_hat), count_wavefronts(a));
  }
}

INSTANTIATE_TEST_SUITE_P(Ratios, SparsifyPropertyTest,
                         ::testing::Values(0.5, 1.0, 5.0, 10.0, 20.0, 50.0));

// --- bit identity with the per-ratio definition ------------------------------

/// Reference split: the per-ratio definition of the drop rule. Sort every
/// strict-upper candidate by (|v|, row, col), walk smallest-first dropping
/// symmetric pairs, stop at the first pair that does not fit the target.
SparsifySplit<double> reference_split(const Csr<double>& a, double t) {
  struct Candidate {
    double magnitude;
    index_t row, col;
  };
  std::vector<Candidate> candidates;
  for (index_t i = 0; i < a.rows; ++i)
    for (index_t p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p)
      if (a.colind[static_cast<std::size_t>(p)] > i)
        candidates.push_back({std::abs(a.values[static_cast<std::size_t>(p)]),
                              i, a.colind[static_cast<std::size_t>(p)]});
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& x, const Candidate& y) {
              if (x.magnitude != y.magnitude) return x.magnitude < y.magnitude;
              if (x.row != y.row) return x.row < y.row;
              return x.col < y.col;
            });
  const auto target = static_cast<index_t>(
      std::llround(t / 100.0 * static_cast<double>(a.nnz())));
  std::vector<char> drop(static_cast<std::size_t>(a.nnz()), 0);
  index_t dropped = 0;
  for (const Candidate& c : candidates) {
    const index_t p_lower = a.find(c.col, c.row);
    const index_t cost = p_lower >= 0 ? 2 : 1;
    if (dropped + cost > target) break;
    drop[static_cast<std::size_t>(a.find(c.row, c.col))] = 1;
    if (p_lower >= 0) drop[static_cast<std::size_t>(p_lower)] = 1;
    dropped += cost;
  }
  SparsifySplit<double> out;
  out.ratio_percent = t;
  out.dropped = dropped;
  out.a_hat = Csr<double>(a.rows, a.cols);
  out.s = Csr<double>(a.rows, a.cols);
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
      Csr<double>& dst = drop[static_cast<std::size_t>(p)] ? out.s : out.a_hat;
      dst.colind.push_back(a.colind[static_cast<std::size_t>(p)]);
      dst.values.push_back(a.values[static_cast<std::size_t>(p)]);
    }
    out.a_hat.rowptr[i + 1] = static_cast<index_t>(out.a_hat.colind.size());
    out.s.rowptr[i + 1] = static_cast<index_t>(out.s.colind.size());
  }
  return out;
}

/// Reference Algorithm 2: every ratio materializes its split and evaluates
/// it with convergence_indicator and count_wavefronts.
SparsifyDecision<double> reference_decision(const Csr<double>& a,
                                            const SparsifyOptions& opt) {
  SparsifyDecision<double> out;
  out.wavefronts_original = count_wavefronts(a);
  auto finalize = [&](SparsifySplit<double> split, SparsifyOutcome outcome) {
    out.outcome = outcome;
    out.wavefronts_chosen = count_wavefronts(split.a_hat);
    out.reduction_percent = wavefront_reduction_percent(
        out.wavefronts_original, out.wavefronts_chosen);
    out.chosen = std::move(split);
    return out;
  };
  for (std::size_t idx = 0; idx < opt.ratios.size(); ++idx) {
    const double t = opt.ratios[idx];
    const bool last = idx + 1 == opt.ratios.size();
    SparsifyStep step;
    step.ratio_percent = t;
    SparsifySplit<double> split = reference_split(a, t);
    step.dropped = split.dropped;
    step.indicator = convergence_indicator(split.a_hat, split.s, opt.estimator,
                                           opt.lanczos_steps);
    step.convergence_ok = !(step.indicator.product > opt.tau);
    if (!step.convergence_ok) {
      out.steps.push_back(step);
      if (last)
        return finalize(reference_split(a, opt.ratios.front()),
                        SparsifyOutcome::kUnsafeFallback);
      continue;
    }
    step.wavefronts = count_wavefronts(split.a_hat);
    const index_t denom = opt.denominator == WavefrontDenominator::kOriginal
                              ? out.wavefronts_original
                              : step.wavefronts;
    step.reduction_percent =
        denom > 0 ? 100.0 *
                        static_cast<double>(out.wavefronts_original -
                                            step.wavefronts) /
                        static_cast<double>(denom)
                  : 0.0;
    step.wavefront_ok = step.reduction_percent >= opt.omega_percent;
    out.steps.push_back(step);
    if (step.wavefront_ok || last)
      return finalize(std::move(split),
                      step.wavefront_ok
                          ? SparsifyOutcome::kWavefrontAccepted
                          : SparsifyOutcome::kSmallestRatioFallback);
  }
  ADD_FAILURE() << "reference loop fell through";
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_csr(const Csr<double>& ref, const Csr<double>& got,
                     const std::string& what) {
  EXPECT_EQ(ref.rows, got.rows) << what;
  EXPECT_EQ(ref.cols, got.cols) << what;
  EXPECT_EQ(ref.rowptr, got.rowptr) << what;
  EXPECT_EQ(ref.colind, got.colind) << what;
  ASSERT_EQ(ref.values.size(), got.values.size()) << what;
  EXPECT_TRUE(std::equal(ref.values.begin(), ref.values.end(),
                         got.values.begin(), [](double x, double y) {
                           return bits(x) == bits(y);
                         }))
      << what;
}

void expect_same_split(const SparsifySplit<double>& ref,
                       const SparsifySplit<double>& got,
                       const std::string& what) {
  EXPECT_EQ(bits(ref.ratio_percent), bits(got.ratio_percent)) << what;
  EXPECT_EQ(ref.dropped, got.dropped) << what;
  expect_same_csr(ref.a_hat, got.a_hat, what + " a_hat");
  expect_same_csr(ref.s, got.s, what + " s");
}

void expect_same_decision(const SparsifyDecision<double>& ref,
                          const SparsifyDecision<double>& got,
                          const std::string& what) {
  EXPECT_EQ(ref.outcome, got.outcome) << what;
  EXPECT_EQ(ref.wavefronts_original, got.wavefronts_original) << what;
  EXPECT_EQ(ref.wavefronts_chosen, got.wavefronts_chosen) << what;
  EXPECT_EQ(bits(ref.reduction_percent), bits(got.reduction_percent)) << what;
  ASSERT_EQ(ref.steps.size(), got.steps.size()) << what;
  for (std::size_t k = 0; k < ref.steps.size(); ++k) {
    const SparsifyStep& r = ref.steps[k];
    const SparsifyStep& g = got.steps[k];
    const std::string at = what + " step " + std::to_string(k);
    EXPECT_EQ(bits(r.ratio_percent), bits(g.ratio_percent)) << at;
    EXPECT_EQ(r.dropped, g.dropped) << at;
    EXPECT_EQ(bits(r.indicator.inv_norm), bits(g.indicator.inv_norm)) << at;
    EXPECT_EQ(bits(r.indicator.s_norm), bits(g.indicator.s_norm)) << at;
    EXPECT_EQ(bits(r.indicator.product), bits(g.indicator.product)) << at;
    EXPECT_EQ(r.convergence_ok, g.convergence_ok) << at;
    EXPECT_EQ(r.wavefronts, g.wavefronts) << at;
    EXPECT_EQ(bits(r.reduction_percent), bits(g.reduction_percent)) << at;
    EXPECT_EQ(r.wavefront_ok, g.wavefront_ok) << at;
  }
  expect_same_split(ref.chosen, got.chosen, what + " chosen");
}

class SparsifyIdentityTest : public ::testing::TestWithParam<int> {};

TEST_P(SparsifyIdentityTest, SelectionOnceMatchesPerRatioDefinition) {
  const GeneratedMatrix g =
      generate_suite_matrix(static_cast<index_t>(GetParam()));
  const SparsifyOptions paper;
  for (const double t : paper.ratios)
    expect_same_split(reference_split(g.a, t), sparsify_by_ratio(g.a, t),
                      g.spec.name + " t=" + std::to_string(t));
  expect_same_decision(reference_decision(g.a, paper),
                       wavefront_aware_sparsify(g.a, paper),
                       g.spec.name + " default");

  SparsifyOptions alg2;
  alg2.denominator = WavefrontDenominator::kSparsified;
  alg2.ratios = {1.0, 20.0, 5.0};
  expect_same_decision(reference_decision(g.a, alg2),
                       wavefront_aware_sparsify(g.a, alg2),
                       g.spec.name + " kSparsified {1,20,5}");
}

INSTANTIATE_TEST_SUITE_P(AllMatrices, SparsifyIdentityTest,
                         ::testing::Range(0, 107));

TEST(SparsifyIdentity, LanczosEstimatorMatchesPerRatioDefinition) {
  SparsifyOptions opt;
  opt.estimator = ConditionEstimator::kLanczos;
  for (const index_t id : {index_t{0}, index_t{33}, index_t{71}}) {
    const GeneratedMatrix g = generate_suite_matrix(id);
    expect_same_decision(reference_decision(g.a, opt),
                         wavefront_aware_sparsify(g.a, opt),
                         g.spec.name + " kLanczos");
  }
  // Unsafe fallback (every ratio fails τ) and an unpaired strict-upper
  // entry, on a matrix small enough to name.
  const Csr<double> unsym = csr_from_triplets<double>(
      3, 3, {{0, 0, 4.0}, {0, 1, 0.1}, {0, 2, 0.2}, {1, 0, 0.1},
             {1, 1, 4.0}, {2, 2, 4.0}});
  SparsifyOptions strict;
  strict.tau = 0.0;
  strict.ratios = {40.0, 20.0};
  expect_same_decision(reference_decision(unsym, strict),
                       wavefront_aware_sparsify(unsym, strict), "unpaired");
  for (const double t : {10.0, 20.0, 40.0, 60.0})
    expect_same_split(reference_split(unsym, t), sparsify_by_ratio(unsym, t),
                      "unpaired t=" + std::to_string(t));
}

// --- non-finite values -------------------------------------------------------

TEST(SparsifyNonFinite, RejectedOnAndOffTheDiagonal) {
  const Csr<double> clean = gen_poisson2d(6, 6);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    for (const auto& [i, j] : {std::pair<index_t, index_t>{3, 2},
                              std::pair<index_t, index_t>{4, 4}}) {
      Csr<double> a = clean;
      a.values[static_cast<std::size_t>(a.find(i, j))] = bad;
      const std::string at = "row " + std::to_string(i) + ", column " +
                             std::to_string(j);
      try {
        (void)sparsify_by_ratio(a, 10.0);
        ADD_FAILURE() << "sparsify_by_ratio accepted " << bad << " at " << at;
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(at), std::string::npos)
            << e.what();
      }
      EXPECT_THROW((void)wavefront_aware_sparsify(a), Error) << bad << at;
      EXPECT_THROW((void)spcg_setup(a), Error) << bad << at;
    }
  }
}

}  // namespace
}  // namespace spcg
