// Tests for the static-analysis layer: structural linter, schedule race
// detector (static + instrumented executor), and the overflow/zero-diagonal
// hardening that rides along with it.
//
// The corruption tests follow one pattern: take a known-good object from the
// generator suite, break exactly one invariant, and assert the expected rule
// id fires (and that the pristine object stays clean).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "analysis/alloc_audit.h"
#include "analysis/lint.h"
#include "analysis/race_detector.h"
#include "analysis/verify.h"
#include "core/sparsify.h"
#include "dist/dist_pcg.h"
#include "dist/partition.h"
#include "runtime/session.h"
#include "solver/pipelined_cg.h"
#include "gen/generators.h"
#include "gen/suite.h"
#include "precond/ilu.h"
#include "precond/preconditioner.h"
#include "sparse/norms.h"
#include "sptrsv/sptrsv.h"
#include "support/rng.h"
#include "wavefront/levels.h"

namespace spcg {
namespace {

using analysis::Diagnostics;
using analysis::LintOptions;
using analysis::Severity;

Csr<double> good_matrix() { return gen_poisson2d(8, 8); }

LintOptions full_options() {
  LintOptions opt;
  opt.check_symmetry = true;
  opt.check_spd = true;
  return opt;
}

// --- diagnostics plumbing ---------------------------------------------------

TEST(Diagnostics, CollectsAndQueries) {
  Diagnostics d;
  EXPECT_TRUE(d.ok());
  d.warning("some.rule", "A", "a warning", 3);
  EXPECT_TRUE(d.ok());
  d.error("other.rule", "A", "an error", 1, 2);
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.count(Severity::kError), 1u);
  EXPECT_EQ(d.count(Severity::kWarning), 1u);
  EXPECT_TRUE(d.has_rule("some.rule"));
  EXPECT_FALSE(d.has_rule("missing.rule"));
  ASSERT_NE(d.first_error(), nullptr);
  EXPECT_EQ(d.first_error()->rule, "other.rule");
  EXPECT_NE(d.to_string().find("[other.rule]"), std::string::npos);
}

TEST(Diagnostics, RuleCatalogCoversEmittedRules) {
  const auto& catalog = analysis::rule_catalog();
  EXPECT_GE(catalog.size(), 30u);
  EXPECT_TRUE(std::any_of(catalog.begin(), catalog.end(), [](const auto& r) {
    return std::string(r.id) == analysis::kRuleScheduleRace;
  }));
}

// --- clean objects lint clean ----------------------------------------------

TEST(Lint, CleanMatrixHasNoErrors) {
  const Diagnostics d = analysis::analyze(good_matrix(), full_options());
  EXPECT_TRUE(d.ok()) << d;
  EXPECT_EQ(d.count(Severity::kWarning), 0u) << d;
}

TEST(Lint, SuiteSampleLintsClean) {
  for (const index_t id : {index_t{0}, index_t{25}, index_t{60}}) {
    const GeneratedMatrix g = generate_suite_matrix(id);
    LintOptions opt = full_options();
    opt.symmetry_tol = 1e-10 * static_cast<double>(norm_inf(g.a));
    const Diagnostics d = analysis::analyze(g.a, opt, g.spec.name);
    EXPECT_TRUE(d.ok()) << g.spec.name << "\n" << d;
  }
}

// --- corruption class 1: unsorted colind ------------------------------------

TEST(Lint, UnsortedColindFires) {
  Csr<double> a = good_matrix();
  // Swap the first two entries of a row with >= 2 entries.
  std::swap(a.colind[0], a.colind[1]);
  const Diagnostics d = analysis::analyze(a);
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.has_rule(analysis::kRuleColindSorted)) << d;
}

TEST(Lint, DuplicateColumnFires) {
  Csr<double> a = good_matrix();
  a.colind[1] = a.colind[0];
  const Diagnostics d = analysis::analyze(a);
  EXPECT_TRUE(d.has_rule(analysis::kRuleColindSorted)) << d;
}

// --- corruption class 2: out-of-bounds index --------------------------------

TEST(Lint, OutOfBoundsColumnFires) {
  Csr<double> a = good_matrix();
  a.colind[2] = a.cols + 7;
  const Diagnostics d = analysis::analyze(a);
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.has_rule(analysis::kRuleColindBounds)) << d;
}

TEST(Lint, NegativeColumnFires) {
  Csr<double> a = good_matrix();
  a.colind[2] = -1;
  EXPECT_TRUE(analysis::analyze(a).has_rule(analysis::kRuleColindBounds));
}

TEST(Lint, BrokenRowptrFires) {
  Csr<double> a = good_matrix();
  std::swap(a.rowptr[2], a.rowptr[3]);  // makes rowptr non-monotone
  const Diagnostics d = analysis::analyze(a);
  EXPECT_TRUE(d.has_rule(analysis::kRuleRowptrMonotone)) << d;

  Csr<double> b = good_matrix();
  b.rowptr.pop_back();
  EXPECT_TRUE(analysis::analyze(b).has_rule(analysis::kRuleRowptrSize));

  Csr<double> c = good_matrix();
  c.rowptr.back() += 1;
  EXPECT_TRUE(analysis::analyze(c).has_rule(analysis::kRuleNnzConsistent));
}

// --- corruption class 3: zero diagonal --------------------------------------

TEST(Lint, ZeroDiagonalInFactorFires) {
  const TriangularFactors<double> f = ilu0_factors(good_matrix());
  Csr<double> u = f.u;
  u.values[static_cast<std::size_t>(u.find(3, 3))] = 0.0;
  const Diagnostics d =
      analysis::analyze_triangular(u, Triangle::kUpper, {}, "U");
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.has_rule(analysis::kRuleTriDiagNonzero)) << d;
}

TEST(Lint, MissingDiagonalInFactorFires) {
  // A U row without its diagonal violates the factor format; so does an L
  // that stores one (L's unit diagonal is implicit).
  const Csr<double> u = csr_from_triplets<double>(
      3, 3, {{0, 0, 1.0}, {0, 2, 0.5}, {1, 2, 0.25}, {2, 2, 2.0}});
  const Diagnostics d =
      analysis::analyze_triangular(u, Triangle::kUpper, {}, "U");
  EXPECT_TRUE(d.has_rule(analysis::kRuleTriDiagPresent)) << d;
  const Csr<double> l = csr_from_triplets<double>(
      3, 3, {{1, 0, 0.5}, {2, 1, 0.25}, {2, 2, 1.0}});
  EXPECT_TRUE(analysis::analyze_triangular(l, Triangle::kLower, {}, "L")
                  .has_rule(analysis::kRuleTriStructure));
  EXPECT_TRUE(analysis::analyze_triangular(
                  ilu0_factors(good_matrix()).l, Triangle::kLower, {}, "L")
                  .ok());
}

TEST(Lint, NonPositiveDiagonalOnSpdInputWarns) {
  Csr<double> a = good_matrix();
  a.values[static_cast<std::size_t>(a.find(5, 5))] = -2.0;
  const Diagnostics d = analysis::analyze(a, full_options());
  EXPECT_TRUE(d.has_rule(analysis::kRuleSpdDiagPositive)) << d;
}

// --- corruption class 4: NaN / Inf values -----------------------------------

TEST(Lint, NanValueFires) {
  Csr<double> a = good_matrix();
  a.values[4] = std::numeric_limits<double>::quiet_NaN();
  const Diagnostics d = analysis::analyze(a);
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.has_rule(analysis::kRuleValuesFinite)) << d;
}

TEST(Lint, InfValueFires) {
  Csr<double> a = good_matrix();
  a.values[4] = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(analysis::analyze(a).has_rule(analysis::kRuleValuesFinite));
}

TEST(Lint, PerRuleCapBoundsReportSize) {
  Csr<double> a = good_matrix();
  for (double& v : a.values) v = std::numeric_limits<double>::quiet_NaN();
  LintOptions opt;
  opt.max_per_rule = 4;
  const Diagnostics d = analysis::analyze(a, opt);
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.by_rule(analysis::kRuleValuesFinite).size(), 5u)  // 4 + summary
      << d;
}

// --- corruption class 5: broken level schedule ------------------------------

TEST(RaceDetector, CleanScheduleVerifies) {
  const TriangularFactors<double> f = ilu0_factors(good_matrix());
  const LevelSchedule ls = level_schedule(f.l, Triangle::kLower);
  const Diagnostics d =
      analysis::verify_level_schedule(f.l, ls, Triangle::kLower);
  EXPECT_TRUE(d.ok()) << d;
}

TEST(RaceDetector, SameLevelDependenceFires) {
  const TriangularFactors<double> f = ilu0_factors(good_matrix());
  LevelSchedule ls = level_schedule(f.l, Triangle::kLower);
  ASSERT_GE(ls.num_levels(), 2);
  // Move the first row of level 1 into level 0: it depends on a level-0 row.
  const index_t victim = ls.rows_by_level[static_cast<std::size_t>(
      ls.level_ptr[1])];
  ls.level_of_row[static_cast<std::size_t>(victim)] = 0;
  // Rebuild buckets from the corrupted level_of_row.
  LevelSchedule bad;
  bad.level_of_row = ls.level_of_row;
  const index_t n = static_cast<index_t>(ls.level_of_row.size());
  index_t num_levels = 0;
  for (index_t i = 0; i < n; ++i)
    num_levels = std::max(num_levels,
                          bad.level_of_row[static_cast<std::size_t>(i)] + 1);
  bad.level_ptr.assign(static_cast<std::size_t>(num_levels) + 1, 0);
  for (index_t i = 0; i < n; ++i)
    ++bad.level_ptr[static_cast<std::size_t>(
        bad.level_of_row[static_cast<std::size_t>(i)]) + 1];
  for (std::size_t l = 1; l < bad.level_ptr.size(); ++l)
    bad.level_ptr[l] += bad.level_ptr[l - 1];
  bad.rows_by_level.assign(static_cast<std::size_t>(n), 0);
  std::vector<index_t> cursor(bad.level_ptr.begin(), bad.level_ptr.end() - 1);
  for (index_t i = 0; i < n; ++i) {
    const index_t l = bad.level_of_row[static_cast<std::size_t>(i)];
    bad.rows_by_level[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(l)]++)] = i;
  }

  const Diagnostics d =
      analysis::verify_level_schedule(f.l, bad, Triangle::kLower);
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.has_rule(analysis::kRuleScheduleRace)) << d;

  // The instrumented executor must observe the same race dynamically.
  std::vector<double> b(static_cast<std::size_t>(f.l.rows), 1.0), x(b.size());
  const analysis::RaceReport report = analysis::sptrsv_lower_levels_checked(
      f, bad, std::span<const double>(b), std::span<double>(x));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.to_diagnostics().has_rule(analysis::kRuleRaceOverlap));
}

TEST(RaceDetector, TopologyViolationFires) {
  const TriangularFactors<double> f = ilu0_factors(good_matrix());
  LevelSchedule ls = level_schedule(f.l, Triangle::kLower);
  ASSERT_GE(ls.num_levels(), 2);
  // Swap the bucket contents of levels 0 and 1: level-0 rows now "depend on
  // the future" (their deps sit in the later bucket).
  const index_t n0 = ls.level_size(0);
  const index_t n1 = ls.level_size(1);
  ASSERT_GT(n0, 0);
  ASSERT_GT(n1, 0);
  std::vector<index_t> swapped(ls.rows_by_level);
  std::copy(ls.rows_by_level.begin() + n0,
            ls.rows_by_level.begin() + n0 + n1, swapped.begin());
  std::copy(ls.rows_by_level.begin(), ls.rows_by_level.begin() + n0,
            swapped.begin() + n1);
  LevelSchedule bad = ls;
  bad.rows_by_level = swapped;
  bad.level_ptr[1] = n1;  // keep bucket sizes consistent with the swap
  for (index_t i = 0; i < n1; ++i)
    bad.level_of_row[static_cast<std::size_t>(
        swapped[static_cast<std::size_t>(i)])] = 0;
  for (index_t i = n1; i < n1 + n0; ++i)
    bad.level_of_row[static_cast<std::size_t>(
        swapped[static_cast<std::size_t>(i)])] = 1;

  const Diagnostics d =
      analysis::verify_level_schedule(f.l, bad, Triangle::kLower);
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.has_rule(analysis::kRuleScheduleTopology)) << d;

  std::vector<double> b(static_cast<std::size_t>(f.l.rows), 1.0), x(b.size());
  const analysis::RaceReport report = analysis::sptrsv_lower_levels_checked(
      f, bad, std::span<const double>(b), std::span<double>(x));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.to_diagnostics().has_rule(analysis::kRuleRaceStale));
}

TEST(RaceDetector, BrokenShapeFires) {
  const TriangularFactors<double> f = ilu0_factors(good_matrix());
  LevelSchedule ls = level_schedule(f.l, Triangle::kLower);
  ls.rows_by_level[0] = ls.rows_by_level[1];  // duplicate → not a permutation
  const Diagnostics d =
      analysis::verify_level_schedule(f.l, ls, Triangle::kLower);
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.has_rule(analysis::kRuleSchedulePermutation)) << d;
}

// --- race detector: positive certification ----------------------------------

TEST(RaceDetector, GeneratedSuiteSchedulesAreRaceFree) {
  // The acceptance property: generated-suite level schedules are provably
  // race-free, both statically and under the instrumented executor.
  for (const index_t id : {index_t{0}, index_t{13}, index_t{42}, index_t{77},
                           index_t{101}}) {
    const GeneratedMatrix g = generate_suite_matrix(id);
    const TriangularFactors<double> f = ilu0_factors(g.a);
    const LevelSchedule ls = level_schedule(f.l, Triangle::kLower);
    const LevelSchedule us = level_schedule(f.u, Triangle::kUpper);
    EXPECT_TRUE(analysis::verify_level_schedule(f.l, ls, Triangle::kLower)
                    .ok())
        << g.spec.name;
    EXPECT_TRUE(analysis::verify_level_schedule(f.u, us, Triangle::kUpper)
                    .ok())
        << g.spec.name;

    std::vector<double> b(static_cast<std::size_t>(g.a.rows));
    Rng rng(static_cast<std::uint64_t>(id) * 31 + 7);
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
    std::vector<double> y(b.size()), x(b.size());
    const analysis::RaceReport rl = analysis::sptrsv_lower_levels_checked(
        f, ls, std::span<const double>(b), std::span<double>(y));
    const analysis::RaceReport ru = analysis::sptrsv_upper_levels_checked(
        f, us, std::span<const double>(y), std::span<double>(x));
    EXPECT_TRUE(rl.ok()) << g.spec.name;
    EXPECT_TRUE(ru.ok()) << g.spec.name;
    EXPECT_EQ(rl.writes, static_cast<std::uint64_t>(g.a.rows));
  }
}

TEST(RaceDetector, CheckedExecutorMatchesSerial) {
  const Csr<double> a = gen_grid_laplacian(12, 12, 1.5, 0.4, 3);
  const TriangularFactors<double> f = ilu0_factors(a);
  const LevelSchedule ls = level_schedule(f.l, Triangle::kLower);
  std::vector<double> b(static_cast<std::size_t>(a.rows));
  Rng rng(99);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  std::vector<double> x_serial(b.size()), x_checked(b.size());
  sptrsv_lower_serial(f, std::span<const double>(b),
                      std::span<double>(x_serial));
  const analysis::RaceReport report = analysis::sptrsv_lower_levels_checked(
      f, ls, std::span<const double>(b), std::span<double>(x_checked));
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(x_serial, x_checked);
}

TEST(RaceDetector, CheckedExecutorWiredIntoPreconditioner) {
  const Csr<double> a = good_matrix();
  IluPreconditioner<double> serial(ilu0_factors(a), TrsvExec::kSerial);
  IluPreconditioner<double> checked(ilu0_factors(a),
                                    TrsvExec::kLevelScheduledChecked);
  std::vector<double> r(static_cast<std::size_t>(a.rows), 1.0);
  std::vector<double> z1(r.size()), z2(r.size());
  serial.apply(std::span<const double>(r), std::span<double>(z1));
  checked.apply(std::span<const double>(r), std::span<double>(z2));
  EXPECT_EQ(z1, z2);
}

// --- sparsify-split analyses -------------------------------------------------

TEST(Lint, SparsifySplitLintsCleanAndDetectsTampering) {
  const Csr<double> a = generate_suite_matrix(5).a;
  SparsifySplit<double> split = sparsify_by_ratio(a, 10.0);
  EXPECT_TRUE(analysis::analyze_sparsify(a, split).ok());

  // Tamper: change one kept value — Â + S no longer partitions A.
  SparsifySplit<double> tampered = split;
  tampered.a_hat.values[0] *= 2.0;
  const Diagnostics d = analysis::analyze_sparsify(a, tampered);
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.has_rule(analysis::kRuleSparsifyPartition)) << d;
}

// --- satellite hardening ----------------------------------------------------

TEST(Hardening, CheckedDimsRejectsOverflow) {
  EXPECT_EQ(checked_dims(100, 200), 20000);
  EXPECT_EQ(checked_dims(10, 20, 30), 6000);
  EXPECT_THROW(checked_dims(100000, 100000), Error);
  EXPECT_THROW(checked_dims(2000, 2000, 2000), Error);
  EXPECT_THROW(checked_dims(-1, 5), Error);
}

TEST(Hardening, CheckedIndexCastRejectsOverflow) {
  EXPECT_EQ(checked_index_cast(123u), 123);
  EXPECT_THROW(checked_index_cast(kIndexMax + 1), Error);
}

TEST(Hardening, LevelScheduledSolveThrowsOnZeroDiagonal) {
  // The executors trust their factors, so a zero diagonal is rejected where
  // the factors are made: no level-scheduled solve can be handed one.
  const TriangularFactors<double> f = ilu0_factors(good_matrix());
  Csr<double> u = f.u;
  u.values[static_cast<std::size_t>(u.find(2, 2))] = 0.0;
  EXPECT_THROW(TriangularFactors<double>(f.l, u), Error);
}

// --- pipeline invariant verifier (verify.h) ---------------------------------
//
// Same pattern as the lint corruption tests: build a known-good setup, break
// exactly one invariant, assert the expected stable rule id fires.

TEST(Verify, CleanSetupVerifies) {
  const Csr<double> a = good_matrix();
  SpcgOptions opt;
  EXPECT_TRUE(analysis::verify_setup(a, spcg_setup(a, opt), opt).ok());

  SpcgOptions iluk_opt;
  iluk_opt.preconditioner = PrecondKind::kIluK;
  iluk_opt.fill_level = 2;
  EXPECT_TRUE(
      analysis::verify_setup(a, spcg_setup(a, iluk_opt), iluk_opt).ok());

  SpcgOptions baseline;
  baseline.sparsify_enabled = false;
  EXPECT_TRUE(
      analysis::verify_setup(a, spcg_setup(a, baseline), baseline).ok());
}

TEST(Verify, ZeroedIluDiagonalFires) {
  const Csr<double> a = good_matrix();
  SpcgOptions opt;
  SpcgSetup<double> s = spcg_setup(a, opt);
  s.factors.u.values[static_cast<std::size_t>(s.factors.u.rowptr[3])] = 0.0;
  const Diagnostics d = analysis::verify_setup(a, s, opt);
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.has_rule(analysis::kRuleTriDiagNonzero)) << d;
}

TEST(Verify, FactorPatternOutsideClosureFires) {
  // An ILU(2) factor verified against options claiming ILU(0): the fill
  // entries lie outside the level-0 closure (= A's own pattern).
  const Csr<double> a = good_matrix();
  SpcgOptions built;
  built.preconditioner = PrecondKind::kIluK;
  built.fill_level = 2;
  const SpcgSetup<double> s = spcg_setup(a, built);
  SpcgOptions claimed = built;
  claimed.preconditioner = PrecondKind::kIlu0;
  const Diagnostics d = analysis::verify_setup(a, s, claimed);
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.has_rule(analysis::kRuleVerifyClosure)) << d;
}

TEST(Verify, DropRatioOutOfBoundsFires) {
  const Csr<double> a = good_matrix();
  SpcgOptions opt;
  const SpcgSetup<double> s = spcg_setup(a, opt);
  analysis::VerifyOptions vopt;
  vopt.min_drop_ratio = 0.9;  // no sane sparsification drops 90% of A
  const Diagnostics d = analysis::verify_setup(a, s, opt, vopt);
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.has_rule(analysis::kRuleVerifyDropRatio)) << d;
}

TEST(Verify, SplitIsCheckedAsAMinusS) {
  const Csr<double> a = good_matrix();
  SpcgOptions opt;
  const SpcgSetup<double> clean = spcg_setup(a, opt);
  ASSERT_GT(clean.decision->chosen.s.nnz(), 0);

  // Â is rebuilt from A and S, so a stale Â carried by a setup is not read.
  SpcgSetup<double> stale = clean;
  stale.decision->chosen.a_hat = a;
  EXPECT_TRUE(analysis::verify_setup(a, stale, opt).ok());

  // A dropped value that differs from A's no longer partitions A.
  SpcgSetup<double> tampered = clean;
  tampered.decision->chosen.s.values[0] *= 2.0;
  const Diagnostics d = analysis::verify_setup(a, tampered, opt);
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.has_rule(analysis::kRuleSparsifyPartition)) << d;
}

TEST(Verify, PermutedLevelScheduleFires) {
  const Csr<double> a = good_matrix();
  SpcgOptions opt;
  SpcgSetup<double> s = spcg_setup(a, opt);
  // Duplicate a row inside the schedule: no longer a permutation.
  s.l_schedule.rows_by_level[0] = s.l_schedule.rows_by_level[1];
  const Diagnostics d = analysis::verify_setup(a, s, opt);
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.has_rule(analysis::kRuleSchedulePermutation)) << d;
}

TEST(Verify, InjectedNanCaughtByTaintScan) {
  std::vector<double> b(16, 1.0);
  EXPECT_TRUE(analysis::taint_scan(std::span<const double>(b), "b").ok());
  b[7] = std::numeric_limits<double>::quiet_NaN();
  const Diagnostics d = analysis::taint_scan(std::span<const double>(b), "b");
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.has_rule(analysis::kRuleTaintNonFinite)) << d;
  b[7] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(
      analysis::taint_scan(std::span<const double>(b), "b").ok());
}

TEST(Verify, SessionVerifyKnobArmsSetupAndTaintChecks) {
  const Csr<double> a = good_matrix();
  SolverSession<double> session(a, SpcgOptions{});
  EXPECT_FALSE(session.verify_enabled());
  session.enable_verify();
  EXPECT_TRUE(session.verify_enabled());

  std::vector<double> b(static_cast<std::size_t>(a.rows), 1.0);
  EXPECT_TRUE(session.solve(b).solve.converged());

  b[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(session.solve(b), Error);
}

// --- distributed-layer verification (satellite: race coverage for dist) ----

TEST(VerifyDist, CleanPartitionAndLocalSystemsVerify) {
  const Csr<double> a = good_matrix();
  for (const index_t parts : {1, 2, 4}) {
    const Partition p = make_partition(a, parts);
    EXPECT_TRUE(analysis::verify_partition(p).ok());
    const auto locals = build_local_systems(a, p);
    EXPECT_TRUE(analysis::verify_local_systems(a, p, locals).ok())
        << "parts = " << parts;
  }
}

TEST(VerifyDist, CorruptedPartitionFires) {
  const Csr<double> a = good_matrix();
  Partition p = make_partition(a, 2);
  p.part_of[0] = 1 - p.part_of[0];  // owned lists no longer agree
  const Diagnostics d = analysis::verify_partition(p);
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.has_rule(analysis::kRuleDistPartition)) << d;
}

TEST(VerifyDist, IncompleteHaloMapFires) {
  const Csr<double> a = good_matrix();
  const Partition p = make_partition(a, 2);
  auto locals = build_local_systems(a, p);
  ASSERT_FALSE(locals[0].halo.empty());
  // Drop one halo entry: an off-part coupling is no longer covered.
  locals[0].halo.pop_back();
  const Diagnostics d = analysis::verify_local_systems(a, p, locals);
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.has_rule(analysis::kRuleDistHaloComplete)) << d;
}

TEST(VerifyDist, CorruptedHaloExchangeScheduleFires) {
  // The dist-layer analogue of the schedule race fixtures: a halo-exchange
  // gather schedule that reads the wrong remote slots must be caught.
  const Csr<double> a = good_matrix();
  const Partition p = make_partition(a, 2);
  auto locals = build_local_systems(a, p);
  ASSERT_FALSE(locals[0].edges.empty());
  auto& edge = locals[0].edges[0];
  ASSERT_GE(edge.src_local.size(), 2u);
  std::swap(edge.src_local[0], edge.src_local[1]);  // slots read wrong owner rows
  const Diagnostics d = analysis::verify_local_systems(a, p, locals);
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.has_rule(analysis::kRuleDistHaloGather)) << d;

  // A slot gathered twice (another slot never) is a distinct corruption of
  // the same schedule and must fire too.
  auto locals2 = build_local_systems(a, p);
  auto& edge2 = locals2[0].edges[0];
  ASSERT_GE(edge2.dst_halo.size(), 2u);
  edge2.dst_halo[1] = edge2.dst_halo[0];
  const Diagnostics d2 = analysis::verify_local_systems(a, p, locals2);
  EXPECT_FALSE(d2.ok());
  EXPECT_TRUE(d2.has_rule(analysis::kRuleDistHaloGather)) << d2;
}

TEST(VerifyDist, CorruptedLocalSplitFires) {
  const Csr<double> a = good_matrix();
  const Partition p = make_partition(a, 2);
  auto locals = build_local_systems(a, p);
  locals[1].a_interior.values[0] += 1.0;  // no longer reproduces A
  const Diagnostics d = analysis::verify_local_systems(a, p, locals);
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.has_rule(analysis::kRuleDistLocalSplit)) << d;
}

TEST(VerifyDist, ReductionDeterminismMatchesCommContract) {
  const Csr<double> a = good_matrix();
  std::vector<double> c(static_cast<std::size_t>(a.rows));
  for (std::size_t i = 0; i < c.size(); ++i)
    c[i] = 1.0 / (3.0 * static_cast<double>(i) + 1.0);

  // One part: the fold *is* the serial sum — bitwise, so 0 ULPs suffice.
  const Partition p1 = make_partition(a, 1);
  EXPECT_TRUE(analysis::verify_reduction_determinism(
                  p1, std::span<const double>(c), /*max_ulps=*/0)
                  .ok());

  // Four parts: a different (deterministic) association; within a generous
  // ULP bound of the serial sum, but not bitwise equal for these values.
  const Partition p4 = make_partition(a, 4);
  EXPECT_TRUE(analysis::verify_reduction_determinism(
                  p4, std::span<const double>(c), /*max_ulps=*/4096)
                  .ok());
  const Diagnostics strict = analysis::verify_reduction_determinism(
      p4, std::span<const double>(c), /*max_ulps=*/0);
  EXPECT_FALSE(strict.ok());
  EXPECT_TRUE(strict.has_rule(analysis::kRuleDistReduce)) << strict;
}

TEST(VerifyDist, UlpDistanceBasics) {
  EXPECT_EQ(analysis::ulp_distance(1.0, 1.0), 0u);
  EXPECT_EQ(analysis::ulp_distance(0.0, -0.0), 0u);
  EXPECT_EQ(analysis::ulp_distance(
                1.0, std::nextafter(1.0, 2.0)),
            1u);
  EXPECT_EQ(analysis::ulp_distance(
                1.0, std::numeric_limits<double>::quiet_NaN()),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(analysis::ulp_distance(-1.0, 1.0),
            std::numeric_limits<std::uint64_t>::max());
}

// --- hot-path allocation auditor --------------------------------------------

TEST(AllocAudit, DisabledScopeObservesNothing) {
  analysis::AllocAudit::instance().set_enabled(false);
  const analysis::AllocAuditScope scope("test.disabled");
  std::vector<int> v(100, 1);
  EXPECT_EQ(scope.delta().allocs, 0u);
}

TEST(AllocAudit, DiagnosticsWithoutHooksAreInformational) {
  if (analysis::alloc_audit_compiled()) GTEST_SKIP() << "hooks compiled";
  const Diagnostics d = analysis::alloc_audit_diagnostics();
  EXPECT_TRUE(d.ok());
  EXPECT_TRUE(d.has_rule(analysis::kRuleAllocSteadyState)) << d;
}

TEST(AllocAudit, ScopeCountsExplicitAllocations) {
  if (!analysis::alloc_audit_compiled())
    GTEST_SKIP() << "built without SPCG_ALLOC_AUDIT";
  analysis::AllocAudit::instance().reset();
  analysis::AllocAudit::instance().set_enabled(true);
  {
    const analysis::AllocAuditScope scope("test.counts");
    const std::vector<int> v(1000, 7);
    EXPECT_GE(scope.delta().allocs, 1u);
    EXPECT_GE(scope.delta().bytes, 1000u * sizeof(int));
  }
  analysis::AllocAudit::instance().set_enabled(false);
  bool found = false;
  for (const auto& s : analysis::AllocAudit::instance().snapshot()) {
    if (s.phase != "test.counts") continue;
    found = true;
    EXPECT_EQ(s.scopes, 1u);
    EXPECT_GE(s.allocs, 1u);
    EXPECT_EQ(s.steady_violations, 0u);  // not a steady scope
  }
  EXPECT_TRUE(found);
  // The per-phase totals surface as telemetry counter samples too.
  std::vector<CounterSample> samples;
  analysis::append_alloc_counters(samples);
  bool sampled = false;
  for (const CounterSample& cs : samples)
    if (cs.name == "alloc.test.counts.allocs" && cs.value >= 1) sampled = true;
  EXPECT_TRUE(sampled);
}

TEST(AllocAudit, SteadyStateViolationBecomesDiagnostic) {
  if (!analysis::alloc_audit_compiled())
    GTEST_SKIP() << "built without SPCG_ALLOC_AUDIT";
  analysis::AllocAudit::instance().reset();
  analysis::AllocAudit::instance().set_enabled(true);
  {
    const analysis::AllocAuditScope scope("test.steady",
                                          /*steady_state=*/true);
    // Direct operator-new call: a paired `new`/`delete` expression may be
    // elided by the optimizer, a plain function call may not.
    void* p = ::operator new(64);
    ::operator delete(p);
  }
  analysis::AllocAudit::instance().set_enabled(false);
  EXPECT_GE(analysis::AllocAudit::instance().steady_violations(), 1u);
  const Diagnostics d = analysis::alloc_audit_diagnostics();
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.has_rule(analysis::kRuleAllocSteadyState)) << d;
  analysis::AllocAudit::instance().reset();
}

TEST(AllocAudit, SerialPcgSteadyStateIsAllocationFree) {
  if (!analysis::alloc_audit_compiled())
    GTEST_SKIP() << "built without SPCG_ALLOC_AUDIT";
  // The DESIGN.md §6.4 contract: with tracing and history off, an
  // iteration after warmup must not touch the heap — in the serial session,
  // in pipelined_pcg, and in both rank bodies (in-process ranks, whose
  // iterations run on their own threads).
  const Csr<double> a = good_matrix();
  const SolverSession<double> session(a, SpcgOptions{});
  std::vector<double> b(static_cast<std::size_t>(a.rows), 1.0);
  const SpcgSetup<double>& s = session.setup();
  const IluApplier<double> m(s.factors, s.l_schedule, s.u_schedule,
                             session.options().executor);
  std::vector<std::pair<std::string, std::function<bool()>>> inputs{
      {"session", [&] { return session.solve(b).solve.converged(); }},
      {"pipelined_pcg",
       [&] { return pipelined_pcg(a, b, m, PcgOptions{}).converged(); }}};
  for (const index_t parts : {1, 2}) {
    for (const DistBody body : {DistBody::kClassic, DistBody::kCommReduced}) {
      DistOptions dopt;
      dopt.parts = parts;
      dopt.body = body;
      inputs.emplace_back(
          std::string(to_string(body)) + " P=" + std::to_string(parts),
          [&a, &b, dopt] {
            const DistSetup<double> setup = dist_setup(a, dopt);
            return dist_pcg_solve(b, setup, dopt).solve.converged();
          });
    }
  }
  for (const auto& [name, solve] : inputs) {
    analysis::AllocAudit::instance().reset();
    analysis::AllocAudit::instance().set_enabled(true);
    const bool converged = solve();
    analysis::AllocAudit::instance().set_enabled(false);
    EXPECT_TRUE(converged) << name;
    bool found = false;
    for (const auto& st : analysis::AllocAudit::instance().snapshot()) {
      if (st.phase != "pcg.iteration") continue;
      found = true;
      EXPECT_GE(st.steady_scopes, 2u) << name;
      EXPECT_EQ(st.steady_allocs, 0u)
          << name << ": " << st.steady_violations
          << " steady iteration(s) allocated";
    }
    EXPECT_TRUE(found) << name;
  }
  analysis::AllocAudit::instance().reset();
}

}  // namespace
}  // namespace spcg
