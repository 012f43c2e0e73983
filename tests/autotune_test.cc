// Tests for the autotuning subsystem (src/autotune/): feature extraction,
// candidate enumeration, the cost-model prior, the persistent tuning
// database, the measured-trial tuner and its integration with the runtime
// service, plus the gpumodel calibration round trip.
//
// Fixture naming is load-bearing: Autotune* fixtures run under the TSan CI
// job (concurrent DB recording, the service worker pool). The wall-clock
// amortization acceptance test lives in TunerThroughput so it stays out of
// the sanitizer matrix, mirroring RuntimeThroughput.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "autotune/autotune.h"
#include "gen/generators.h"
#include "gpumodel/calibrate.h"
#include "precond/ilu.h"
#include "runtime/runtime.h"
#include "sparse/ops.h"
#include "sptrsv/sptrsv.h"
#include "support/stats.h"
#include "support/timer.h"

namespace spcg {
namespace {

SpcgOptions fast_options() {
  SpcgOptions opt;
  opt.pcg.tolerance = 1e-8;
  opt.pcg.max_iterations = 2000;
  return opt;
}

TunerOptions fast_tuner_options() {
  TunerOptions topt;
  topt.base = fast_options();
  topt.measure_top = 4;
  return topt;
}

/// Unique-enough temp path under /tmp; removed by the caller.
std::string temp_path(const char* tag) {
  static std::atomic<int> counter{0};
  std::ostringstream os;
  os << "/tmp/spcg_autotune_test_" << tag << "_" << ::getpid() << "_"
     << counter.fetch_add(1) << ".json";
  return os.str();
}

TuneRecord make_record(std::uint64_t pattern, std::uint64_t values,
                       double score) {
  TuneRecord rec;
  rec.fingerprint.pattern_hash = pattern;
  rec.fingerprint.values_hash = values;
  rec.fingerprint.rows = 100;
  rec.fingerprint.nnz = 480;
  rec.features.rows = 100.0;
  rec.features.nnz = 480.0;
  rec.features.avg_nnz_per_row = 4.8;
  rec.features.max_nnz_per_row = 5.0;
  rec.features.avg_bandwidth = 3.5;
  rec.features.max_bandwidth = 10.0;
  rec.features.diag_dominance_min = 1.0;
  rec.features.diag_dominance_avg = 1.2;
  rec.features.wavefront_levels = 19.0;
  rec.features.avg_level_width = 5.26;
  rec.features.max_level_width = 10.0;
  rec.config.sparsify = TuneSparsify::kFixed;
  rec.config.ratio_percent = 5.0;
  rec.config.precond = TunePrecond::kIluK;
  rec.config.fill_level = 2;
  rec.config.executor = TrsvExec::kLevelScheduled;
  rec.score = score;
  rec.per_iteration_seconds = score / 100.0;
  rec.iterations = 100;
  rec.trials = 4;
  return rec;
}

// ------------------------------------------------------------------ features

TEST(AutotuneFeatures, DeterministicAndStructurallySensible) {
  const Csr<double> a = gen_poisson2d(16, 16);
  const MatrixFeatures f = extract_features(a);
  EXPECT_EQ(f, extract_features(a));  // same bits -> same features

  EXPECT_DOUBLE_EQ(f.rows, 256.0);
  EXPECT_DOUBLE_EQ(f.nnz, static_cast<double>(a.nnz()));
  EXPECT_NEAR(f.avg_nnz_per_row, f.nnz / f.rows, 1e-12);
  EXPECT_EQ(f.max_nnz_per_row, 5.0);   // interior 5-point stencil row
  EXPECT_EQ(f.max_bandwidth, 16.0);    // the +/- nx neighbor
  // The 5-point Laplacian is weakly diagonally dominant everywhere.
  EXPECT_GE(f.diag_dominance_min, 1.0);
  EXPECT_GE(f.diag_dominance_avg, f.diag_dominance_min);
  // Lower-triangle wavefronts of the grid: nx + ny - 1 anti-diagonals.
  EXPECT_DOUBLE_EQ(f.wavefront_levels, 31.0);
  EXPECT_GT(f.max_level_width, 1.0);
  EXPECT_NEAR(f.avg_level_width, f.rows / f.wavefront_levels, 1e-9);
}

TEST(AutotuneFeatures, DistanceIsZeroOnSelfAndGrowsWithStructuralGap) {
  const MatrixFeatures f16 = extract_features(gen_poisson2d(16, 16));
  const MatrixFeatures f18 = extract_features(gen_poisson2d(18, 18));
  const MatrixFeatures f48 = extract_features(gen_poisson2d(48, 48));

  EXPECT_DOUBLE_EQ(feature_distance(f16, f16), 0.0);
  const double near = feature_distance(f16, f18);
  const double far = feature_distance(f16, f48);
  EXPECT_GT(near, 0.0);
  EXPECT_LT(near, far);
  // Symmetry.
  EXPECT_DOUBLE_EQ(near, feature_distance(f18, f16));
}

// ------------------------------------------------------------------- configs

TEST(AutotuneConfig, ConfigIdSpellingAndSessionCompatibility) {
  TuneConfig c;
  c.sparsify = TuneSparsify::kFixed;
  c.ratio_percent = 5.0;
  c.precond = TunePrecond::kIluK;
  c.fill_level = 2;
  c.executor = TrsvExec::kLevelScheduled;
  EXPECT_EQ(config_id(c), "fixed5/iluk2/level");
  EXPECT_TRUE(session_compatible(c));

  c.sparsify = TuneSparsify::kOff;
  c.precond = TunePrecond::kSai;
  c.executor = TrsvExec::kSerial;
  EXPECT_EQ(config_id(c), "off/sai/serial");
  EXPECT_FALSE(session_compatible(c));

  c.sparsify = TuneSparsify::kAdaptive;
  c.precond = TunePrecond::kIlu0;
  EXPECT_EQ(config_id(c), "adaptive/ilu0/serial");
  EXPECT_TRUE(session_compatible(c));
}

TEST(AutotuneConfig, ToSpcgOptionsProjectsThePolicy) {
  SpcgOptions base = fast_options();
  base.pcg.tolerance = 1e-9;

  TuneConfig fixed;
  fixed.sparsify = TuneSparsify::kFixed;
  fixed.ratio_percent = 5.0;
  fixed.precond = TunePrecond::kIluK;
  fixed.fill_level = 3;
  fixed.executor = TrsvExec::kLevelScheduled;
  const SpcgOptions opt = to_spcg_options(fixed, base);
  EXPECT_TRUE(opt.sparsify_enabled);
  ASSERT_EQ(opt.sparsify.ratios.size(), 1u);
  EXPECT_DOUBLE_EQ(opt.sparsify.ratios[0], 5.0);
  EXPECT_DOUBLE_EQ(opt.sparsify.omega_percent, 0.0);  // Algorithm 2 pinned
  EXPECT_EQ(opt.preconditioner, PrecondKind::kIluK);
  EXPECT_EQ(opt.fill_level, 3);
  EXPECT_EQ(opt.executor, TrsvExec::kLevelScheduled);
  EXPECT_DOUBLE_EQ(opt.pcg.tolerance, 1e-9);  // solve knobs preserved

  TuneConfig off;
  off.sparsify = TuneSparsify::kOff;
  off.precond = TunePrecond::kIlu0;
  EXPECT_FALSE(to_spcg_options(off, base).sparsify_enabled);
}

TEST(AutotuneConfig, EnumerateCandidatesIsDeterministicAndDuplicateFree) {
  // Default sparsify and fill axes ({off,10,5,1,adaptive} x {0..3}), with
  // both executors named.
  TuneSpace space;
  space.executors = {TrsvExec::kSerial, TrsvExec::kLevelScheduled};
  const std::vector<TuneConfig> candidates = enumerate_candidates(space);
  // 5 sparsify policies x 4 fills x 2 executors + ILUT x 2 + SAI + BJ.
  EXPECT_EQ(candidates.size(), 5u * 4u * 2u + 4u);
  // The default space enumerates the serial executor only.
  EXPECT_EQ(enumerate_candidates(TuneSpace{}).size(), 5u * 4u + 3u);
  EXPECT_EQ(candidates, enumerate_candidates(space));
  for (std::size_t i = 0; i < candidates.size(); ++i)
    for (std::size_t j = i + 1; j < candidates.size(); ++j)
      EXPECT_FALSE(candidates[i] == candidates[j])
          << config_id(candidates[i]) << " appears twice";

  TuneSpace narrow;
  narrow.fixed_ratios = {};
  narrow.adaptive = false;
  narrow.alternatives = false;
  narrow.fill_levels = {0, 1};
  narrow.executors = {TrsvExec::kSerial};
  EXPECT_EQ(enumerate_candidates(narrow).size(), 2u);
}

// --------------------------------------------------------------------- prior

TEST(AutotunePrior, RanksAllCandidatesAscendingAndDeterministically) {
  const Csr<double> a = gen_poisson2d(16, 16);
  const std::vector<TuneConfig> candidates = enumerate_candidates(TuneSpace{});
  const std::vector<CandidatePrior> ranked = rank_candidates(a, candidates);
  ASSERT_EQ(ranked.size(), candidates.size());
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_GT(ranked[i].per_iteration_seconds, 0.0);
    EXPECT_GT(ranked[i].predicted_iterations, 0.0);
    EXPECT_TRUE(std::isfinite(ranked[i].score));
    if (i > 0) {
      EXPECT_GE(ranked[i].score, ranked[i - 1].score);
    }
  }
  // Deterministic: same input, same order.
  const std::vector<CandidatePrior> again = rank_candidates(a, candidates);
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_TRUE(ranked[i].config == again[i].config);
    EXPECT_DOUBLE_EQ(ranked[i].score, again[i].score);
  }
}

// ------------------------------------------------------------------- tune DB

TEST(AutotuneDb, RecordLookupAndUpsertKeepTheBetterScore) {
  TuneDb db;
  EXPECT_EQ(db.size(), 0u);
  db.record(make_record(0x1111, 0xaaaa, 2.0));
  db.record(make_record(0x2222, 0xbbbb, 5.0));
  EXPECT_EQ(db.size(), 2u);

  const auto hit = db.find_exact(make_record(0x1111, 0xaaaa, 0.0).fingerprint);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->score, 2.0);
  EXPECT_EQ(config_id(hit->config), "fixed5/iluk2/level");

  // Upsert: a worse re-tune of the same matrix is ignored, a better one wins.
  TuneRecord worse = make_record(0x1111, 0xaaaa, 3.0);
  worse.config.fill_level = 1;
  db.record(worse);
  EXPECT_DOUBLE_EQ(db.find_exact(worse.fingerprint)->score, 2.0);
  TuneRecord better = make_record(0x1111, 0xaaaa, 1.0);
  better.config.fill_level = 1;
  db.record(better);
  EXPECT_DOUBLE_EQ(db.find_exact(better.fingerprint)->score, 1.0);
  EXPECT_EQ(db.find_exact(better.fingerprint)->config.fill_level, 1);
  EXPECT_EQ(db.size(), 2u);

  // Nearest neighbor: identical features at distance 0, and the exclusion
  // keeps a matrix from warm-starting off itself.
  const TuneRecord probe = make_record(0x3333, 0xcccc, 9.0);
  const auto self = db.find_nearest(probe.features, 1.0);
  ASSERT_TRUE(self.has_value());
  EXPECT_DOUBLE_EQ(self->distance, 0.0);
  db.record(probe);
  const auto excluded =
      db.find_nearest(probe.features, 1.0, &probe.fingerprint);
  ASSERT_TRUE(excluded.has_value());
  EXPECT_FALSE(excluded->record.fingerprint == probe.fingerprint);
  EXPECT_FALSE(db.find_nearest(probe.features, -1.0).has_value());
}

TEST(AutotuneDb, JsonAndFileRoundTripPreserveEveryField) {
  TuneDb db;
  db.record(make_record(0xdeadbeefcafef00d, 0x0123456789abcdef, 2.5));
  TuneRecord alt = make_record(0x42, 0x43, 7.25);
  alt.config.sparsify = TuneSparsify::kOff;
  alt.config.precond = TunePrecond::kBlockJacobi;
  alt.config.fill_level = 0;
  alt.config.executor = TrsvExec::kSerial;
  alt.iterations = 321;
  alt.trials = 6;
  db.record(alt);

  TuneDb parsed;
  ASSERT_EQ(parsed.from_json(db.to_json()), TuneDbLoad::kOk);
  ASSERT_EQ(parsed.size(), 2u);
  const std::vector<TuneRecord> a = db.snapshot();
  const std::vector<TuneRecord> b = parsed.snapshot();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].fingerprint == b[i].fingerprint);
    EXPECT_TRUE(a[i].features == b[i].features);
    EXPECT_TRUE(a[i].config == b[i].config);
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
    EXPECT_DOUBLE_EQ(a[i].per_iteration_seconds, b[i].per_iteration_seconds);
    EXPECT_EQ(a[i].iterations, b[i].iterations);
    EXPECT_EQ(a[i].trials, b[i].trials);
  }

  const std::string path = temp_path("roundtrip");
  ASSERT_TRUE(db.save_file(path));
  TuneDb loaded;
  EXPECT_EQ(loaded.load_file(path), TuneDbLoad::kOk);
  EXPECT_EQ(loaded.size(), 2u);
  std::remove(path.c_str());
}

TEST(AutotuneDb, LoadDistinguishesMissingMismatchedAndCorruptFiles) {
  TuneDb db;
  db.record(make_record(0x7, 0x8, 1.0));

  EXPECT_EQ(db.load_file("/tmp/spcg_autotune_no_such_file.json"),
            TuneDbLoad::kMissing);
  EXPECT_EQ(db.size(), 1u);  // failed loads never clobber the records

  // A future schema version is a mismatch, not corruption.
  std::string doc = db.to_json();
  const std::string version =
      "\"version\": " + std::to_string(TuneDb::kSchemaVersion);
  const std::size_t at = doc.find(version);
  ASSERT_NE(at, std::string::npos);
  doc.replace(at, version.size(), "\"version\": 99");
  EXPECT_EQ(db.from_json(doc), TuneDbLoad::kVersionMismatch);
  EXPECT_EQ(db.size(), 1u);

  EXPECT_EQ(db.from_json("this is not json"), TuneDbLoad::kCorrupt);
  EXPECT_EQ(db.from_json("{\"schema\": \"other\", " + version + "}"),
            TuneDbLoad::kCorrupt);
  EXPECT_EQ(db.from_json("{\"schema\": \"spcg-tune-db\", " + version +
                         ", \"records\": [{\"bogus\": true}]}"),
            TuneDbLoad::kCorrupt);
  // 10^6 nested arrays: past the reader's nesting bound, not a stack
  // overflow.
  EXPECT_EQ(db.from_json(std::string(1'000'000, '[') +
                         std::string(1'000'000, ']')),
            TuneDbLoad::kCorrupt);
  EXPECT_EQ(db.size(), 1u);

  const std::string path = temp_path("corrupt");
  {
    std::ofstream out(path);
    out << "{\"schema\": \"spcg-tune-db\", " << version << ", \"records\": ";
    // Truncated mid-document.
  }
  EXPECT_EQ(db.load_file(path), TuneDbLoad::kCorrupt);
  EXPECT_EQ(db.size(), 1u);
  std::remove(path.c_str());
}

TEST(AutotuneDb, ConcurrentRecordingIsSafe) {
  TuneDb db;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 64;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Half the writes race on one shared fingerprint (the upsert path),
        // half insert distinct records; reads interleave throughout.
        if (i % 2 == 0) {
          db.record(make_record(0xffff, 0xffff,
                                1.0 + static_cast<double>(t * kPerThread + i)));
        } else {
          db.record(make_record(
              static_cast<std::uint64_t>(t) << 32 |
                  static_cast<std::uint64_t>(i),
              0x1, 1.0));
        }
        (void)db.find_exact(make_record(0xffff, 0xffff, 0.0).fingerprint);
        (void)db.size();
      }
    });
  }
  for (auto& t : threads) t.join();
  // One shared record + kThreads * kPerThread / 2 distinct ones.
  EXPECT_EQ(db.size(), 1u + kThreads * kPerThread / 2);
  // The racing upsert kept the smallest score ever offered.
  const auto shared = db.find_exact(make_record(0xffff, 0xffff, 0.0).fingerprint);
  ASSERT_TRUE(shared.has_value());
  EXPECT_DOUBLE_EQ(shared->score, 1.0);  // t=0, i=0
}

// --------------------------------------------------------------------- tuner

TEST(AutotuneTuner, FindsAConvergingConfigAndRecordsTheWinner) {
  const Csr<double> a = gen_poisson2d(20, 20);
  auto db = std::make_shared<TuneDb>();
  TelemetryRegistry telemetry;
  const Tuner<double> tuner(fast_tuner_options(), db, nullptr, &telemetry);

  const TuneOutcome out = tuner.tune(a);
  EXPECT_FALSE(out.db_hit);
  EXPECT_GT(out.candidates, 0u);
  EXPECT_GT(out.trials_measured, 0u);
  EXPECT_LE(out.trials_measured, fast_tuner_options().measure_top + 1);
  EXPECT_EQ(out.pruned, out.candidates - out.trials_measured);
  EXPECT_GT(out.iterations, 0);
  EXPECT_GT(out.score, 0.0);
  // The winner itself must have converged in its trial.
  bool winner_seen = false;
  for (const TuneTrial& t : out.trials) {
    if (t.config == out.config) {
      winner_seen = true;
      EXPECT_TRUE(t.converged);
      EXPECT_FALSE(t.aborted);
    }
    // Early-abort bookkeeping is consistent.
    if (t.aborted) {
      EXPECT_FALSE(t.converged);
    }
  }
  EXPECT_TRUE(winner_seen);
  EXPECT_EQ(db->size(), 1u);

  // Re-tuning the same matrix answers from the DB with zero trials.
  const TuneOutcome warm = tuner.tune(a);
  EXPECT_TRUE(warm.db_hit);
  EXPECT_EQ(warm.trials_measured, 0u);
  EXPECT_EQ(config_id(warm.config), config_id(out.config));
  EXPECT_EQ(telemetry.counter("autotune.db_hits").value(), 1u);
}

TEST(AutotuneTuner, SecondProcessReachesTheSameConfigWithZeroTrials) {
  const Csr<double> a = gen_poisson2d(20, 20);
  const std::string path = temp_path("second_process");

  // "Process" 1 tunes and persists its database.
  std::string first_config;
  {
    auto db = std::make_shared<TuneDb>();
    const Tuner<double> tuner(fast_tuner_options(), db);
    const TuneOutcome out = tuner.tune(a);
    EXPECT_FALSE(out.db_hit);
    first_config = config_id(out.config);
    ASSERT_TRUE(db->save_file(path));
  }

  // "Process" 2 starts cold, points at the same file, and must reach the
  // same configuration as a pure DB hit — zero measured trials.
  {
    auto db = std::make_shared<TuneDb>();
    ASSERT_EQ(db->load_file(path), TuneDbLoad::kOk);
    const Tuner<double> tuner(fast_tuner_options(), db);
    const TuneOutcome out = tuner.tune(a);
    EXPECT_TRUE(out.db_hit);
    EXPECT_EQ(out.trials_measured, 0u);
    EXPECT_EQ(config_id(out.config), first_config);
  }
  std::remove(path.c_str());
}

TEST(AutotuneTuner, EarlyAbortNeverChangesTheWinner) {
  // The abort cap is ceil(incumbent_score / per_iteration_seconds): a capped
  // trial already scores >= the incumbent, so aborting it cannot discard a
  // config full measurement would have selected. Check the winner matches a
  // run with early aborts disabled, on matrices with different structure.
  const std::array<Csr<double>, 2> matrices = {
      gen_poisson2d(18, 18), gen_grid_laplacian(16, 16, 1.5, 0.4, 3)};
  for (const Csr<double>& a : matrices) {
    TunerOptions with = fast_tuner_options();
    with.measure_top = 6;
    with.early_abort = true;
    TunerOptions without = with;
    without.early_abort = false;

    const Tuner<double> tuner_abort(with, std::make_shared<TuneDb>());
    const Tuner<double> tuner_full(without, std::make_shared<TuneDb>());
    const TuneOutcome aborted = tuner_abort.tune(a);
    const TuneOutcome full = tuner_full.tune(a);

    EXPECT_EQ(config_id(aborted.config), config_id(full.config));
    EXPECT_EQ(aborted.iterations, full.iterations);
    EXPECT_EQ(full.early_aborts, 0u);
    // Any trial the abort path cut short scored no better than the winner.
    for (const TuneTrial& t : aborted.trials) {
      if (t.aborted) {
        EXPECT_GE(t.score, aborted.score);
      }
    }
  }
}

TEST(AutotuneTuner, NearbyMatrixWarmStartsFromTheNeighborRecord) {
  const Csr<double> a = gen_poisson2d(20, 20);
  const Csr<double> close = gen_poisson2d(22, 22);
  ASSERT_LT(feature_distance(extract_features(a), extract_features(close)),
            fast_tuner_options().neighbor_max_distance);

  auto db = std::make_shared<TuneDb>();
  const Tuner<double> tuner(fast_tuner_options(), db);
  (void)tuner.tune(a);
  ASSERT_EQ(db->size(), 1u);

  const TuneOutcome out = tuner.tune(close);
  EXPECT_FALSE(out.db_hit);  // different fingerprint
  EXPECT_TRUE(out.neighbor_seeded);
  EXPECT_GT(out.neighbor_distance, 0.0);
  // The neighbor's config was measured first (promoted to the shortlist
  // front), so it appears among the trials.
  ASSERT_FALSE(out.trials.empty());
  const TuneRecord seed = db->snapshot().front();
  EXPECT_TRUE(out.trials.front().config == seed.config);
  EXPECT_EQ(db->size(), 2u);
}

// ----------------------------------------------------------- fill-level tuner

TEST(AutotuneFillLevel, TrialsAreSurfacedAndWrapperAgrees) {
  const Csr<double> a = gen_poisson2d(16, 16);
  const std::vector<double> b = make_rhs(a, 11);
  const std::vector<index_t> candidates = {0, 1, 2, 3};

  TelemetryRegistry telemetry;
  const KSelection<double> tuned =
      tune_fill_level(a, b, fast_options(), candidates, nullptr, &telemetry);
  ASSERT_EQ(tuned.trials.size(), candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const KCandidateTrial& t = tuned.trials[i];
    EXPECT_EQ(t.k, candidates[i]);
    EXPECT_GT(t.iterations, 0);
    EXPECT_GE(t.setup_seconds, 0.0);
    EXPECT_GE(t.solve_seconds, 0.0);
    EXPECT_TRUE(t.converged);
  }
  EXPECT_EQ(telemetry.counter("autotune.fill_level.probes").value(),
            candidates.size());

  // The winner is consistent with its own trial data: no converged trial
  // has strictly fewer iterations.
  const auto winner = std::find_if(
      tuned.trials.begin(), tuned.trials.end(),
      [&](const KCandidateTrial& t) { return t.k == tuned.k; });
  ASSERT_NE(winner, tuned.trials.end());
  for (const KCandidateTrial& t : tuned.trials)
    EXPECT_GE(t.iterations, winner->iterations);
}

// ------------------------------------------------------------------- service

TEST(AutotuneService, AutotunedRequestsShareTheTuningDb) {
  auto a = std::make_shared<const Csr<double>>(gen_poisson2d(16, 16));
  SolveService<double>::Options opt;
  opt.workers = 1;  // sequential processing: later requests see the DB entry
  opt.cache_capacity = 8;
  opt.tune_db = std::make_shared<TuneDb>();
  opt.tuner = fast_tuner_options();
  SolveService<double> service(opt);

  std::vector<SolveService<double>::Ticket> tickets;
  for (int i = 0; i < 3; ++i) {
    ServiceRequest<double> req;
    req.a = a;
    req.b = make_rhs(*a, static_cast<std::uint64_t>(i) + 1);
    req.options = fast_options();
    req.autotune = true;
    tickets.push_back(service.submit(std::move(req)));
  }
  std::string first_config;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const ServiceReply<double> reply = tickets[i].reply.get();
    ASSERT_EQ(reply.status, RequestStatus::kOk);
    EXPECT_TRUE(reply.solve.converged());
    EXPECT_TRUE(reply.autotuned);
    ASSERT_FALSE(reply.tuned_config.empty());
    if (i == 0) {
      first_config = reply.tuned_config;
    } else {
      EXPECT_TRUE(reply.tune_db_hit);
      EXPECT_EQ(reply.tuned_config, first_config);
    }
  }
  EXPECT_EQ(service.tune_db()->size(), 1u);
  std::uint64_t autotuned_count = 0;
  for (const CounterSample& s : service.telemetry_snapshot())
    if (s.name == "service.autotuned") autotuned_count = s.value;
  EXPECT_EQ(autotuned_count, 3u);
}

// --------------------------------------------------------------- calibration

TEST(AutotuneCalibration, RecoversCoefficientsFromSyntheticMeasurements) {
  // Noise-free round trip: synthesize timings from a known spec's additive
  // surrogate, calibrate a detuned copy against them, and the fit must
  // reproduce the truth's predictions.
  const DeviceSpec truth = device_host_cpu();
  const Csr<double> a = gen_poisson2d(24, 24);
  std::vector<Measurement> meas = host_measurements(a, 1);
  ASSERT_GE(meas.size(), 5u);
  for (Measurement& m : meas) m.seconds = calibrated_prediction(truth, m);

  DeviceSpec detuned = truth;
  detuned.dram_gbps *= 4.0;      // pretend memory is 4x faster...
  detuned.peak_gflops *= 0.25;   // ...and compute 4x slower
  const CalibrationResult cal = calibrate(detuned, meas);
  ASSERT_EQ(cal.measurements, meas.size());
  EXPECT_LT(cal.mean_abs_rel_error, 0.05);
  for (const Measurement& m : meas) {
    EXPECT_NEAR(calibrated_prediction(cal.spec, m), m.seconds,
                0.05 * m.seconds + 1e-12);
  }
}

TEST(AutotuneCalibration, TooFewMeasurementsLeaveTheSpecUntouched) {
  const DeviceSpec spec = device_host_cpu();
  std::vector<Measurement> meas(3);
  const CalibrationResult cal = calibrate(spec, meas);
  EXPECT_EQ(cal.measurements, 0u);
  EXPECT_DOUBLE_EQ(cal.spec.dram_gbps, spec.dram_gbps);
  EXPECT_DOUBLE_EQ(cal.spec.peak_gflops, spec.peak_gflops);
}

TEST(AutotuneCalibration, CalibratedModelRanksConfigsLikeMeasurements) {
  // The satellite's round trip: fit the host spec from measured
  // micro-kernels on the Poisson generator, then check the calibrated cost
  // model ranks ILU(0)/ILU(1)/ILU(3) per-iteration costs in the same order
  // wall-clock measurement does.
  const Csr<double> a = gen_poisson2d(64, 64);
  const std::vector<Measurement> meas = host_measurements(a, 9);
  const CalibrationResult cal = calibrate(device_host_cpu(), meas);
  ASSERT_EQ(cal.measurements, meas.size());
  EXPECT_GE(cal.mean_abs_rel_error, 0.0);
  EXPECT_TRUE(std::isfinite(cal.mean_abs_rel_error));

  const CostModel model(cal.spec, 8);
  const std::vector<double> x(static_cast<std::size_t>(a.rows), 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.rows), 0.0);
  std::vector<double> measured, predicted;
  for (const index_t k : {0, 1, 3}) {
    const TriangularFactors<double> factors =
        k == 0 ? ilu0_factors(a) : iluk_factors(a, k);
    PcgIterationShape shape;
    shape.n = a.rows;
    shape.a_nnz = a.nnz();
    shape.lower = trisolve_structure(factors.l, Triangle::kLower);
    shape.upper = trisolve_structure(factors.u, Triangle::kUpper);
    predicted.push_back(model.pcg_iteration(shape).seconds);

    // Measured proxy for one iteration's kernel work: the two triangular
    // solves plus the SpMV, median of repeats.
    std::vector<double> times;
    for (int r = 0; r < 9; ++r) {
      WallTimer timer;
      spmv(a, std::span<const double>(x), std::span<double>(y));
      sptrsv_lower_serial(factors, std::span<const double>(x),
                          std::span<double>(y));
      sptrsv_upper_serial(factors, std::span<const double>(x),
                          std::span<double>(y));
      times.push_back(timer.seconds());
    }
    std::sort(times.begin(), times.end());
    measured.push_back(times[times.size() / 2]);
  }
  EXPECT_GE(spearman(std::span<const double>(measured),
                     std::span<const double>(predicted)),
            0.9)
      << "measured: " << measured[0] << " " << measured[1] << " "
      << measured[2] << "  predicted: " << predicted[0] << " " << predicted[1]
      << " " << predicted[2];
}

// ------------------------------------------------- amortization (wall clock)

// Acceptance: over >= 10 repeat solves, the autotuned path — tuning cost
// included, repeats answered by DB hits and the shared setup cache — is no
// slower end-to-end than the best fixed configuration, where "best fixed"
// honestly includes the cost of discovering which fixed config is best (a
// user without the tuner must try them all once). Out of the TSan matrix:
// fixture name deliberately avoids the Autotune prefix.
TEST(TunerThroughput, AmortizedTunedSolvesNoSlowerThanBestFixed) {
  const Csr<double> a = gen_poisson2d(40, 40);
  const std::vector<double> b = make_rhs(a, 7);
  constexpr int kRepeats = 10;

  // Fixed side: try every fixed policy (the paper's ratios + baseline),
  // each paying its full pipeline per repeat; keep the fastest total.
  double try_all_seconds = 0.0;
  double best_fixed_seconds = -1.0;
  std::string best_fixed_label;
  for (const auto& [label, ratio] :
       std::vector<std::pair<std::string, double>>{
           {"off", -1.0}, {"fixed10", 10.0}, {"fixed5", 5.0}, {"fixed1", 1.0}}) {
    SpcgOptions opt = fast_options();
    if (ratio < 0.0) {
      opt.sparsify_enabled = false;
    } else {
      opt.sparsify_enabled = true;
      opt.sparsify.ratios = {ratio};
      opt.sparsify.omega_percent = 0.0;
    }
    WallTimer timer;
    for (int r = 0; r < kRepeats; ++r) {
      const SpcgResult<double> res = spcg_solve(a, b, opt);
      ASSERT_TRUE(res.solve.converged()) << label;
    }
    const double total = timer.seconds();
    try_all_seconds += total;
    if (best_fixed_seconds < 0.0 || total < best_fixed_seconds) {
      best_fixed_seconds = total;
      best_fixed_label = label;
    }
  }

  // Autotuned side: tune once (measured trials and all), then answer the
  // repeat workload through the tuned config + shared cache; a fresh tune
  // per repeat is a pure DB hit.
  const Tuner<double> tuner(fast_tuner_options(), std::make_shared<TuneDb>());
  WallTimer timer;
  TuneOutcome outcome = tuner.tune(a);
  for (int r = 0; r < kRepeats; ++r) {
    const TuneOutcome again = tuner.tune(a);
    ASSERT_TRUE(again.db_hit);
    ASSERT_EQ(again.trials_measured, 0u);
    const TunedSolve<double> run = solve_with_config(
        a, std::span<const double>(b), again.config, tuner.options(),
        tuner.cache());
    ASSERT_TRUE(run.solve.converged());
  }
  const double tuned_seconds = timer.seconds();

  EXPECT_LE(tuned_seconds, try_all_seconds)
      << "autotuned " << tuned_seconds << " s vs try-all fixed "
      << try_all_seconds << " s (best fixed " << best_fixed_label << " "
      << best_fixed_seconds << " s, winner " << config_id(outcome.config)
      << ", " << outcome.trials_measured << " trials)";
}

}  // namespace
}  // namespace spcg
