// Tests for the solver runtime layer (src/runtime/): fingerprints, the
// shared LRU setup cache and its resolver, setup-once/solve-many sessions
// with batched right-hand sides, and the async solve service (deadlines,
// cancellation, breakdown fallback, same-pattern refresh).
//
// Fixture naming is load-bearing: RuntimeFingerprint/RuntimeCache/
// RuntimeSession/RuntimeService run under the TSan CI job (they exercise the
// worker pool and cache under real concurrency); RuntimeThroughput holds the
// wall-clock acceptance test and stays out of the sanitizer matrix.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autotune/fill_level.h"
#include "core/spcg.h"
#include "gen/generators.h"
#include "runtime/runtime.h"
#include "support/timer.h"
#include "support/trace.h"

namespace spcg {
namespace {

SpcgOptions fast_options() {
  SpcgOptions opt;
  opt.pcg.tolerance = 1e-10;
  return opt;
}

template <class V>
bool same_bits(const std::vector<V>& x, const std::vector<V>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(V)) == 0);
}

// ---------------------------------------------------------------- fingerprint

TEST(RuntimeFingerprint, DeterministicAndSensitive) {
  const Csr<double> a = gen_poisson2d(12, 12);
  const MatrixFingerprint fa = fingerprint(a);
  EXPECT_EQ(fa, fingerprint(a));  // same bits -> same fingerprint
  EXPECT_EQ(fa.rows, a.rows);
  EXPECT_EQ(fa.nnz, a.nnz());

  // A value change flips values_hash but leaves the pattern hash alone.
  Csr<double> v = a;
  v.values[3] += 1e-9;
  const MatrixFingerprint fv = fingerprint(v);
  EXPECT_EQ(fv.pattern_hash, fa.pattern_hash);
  EXPECT_NE(fv.values_hash, fa.values_hash);
  EXPECT_FALSE(fv == fa);

  // A different pattern changes pattern_hash.
  const MatrixFingerprint fb = fingerprint(gen_poisson2d(12, 13));
  EXPECT_NE(fb.pattern_hash, fa.pattern_hash);
}

TEST(RuntimeFingerprint, HashIsXxh64) {
  // Published XXH64 vectors (seed 0): the empty input, the short-input path
  // and the four-lane stripe path with a tail.
  auto h = [](const char* text) {
    return detail::hash_bytes(text, std::strlen(text));
  };
  EXPECT_EQ(h(""), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(h("a"), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(h("abc"), 0x44BC2CF5AD770999ull);
  EXPECT_EQ(h("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ull);
}

TEST(RuntimeFingerprint, EveryBitReachesTheHash) {
  // 32-byte stripes, then an 8-byte word, a 4-byte word and single bytes:
  // flipping any bit anywhere changes the hash.
  std::vector<unsigned char> bytes(77);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<unsigned char>(i * 37 + 11);
  const std::uint64_t base = detail::hash_bytes(bytes.data(), bytes.size());
  for (std::size_t i = 0; i < bytes.size(); ++i)
    for (int bit = 0; bit < 8; ++bit) {
      bytes[i] ^= static_cast<unsigned char>(1u << bit);
      EXPECT_NE(detail::hash_bytes(bytes.data(), bytes.size()), base)
          << "byte " << i << " bit " << bit;
      bytes[i] ^= static_cast<unsigned char>(1u << bit);
    }
  // The length is mixed in: a trailing zero byte is not invisible.
  EXPECT_NE(detail::hash_bytes(bytes.data(), bytes.size() - 1),
            detail::hash_bytes(bytes.data(), bytes.size() - 2));

  // Each CSR array: a single-bit flip in the first entry and in every bit of
  // the last one (inside a tail shorter than a stripe for all three arrays
  // of this shape) moves exactly the hash that array feeds.
  const Csr<double> a = gen_poisson2d(12, 13);
  ASSERT_NE(a.rowptr.size() * sizeof(index_t) % 32, 0u);
  ASSERT_NE(a.colind.size() * sizeof(index_t) % 32, 0u);
  ASSERT_NE(a.values.size() * sizeof(double) % 32, 0u);
  const MatrixFingerprint fa = fingerprint(a);
  EXPECT_EQ(fingerprint(Csr<double>(a)), fa);  // equal matrices, equal hashes
  auto flip = [](auto& array, std::size_t pos, int bit) {
    auto* raw = reinterpret_cast<unsigned char*>(array.data() + pos);
    raw[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  };
  auto check = [&](auto member, bool pattern) {
    Csr<double> b = a;
    auto& array = b.*member;
    const int bits = static_cast<int>(sizeof(array[0]) * 8);
    for (const std::size_t pos : {std::size_t{0}, array.size() - 1})
      for (int bit = 0; bit < bits; ++bit) {
        flip(array, pos, bit);
        const MatrixFingerprint fb = fingerprint(b);
        EXPECT_EQ(fb.pattern_hash != fa.pattern_hash, pattern)
            << "pos " << pos << " bit " << bit;
        EXPECT_EQ(fb.values_hash != fa.values_hash, !pattern)
            << "pos " << pos << " bit " << bit;
        flip(array, pos, bit);
      }
  };
  check(&Csr<double>::rowptr, true);
  check(&Csr<double>::colind, true);
  check(&Csr<double>::values, false);
}

TEST(RuntimeFingerprint, GoldenValue) {
  // Pins the persisted meaning of a fingerprint (TuneDb keys): a change here
  // must come with a TuneDb::kSchemaVersion bump.
  const MatrixFingerprint fp = fingerprint(gen_poisson2d(4, 5));
  EXPECT_EQ(fp.pattern_hash, 0xA6F066D797B91121ull);
  EXPECT_EQ(fp.values_hash, 0xA2AAC99A67B28EBAull);
  EXPECT_EQ(fp.rows, 20);
  EXPECT_EQ(fp.nnz, 82);
}

TEST(RuntimeFingerprint, OptionsDigestTracksSetupRelevantFieldsOnly) {
  SpcgOptions opt = fast_options();
  const std::uint64_t base = setup_options_digest(opt);

  SpcgOptions fill = opt;
  fill.preconditioner = PrecondKind::kIluK;
  fill.fill_level = 3;
  EXPECT_NE(setup_options_digest(fill), base);

  SpcgOptions sparsify = opt;
  sparsify.sparsify_enabled = false;
  EXPECT_NE(setup_options_digest(sparsify), base);

  // Solve-phase knobs must NOT change the key: setups are shared across
  // tolerances and executors.
  SpcgOptions solve_only = opt;
  solve_only.pcg.tolerance = 1e-4;
  solve_only.pcg.max_iterations = 7;
  solve_only.executor = TrsvExec::kLevelScheduled;
  EXPECT_EQ(setup_options_digest(solve_only), base);
}

// ---------------------------------------------------------------------- cache

/// The exact entry for (a, opt), built on a miss: resolve without refresh.
SetupCache<double>::Resolved resolve_exact(SetupCache<double>& cache,
                                           const Csr<double>& a,
                                           const SpcgOptions& opt) {
  return cache.resolve(a, make_setup_key(a, opt), opt, false);
}

TEST(RuntimeCache, HitMissEvictionSemantics) {
  const Csr<double> a = gen_poisson2d(10, 10);
  const Csr<double> b = gen_poisson2d(11, 11);
  const Csr<double> c = gen_poisson2d(12, 12);
  const SpcgOptions opt = fast_options();

  SetupCache<double> cache(2);
  EXPECT_EQ(resolve_exact(cache, a, opt).path, SetupPath::kBuild);
  EXPECT_EQ(resolve_exact(cache, b, opt).path, SetupPath::kBuild);
  // touch a: b becomes LRU
  EXPECT_EQ(resolve_exact(cache, a, opt).path, SetupPath::kHit);
  // evicts b
  EXPECT_EQ(resolve_exact(cache, c, opt).path, SetupPath::kBuild);

  SetupCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);

  // b was evicted -> rebuilt
  EXPECT_EQ(resolve_exact(cache, b, opt).path, SetupPath::kBuild);
  // a was LRU when b came back -> evicted
  EXPECT_EQ(resolve_exact(cache, a, opt).path, SetupPath::kBuild);
  EXPECT_EQ(cache.stats().evictions, 3u);
}

TEST(RuntimeCache, ValueChangeMissesDespiteSharedPattern) {
  const Csr<double> a = gen_poisson2d(10, 10);
  Csr<double> perturbed = a;
  perturbed.values.back() *= 1.0 + 1e-12;
  const SpcgOptions opt = fast_options();

  SetupCache<double> cache(4);
  const auto setup_a = resolve_exact(cache, a, opt);
  EXPECT_EQ(setup_a.path, SetupPath::kBuild);
  const auto setup_p = resolve_exact(cache, perturbed, opt);
  EXPECT_EQ(setup_p.path, SetupPath::kBuild)
      << "perturbed values must not collide with the original";
  EXPECT_NE(setup_a.setup.get(), setup_p.setup.get());
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(RuntimeCache, SetupsAreSharedNotCopied) {
  const Csr<double> a = gen_poisson2d(10, 10);
  SetupCache<double> cache(4);
  const auto s1 = resolve_exact(cache, a, fast_options()).setup;
  const auto s2 = resolve_exact(cache, a, fast_options()).setup;
  EXPECT_EQ(s1.get(), s2.get());
  EXPECT_GT(s1->artifacts.factor_nnz, 0);
}

TEST(RuntimeCache, FailedBuildIsNotCachedAndRetries) {
  // A stored NaN makes Algorithm 2's candidate pass throw spcg::Error.
  Csr<double> a = gen_poisson2d(8, 8);
  a.values[1] = std::numeric_limits<double>::quiet_NaN();
  const SpcgOptions opt = fast_options();
  SetupCache<double> cache(4);
  EXPECT_THROW(resolve_exact(cache, a, opt), Error);
  EXPECT_EQ(cache.stats().entries, 0u) << "failed build must not be cached";

  // The next request builds again instead of replaying the error.
  EXPECT_THROW(resolve_exact(cache, a, opt), Error);
  const SetupCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(RuntimeCache, ConcurrentRequestsForOneKeyBuildOnce) {
  const Csr<double> a = gen_grid_laplacian(24, 24, 2.0, 0.3, 7);
  const SpcgOptions opt = fast_options();
  auto cache = std::make_shared<SetupCache<double>>(4);

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const SolverSetup<double>>> setups(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t] {
      setups[static_cast<std::size_t>(t)] = resolve_exact(*cache, a, opt).setup;
    });
  for (std::thread& t : pool) t.join();

  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(setups[0].get(), setups[static_cast<std::size_t>(t)].get());
  const SetupCacheStats stats = cache->stats();
  EXPECT_EQ(stats.misses, 1u) << "racing threads must share one build";
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads) - 1);
}

TEST(RuntimeCache, SamePatternLookupServesPartialHits) {
  const Csr<double> a = gen_poisson2d(10, 10);
  Csr<double> perturbed = a;
  for (double& v : perturbed.values) v *= 1.25;
  const SpcgOptions opt = fast_options();

  SetupCache<double> cache(4);
  const auto donor = resolve_exact(cache, a, opt).setup;

  // The exact key resolves to the resident entry itself.
  const auto exact = cache.resolve(a, make_setup_key(a, opt), opt, true);
  EXPECT_EQ(exact.path, SetupPath::kHit);
  EXPECT_EQ(exact.setup.get(), donor.get());

  // Same pattern + options, different values: the secondary index answers
  // with the donor, served as a clone with its numbers refreshed.
  const SetupKey wanted = make_setup_key(perturbed, opt);
  const auto partial = cache.resolve(perturbed, wanted, opt, true);
  ASSERT_EQ(partial.path, SetupPath::kRefresh);
  EXPECT_NE(partial.setup.get(), donor.get());
  EXPECT_EQ(partial.setup->key, wanted);
  EXPECT_EQ(partial.setup->artifacts.factors.u.colind,
            donor->artifacts.factors.u.colind);
  EXPECT_NE(partial.setup->artifacts.factors.u.values,
            donor->artifacts.factors.u.values);

  const SetupCacheStats stats = cache.stats();
  EXPECT_EQ(stats.partial_hits, 1u);
  EXPECT_EQ(stats.hits, 1u);    // the exact resolve above
  EXPECT_EQ(stats.misses, 1u);  // the donor's build; the refresh counts none
  EXPECT_EQ(stats.entries, 1u);  // the refreshed clone is not inserted
}

TEST(RuntimeCache, SamePatternLookupSkipsTheExactKey) {
  // With only the exact entry resident, resolving that very key is a hit:
  // an exact key is never served as a refresh of itself.
  const Csr<double> a = gen_poisson2d(10, 10);
  const SpcgOptions opt = fast_options();
  SetupCache<double> cache(4);
  const auto donor = resolve_exact(cache, a, opt).setup;
  const auto resolved = cache.resolve(a, make_setup_key(a, opt), opt, true);
  EXPECT_EQ(resolved.path, SetupPath::kHit);
  EXPECT_EQ(resolved.setup.get(), donor.get());
  EXPECT_EQ(cache.stats().partial_hits, 0u);
}

TEST(RuntimeCache, ResolveRecordsOneLookupSpanOnEveryPath) {
  const Csr<double> a = gen_poisson2d(10, 10);
  Csr<double> perturbed = a;
  for (double& v : perturbed.values) v *= 1.25;
  const SpcgOptions opt = fast_options();
  const SetupKey key = make_setup_key(a, opt);
  const SetupKey perturbed_key = make_setup_key(perturbed, opt);
  SetupCache<double> cache(4);

  global_trace().clear();
  global_trace().set_enabled(true);
  const SetupPath build = cache.resolve(a, key, opt, true).path;
  const SetupPath hit = cache.resolve(a, key, opt, true).path;
  const SetupPath refresh =
      cache.resolve(perturbed, perturbed_key, opt, true).path;
  global_trace().set_enabled(false);
  const std::vector<TraceEvent> events = global_trace().drain();

  EXPECT_EQ(build, SetupPath::kBuild);
  EXPECT_EQ(hit, SetupPath::kHit);
  EXPECT_EQ(refresh, SetupPath::kRefresh);
  std::vector<std::string> lookups;  // each lookup span's `hit` arg
  for (const TraceEvent& e : events) {
    if (e.name != "setup_cache.lookup") continue;
    for (const TraceArg& arg : e.args)
      if (arg.key == "hit") lookups.push_back(arg.value);
  }
  EXPECT_EQ(lookups, (std::vector<std::string>{"false", "true", "false"}));
}

TEST(RuntimeCache, SamePatternLookupRespectsOptionsAndEviction) {
  const Csr<double> a = gen_poisson2d(10, 10);
  Csr<double> perturbed = a;
  for (double& v : perturbed.values) v *= 2.0;
  const SpcgOptions opt = fast_options();

  SetupCache<double> cache(1);
  auto resolve_perturbed = [&](const SpcgOptions& o) {
    return cache.resolve(perturbed, make_setup_key(perturbed, o), o, true)
        .path;
  };
  resolve_exact(cache, a, opt);

  // Different setup-relevant options -> different pattern bucket.
  SpcgOptions iluk = opt;
  iluk.preconditioner = PrecondKind::kIluK;
  iluk.fill_level = 2;
  EXPECT_EQ(resolve_perturbed(iluk), SetupPath::kBuild);

  // Evicting the donor must also drop it from the pattern index.
  resolve_exact(cache, a, opt);
  resolve_exact(cache, gen_poisson2d(11, 11), opt);  // capacity 1: evicts a
  EXPECT_EQ(resolve_perturbed(opt), SetupPath::kBuild);

  // clear() resets the index as well.
  resolve_exact(cache, a, opt);
  cache.clear();
  EXPECT_EQ(resolve_perturbed(opt), SetupPath::kBuild);
  EXPECT_EQ(cache.stats().partial_hits, 0u);
}

// -------------------------------------------------------------------- session

TEST(RuntimeSession, MatchesSpcgSolve) {
  const Csr<double> a = gen_grid_laplacian(20, 20, 1.5, 0.4, 11);
  const std::vector<double> b = make_rhs(a, 3);
  const SpcgOptions opt = fast_options();

  const SpcgResult<double> direct = spcg_solve(a, b, opt);
  SolverSession<double> session(a, opt);
  const SessionSolveResult<double> via = session.solve(b);

  ASSERT_TRUE(direct.solve.converged());
  ASSERT_TRUE(via.solve.converged());
  EXPECT_EQ(direct.solve.iterations, via.solve.iterations);
  ASSERT_EQ(direct.solve.x.size(), via.solve.x.size());
  for (std::size_t i = 0; i < direct.solve.x.size(); ++i)
    EXPECT_DOUBLE_EQ(direct.solve.x[i], via.solve.x[i]);

  // Setup artifacts visible and schedule-backed (satellite: one inspector
  // pass feeds both the stat and the preconditioner).
  EXPECT_EQ(session.setup().wavefronts_factor,
            session.setup().l_schedule.num_levels());
  EXPECT_EQ(session.setup().wavefronts_factor, direct.wavefronts_factor);

  // to_spcg_result reproduces the classic report shape.
  const SpcgResult<double> classic =
      session.to_spcg_result(session.solve(b));
  EXPECT_EQ(classic.factor_nnz, direct.factor_nnz);
  EXPECT_EQ(classic.matrix_wavefronts, direct.matrix_wavefronts);
  EXPECT_TRUE(classic.decision.has_value());
}

TEST(RuntimeSession, SetupReusedAcrossSolvesAndSessions) {
  const Csr<double> a = gen_poisson2d(16, 16);
  auto cache = std::make_shared<SetupCache<double>>(4);
  SolverSession<double> first(a, fast_options(), cache);
  EXPECT_EQ(first.setup_path(), SetupPath::kBuild);
  SolverSession<double> second(a, fast_options(), cache);
  EXPECT_EQ(second.setup_path(), SetupPath::kHit);
  EXPECT_EQ(first.shared_setup().get(), second.shared_setup().get());

  const std::vector<double> b1 = make_rhs(a, 1);
  const std::vector<double> b2 = make_rhs(a, 2);
  EXPECT_TRUE(first.solve(b1).solve.converged());
  EXPECT_TRUE(second.solve(b2).solve.converged());
  EXPECT_EQ(cache->stats().misses, 1u);
}

TEST(RuntimeSession, BatchedMultiRhsMatchesSequentialSolves) {
  const Csr<double> a = gen_grid_laplacian(18, 18, 1.8, 0.3, 5);
  std::vector<std::vector<double>> rhs;
  for (std::uint64_t s = 1; s <= 6; ++s) rhs.push_back(make_rhs(a, s));
  rhs.push_back(std::vector<double>(static_cast<std::size_t>(a.rows), 0.0));

  // The reference is the serial session, so the test enters no OpenMP sweep
  // (the fixture runs under TSan).
  const SolverSession<double> reference(a, fast_options());
  for (const TrsvExec exec : {TrsvExec::kSerial, TrsvExec::kLevelScheduled,
                              TrsvExec::kLevelScheduledChecked}) {
    SpcgOptions opt = fast_options();
    opt.executor = exec;
    const SolverSession<double> session(a, opt);
    const std::vector<SessionSolveResult<double>> batch =
        session.solve_batch(rhs);
    ASSERT_EQ(batch.size(), rhs.size());
    for (std::size_t c = 0; c < rhs.size(); ++c) {
      const SessionSolveResult<double> seq = reference.solve(rhs[c]);
      const std::string at = "executor " +
                             std::to_string(static_cast<int>(exec)) +
                             " rhs " + std::to_string(c);
      EXPECT_EQ(batch[c].solve.status, seq.solve.status) << at;
      EXPECT_EQ(batch[c].solve.iterations, seq.solve.iterations) << at;
      EXPECT_EQ(batch[c].solve.final_residual_norm,
                seq.solve.final_residual_norm)
          << at;
      ASSERT_EQ(batch[c].solve.x.size(), seq.solve.x.size());
      for (std::size_t i = 0; i < seq.solve.x.size(); ++i)
        EXPECT_EQ(batch[c].solve.x[i], seq.solve.x[i]) << at << " entry " << i;
    }
    // The all-zero column exits immediately with the exact answer.
    EXPECT_TRUE(batch.back().solve.converged());
    EXPECT_EQ(batch.back().solve.iterations, 0);

    // A wrong-length column's error reaches the caller once every thread
    // has joined.
    std::vector<std::vector<double>> bad = rhs;
    bad.push_back(std::vector<double>(3, 1.0));
    EXPECT_THROW((void)session.solve_batch(bad), Error);
  }
}

TEST(RuntimeSession, ConcurrentSessionsOnDistinctAndIdenticalMatrices) {
  const Csr<double> a = gen_poisson2d(18, 18);
  const Csr<double> b = gen_grid_laplacian(16, 16, 1.5, 0.4, 3);
  auto cache = std::make_shared<SetupCache<double>>(8);

  constexpr int kThreads = 8;
  std::atomic<int> converged{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      const Csr<double>& m = (t % 2 == 0) ? a : b;
      SolverSession<double> session(m, fast_options(), cache);
      const std::vector<double> rhs =
          make_rhs(m, static_cast<std::uint64_t>(t) + 1);
      if (session.solve(rhs).solve.converged()) converged.fetch_add(1);
    });
  }
  for (std::thread& t : pool) t.join();

  EXPECT_EQ(converged.load(), kThreads);
  const SetupCacheStats stats = cache->stats();
  EXPECT_EQ(stats.misses, 2u);  // one setup per distinct matrix
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads) - 2);
}

TEST(RuntimeSession, SelectBestFillLevelSharedCacheAndProtocol) {
  const Csr<double> a = gen_varcoef2d(18, 18, 1.5, 9);
  const std::vector<double> b = make_rhs(a, 6);
  SpcgOptions opt = fast_options();
  const std::vector<index_t> ks{0, 2, 5};

  auto cache = std::make_shared<SetupCache<double>>(8);
  const KSelection<double> first = tune_fill_level(a, b, opt, ks, cache);
  EXPECT_EQ(cache->stats().misses, ks.size());
  EXPECT_EQ(cache->stats().hits, 0u);

  // A repeated selection against the same cache re-runs nothing.
  const KSelection<double> second = tune_fill_level(a, b, opt, ks, cache);
  EXPECT_EQ(cache->stats().misses, ks.size());
  EXPECT_EQ(cache->stats().hits, ks.size());
  EXPECT_EQ(first.k, second.k);
  EXPECT_EQ(first.baseline.solve.iterations, second.baseline.solve.iterations);

  // Winner invariant (paper §3.3): no candidate beats it on
  // (converged, iterations).
  for (const index_t k : ks) {
    SpcgOptions o = opt;
    o.sparsify_enabled = false;
    o.preconditioner = PrecondKind::kIluK;
    o.fill_level = k;
    const SpcgResult<double> r = spcg_solve(a, b, o);
    if (r.solve.converged()) {
      ASSERT_TRUE(first.baseline.solve.converged());
      EXPECT_LE(first.baseline.solve.iterations, r.solve.iterations);
    }
  }
}

// -------------------------------------------------------------------- service

TEST(RuntimeService, ConcurrentRequestsShareSetups) {
  auto a = std::make_shared<const Csr<double>>(gen_poisson2d(16, 16));
  auto b = std::make_shared<const Csr<double>>(
      gen_grid_laplacian(14, 14, 1.5, 0.4, 3));

  SolveService<double> service({/*workers=*/4, /*cache_capacity=*/8});
  std::vector<SolveService<double>::Ticket> tickets;
  constexpr int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) {
    ServiceRequest<double> req;
    req.a = (i % 2 == 0) ? a : b;
    req.b = make_rhs(*req.a, static_cast<std::uint64_t>(i) + 1);
    req.options = fast_options();
    tickets.push_back(service.submit(std::move(req)));
  }
  for (auto& t : tickets) {
    const ServiceReply<double> reply = t.reply.get();
    ASSERT_EQ(reply.status, RequestStatus::kOk);
    EXPECT_TRUE(reply.solve.converged());
    EXPECT_FALSE(reply.used_fallback);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.cache.misses, 2u);  // one setup per distinct matrix
  EXPECT_EQ(stats.cache.hits, static_cast<std::uint64_t>(kRequests) - 2);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(RuntimeService, SamePatternRequestRefreshesDonorBitwise) {
  // One sparsify ratio and uniformly scaled off-diagonals keep Algorithm 2's
  // pattern decision, so a refresh of the first request's setup must equal a
  // cold setup on the second matrix bit for bit. Shrinking the off-diagonals
  // keeps the matrix diagonally dominant, so both requests converge.
  SpcgOptions opt = fast_options();
  opt.sparsify.ratios = {10.0};
  const Csr<double> base = gen_varcoef2d(16, 16, 1.5, 11);
  Csr<double> scaled = base;
  for (index_t i = 0; i < scaled.rows; ++i)
    for (index_t k = scaled.rowptr[static_cast<std::size_t>(i)];
         k < scaled.rowptr[static_cast<std::size_t>(i) + 1]; ++k)
      if (scaled.colind[static_cast<std::size_t>(k)] != i)
        scaled.values[static_cast<std::size_t>(k)] *= 0.8;
  const std::vector<double> b = make_rhs(scaled, 5);

  SolveService<double> service({/*workers=*/1, /*cache_capacity=*/4});
  auto request = [&](const Csr<double>& a) {
    ServiceRequest<double> req;
    req.a = std::make_shared<const Csr<double>>(a);
    req.b = b;
    req.options = opt;
    return service.submit(std::move(req)).reply.get();
  };
  const ServiceReply<double> donor = request(base);
  ASSERT_EQ(donor.status, RequestStatus::kOk);
  EXPECT_FALSE(donor.setup_pattern_refreshed);
  const ServiceReply<double> refreshed = request(scaled);
  ASSERT_EQ(refreshed.status, RequestStatus::kOk);
  ASSERT_FALSE(refreshed.used_fallback) << refreshed.fallback_reason;
  EXPECT_TRUE(refreshed.setup_pattern_refreshed);
  EXPECT_FALSE(refreshed.setup_cache_hit);
  const SetupCacheStats stats = service.stats().cache;
  EXPECT_EQ(stats.partial_hits, 1u);
  EXPECT_EQ(stats.entries, 1u);  // the refreshed clone is not inserted

  const SolverSession<double> cold(scaled, opt);
  const SpcgSetup<double>& got = refreshed.setup->artifacts;
  EXPECT_TRUE(same_bits(got.factors.l.values, cold.setup().factors.l.values));
  EXPECT_TRUE(same_bits(got.factors.u.values, cold.setup().factors.u.values));
  EXPECT_TRUE(same_bits(refreshed.solve.x, cold.solve(b).solve.x));

  // Refresh off: the same cache has no exact entry, so the setup is built.
  const SolverSession<double> off(scaled, opt, service.cache());
  EXPECT_EQ(off.setup_path(), SetupPath::kBuild);
}

TEST(RuntimeService, DeadlineExpiryIsReportedNotSolved) {
  auto big = std::make_shared<const Csr<double>>(gen_poisson2d(48, 48));
  SolveService<double> service({/*workers=*/1, /*cache_capacity=*/4});

  ServiceRequest<double> busy;
  busy.a = big;
  busy.b = make_rhs(*big, 1);
  busy.options = fast_options();
  auto t1 = service.submit(std::move(busy));

  // Queued behind the busy request with an already-expired deadline.
  ServiceRequest<double> doomed;
  doomed.a = big;
  doomed.b = make_rhs(*big, 2);
  doomed.options = fast_options();
  doomed.deadline = std::chrono::nanoseconds(-1);
  auto t2 = service.submit(std::move(doomed));

  EXPECT_EQ(t1.reply.get().status, RequestStatus::kOk);
  const ServiceReply<double> expired = t2.reply.get();
  EXPECT_EQ(expired.status, RequestStatus::kDeadlineExpired);
  EXPECT_TRUE(expired.solve.x.empty());
  EXPECT_EQ(service.stats().deadline_expired, 1u);
}

TEST(RuntimeService, CancellationBeforePickup) {
  auto big = std::make_shared<const Csr<double>>(gen_poisson2d(48, 48));
  SolveService<double> service({/*workers=*/1, /*cache_capacity=*/4});

  ServiceRequest<double> busy;
  busy.a = big;
  busy.b = make_rhs(*big, 1);
  busy.options = fast_options();
  auto t1 = service.submit(std::move(busy));

  ServiceRequest<double> victim;
  victim.a = big;
  victim.b = make_rhs(*big, 2);
  victim.options = fast_options();
  auto t2 = service.submit(std::move(victim));
  t2.request_cancel();  // worker is still busy with t1

  EXPECT_EQ(t1.reply.get().status, RequestStatus::kOk);
  EXPECT_EQ(t2.reply.get().status, RequestStatus::kCancelled);
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(RuntimeService, NonConvergenceFallsBackToBaseline) {
  // An aggressively sparsified preconditioner (95% of entries dropped) needs
  // far more iterations than the iteration cap allows; the baseline ILU(0)
  // fits comfortably. The service must retry and flag the fallback.
  auto a = std::make_shared<const Csr<double>>(gen_poisson2d(30, 30));
  SpcgOptions opt;
  opt.pcg.tolerance = 1e-10;
  opt.pcg.max_iterations = 45;
  opt.sparsify.ratios = {95.0};
  opt.sparsify.tau = 1e9;           // accept the unsafe split anyway
  opt.sparsify.omega_percent = 0.0;

  SolveService<double> service({/*workers=*/2, /*cache_capacity=*/4});
  ServiceRequest<double> req;
  req.a = a;
  req.b = make_rhs(*a, 7);
  req.options = opt;
  auto ticket = service.submit(std::move(req));

  const ServiceReply<double> reply = ticket.reply.get();
  ASSERT_EQ(reply.status, RequestStatus::kOk);
  EXPECT_TRUE(reply.used_fallback);
  EXPECT_TRUE(reply.solve.converged())
      << "baseline fallback should converge within the cap";
  EXPECT_NE(reply.fallback_reason.find("converge"), std::string::npos);
  EXPECT_EQ(service.stats().fallbacks, 1u);
}

TEST(RuntimeService, UnfactorableMatrixFailsBothAttempts) {
  // A matrix with a structurally missing diagonal cannot be factored by the
  // primary or the baseline; the reply must be kFailed with the reason.
  Csr<double> broken(3, 3);
  std::vector<Triplet<double>> t{{0, 0, 2.0}, {0, 1, -1.0}, {1, 0, -1.0},
                                 {1, 2, -1.0}, {2, 1, -1.0}, {2, 2, 2.0}};
  broken = csr_from_triplets<double>(3, 3, t);  // row 1 has no (1,1) entry

  SolveService<double> service({/*workers=*/1, /*cache_capacity=*/4});
  ServiceRequest<double> req;
  req.a = std::make_shared<const Csr<double>>(std::move(broken));
  req.b = {1.0, 2.0, 3.0};
  req.options = fast_options();
  auto ticket = service.submit(std::move(req));

  const ServiceReply<double> reply = ticket.reply.get();
  EXPECT_EQ(reply.status, RequestStatus::kFailed);
  EXPECT_FALSE(reply.error.empty());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.fallbacks, 1u);  // the baseline retry was attempted
}

TEST(RuntimeService, ShutdownDrainsQueueAndRejectsNewWork) {
  auto a = std::make_shared<const Csr<double>>(gen_poisson2d(12, 12));
  SolveService<double> service({/*workers=*/1, /*cache_capacity=*/4});
  std::vector<SolveService<double>::Ticket> tickets;
  for (int i = 0; i < 6; ++i) {
    ServiceRequest<double> req;
    req.a = a;
    req.b = make_rhs(*a, static_cast<std::uint64_t>(i) + 1);
    req.options = fast_options();
    tickets.push_back(service.submit(std::move(req)));
  }
  service.shutdown();
  for (auto& t : tickets)
    EXPECT_EQ(t.reply.get().status, RequestStatus::kOk);

  ServiceRequest<double> late;
  late.a = a;
  late.b = make_rhs(*a, 99);
  late.options = fast_options();
  EXPECT_THROW(service.submit(std::move(late)), Error);
}

TEST(RuntimeService, TelemetrySnapshotNamesServiceAndCacheCounters) {
  auto a = std::make_shared<const Csr<double>>(gen_poisson2d(10, 10));
  SolveService<double> service({/*workers=*/1, /*cache_capacity=*/2});
  ServiceRequest<double> req;
  req.a = a;
  req.b = make_rhs(*a, 1);
  req.options = fast_options();
  service.submit(std::move(req)).reply.get();

  const std::vector<CounterSample> samples = service.telemetry_snapshot();
  auto value_of = [&](const std::string& name) -> std::int64_t {
    for (const CounterSample& s : samples)
      if (s.name == name) return static_cast<std::int64_t>(s.value);
    return -1;
  };
  EXPECT_EQ(value_of("service.submitted"), 1);
  EXPECT_EQ(value_of("service.completed"), 1);
  EXPECT_EQ(value_of("setup_cache.misses"), 1);
  EXPECT_EQ(value_of("setup_cache.hits"), 0);
  EXPECT_FALSE(render_telemetry(samples).empty());
}

// ----------------------------------------------------- acceptance (wall time)

// ISSUE 2 acceptance: >= 100 requests over <= 10 distinct suite-style
// matrices must see >= 90% setup-cache hits and finish at least 2x faster
// end-to-end than per-request spcg_solve. Kept out of the TSan fixture set
// (sanitizer overhead distorts wall-clock ratios).
TEST(RuntimeThroughput, TraceBeatsPerRequestSpcgSolveTwofold) {
  constexpr int kMatrices = 8;
  constexpr int kRequests = 120;

  // Setup-dominated configuration: ILU(8) makes the symbolic+numeric
  // factorization the bulk of each request, which is exactly the regime the
  // cache is for (the paper's setup-once/solve-many amortization argument).
  SpcgOptions opt;
  opt.pcg.tolerance = 1e-6;
  opt.preconditioner = PrecondKind::kIluK;
  opt.fill_level = 8;

  std::vector<std::shared_ptr<const Csr<double>>> matrices;
  for (int m = 0; m < kMatrices; ++m)
    matrices.push_back(std::make_shared<const Csr<double>>(
        gen_poisson2d(24 + m, 24 + m)));

  struct Request {
    int matrix;
    std::vector<double> b;
  };
  std::vector<Request> trace;
  for (int i = 0; i < kRequests; ++i) {
    const int m = i % kMatrices;
    trace.push_back(
        {m, make_rhs(*matrices[static_cast<std::size_t>(m)],
                     static_cast<std::uint64_t>(i) + 1)});
  }

  // Baseline: the pre-runtime call pattern — full pipeline per request.
  WallTimer timer;
  int converged_direct = 0;
  for (const Request& r : trace) {
    const SpcgResult<double> res =
        spcg_solve(*matrices[static_cast<std::size_t>(r.matrix)], r.b, opt);
    if (res.solve.converged()) ++converged_direct;
  }
  const double direct_seconds = timer.seconds();

  // Runtime: the same trace through the service + shared setup cache.
  timer.reset();
  SolveService<double> service({/*workers=*/2, /*cache_capacity=*/16});
  std::vector<SolveService<double>::Ticket> tickets;
  tickets.reserve(trace.size());
  for (Request& r : trace) {
    ServiceRequest<double> req;
    req.a = matrices[static_cast<std::size_t>(r.matrix)];
    req.b = std::move(r.b);
    req.options = opt;
    tickets.push_back(service.submit(std::move(req)));
  }
  int converged_service = 0;
  for (auto& t : tickets) {
    const ServiceReply<double> reply = t.reply.get();
    ASSERT_EQ(reply.status, RequestStatus::kOk);
    if (reply.solve.converged()) ++converged_service;
  }
  const double service_seconds = timer.seconds();

  EXPECT_EQ(converged_direct, kRequests);
  EXPECT_EQ(converged_service, kRequests);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.misses, static_cast<std::uint64_t>(kMatrices));
  EXPECT_GE(stats.cache.hit_rate(), 0.9)
      << "hits=" << stats.cache.hits << " misses=" << stats.cache.misses;

  EXPECT_GE(direct_seconds, 2.0 * service_seconds)
      << "per-request pipeline " << direct_seconds << "s vs service "
      << service_seconds << "s";
}

}  // namespace
}  // namespace spcg
