// SolverSession — setup-once / solve-many handle over one linear system.
//
// A session pins (matrix, setup options) to an immutable, shareable
// SolverSetup: the sparsify decision, the ILU factors and both precomputed
// level schedules. Construction either builds the setup or resolves it
// through a SetupCache (so concurrent sessions on the same system share one
// setup); every subsequent solve reuses it for any number of right-hand
// sides, one at a time or as a batch of concurrent single-RHS solves.
//
// `allow_pattern_refresh` lets SetupCache::resolve answer a values-only
// change with a private, numerically refreshed clone of a same-pattern
// entry instead of a cold spcg_setup; setup_path() says which path ran.
//
// Thread safety: solve() and solve_batch() are const, the ILU apply over
// the shared immutable factors is stateless, and each solve allocates its
// own iteration vectors, so one session may serve many threads concurrently.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "analysis/verify.h"
#include "core/spcg.h"
#include "precond/preconditioner.h"
#include "runtime/fingerprint.h"
#include "runtime/setup_cache.h"
#include "support/fork_join.h"
#include "support/timer.h"
#include "support/trace.h"

namespace spcg {

/// One solve through a session. Setup artifacts are not duplicated here —
/// read them off the session (or convert with SolverSession::to_spcg_result
/// when the classic SpcgResult shape is needed).
template <class T>
struct SessionSolveResult {
  SolveResult<T> solve;
  double solve_seconds = 0.0;
};

template <class T>
class SolverSession {
 public:
  /// Share ownership of the matrix (the usual service path).
  /// `allow_pattern_refresh` arms the same-pattern refresh described above.
  SolverSession(std::shared_ptr<const Csr<T>> a, SpcgOptions opt,
                std::shared_ptr<SetupCache<T>> cache = nullptr,
                bool allow_pattern_refresh = false)
      : a_(std::move(a)), opt_(std::move(opt)) {
    init(fingerprint(*a_), cache.get(), allow_pattern_refresh);
  }

  /// Borrow a caller-owned matrix (must outlive the session).
  SolverSession(const Csr<T>& a, SpcgOptions opt,
                std::shared_ptr<SetupCache<T>> cache = nullptr,
                bool allow_pattern_refresh = false)
      : SolverSession(std::shared_ptr<const Csr<T>>(&a, [](const Csr<T>*) {}),
                      std::move(opt), std::move(cache),
                      allow_pattern_refresh) {}

  /// Borrow with a precomputed fingerprint, so callers that build several
  /// sessions over one matrix (tune_fill_level, SolveService's primary and
  /// fallback attempts) hash it once.
  SolverSession(const Csr<T>& a, const MatrixFingerprint& fp, SpcgOptions opt,
                std::shared_ptr<SetupCache<T>> cache = nullptr,
                bool allow_pattern_refresh = false)
      : a_(std::shared_ptr<const Csr<T>>(&a, [](const Csr<T>*) {})),
        opt_(std::move(opt)) {
    init(fp, cache.get(), allow_pattern_refresh);
  }

  [[nodiscard]] const SpcgOptions& options() const { return opt_; }
  [[nodiscard]] const SpcgSetup<T>& setup() const { return setup_->artifacts; }
  [[nodiscard]] std::shared_ptr<const SolverSetup<T>> shared_setup() const {
    return setup_;
  }
  /// How construction obtained the setup (kBuild without a cache).
  [[nodiscard]] SetupPath setup_path() const { return path_; }

  /// Debug verification knob: verifies the shared setup artifacts end to
  /// end immediately (throwing spcg::Error with the report when any
  /// invariant fails) and arms a NaN/Inf taint scan over b and x around
  /// every subsequent solve()/solve_batch(). A solve-phase option — it does
  /// not participate in the setup-cache key.
  void enable_verify(analysis::VerifyOptions vopt = {}) {
    const analysis::Diagnostics d =
        analysis::verify_setup(*a_, setup_->artifacts, opt_, vopt);
    if (!d.ok())
      throw Error("setup verification failed:\n" + d.to_string(8));
    verify_ = std::move(vopt);
  }
  [[nodiscard]] bool verify_enabled() const { return verify_.has_value(); }

  /// Solve A x = b with the cached setup. Safe to call concurrently.
  SessionSolveResult<T> solve(std::span<const T> b) const {
    return solve_with(b, opt_.executor);
  }

  SessionSolveResult<T> solve(const std::vector<T>& b) const {
    return solve(std::span<const T>(b));
  }

  /// Solve a block of right-hand sides: one solve per column, spread over
  /// min(columns, hardware threads) workers of one fork_join. Columns sweep
  /// their factors serially: a level-scheduled sweep would fork a team of
  /// its own in every column, up to hardware threads squared at once, and
  /// oversubscribe the host. The race-checking executor stays armed.
  /// Every executor runs the same row kernel, so each column is bitwise
  /// equal to a sequential solve(). A column's error is rethrown once every
  /// thread has joined.
  std::vector<SessionSolveResult<T>> solve_batch(
      std::span<const std::vector<T>> bs) const {
    const TrsvExec exec = opt_.executor == TrsvExec::kLevelScheduledChecked
                              ? opt_.executor
                              : TrsvExec::kSerial;
    const std::size_t workers = std::min(bs.size(), hardware_threads());
    std::vector<SessionSolveResult<T>> out(bs.size());
    fork_join(workers, [&](std::size_t w) {
      for (std::size_t c = w; c < bs.size(); c += workers)
        out[c] = solve_with(bs[c], exec);
    });
    return out;
  }

  /// Materialize the classic SpcgResult shape (copies the shared setup
  /// artifacts; intended for reporting paths, not the solve hot loop).
  SpcgResult<T> to_spcg_result(SessionSolveResult<T> r) const {
    const SpcgSetup<T>& s = setup_->artifacts;
    SpcgResult<T> out;
    out.solve = std::move(r.solve);
    out.decision = s.decision;
    out.factorization = s.factorization;
    out.factors = s.factors;
    out.factor_nnz = s.factor_nnz;
    out.wavefronts_factor = s.wavefronts_factor;
    out.matrix_wavefronts = s.matrix_wavefronts;
    out.sparsify_seconds = s.sparsify_seconds;
    out.factorization_seconds = s.factorization_seconds;
    out.solve_seconds = r.solve_seconds;
    return out;
  }

 private:
  SessionSolveResult<T> solve_with(std::span<const T> b, TrsvExec exec) const {
    SessionSolveResult<T> out;
    WallTimer timer;
    // Covers the applier construction plus the nested pcg span, so request
    // timelines have no untraced gap before iterating.
    Span span("session.solve", "runtime");
    const analysis::AllocAuditScope alloc_scope("session.solve");
    taint_check(b, "b");
    const IluApplier<T> m(setup_->artifacts.factors,
                          setup_->artifacts.l_schedule,
                          setup_->artifacts.u_schedule, exec);
    out.solve = pcg(*a_, b, m, opt_.pcg);
    taint_check(std::span<const T>(out.solve.x), "x");
    out.solve_seconds = timer.seconds();
    return out;
  }

  /// Phase-boundary NaN/Inf sweep when the verify knob is armed.
  void taint_check(std::span<const T> v, const std::string& object) const {
    if (!verify_ || !verify_->taint_scan) return;
    const analysis::Diagnostics d =
        analysis::taint_scan(v, object, verify_->max_per_rule);
    if (!d.ok())
      throw Error("taint scan failed on " + object + ":\n" + d.to_string(4));
  }

  void init(const MatrixFingerprint& fp, SetupCache<T>* cache, bool refresh) {
    const SetupKey key = make_setup_key(fp, opt_);
    if (cache) {
      auto [setup, path] = cache->resolve(*a_, key, opt_, refresh);
      setup_ = std::move(setup);
      path_ = path;
      return;
    }
    auto built = std::make_shared<SolverSetup<T>>();
    built->key = key;
    built->artifacts = spcg_setup(*a_, opt_);
    setup_ = std::move(built);
  }

  std::shared_ptr<const Csr<T>> a_;
  SpcgOptions opt_;
  std::shared_ptr<const SolverSetup<T>> setup_;
  SetupPath path_ = SetupPath::kBuild;
  std::optional<analysis::VerifyOptions> verify_;
};

}  // namespace spcg

