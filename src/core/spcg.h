// SPCG driver — the end-to-end pipeline of Figure 2:
//
//   A ──► wavefront-aware sparsification ──► Â ──► ILU(0)/ILU(K) ──► M={L,U}
//   (A, b, M) ──► PCG (Algorithm 1) ──► x
//
// Note the preconditioner is built from the *sparsified* matrix while PCG
// iterates on the *original* system A x = b, exactly as in the paper's
// overview. Setting SpcgOptions::sparsify_enabled=false gives the
// non-sparsified PCG baseline with the same plumbing.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/sparsify.h"
#include "precond/ilu.h"
#include "precond/preconditioner.h"
#include "solver/pcg.h"
#include "support/timer.h"
#include "support/trace.h"

namespace spcg {

enum class PrecondKind { kIlu0, kIluK };

inline const char* to_string(PrecondKind k) {
  return k == PrecondKind::kIlu0 ? "ILU(0)" : "ILU(K)";
}

/// Configuration of a full SPCG (or baseline PCG) run.
struct SpcgOptions {
  bool sparsify_enabled = true;       // false -> plain PCG baseline
  SparsifyOptions sparsify;           // Algorithm 2 thresholds
  PrecondKind preconditioner = PrecondKind::kIlu0;
  index_t fill_level = 10;            // K for ILU(K)
  index_t max_row_fill = 0;           // safety cap for ILU(K) symbolic
  IluOptions ilu;                     // pivot handling
  TrsvExec executor = TrsvExec::kSerial;
  PcgOptions pcg;                     // tolerance / max iterations
};

/// Structural and timing instrumentation of one run; everything the
/// benchmark harness needs to model device time afterwards.
template <class T>
struct SpcgResult {
  SolveResult<T> solve;

  // Sparsification (empty optional for the baseline).
  std::optional<SparsifyDecision<T>> decision;

  // Preconditioner structure.
  IluResult<T> factorization;    // counts only (see SpcgSetup)
  TriangularFactors<T> factors;  // M = L U on Â (or A for the baseline)
  index_t factor_nnz = 0;
  index_t wavefronts_factor = 0;   // level count of the factor's L pattern
  index_t matrix_wavefronts = 0;   // level count of the (possibly
                                   // sparsified) input pattern
  // Host wall-clock phases (seconds).
  double sparsify_seconds = 0.0;
  double factorization_seconds = 0.0;
  double solve_seconds = 0.0;

  [[nodiscard]] double end_to_end_seconds() const {
    return sparsify_seconds + factorization_seconds + solve_seconds;
  }
};

/// Everything spcg_solve computes before it sees a right-hand side: the
/// sparsification decision, the incomplete factors and both level
/// schedules. Building it once and solving many times is the paper's
/// amortization story; the runtime layer (src/runtime/) caches and shares
/// these across solves. The schedules here are the only ones built —
/// wavefronts_factor is read off the lower schedule instead of a second
/// inspector pass, and the preconditioner adopts them as-is.
///
/// Each factor value is stored once, in `factors`. spcg_setup leaves the
/// combined layout in `factorization` and `decision->chosen.a_hat` empty: Â
/// is needed only to build the factor, and S stays as the record of what
/// Algorithm 2 dropped. Those two members remain only because the
/// benchmark's traced setup (perfbench/spcg_perfbench.cc, which re-composes
/// spcg_setup from the combined-layout spellings of precond/ilu.h) assigns
/// them; nothing in the library reads them.
template <class T>
struct SpcgSetup {
  std::optional<SparsifyDecision<T>> decision;  // empty for the baseline
  IluResult<T> factorization;      // the elimination's counts (see above)
  TriangularFactors<T> factors;    // M = L U on Â (or A for the baseline)
  LevelSchedule l_schedule;        // level_schedule(factors.l, kLower)
  LevelSchedule u_schedule;        // level_schedule(factors.u, kUpper)
  index_t factor_nnz = 0;
  index_t wavefronts_factor = 0;   // == l_schedule.num_levels()
  index_t matrix_wavefronts = 0;
  double sparsify_seconds = 0.0;
  double factorization_seconds = 0.0;

  [[nodiscard]] double setup_seconds() const {
    return sparsify_seconds + factorization_seconds;
  }
};

/// Phases 1–2 of the pipeline (sparsify + factorize + inspect), reusable
/// across any number of right-hand sides.
template <class T>
SpcgSetup<T> spcg_setup(const Csr<T>& a, const SpcgOptions& opt = {}) {
  SPCG_CHECK(a.rows == a.cols);
  SpcgSetup<T> s;

  // Phase 1: wavefront-aware sparsification (Algorithm 2).
  const Csr<T>* precond_input = &a;
  WallTimer timer;
  {
    Span span("sparsify", "setup");
    span.arg("enabled", opt.sparsify_enabled);
    if (opt.sparsify_enabled) {
      s.decision = wavefront_aware_sparsify(a, opt.sparsify);
      precond_input = &s.decision->chosen.a_hat;
    }
  }
  s.sparsify_seconds = timer.seconds();
  s.matrix_wavefronts = opt.sparsify_enabled ? s.decision->wavefronts_chosen
                                             : count_wavefronts(a);

  // Phase 2: incomplete factorization of the (sparsified) matrix straight
  // into triangular factors, with their level schedules built exactly once.
  timer.reset();
  {
    Span span("factorize", "setup");
    span.arg("kind", to_string(opt.preconditioner));
    s.factors = opt.preconditioner == PrecondKind::kIlu0
                    ? ilu0_factors(*precond_input, opt.ilu, &s.factorization)
                    : iluk_factors(*precond_input, opt.fill_level, opt.ilu,
                                   opt.max_row_fill, &s.factorization);
    s.factor_nnz = s.factors.l.nnz() + s.factors.u.nnz();
    span.arg("factor_nnz", static_cast<std::int64_t>(s.factor_nnz));
    if (s.decision.has_value()) s.decision->chosen.a_hat = Csr<T>{};
  }
  {
    Span span("inspect", "setup");
    s.l_schedule = level_schedule(s.factors.l, Triangle::kLower);
    s.u_schedule = level_schedule(s.factors.u, Triangle::kUpper);
    s.wavefronts_factor = s.l_schedule.num_levels();
    span.arg("levels", static_cast<std::int64_t>(s.wavefronts_factor));
  }
  s.factorization_seconds = timer.seconds();
  return s;
}

/// Run the full SPCG pipeline on A x = b.
template <class T>
SpcgResult<T> spcg_solve(const Csr<T>& a, std::span<const T> b,
                         const SpcgOptions& opt = {}) {
  SpcgSetup<T> setup = spcg_setup(a, opt);
  SpcgResult<T> res;
  res.decision = std::move(setup.decision);
  res.factorization = std::move(setup.factorization);
  res.factor_nnz = setup.factor_nnz;
  res.wavefronts_factor = setup.wavefronts_factor;
  res.matrix_wavefronts = setup.matrix_wavefronts;
  res.sparsify_seconds = setup.sparsify_seconds;
  res.factorization_seconds = setup.factorization_seconds;

  res.factors = std::move(setup.factors);

  // Phase 3: PCG on the ORIGINAL system with the sparsified preconditioner,
  // over the schedules the setup already built.
  WallTimer timer;
  const IluApplier<T> m(res.factors, setup.l_schedule, setup.u_schedule,
                        opt.executor);
  res.solve = pcg(a, b, m, opt.pcg);
  res.solve_seconds = timer.seconds();
  return res;
}

/// Vector-argument convenience.
template <class T>
SpcgResult<T> spcg_solve(const Csr<T>& a, const std::vector<T>& b,
                         const SpcgOptions& opt = {}) {
  return spcg_solve(a, std::span<const T>(b), opt);
}

/// One candidate K's measured run inside a best-K selection: the facts the
/// selection used to rank it, kept so callers (and bench/test telemetry) can
/// see *why* the winner won instead of only *that* it won.
struct KCandidateTrial {
  index_t k = 0;
  bool converged = false;
  std::int32_t iterations = 0;
  double final_residual_norm = 0.0;
  double setup_seconds = 0.0;   // sparsify + factorize + inspect
  double solve_seconds = 0.0;
  bool setup_cache_hit = false;
};

/// Best-K selection for the baseline PCG-ILU(K) (paper §3.3): the winner of
/// one run per candidate K. Produced by tune_fill_level
/// (autotune/fill_level.h), which routes every candidate through a
/// SolverSession so the matrix fingerprint and cached setups are shared
/// across candidates.
template <class T>
struct KSelection {
  index_t k = 0;
  SpcgResult<T> baseline;  // the run that won
  std::vector<KCandidateTrial> trials;  // every candidate, in probe order
};

}  // namespace spcg
