// Best-K fill-level selection (paper §3.3): one baseline PCG-ILU(K) run
// per candidate K through a shared SetupCache. Every candidate's timings and
// iteration counts survive into KSelection::trials, each probe is traced,
// and an optional TelemetryRegistry counts probes and cache hits. Selection
// order: converged beats non-converged, then fewest iterations, then
// smallest final residual; ties keep the earlier (smaller) K.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/session.h"
#include "support/telemetry.h"
#include "support/trace.h"

namespace spcg {

template <class T>
KSelection<T> tune_fill_level(
    const Csr<T>& a, std::span<const T> b, SpcgOptions opt,
    std::span<const index_t> candidates,
    std::type_identity_t<std::shared_ptr<SetupCache<T>>> cache = nullptr,
    TelemetryRegistry* telemetry = nullptr) {
  SPCG_CHECK(!candidates.empty());
  opt.sparsify_enabled = false;
  opt.preconditioner = PrecondKind::kIluK;
  if (!cache) cache = std::make_shared<SetupCache<T>>(candidates.size());
  const MatrixFingerprint fp = fingerprint(a);

  Span span("autotune.fill_level", "autotune");
  span.arg("rows", static_cast<std::int64_t>(a.rows));
  span.arg("candidates", static_cast<std::int64_t>(candidates.size()));

  KSelection<T> out;
  out.trials.reserve(candidates.size());

  struct Best {
    SolverSession<T> session;
    SessionSolveResult<T> run;
  };
  std::optional<Best> best;
  for (const index_t k : candidates) {
    opt.fill_level = k;
    Span probe("autotune.fill_level.probe", "autotune");
    probe.arg("k", static_cast<std::int64_t>(k));
    WallTimer setup_timer;
    SolverSession<T> session(a, fp, opt, cache);
    const double setup_seconds = setup_timer.seconds();
    SessionSolveResult<T> run = session.solve(b);

    KCandidateTrial trial;
    trial.k = k;
    trial.converged = run.solve.converged();
    trial.iterations = run.solve.iterations;
    trial.final_residual_norm = run.solve.final_residual_norm;
    trial.setup_seconds = setup_seconds;
    trial.solve_seconds = run.solve_seconds;
    trial.setup_cache_hit = session.setup_path() == SetupPath::kHit;
    probe.arg("iterations", trial.iterations);
    probe.arg("converged", trial.converged);
    if (telemetry != nullptr) {
      telemetry->counter("autotune.fill_level.probes").add();
      if (trial.setup_cache_hit)
        telemetry->counter("autotune.fill_level.cache_hits").add();
    }

    const bool better = [&] {
      if (!best) return true;
      const bool run_conv = run.solve.converged();
      const bool best_conv = best->run.solve.converged();
      if (run_conv != best_conv) return run_conv;
      if (run_conv) return run.solve.iterations < best->run.solve.iterations;
      return run.solve.final_residual_norm <
             best->run.solve.final_residual_norm;
    }();
    if (better) {
      out.k = k;
      best = Best{std::move(session), std::move(run)};
    }
    out.trials.push_back(trial);
  }
  out.baseline = best->session.to_spcg_result(std::move(best->run));
  span.arg("k", static_cast<std::int64_t>(out.k));
  return out;
}

template <class T>
KSelection<T> tune_fill_level(
    const Csr<T>& a, const std::vector<T>& b, const SpcgOptions& opt,
    const std::vector<index_t>& candidates,
    std::type_identity_t<std::shared_ptr<SetupCache<T>>> cache = nullptr,
    TelemetryRegistry* telemetry = nullptr) {
  return tune_fill_level(a, std::span<const T>(b), opt,
                         std::span<const index_t>(candidates),
                         std::move(cache), telemetry);
}

}  // namespace spcg
