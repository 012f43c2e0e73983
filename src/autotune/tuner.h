// Tuner — the measurement-refined configuration search (DESIGN.md §10).
//
// tune(a) runs the full funnel:
//
//   fingerprint ──► TuneDb exact hit?  ──► done, zero measured trials
//        │
//   extract_features ──► TuneDb nearest neighbor (warm-start seed)
//        │
//   enumerate_candidates ──► rank_candidates (cost-model prior)
//        │
//   prune to the measured-trial budget (+ the neighbor's config, promoted)
//        │
//   measured trials through SolverSession + shared SetupCache,
//   early-aborted against the incumbent's score bound
//        │
//   record the winner in the TuneDb
//
// Scoring: a trial's score is iterations x *modeled* per-iteration seconds
// on the actual factor structure the trial built. Modeled (not wall-clock)
// per-iteration time keeps scores deterministic across machine load and
// lets host-measured trials stand in for device execution; iterations are
// always truly measured. Early abort caps a trial's PCG at
// ceil(incumbent_score / candidate_per_iteration_seconds): a trial that hits
// the cap already scores >= the incumbent, and running it to convergence
// could only raise its score, so the abort can never discard a config that
// full measurement would have selected (autotune_test.cc asserts this).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "autotune/config.h"
#include "autotune/cost_prior.h"
#include "autotune/features.h"
#include "autotune/tune_db.h"
#include "precond/block_jacobi.h"
#include "precond/ilut.h"
#include "precond/sai.h"
#include "runtime/session.h"
#include "support/rng.h"
#include "support/telemetry.h"
#include "support/trace.h"

namespace spcg {

/// Knobs of the search.
struct TunerOptions {
  TuneSpace space;                 // candidate enumeration bounds
  CostPriorOptions prior;          // cost-model pruning stage
  SpcgOptions base;                // tolerances / pivot / solve knobs
  std::size_t measure_top = 6;     // measured-trial budget after pruning
  bool early_abort = true;         // cap trials at the incumbent's bound
  double neighbor_max_distance = 3.0;  // feature-space warm-start radius
  std::uint64_t rhs_seed = 42;     // deterministic internal trial RHS
  IlutOptions ilut;                // alternative-preconditioner knobs
  SaiOptions sai;
  index_t block_jacobi_size = 8;
};

/// One measured trial.
struct TuneTrial {
  TuneConfig config;
  bool converged = false;
  bool aborted = false;            // stopped early at the incumbent bound
  std::int32_t iterations = 0;
  double setup_seconds = 0.0;      // wall clock of the setup phase
  double solve_seconds = 0.0;      // wall clock of the measured solve
  double per_iteration_seconds = 0.0;  // modeled, on the built structure
  double score = 0.0;              // iterations x per_iteration_seconds
  bool setup_cache_hit = false;
};

/// What tune() decided and how it got there.
struct TuneOutcome {
  TuneConfig config;               // the winner
  double score = 0.0;
  double per_iteration_seconds = 0.0;
  std::int32_t iterations = 0;
  bool db_hit = false;             // exact fingerprint hit, zero trials
  bool neighbor_seeded = false;    // a warm-start neighbor joined the trials
  double neighbor_distance = 0.0;
  std::size_t candidates = 0;      // enumerated space size
  std::size_t pruned = 0;          // dropped by the cost-model prior
  std::size_t trials_measured = 0;
  std::size_t early_aborts = 0;
  std::vector<TuneTrial> trials;   // in measurement order
};

namespace detail {

/// Deterministic right-hand side for internal trials: b = A * x_ref with a
/// reproducible x_ref, so every trial solves a system with a known solution
/// scale regardless of the caller's workload.
template <class T>
std::vector<T> tune_rhs(const Csr<T>& a, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> x_ref(static_cast<std::size_t>(a.rows));
  for (auto& v : x_ref) v = static_cast<T>(rng.uniform(-1.0, 1.0));
  std::vector<T> b(x_ref.size(), T{0});
  for (index_t i = 0; i < a.rows; ++i) {
    const auto cols_i = a.row_cols(i);
    const auto vals_i = a.row_vals(i);
    T acc{0};
    for (std::size_t p = 0; p < cols_i.size(); ++p)
      acc += vals_i[p] * x_ref[static_cast<std::size_t>(cols_i[p])];
    b[static_cast<std::size_t>(i)] = acc;
  }
  return b;
}

}  // namespace detail

/// Solve of one (possibly alternative-preconditioner) configuration outside
/// the tuner loop — the service and bench reuse this to execute a tuned
/// winner that has no SpcgOptions spelling. Session-compatible configs go
/// through SolverSession (and hit the shared cache); alternatives build
/// their preconditioner inline.
template <class T>
struct TunedSolve {
  SolveResult<T> solve;
  double setup_seconds = 0.0;
  double solve_seconds = 0.0;
  bool setup_cache_hit = false;
};

template <class T>
TunedSolve<T> solve_with_config(const Csr<T>& a, std::span<const T> b,
                                const TuneConfig& config,
                                const TunerOptions& opt = {},
                                std::shared_ptr<SetupCache<T>> cache = nullptr) {
  TunedSolve<T> out;
  if (session_compatible(config)) {
    WallTimer setup_timer;
    SolverSession<T> session(a, to_spcg_options(config, opt.base), cache);
    out.setup_seconds = setup_timer.seconds();
    out.setup_cache_hit = session.setup_path() == SetupPath::kHit;
    SessionSolveResult<T> run = session.solve(b);
    out.solve = std::move(run.solve);
    out.solve_seconds = run.solve_seconds;
    return out;
  }
  WallTimer setup_timer;
  PcgOptions pcg_opt = opt.base.pcg;
  if (config.precond == TunePrecond::kIlut) {
    const IluResult<T> fact = ilut(a, opt.ilut);
    TriangularFactors<T> factors = split_lu(fact);
    const LevelSchedule l_sched = level_schedule(factors.l, Triangle::kLower);
    const LevelSchedule u_sched = level_schedule(factors.u, Triangle::kUpper);
    out.setup_seconds = setup_timer.seconds();
    const IluApplier<T> m(factors, l_sched, u_sched, config.executor);
    WallTimer solve_timer;
    out.solve = pcg(a, b, m, pcg_opt);
    out.solve_seconds = solve_timer.seconds();
    return out;
  }
  if (config.precond == TunePrecond::kSai) {
    const SaiPreconditioner<T> m(a, opt.sai);
    out.setup_seconds = setup_timer.seconds();
    WallTimer solve_timer;
    out.solve = pcg(a, b, m, pcg_opt);
    out.solve_seconds = solve_timer.seconds();
    return out;
  }
  const BlockJacobiPreconditioner<T> m(a, opt.block_jacobi_size);
  out.setup_seconds = setup_timer.seconds();
  WallTimer solve_timer;
  out.solve = pcg(a, b, m, pcg_opt);
  out.solve_seconds = solve_timer.seconds();
  return out;
}

template <class T>
class Tuner {
 public:
  explicit Tuner(TunerOptions options = {},
                 std::shared_ptr<TuneDb> db = nullptr,
                 std::shared_ptr<SetupCache<T>> cache = nullptr,
                 TelemetryRegistry* telemetry = nullptr)
      : opt_(std::move(options)),
        db_(db ? std::move(db) : std::make_shared<TuneDb>()),
        cache_(cache ? std::move(cache)
                     : std::make_shared<SetupCache<T>>(32)),
        telemetry_(telemetry) {}

  [[nodiscard]] const TunerOptions& options() const { return opt_; }
  [[nodiscard]] const std::shared_ptr<TuneDb>& db() const { return db_; }
  [[nodiscard]] const std::shared_ptr<SetupCache<T>>& cache() const {
    return cache_;
  }

  TuneOutcome tune(const Csr<T>& a) const { return tune(a, fingerprint(a)); }

  TuneOutcome tune(const Csr<T>& a, const MatrixFingerprint& fp) const {
    Span span("autotune.tune", "autotune");
    span.arg("rows", static_cast<std::int64_t>(a.rows));
    span.arg("nnz", static_cast<std::int64_t>(a.nnz()));
    count("autotune.tunes");

    TuneOutcome out;

    // Stage 0: exact database hit — reuse the winner, zero measured trials.
    if (std::optional<TuneRecord> hit = db_->find_exact(fp)) {
      out.config = hit->config;
      out.score = hit->score;
      out.per_iteration_seconds = hit->per_iteration_seconds;
      out.iterations = hit->iterations;
      out.db_hit = true;
      count("autotune.db_hits");
      span.arg("db_hit", true);
      span.arg("config", config_id(out.config));
      return out;
    }

    // Stage 1: features + nearest-neighbor warm start.
    const MatrixFeatures features = extract_features(a);
    const std::optional<TuneNeighbor> neighbor =
        db_->find_nearest(features, opt_.neighbor_max_distance, &fp);

    // Stage 2: enumerate and rank with the cost-model prior.
    const std::vector<TuneConfig> candidates =
        enumerate_candidates(opt_.space);
    out.candidates = candidates.size();
    std::vector<CandidatePrior> ranked;
    {
      Span prior_span("autotune.prior", "autotune");
      prior_span.arg("candidates",
                     static_cast<std::int64_t>(candidates.size()));
      ranked = rank_candidates(a, candidates, opt_.prior);
    }

    // Stage 3: prune to the measured budget; the neighbor's winner (when it
    // survives as a known candidate shape or not) is promoted to the front
    // so the warm start is always measured first and becomes the incumbent.
    std::vector<TuneConfig> shortlist;
    shortlist.reserve(opt_.measure_top + 1);
    if (neighbor) {
      shortlist.push_back(neighbor->record.config);
      out.neighbor_seeded = true;
      out.neighbor_distance = neighbor->distance;
      count("autotune.db_neighbor");
    }
    for (const CandidatePrior& p : ranked) {
      if (shortlist.size() >= opt_.measure_top + (neighbor ? 1 : 0)) break;
      if (std::find(shortlist.begin(), shortlist.end(), p.config) !=
          shortlist.end())
        continue;
      shortlist.push_back(p.config);
    }
    out.pruned = candidates.size() - shortlist.size();
    if (telemetry_ != nullptr)
      telemetry_->counter("autotune.pruned").add(out.pruned);

    // Stage 4: measured trials against a deterministic internal RHS.
    const std::vector<T> b = detail::tune_rhs(a, opt_.rhs_seed);
    const CostModel device_model(opt_.prior.device, opt_.prior.value_bytes);
    const CostModel host_model(opt_.prior.host, opt_.prior.value_bytes);

    std::optional<std::size_t> incumbent;  // index into out.trials
    double incumbent_score = std::numeric_limits<double>::infinity();
    for (const TuneConfig& config : shortlist) {
      TuneTrial trial = run_trial(a, fp, b, config, incumbent_score,
                                  device_model, host_model);
      count("autotune.trials");
      if (trial.aborted) {
        ++out.early_aborts;
        count("autotune.early_aborts");
      }
      out.trials.push_back(trial);
      const bool better = [&] {
        if (!incumbent) return trial.converged;
        const TuneTrial& best = out.trials[*incumbent];
        if (trial.converged != best.converged) return trial.converged;
        if (!trial.converged) return false;
        return trial.score < best.score;  // strict: abort-soundness
      }();
      if (better) {
        incumbent = out.trials.size() - 1;
        incumbent_score = trial.score;
      }
    }
    out.trials_measured = out.trials.size();

    // A degenerate space (nothing converged, or empty shortlist) falls back
    // to the prior's top pick so callers always get an executable config.
    if (!incumbent) {
      out.config = ranked.empty() ? TuneConfig{} : ranked.front().config;
      if (!ranked.empty()) {
        out.score = ranked.front().score;
        out.per_iteration_seconds = ranked.front().per_iteration_seconds;
      }
      span.arg("config", config_id(out.config));
      span.arg("converged", false);
      return out;
    }

    const TuneTrial& winner = out.trials[*incumbent];
    out.config = winner.config;
    out.score = winner.score;
    out.per_iteration_seconds = winner.per_iteration_seconds;
    out.iterations = winner.iterations;

    // Stage 5: persist the winner.
    TuneRecord rec;
    rec.fingerprint = fp;
    rec.features = features;
    rec.config = winner.config;
    rec.score = winner.score;
    rec.per_iteration_seconds = winner.per_iteration_seconds;
    rec.iterations = winner.iterations;
    rec.trials = out.trials_measured;
    db_->record(rec);

    span.arg("config", config_id(out.config));
    span.arg("trials", static_cast<std::int64_t>(out.trials_measured));
    return out;
  }

 private:
  void count(const char* name, std::uint64_t n = 1) const {
    if (telemetry_ != nullptr) telemetry_->counter(name).add(n);
  }

  /// Modeled per-iteration seconds of a built ILU-family setup, on the
  /// structure the trial actually produced (not the prior's estimate).
  double modeled_iteration_seconds(const Csr<T>& a,
                                   const TriangularFactors<T>& factors,
                                   TrsvExec exec, const CostModel& device,
                                   const CostModel& host) const {
    PcgIterationShape shape;
    shape.n = a.rows;
    shape.a_nnz = a.nnz();
    shape.lower = trisolve_structure(factors.l, Triangle::kLower);
    shape.upper = trisolve_structure(factors.u, Triangle::kUpper);
    const CostModel& model = exec == TrsvExec::kSerial ? host : device;
    return model.pcg_iteration(shape).seconds;
  }

  /// Wavefront-free (SAI / block-Jacobi) per-iteration model: SpMV with A,
  /// an SpMV-shaped apply, and the fused BLAS-1 tail (same shape the prior
  /// uses, so trial and prior scores stay comparable).
  double modeled_apply_iteration_seconds(const Csr<T>& a,
                                         const CostModel& model) const {
    OpCost iter = model.spmv(a.rows, a.nnz());
    iter += model.spmv(a.rows, a.nnz());
    iter += model.blas1(a.rows, 14, 12);
    return iter.seconds;
  }

  TuneTrial run_trial(const Csr<T>& a, const MatrixFingerprint& fp,
                      const std::vector<T>& b, const TuneConfig& config,
                      double incumbent_score, const CostModel& device,
                      const CostModel& host) const {
    Span span("autotune.trial", "autotune");
    span.arg("config", config_id(config));
    TuneTrial trial;
    trial.config = config;

    // Build setup first — the per-iteration model of the real structure
    // decides the early-abort cap before the solve starts.
    PcgOptions pcg_opt = opt_.base.pcg;
    auto abort_cap = [&](double per_iter) {
      if (!opt_.early_abort || !std::isfinite(incumbent_score) ||
          per_iter <= 0.0)
        return pcg_opt.max_iterations;
      const double bound = std::ceil(incumbent_score / per_iter);
      const double capped =
          std::min(bound, static_cast<double>(pcg_opt.max_iterations));
      return static_cast<std::int32_t>(std::max(1.0, capped));
    };

    if (session_compatible(config)) {
      WallTimer setup_timer;
      SolverSession<T> session(a, fp, to_spcg_options(config, opt_.base),
                               cache_);
      trial.setup_seconds = setup_timer.seconds();
      trial.setup_cache_hit = session.setup_path() == SetupPath::kHit;
      trial.per_iteration_seconds = modeled_iteration_seconds(
          a, session.setup().factors, config.executor, device, host);
      const std::int32_t cap = abort_cap(trial.per_iteration_seconds);
      // Re-cap the solve without invalidating the cached setup: pcg options
      // are solve-phase and not part of the setup key, so run pcg directly
      // over the session's shared artifacts.
      pcg_opt.max_iterations = cap;
      const SpcgSetup<T>& setup = session.setup();
      const IluApplier<T> m(setup.factors, setup.l_schedule, setup.u_schedule,
                            config.executor);
      WallTimer solve_timer;
      SolveResult<T> solve = pcg(a, b, m, pcg_opt);
      trial.solve_seconds = solve_timer.seconds();
      trial.converged = solve.converged();
      trial.iterations = solve.iterations;
      trial.aborted = !trial.converged && cap < opt_.base.pcg.max_iterations;
    } else if (config.precond == TunePrecond::kIlut) {
      WallTimer setup_timer;
      const IluResult<T> fact = ilut(a, opt_.ilut);
      TriangularFactors<T> factors = split_lu(fact);
      const LevelSchedule l_sched =
          level_schedule(factors.l, Triangle::kLower);
      const LevelSchedule u_sched =
          level_schedule(factors.u, Triangle::kUpper);
      trial.setup_seconds = setup_timer.seconds();
      trial.per_iteration_seconds = modeled_iteration_seconds(
          a, factors, config.executor, device, host);
      const std::int32_t cap = abort_cap(trial.per_iteration_seconds);
      pcg_opt.max_iterations = cap;
      const IluApplier<T> m(factors, l_sched, u_sched, config.executor);
      WallTimer solve_timer;
      SolveResult<T> solve = pcg(a, b, m, pcg_opt);
      trial.solve_seconds = solve_timer.seconds();
      trial.converged = solve.converged();
      trial.iterations = solve.iterations;
      trial.aborted = !trial.converged && cap < opt_.base.pcg.max_iterations;
    } else {
      WallTimer setup_timer;
      std::unique_ptr<Preconditioner<T>> m;
      if (config.precond == TunePrecond::kSai) {
        m = std::make_unique<SaiPreconditioner<T>>(a, opt_.sai);
      } else {
        m = std::make_unique<BlockJacobiPreconditioner<T>>(
            a, opt_.block_jacobi_size);
      }
      trial.setup_seconds = setup_timer.seconds();
      const CostModel& model =
          config.executor == TrsvExec::kSerial ? host : device;
      trial.per_iteration_seconds = modeled_apply_iteration_seconds(a, model);
      const std::int32_t cap = abort_cap(trial.per_iteration_seconds);
      pcg_opt.max_iterations = cap;
      WallTimer solve_timer;
      SolveResult<T> solve = pcg(a, b, *m, pcg_opt);
      trial.solve_seconds = solve_timer.seconds();
      trial.converged = solve.converged();
      trial.iterations = solve.iterations;
      trial.aborted = !trial.converged && cap < opt_.base.pcg.max_iterations;
    }

    trial.score =
        static_cast<double>(trial.iterations) * trial.per_iteration_seconds;
    span.arg("iterations", trial.iterations);
    span.arg("converged", trial.converged);
    span.arg("aborted", trial.aborted);
    return trial;
  }

  TunerOptions opt_;
  std::shared_ptr<TuneDb> db_;
  std::shared_ptr<SetupCache<T>> cache_;
  TelemetryRegistry* telemetry_ = nullptr;
};

}  // namespace spcg
