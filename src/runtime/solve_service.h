// SolveService — asynchronous solver-as-a-service front end.
//
// A fixed worker pool drains a FIFO of solve requests. Each request is
// answered through a SolverSession backed by the service-wide SetupCache (a
// distributed request through dist_setup over the same cache), so repeated
// traffic against the same systems pays the setup phase once.
// Callers get a future plus a cancellation handle; requests carry optional
// deadlines (checked when a worker picks the request up and again between
// the primary attempt and the fallback — a running PCG is never interrupted
// mid-iteration).
//
// Graceful degradation: when the sparsified pipeline breaks (setup throws,
// e.g. ILU breakdown with pivot boosting disabled) or fails to converge, the
// worker automatically retries with the non-sparsified baseline (pivot
// boosting forced on) and reports the fallback and its reason in the reply.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/alloc_audit.h"
#include "autotune/tuner.h"
#include "core/spcg.h"
#include "dist/dist_pcg.h"
#include "runtime/session.h"
#include "runtime/setup_cache.h"
#include "support/error.h"
#include "support/telemetry.h"
#include "support/trace.h"

namespace spcg {

/// One async solve request. The matrix is shared (requests against the same
/// system reuse one allocation and one cached setup).
template <class T>
struct ServiceRequest {
  std::shared_ptr<const Csr<T>> a;
  std::vector<T> b;
  SpcgOptions options;
  /// Relative deadline from submission; expired requests are answered with
  /// kDeadlineExpired instead of being solved.
  std::optional<std::chrono::steady_clock::duration> deadline;
  /// Solve distributed over this many thread-ranks (1 = the serial session).
  /// Subdomain setups resolve through the same service-wide SetupCache.
  index_t parts = 1;
  PartitionOptions partition;  // partitioning strategy when parts > 1
  DistBody body = DistBody::kClassic;  // distributed body when parts > 1
  /// Transport backing for distributed requests (kind, collective timeout,
  /// injected latency).
  TransportOptions transport;
  /// Let the service's Tuner pick the configuration: `options` contributes
  /// the solve-phase knobs (tolerances, pivot handling), the tuned winner
  /// overrides the setup-phase ones (sparsify / preconditioner / executor).
  /// Repeat traffic against the same matrix answers from the tuning DB with
  /// zero measured trials. Serial requests only (parts == 1).
  bool autotune = false;
};

enum class RequestStatus {
  kOk,               // solved (inspect reply.solve.status for convergence)
  kDeadlineExpired,  // deadline passed before/between solve attempts
  kCancelled,        // cancellation observed before the solve started
  kFailed,           // both primary and fallback attempts threw
};

inline const char* to_string(RequestStatus s) {
  switch (s) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kDeadlineExpired: return "deadline-expired";
    case RequestStatus::kCancelled: return "cancelled";
    case RequestStatus::kFailed: return "failed";
  }
  return "unknown";
}

template <class T>
struct ServiceReply {
  RequestStatus status = RequestStatus::kFailed;
  SolveResult<T> solve;            // valid when status == kOk
  bool used_fallback = false;      // baseline retry produced `solve`
  std::string fallback_reason;     // why the primary attempt was abandoned
  std::string error;               // failure detail when status == kFailed
  bool setup_cache_hit = false;    // setup of the *answering* attempt
  /// The answering setup came from the same-pattern fast path (symbolic
  /// artifacts reused, numerics refreshed) rather than an exact hit/build.
  bool setup_pattern_refreshed = false;
  double queue_seconds = 0.0;      // submission -> worker pickup
  double solve_seconds = 0.0;      // PCG wall clock of the answering attempt
  std::shared_ptr<const SolverSetup<T>> setup;  // shared artifacts (if any)
  bool autotuned = false;          // a Tuner picked the configuration
  std::string tuned_config;        // config_id of the winner (when autotuned)
  bool tune_db_hit = false;        // winner came straight from the tuning DB
};

/// Aggregate counters of one service (see also SetupCacheStats).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;
  SetupCacheStats cache;
};

template <class T>
class SolveService {
 public:
  struct Options {
    Options() = default;
    Options(int workers_, std::size_t cache_capacity_)
        : workers(workers_), cache_capacity(cache_capacity_) {}

    int workers = 2;
    std::size_t cache_capacity = 16;
    /// Autotune wiring: tuning database shared by every autotune request
    /// (created internally when null — e.g. when no --tune-db file backs it)
    /// and the search knobs. The tuner itself is built by the service so it
    /// shares the service-wide SetupCache and telemetry.
    std::shared_ptr<TuneDb> tune_db;
    TunerOptions tuner;
  };

  /// Future + cancellation handle for one submitted request.
  struct Ticket {
    std::uint64_t id = 0;
    std::future<ServiceReply<T>> reply;
    std::shared_ptr<std::atomic<bool>> cancel_flag;

    /// Best-effort: a request already being solved completes normally.
    void request_cancel() const {
      cancel_flag->store(true, std::memory_order_relaxed);
    }
  };

  explicit SolveService(Options opt = {})
      : cache_(std::make_shared<SetupCache<T>>(opt.cache_capacity)),
        tuner_(opt.tuner, opt.tune_db ? opt.tune_db
                                      : std::make_shared<TuneDb>(),
               cache_, &telemetry_),
        submitted_(telemetry_.counter("service.submitted")),
        completed_(telemetry_.counter("service.completed")),
        fallbacks_(telemetry_.counter("service.fallbacks")),
        deadline_expired_(telemetry_.counter("service.deadline_expired")),
        cancelled_(telemetry_.counter("service.cancelled")),
        failed_(telemetry_.counter("service.failed")),
        autotuned_(telemetry_.counter("service.autotuned")) {
    const int workers = std::max(1, opt.workers);
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ~SolveService() { shutdown(); }

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Enqueue a request; throws spcg::Error after shutdown().
  Ticket submit(ServiceRequest<T> request) {
    SPCG_CHECK_MSG(request.a != nullptr, "request has no matrix");
    Job job;
    job.request = std::move(request);
    job.submitted_at = std::chrono::steady_clock::now();
    if (job.request.deadline)
      job.deadline_at = job.submitted_at + *job.request.deadline;
    job.cancel = std::make_shared<std::atomic<bool>>(false);

    Ticket ticket;
    ticket.reply = job.promise.get_future();
    ticket.cancel_flag = job.cancel;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      SPCG_CHECK_MSG(accepting_, "submit() after shutdown()");
      job.id = ticket.id = next_id_++;
      queue_.push_back(std::move(job));
    }
    submitted_.add();
    cv_.notify_one();
    return ticket;
  }

  /// Stop accepting work, drain the queue, join the workers. Every
  /// outstanding future is fulfilled before this returns. Idempotent.
  void shutdown() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!accepting_ && workers_.empty()) return;
      accepting_ = false;
    }
    cv_.notify_all();
    for (std::thread& t : workers_)
      if (t.joinable()) t.join();
    workers_.clear();
  }

  [[nodiscard]] ServiceStats stats() const {
    ServiceStats s;
    s.submitted = submitted_.value();
    s.completed = completed_.value();
    s.fallbacks = fallbacks_.value();
    s.deadline_expired = deadline_expired_.value();
    s.cancelled = cancelled_.value();
    s.failed = failed_.value();
    s.cache = cache_->stats();
    return s;
  }

  /// All service counters plus the cache's (and, in SPCG_ALLOC_AUDIT
  /// builds, the per-phase allocation-audit totals), for logging/CLIs.
  [[nodiscard]] std::vector<CounterSample> telemetry_snapshot() const {
    std::vector<CounterSample> out = telemetry_.snapshot();
    const SetupCacheStats c = cache_->stats();
    out.push_back({"setup_cache.entries", c.entries});
    out.push_back({"setup_cache.evictions", c.evictions});
    out.push_back({"setup_cache.hits", c.hits});
    out.push_back({"setup_cache.misses", c.misses});
    out.push_back({"setup_cache.partial_hits", c.partial_hits});
    analysis::append_alloc_counters(out);
    return out;
  }

  [[nodiscard]] const std::shared_ptr<SetupCache<T>>& cache() const {
    return cache_;
  }

  /// The service-wide tuner's tuning database (persisted by the CLI between
  /// runs; shared so external code can pre-load or save it).
  [[nodiscard]] const std::shared_ptr<TuneDb>& tune_db() const {
    return tuner_.db();
  }

 private:
  struct Job {
    std::uint64_t id = 0;
    ServiceRequest<T> request;
    std::promise<ServiceReply<T>> promise;
    std::shared_ptr<std::atomic<bool>> cancel;
    std::chrono::steady_clock::time_point submitted_at;
    std::optional<std::chrono::steady_clock::time_point> deadline_at;
  };

  void worker_loop() {
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return !queue_.empty() || !accepting_; });
        if (queue_.empty()) return;  // draining finished
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      // Queue wait is recorded retroactively (submission -> pickup) so the
      // trace timeline shows waiting and executing as adjacent spans.
      global_trace().record("queue_wait", "service", job.submitted_at,
                            MonotonicClock::now(),
                            {trace_arg("id", job.id)});
      ServiceReply<T> reply;
      {
        Span span("execute", "service");
        span.arg("id", job.id);
        const analysis::AllocAuditScope alloc_scope("service.execute");
        try {
          reply = process(job);
        } catch (const std::exception& e) {
          reply.status = RequestStatus::kFailed;  // defensive; process() catches
          reply.error = e.what();
          failed_.add();
        }
        span.arg("status", to_string(reply.status));
        span.arg("fallback", reply.used_fallback);
      }
      completed_.add();
      job.promise.set_value(std::move(reply));
    }
  }

  [[nodiscard]] bool expired(const Job& job) const {
    return job.deadline_at &&
           std::chrono::steady_clock::now() > *job.deadline_at;
  }

  ServiceReply<T> process(const Job& job) {
    ServiceReply<T> reply;
    reply.queue_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      job.submitted_at)
            .count();
    if (job.cancel->load(std::memory_order_relaxed)) {
      reply.status = RequestStatus::kCancelled;
      cancelled_.add();
      return reply;
    }
    if (expired(job)) {
      reply.status = RequestStatus::kDeadlineExpired;
      deadline_expired_.add();
      return reply;
    }

    // Primary attempt with the requested options. parts > 1 solves
    // distributed (per-subdomain setups share the same cache); its
    // degradation path is the serial baseline below, so a bad partition or
    // a non-converging Schwarz preconditioner still gets an answer.
    const bool distributed = job.request.parts > 1;
    const Csr<T>& a = *job.request.a;
    // The matrix is hashed at most once per request: the tuner and every
    // session below (primary, tuned winner, fallback) key on this one
    // fingerprint. A distributed request hashes only its subdomain blocks,
    // unless it falls back.
    std::optional<MatrixFingerprint> fp;
    const auto matrix_fp = [&]() -> const MatrixFingerprint& {
      if (!fp) fp = fingerprint(a);
      return *fp;
    };
    try {
      if (distributed) {
        DistOptions dopt;
        dopt.parts = job.request.parts;
        dopt.partition = job.request.partition;
        dopt.options = job.request.options;
        dopt.body = job.request.body;
        dopt.transport = job.request.transport;
        const DistSetup<T> setup = dist_setup(a, dopt, cache_.get());
        const auto hits = static_cast<std::uint64_t>(
            std::ranges::count(setup.paths, SetupPath::kHit));
        const auto refreshes = static_cast<std::uint64_t>(
            std::ranges::count(setup.paths, SetupPath::kRefresh));
        telemetry_.counter("dist.setup.cache_hits").add(hits);
        telemetry_.counter("dist.setup.partial_hits").add(refreshes);
        DistSolveResult<T> run = dist_pcg_solve(
            std::span<const T>(job.request.b), setup, dopt);
        record_dist_solve(run);
        reply.setup_cache_hit = hits == setup.paths.size();
        reply.setup_pattern_refreshed = refreshes > 0;
        reply.solve_seconds = run.solve_seconds;
        if (run.solve.converged()) {
          reply.status = RequestStatus::kOk;
          reply.solve = std::move(run.solve);
          return reply;
        }
        reply.fallback_reason =
            std::string("distributed solve did not converge (") +
            std::to_string(run.solve.iterations) + " iterations)";
      } else if (job.request.autotune) {
        // Tuned path: ask the tuner for this matrix's configuration (an
        // exact DB hit answers with zero measured trials), then execute the
        // winner. The caller's options contribute the solve-phase knobs.
        const TuneOutcome tuned = tuner_.tune(a, matrix_fp());
        reply.autotuned = true;
        reply.tuned_config = config_id(tuned.config);
        reply.tune_db_hit = tuned.db_hit;
        autotuned_.add();
        if (session_compatible(tuned.config)) {
          SolverSession<T> session(
              a, matrix_fp(),
              to_spcg_options(tuned.config, job.request.options), cache_);
          SessionSolveResult<T> run = session.solve(job.request.b);
          reply.setup_cache_hit = session.setup_path() == SetupPath::kHit;
          reply.setup = session.shared_setup();
          reply.solve_seconds = run.solve_seconds;
          if (run.solve.converged()) {
            reply.status = RequestStatus::kOk;
            reply.solve = std::move(run.solve);
            return reply;
          }
        } else {
          TunedSolve<T> run = solve_with_config(
              a, std::span<const T>(job.request.b), tuned.config,
              tuner_.options(), cache_);
          reply.setup_cache_hit = run.setup_cache_hit;
          reply.solve_seconds = run.solve_seconds;
          if (run.solve.converged()) {
            reply.status = RequestStatus::kOk;
            reply.solve = std::move(run.solve);
            return reply;
          }
        }
        reply.fallback_reason = std::string("tuned config ") +
                                reply.tuned_config + " did not converge";
      } else {
        SolverSession<T> session(a, matrix_fp(), job.request.options, cache_,
                                 /*allow_pattern_refresh=*/true);
        SessionSolveResult<T> run = session.solve(job.request.b);
        reply.setup_cache_hit = session.setup_path() == SetupPath::kHit;
        reply.setup_pattern_refreshed =
            session.setup_path() == SetupPath::kRefresh;
        reply.setup = session.shared_setup();
        reply.solve_seconds = run.solve_seconds;
        if (run.solve.converged() || !job.request.options.sparsify_enabled) {
          // Converged, or already the baseline: nothing left to degrade to.
          reply.status = RequestStatus::kOk;
          reply.solve = std::move(run.solve);
          return reply;
        }
        reply.fallback_reason = std::string("primary did not converge (") +
                                std::to_string(run.solve.iterations) +
                                " iterations)";
      }
    } catch (const std::exception& e) {
      if (!distributed && !job.request.autotune &&
          !job.request.options.sparsify_enabled) {
        reply.status = RequestStatus::kFailed;
        reply.error = e.what();
        failed_.add();
        return reply;
      }
      reply.fallback_reason = e.what();
    }

    // Degraded attempt: non-sparsified baseline, pivot boosting forced on.
    fallbacks_.add();
    if (job.cancel->load(std::memory_order_relaxed)) {
      reply.status = RequestStatus::kCancelled;
      cancelled_.add();
      return reply;
    }
    if (expired(job)) {
      reply.status = RequestStatus::kDeadlineExpired;
      deadline_expired_.add();
      return reply;
    }
    try {
      SpcgOptions baseline = job.request.options;
      baseline.sparsify_enabled = false;
      baseline.ilu.boost_zero_pivots = true;
      SolverSession<T> session(a, matrix_fp(), baseline, cache_);
      SessionSolveResult<T> run = session.solve(job.request.b);
      reply.status = RequestStatus::kOk;
      reply.used_fallback = true;
      reply.solve = std::move(run.solve);
      reply.setup_cache_hit = session.setup_path() == SetupPath::kHit;
      reply.setup = session.shared_setup();
      reply.solve_seconds = run.solve_seconds;
    } catch (const std::exception& e) {
      reply.status = RequestStatus::kFailed;
      reply.error = reply.fallback_reason + "; fallback: " + e.what();
      failed_.add();
    }
    return reply;
  }

  /// Per-solve communication counters of a distributed request.
  void record_dist_solve(const DistSolveResult<T>& run) {
    telemetry_.counter("dist.solves").add();
    telemetry_.counter("dist.iterations")
        .add(static_cast<std::uint64_t>(run.solve.iterations));
    telemetry_.counter("dist.allreduces").add(run.stats.allreduces);
    telemetry_.counter("dist.halo_exchanges").add(run.stats.halo_exchanges);
    telemetry_.histogram("dist.halo_bytes").record(run.stats.halo_bytes);
    // Transport cost: the slowest rank's blocked time and what overlap hid.
    telemetry_.histogram("dist.comm.wait_us")
        .record(static_cast<std::uint64_t>(run.stats.max_wait_seconds * 1e6));
    telemetry_.histogram("dist.comm.overlap_hidden_us")
        .record(static_cast<std::uint64_t>(run.stats.overlap_hidden_seconds *
                                           1e6));
    telemetry_.max_gauge("dist.overlap_pct")
        .update(static_cast<std::uint64_t>(run.stats.overlap_efficiency *
                                           100.0));
  }

  std::shared_ptr<SetupCache<T>> cache_;
  Tuner<T> tuner_;
  TelemetryRegistry telemetry_;
  Counter& submitted_;
  Counter& completed_;
  Counter& fallbacks_;
  Counter& deadline_expired_;
  Counter& cancelled_;
  Counter& failed_;
  Counter& autotuned_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  bool accepting_ = true;
  std::uint64_t next_id_ = 1;
  std::vector<std::thread> workers_;
};

}  // namespace spcg
