// DistSolverSession — setup-once / solve-many handle over one partitioned
// system (the distributed sibling of SolverSession).
//
// Construction partitions the matrix, materializes every part's LocalSystem,
// and resolves one SPCG setup per subdomain interior block. With a
// SetupCache attached the subdomain setups flow through it keyed by each
// interior block's own fingerprint — so two sessions partitioning the same
// system the same way share all P setups, and a repartitioned session reuses
// any interior blocks that came out identical. When the exact key misses but
// a same-pattern entry is resident (a values-only change — the transient
// regime), the session takes the partial-hit fast path: clone the donor's
// symbolic artifacts and refresh the numerics in place
// (transient/refactorize.h) instead of a cold spcg_setup. The refreshed
// clone stays private to the session — it is never inserted back into the
// cache (the cache contract for pattern donors). Without a cache the setups
// are built privately.
//
// Thread safety: solve() is const, every rank of a solve allocates its own
// iteration vectors, and the ILU apply (one IluApplier per rank) is
// stateless, so one session may serve many threads concurrently, like
// SolverSession.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "dist/dist_pcg.h"
#include "runtime/setup_cache.h"
#include "support/telemetry.h"
#include "support/timer.h"
#include "transient/refactorize.h"

namespace spcg {

template <class T>
class DistSolverSession {
 public:
  /// Share ownership of the matrix (the usual service path). `telemetry`
  /// (optional, borrowed) receives per-solve communication counters.
  DistSolverSession(std::shared_ptr<const Csr<T>> a, DistOptions opt,
                    std::shared_ptr<SetupCache<T>> cache = nullptr,
                    TelemetryRegistry* telemetry = nullptr)
      : a_(std::move(a)), opt_(std::move(opt)), cache_(std::move(cache)),
        telemetry_(telemetry) {
    init();
  }

  /// Borrow a caller-owned matrix (must outlive the session).
  DistSolverSession(const Csr<T>& a, DistOptions opt,
                    std::shared_ptr<SetupCache<T>> cache = nullptr,
                    TelemetryRegistry* telemetry = nullptr)
      : DistSolverSession(
            std::shared_ptr<const Csr<T>>(&a, [](const Csr<T>*) {}),
            std::move(opt), std::move(cache), telemetry) {}

  [[nodiscard]] const Csr<T>& matrix() const { return *a_; }
  [[nodiscard]] const DistOptions& options() const { return opt_; }
  [[nodiscard]] const DistSetup<T>& setup() const { return setup_; }
  [[nodiscard]] index_t parts() const { return setup_.partition.parts; }
  /// How many of the P subdomain setups construction found already cached
  /// (0 when the session has no cache).
  [[nodiscard]] index_t subdomain_cache_hits() const { return cache_hits_; }
  /// How many subdomain setups came from the same-pattern fast path (a
  /// resident setup with this pattern but different values, numerics
  /// refreshed in place instead of rebuilt).
  [[nodiscard]] index_t subdomain_partial_hits() const {
    return partial_hits_;
  }

  /// Solve A x = b with the cached distributed setup. Safe to call
  /// concurrently.
  DistSolveResult<T> solve(std::span<const T> b) const {
    DistSolveResult<T> out = dist_pcg_solve(b, setup_, opt_);
    if (telemetry_) record(out);
    return out;
  }

  DistSolveResult<T> solve(const std::vector<T>& b) const {
    return solve(std::span<const T>(b));
  }

 private:
  void init() {
    WallTimer timer;
    setup_.partition = make_partition(*a_, opt_.parts, opt_.partition);
    setup_.locals = build_local_systems(*a_, setup_.partition);
    setup_.partition_seconds = timer.seconds();
    setup_.edge_cut = partition_stats(*a_, setup_.partition).edge_cut;

    timer.reset();
    setup_.subdomains.reserve(setup_.locals.size());
    for (const LocalSystem<T>& loc : setup_.locals) {
      if (cache_) {
        const SetupKey key = make_setup_key(loc.a_interior, opt_.options);
        if (auto exact = cache_->lookup(key)) {
          ++cache_hits_;
          // Alias into the cached SolverSetup: the SpcgSetup stays alive
          // through the outer shared_ptr's control block.
          setup_.subdomains.emplace_back(exact, &exact->artifacts);
          continue;
        }
        if (auto donor = cache_->lookup_same_pattern(key)) {
          // Values-only fast path: private clone of the donor's symbolic
          // artifacts, numerics refreshed against this interior block. Not
          // inserted back into the cache (lookup_same_pattern contract).
          auto clone =
              std::make_shared<SpcgSetup<T>>(donor->artifacts);
          NumericRefreshWorkspace ws =
              build_numeric_refresh(*clone, loc.a_interior);
          refresh_setup_numerics(*clone, loc.a_interior, opt_.options, ws);
          ++partial_hits_;
          setup_.subdomains.push_back(std::move(clone));
          continue;
        }
        bool hit = false;
        auto shared = cache_->get_or_build(
            key, [&] { return spcg_setup(loc.a_interior, opt_.options); },
            &hit);
        if (hit) ++cache_hits_;
        setup_.subdomains.emplace_back(shared, &shared->artifacts);
      } else {
        setup_.subdomains.push_back(std::make_shared<SpcgSetup<T>>(
            spcg_setup(loc.a_interior, opt_.options)));
      }
    }
    setup_.setup_seconds = timer.seconds();
    if (telemetry_) {
      telemetry_->counter("dist.setup.cache_hits")
          .add(static_cast<std::uint64_t>(cache_hits_));
      telemetry_->counter("dist.setup.partial_hits")
          .add(static_cast<std::uint64_t>(partial_hits_));
    }
  }

  void record(const DistSolveResult<T>& out) const {
    telemetry_->counter("dist.solves").add();
    telemetry_->counter("dist.iterations")
        .add(static_cast<std::uint64_t>(out.solve.iterations));
    telemetry_->counter("dist.allreduces").add(out.stats.allreduces);
    telemetry_->counter("dist.halo_exchanges").add(out.stats.halo_exchanges);
    telemetry_->histogram("dist.halo_bytes").record(out.stats.halo_bytes);
    // Transport cost: the slowest rank's blocked time and what overlap hid,
    // per solve — lands in --metrics-out like every compute phase.
    telemetry_->histogram("dist.comm.wait_us")
        .record(static_cast<std::uint64_t>(out.stats.max_wait_seconds * 1e6));
    telemetry_->histogram("dist.comm.overlap_hidden_us")
        .record(static_cast<std::uint64_t>(out.stats.overlap_hidden_seconds *
                                           1e6));
    telemetry_->max_gauge("dist.overlap_pct")
        .update(static_cast<std::uint64_t>(out.stats.overlap_efficiency *
                                           100.0));
  }

  std::shared_ptr<const Csr<T>> a_;
  DistOptions opt_;
  std::shared_ptr<SetupCache<T>> cache_;
  TelemetryRegistry* telemetry_;
  DistSetup<T> setup_;
  index_t cache_hits_ = 0;
  index_t partial_hits_ = 0;
};

}  // namespace spcg
