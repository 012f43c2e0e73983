// Distributed SPCG: PCG over a row-partitioned system with P ranks, each
// preconditioned by its own SPCG subdomain setup (restricted additive
// Schwarz, overlap 0: every rank factorizes its owned x owned interior
// block via spcg_setup and applies it with an IluApplier). Ranks talk over
// a pluggable Transport (dist/transport.h): in-process threads, a POSIX
// shared-memory segment, or TCP sockets.
//
// The rank bodies are not written here. Each is the serial solver's own
// loop instantiated on RankOps, the rank communication policy below
// (solver/pcg.h describes the policy seam). DistOptions::body picks one:
//   * classic      — detail::classic_cg (solver/pcg.h): two all-reduces per
//     iteration, the curvature (p, Ap) and {(r, z), ||r||^2} fused; 2k + 3
//     per solve, counting the ||b|| reduction, the startup one and the
//     true-residual check.
//   * comm-reduced — detail::pipelined_cg (solver/pipelined_cg.h): one
//     fused all-reduce per iteration, overlapped with the preconditioner
//     apply; k + 2 per solve.
// Both overlap every halo exchange with the interior SpMV (LocalSystem's
// interior/boundary split exists for exactly this); the arithmetic order
// stays interior first, boundary second.
//
// SPMD invariant: every control-flow decision (convergence, breakdown) is a
// function of all-reduced values, which the deterministic rank-order
// reduction makes bitwise identical on every rank — so all ranks execute the
// same collective sequence and either all finish or all abort (comm.h).
//
// P == 1 is bitwise-equal to the serial solvers: the single part's interior
// block is A itself, partial sums traverse the full vector in the serial
// order, and the reduction's T -> double -> T round trip is exact (identity
// for double, lossless widening for float). dist_test locks this in against
// both spcg_solve and pipelined_pcg, on every transport.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/spcg.h"
#include "dist/comm.h"
#include "dist/partition.h"
#include "precond/preconditioner.h"
#include "runtime/setup_cache.h"
#include "solver/pcg.h"
#include "solver/pipelined_cg.h"
#include "sparse/ops.h"
#include "support/fork_join.h"
#include "support/timer.h"
#include "support/trace.h"

namespace spcg {

/// Which rank-local iteration body drives the distributed solve.
enum class DistBody {
  kClassic,      // solver/pcg.h recurrence, 2 all-reduces / iteration
  kCommReduced,  // solver/pipelined_cg.h recurrence, 1 / iteration
};

inline const char* to_string(DistBody b) {
  switch (b) {
    case DistBody::kClassic: return "classic";
    case DistBody::kCommReduced: return "comm-reduced";
  }
  return "unknown";
}

/// Parse a CLI spelling: "classic" | "comm-reduced".
inline bool parse_dist_body(std::string_view name, DistBody* out) {
  if (name == "classic") {
    *out = DistBody::kClassic;
  } else if (name == "comm-reduced") {
    *out = DistBody::kCommReduced;
  } else {
    return false;
  }
  return true;
}

/// Configuration of a distributed solve.
struct DistOptions {
  index_t parts = 2;
  PartitionOptions partition;
  /// Per-subdomain SPCG pipeline configuration (sparsify + ILU + executor)
  /// and the PCG options of the outer distributed iteration.
  SpcgOptions options;
  DistBody body = DistBody::kClassic;
  /// Transport backing and knobs (kind, collective timeout, injected
  /// latency) for the rank group.
  TransportOptions transport;
};

/// Everything a distributed solve needs before it sees a right-hand side:
/// the partition, every part's LocalSystem, and one SPCG setup per
/// subdomain. Built once, reused across any number of solves — the same
/// amortization story as SpcgSetup, one level up. Subdomain setups are held
/// by shared_ptr so they can alias entries of a SetupCache.
template <class T>
struct DistSetup {
  Partition partition;
  std::vector<LocalSystem<T>> locals;
  std::vector<std::shared_ptr<const SpcgSetup<T>>> subdomains;
  std::vector<SetupPath> paths;  // how dist_setup obtained each subdomain
  index_t edge_cut = 0;
  double partition_seconds = 0.0;
  double setup_seconds = 0.0;

  [[nodiscard]] index_t parts() const { return partition.parts; }
};

/// Partition A, materialize the local systems, and set up SPCG on every
/// interior block (SPD: principal submatrix of SPD A). Without a cache each
/// block runs spcg_setup. With one, each block is resolved through it under
/// its own fingerprint, same-pattern refresh on: identical partitions share
/// every setup, and a values-only change refreshes a resident donor's
/// numbers instead of rebuilding.
template <class T>
DistSetup<T> dist_setup(const Csr<T>& a, const DistOptions& opt = {},
                        SetupCache<T>* cache = nullptr) {
  DistSetup<T> s;
  WallTimer timer;
  {
    Span span("partition", "dist");
    span.arg("parts", static_cast<std::int64_t>(opt.parts));
    s.partition = make_partition(a, opt.parts, opt.partition);
    s.locals = build_local_systems(a, s.partition);
  }
  s.partition_seconds = timer.seconds();
  s.edge_cut = partition_stats(a, s.partition).edge_cut;

  timer.reset();
  s.subdomains.reserve(s.locals.size());
  s.paths.reserve(s.locals.size());
  for (const LocalSystem<T>& loc : s.locals) {
    const Csr<T>& block = loc.a_interior;
    if (cache == nullptr) {
      s.subdomains.push_back(std::make_shared<SpcgSetup<T>>(
          spcg_setup(block, opt.options)));
      s.paths.push_back(SetupPath::kBuild);
      continue;
    }
    auto [setup, path] = cache->resolve(
        block, make_setup_key(block, opt.options), opt.options,
        /*refresh=*/true);
    // Alias the artifacts: the SolverSetup stays alive through the shared
    // control block.
    s.subdomains.emplace_back(setup, &setup->artifacts);
    s.paths.push_back(path);
  }
  s.setup_seconds = timer.seconds();
  return s;
}

/// Communication profile of one distributed solve.
struct DistSolveStats {
  std::uint64_t allreduces = 0;      // reductions issued (per rank; identical
                                     // on every rank by the SPMD invariant)
  std::uint64_t halo_exchanges = 0;  // exchanges issued (per rank)
  std::uint64_t halo_bytes = 0;      // gathered payload, summed over ranks
  double max_wait_seconds = 0.0;     // slowest rank's total barrier time
  double overlap_hidden_seconds = 0.0;  // compute inside open collectives,
                                        // summed over ranks
  /// Fraction of synchronization hidden behind compute: overlapped work /
  /// (overlapped work + barrier waits), summed over ranks. Both bodies hide
  /// each halo exchange behind the interior SpMV; comm-reduced also hides
  /// its reduction behind the preconditioner apply.
  double overlap_efficiency = 0.0;
};

template <class T>
struct DistSolveResult {
  SolveResult<T> solve;
  DistSolveStats stats;
  double solve_seconds = 0.0;
};

/// What the deterministic distributed reduction yields for dot(x, y): one
/// partial sum per part in T (ascending local row order), folded in rank
/// order as double, cast back to T. The serial oracle dist_test compares the
/// concurrent execution against, to 0 ULP. For parts == 1 it equals dot().
template <class T>
T dist_dot_reference(std::span<const T> x, std::span<const T> y,
                     const Partition& p) {
  SPCG_CHECK(static_cast<index_t>(x.size()) == p.global_rows);
  SPCG_CHECK(x.size() == y.size());
  double acc = 0.0;
  for (const auto& rows : p.owned) {
    T part{0};
    for (const index_t g : rows)
      part += x[static_cast<std::size_t>(g)] * y[static_cast<std::size_t>(g)];
    acc += static_cast<double>(part);
  }
  return static_cast<T>(acc);
}

namespace detail {

/// y += B * h: accumulate the boundary block against the gathered halo,
/// handing each finished row to `row_done(i, y_i)`; the hook is taken and
/// returned by value, as in spmv_rows (sparse/ops.h).
template <class T, class RowDone>
RowDone spmv_add(const Csr<T>& bnd, std::span<const T> h, std::span<T> y,
                 RowDone row_done) {
  for (index_t i = 0; i < bnd.rows; ++i) {
    T acc = y[static_cast<std::size_t>(i)];
    for (index_t p = bnd.rowptr[static_cast<std::size_t>(i)];
         p < bnd.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      acc += bnd.values[static_cast<std::size_t>(p)] *
             h[static_cast<std::size_t>(bnd.colind[static_cast<std::size_t>(p)])];
    }
    y[static_cast<std::size_t>(i)] = acc;
    row_done(i, acc);
  }
  return row_done;
}

/// Rank communication policy (the seam solver/pcg.h describes). The matvec
/// publishes this rank's slice and runs the interior SpMV while the halo is
/// in flight, then adds the boundary block against the gathered halo; that
/// boundary pass finishes every owned row in order, so matvec_dot takes its
/// (x, y) partial there. The reductions are the deterministic all-reduce;
/// reduce_around runs its work between reduce_begin and reduce_end.
template <class T>
struct RankOps {
  static constexpr const char* kCategory = "dist";
  Communicator<T>& comm;
  const LocalSystem<T>& local;
  std::vector<T> halo;

  [[nodiscard]] index_t nnz() const {
    return local.a_interior.nnz() + local.a_boundary.nnz();
  }

  void matvec(std::span<const T> x, std::span<T> y) {
    matvec_rows(x, y, [](index_t, T) {});
  }

  T matvec_dot(std::span<const T> x, std::span<T> y) {
    return matvec_rows(x, y, DotRows<T>{x}).xy;
  }

  template <class RowDone>
  RowDone matvec_rows(std::span<const T> x, std::span<T> y,
                      RowDone row_done) {
    auto h = comm.exchange_begin(x);
    WallTimer timer;
    spmv(local.a_interior, x, y);
    comm.note_overlap_compute(timer.seconds());
    Span span("halo_exchange", kCategory);
    comm.exchange_end(h, local, std::span<T>(halo));
    return spmv_add(local.a_boundary, std::span<const T>(halo), y, row_done);
  }

  void reduce(std::span<double> partials) {
    Span span("allreduce", kCategory);
    comm.allreduce(partials);
  }

  /// If `work` throws (the checked executor's race report), the collective
  /// is closed first, so the abort fires outside the open window (comm.h
  /// contract).
  template <class Work>
  void reduce_around(std::span<double> partials, Work&& work) {
    auto h = comm.reduce_begin(std::span<const double>(partials));
    std::exception_ptr error;
    WallTimer timer;
    try {
      work();
    } catch (...) {
      error = std::current_exception();
    }
    comm.note_overlap_compute(timer.seconds());
    Span span("allreduce", kCategory);
    comm.reduce_end(h, partials);
    if (error) std::rethrow_exception(error);
  }
};

}  // namespace detail

/// The rank-local part of one distributed solve: gather this rank's slice of
/// b, run the body DistOptions::body names over the rank policy, scatter the
/// slice of x back; rank 0 reports status, iterations, the true residual and
/// the history. Public so multi-process rank drivers (examples/
/// spcg_dist_worker) can run one rank over a process transport.
template <class T>
void dist_pcg_rank(Communicator<T>& comm, const DistSetup<T>& setup,
                   std::span<const T> b, const DistOptions& opt,
                   std::span<T> x_global, SolveResult<T>& res) {
  const auto rank = static_cast<std::size_t>(comm.rank());
  const LocalSystem<T>& local = setup.locals[rank];
  const SpcgSetup<T>& sub = *setup.subdomains[rank];
  const IluApplier<T> m(sub.factors, sub.l_schedule, sub.u_schedule,
                        opt.options.executor);
  const std::vector<T> b_loc = gather_local(b, local.owned);
  detail::RankOps<T> ops{
      comm, local,
      std::vector<T>(static_cast<std::size_t>(local.halo_size()))};
  PcgWorkspace<T> ws;
  SolveResult<T> mine =
      opt.body == DistBody::kCommReduced
          ? detail::pipelined_cg(ops, std::span<const T>(b_loc), m,
                                 opt.options.pcg, {}, ws)
          : detail::classic_cg(ops, std::span<const T>(b_loc), m,
                               opt.options.pcg, {}, ws);
  scatter_local(std::span<const T>(mine.x), local.owned, x_global);
  if (rank == 0) {
    res.status = mine.status;
    res.iterations = mine.iterations;
    res.final_residual_norm = mine.final_residual_norm;
    res.residual_history = std::move(mine.residual_history);
  }
}

/// Per-rank window sizes for the halo-exchange substrate: every rank
/// publishes at most its owned vector.
template <class T>
std::vector<std::size_t> dist_window_bytes(const DistSetup<T>& setup) {
  std::vector<std::size_t> bytes;
  bytes.reserve(setup.locals.size());
  for (const LocalSystem<T>& loc : setup.locals)
    bytes.push_back(static_cast<std::size_t>(loc.rows()) * sizeof(T));
  return bytes;
}

/// Run the distributed solve: rank r on worker r of one fork_join team, rank
/// 0 on the calling thread. A rank that throws aborts the world; once every
/// rank has joined, the first non-CommAborted error is rethrown here, and a
/// CommAborted only when no rank has another error. Should a rank's thread
/// fail to spawn, no rank runs and the spawn's error is rethrown.
template <class T>
DistSolveResult<T> dist_pcg_solve(std::span<const T> b,
                                  const DistSetup<T>& setup,
                                  const DistOptions& opt = {}) {
  const index_t parts = setup.partition.parts;
  SPCG_CHECK(parts >= 1);
  SPCG_CHECK(static_cast<index_t>(b.size()) == setup.partition.global_rows);
  SPCG_CHECK(static_cast<index_t>(setup.locals.size()) == parts);
  SPCG_CHECK(static_cast<index_t>(setup.subdomains.size()) == parts);

  DistSolveResult<T> out;
  out.solve.x.assign(b.size(), T{0});
  WallTimer timer;

  const std::vector<std::size_t> window_bytes = dist_window_bytes(setup);
  const std::unique_ptr<TransportGroup> group = make_transport_group(
      parts, std::span<const std::size_t>(window_bytes), opt.transport);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(parts));
  std::vector<CommStats> rank_stats(static_cast<std::size_t>(parts));
  const std::span<T> x_global(out.solve.x);

  fork_join(static_cast<std::size_t>(parts), [&](std::size_t w) {
    const auto rank = static_cast<index_t>(w);
    Communicator<T> comm(&group->transport(rank));
    Span rank_span("rank", "dist");
    rank_span.arg("rank", static_cast<std::int64_t>(rank));
    rank_span.arg("body", std::string(to_string(opt.body)));
    try {
      dist_pcg_rank(comm, setup, b, opt, x_global, out.solve);
    } catch (...) {
      errors[w] = std::current_exception();
      comm.abort();
    }
    const CommStats cs = comm.stats();
    rank_stats[w] = cs;
    rank_span.arg("allreduces", cs.allreduces);
    rank_span.arg("halo_exchanges", cs.halo_exchanges);
    rank_span.arg("halo_bytes", cs.halo_bytes);
    rank_span.arg("wait_seconds", cs.wait_seconds);
  });

  std::exception_ptr secondary;
  for (const std::exception_ptr& e : errors) {
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const CommAborted&) {
      if (!secondary) secondary = e;  // victim of another rank's abort
    } catch (...) {
      throw;  // the originating error
    }
  }
  if (secondary) std::rethrow_exception(secondary);

  double hidden = 0.0, waits = 0.0;
  for (const CommStats& cs : rank_stats) {
    out.stats.halo_bytes += cs.halo_bytes;
    out.stats.max_wait_seconds =
        std::max(out.stats.max_wait_seconds, cs.wait_seconds);
    hidden += cs.overlap_hidden_seconds;
    waits += cs.wait_seconds;
  }
  out.stats.allreduces = rank_stats[0].allreduces;
  out.stats.halo_exchanges = rank_stats[0].halo_exchanges;
  out.stats.overlap_hidden_seconds = hidden;
  out.stats.overlap_efficiency =
      hidden + waits > 0.0 ? hidden / (hidden + waits) : 0.0;
  out.solve_seconds = timer.seconds();
  return out;
}

/// Vector-argument convenience.
template <class T>
DistSolveResult<T> dist_pcg_solve(const std::vector<T>& b,
                                  const DistSetup<T>& setup,
                                  const DistOptions& opt = {}) {
  return dist_pcg_solve(std::span<const T>(b), setup, opt);
}

}  // namespace spcg
