// Tests for the distributed layer (src/dist/): partition invariants and
// exact matrix reconstruction, communicator determinism and abort handling
// (DistComm/DistHalo run real concurrent ranks — the TSan CI job targets
// them), 0-ULP distributed reductions against the serial oracle, the
// distributed solver's bitwise P=1 equality plus multi-part convergence,
// the transport conformance suite (the same determinism / abort / halo /
// bitwise contracts run against every Transport backing), and a forked
// two-process socket smoke test.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dist/dist.h"
#include "gen/generators.h"
#include "gen/suite.h"
#include "runtime/runtime.h"
#include "solver/pipelined_cg.h"
#include "sparse/reorder.h"
#include "support/rng.h"

namespace spcg {
namespace {

SpcgOptions fast_options() {
  SpcgOptions opt;
  opt.pcg.tolerance = 1e-8;
  opt.pcg.max_iterations = 2000;
  return opt;
}

// ---------------------------------------------------------------------------
// DistPartition

TEST(DistPartition, ContiguousCoversEveryRowOnceAndBalances) {
  const Csr<double> a = gen_poisson2d(20, 20);
  const Partition p = make_partition(a, 4);
  EXPECT_NO_THROW(validate_partition(p));
  const PartitionStats s = partition_stats(a, p);
  EXPECT_LE(s.max_rows - s.min_rows, 1);
  EXPECT_GT(s.edge_cut, 0);
  EXPECT_LE(s.imbalance, 1.0 + 1e-9);
}

TEST(DistPartition, BfsGreedyCoversDisconnectedGraph) {
  // Two disjoint chains (8 + 5 vertices); BFS growing must seed both
  // components and still assign every row exactly once.
  std::vector<Triplet<double>> ts;
  auto chain = [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      ts.push_back({i, i, 4.0});
      if (i + 1 < hi) {
        ts.push_back({i, i + 1, -1.0});
        ts.push_back({i + 1, i, -1.0});
      }
    }
  };
  chain(0, 8);
  chain(8, 13);
  const Csr<double> a = csr_from_triplets(13, 13, std::move(ts));
  PartitionOptions opt;
  opt.strategy = PartitionOptions::Strategy::kBfsGreedy;
  const Partition p = make_partition(a, 3, opt);
  EXPECT_NO_THROW(validate_partition(p));
  const PartitionStats s = partition_stats(a, p);
  EXPECT_GE(s.min_rows, 1);
}

TEST(DistPartition, RcmPrepassCutsFewerEdgesOnShuffledOrdering) {
  const Csr<double> natural = gen_poisson2d(16, 16);
  const Csr<double> shuffled =
      permute_symmetric(natural, random_permutation(natural.rows, 7));
  PartitionOptions plain;
  PartitionOptions rcm;
  rcm.rcm_prepass = true;
  const index_t cut_plain =
      partition_stats(shuffled, make_partition(shuffled, 4, plain)).edge_cut;
  const index_t cut_rcm =
      partition_stats(shuffled, make_partition(shuffled, 4, rcm)).edge_cut;
  EXPECT_LT(cut_rcm, cut_plain);
}

TEST(DistPartition, LocalSystemsReconstructTheMatrixExactly) {
  const Csr<double> a = gen_poisson2d(9, 7);
  for (const index_t parts : {1, 2, 3, 5}) {
    const Partition p = make_partition(a, parts);
    const auto locals = build_local_systems(a, p);
    ASSERT_EQ(static_cast<index_t>(locals.size()), parts);
    index_t rows_seen = 0;
    for (const LocalSystem<double>& loc : locals) {
      rows_seen += loc.rows();
      for (index_t l = 0; l < loc.rows(); ++l) {
        const index_t g = loc.owned[static_cast<std::size_t>(l)];
        // Merge interior (owned columns) and boundary (halo columns) entries
        // back to global indices and compare against A's row bit for bit.
        std::vector<std::pair<index_t, double>> entries;
        for (index_t q = loc.a_interior.rowptr[static_cast<std::size_t>(l)];
             q < loc.a_interior.rowptr[static_cast<std::size_t>(l) + 1]; ++q) {
          entries.emplace_back(
              loc.owned[static_cast<std::size_t>(
                  loc.a_interior.colind[static_cast<std::size_t>(q)])],
              loc.a_interior.values[static_cast<std::size_t>(q)]);
        }
        for (index_t q = loc.a_boundary.rowptr[static_cast<std::size_t>(l)];
             q < loc.a_boundary.rowptr[static_cast<std::size_t>(l) + 1]; ++q) {
          entries.emplace_back(
              loc.halo[static_cast<std::size_t>(
                  loc.a_boundary.colind[static_cast<std::size_t>(q)])],
              loc.a_boundary.values[static_cast<std::size_t>(q)]);
        }
        std::sort(entries.begin(), entries.end());
        const index_t begin = a.rowptr[static_cast<std::size_t>(g)];
        const index_t end = a.rowptr[static_cast<std::size_t>(g) + 1];
        ASSERT_EQ(static_cast<index_t>(entries.size()), end - begin);
        for (index_t q = begin; q < end; ++q) {
          EXPECT_EQ(entries[static_cast<std::size_t>(q - begin)].first,
                    a.colind[static_cast<std::size_t>(q)]);
          EXPECT_EQ(entries[static_cast<std::size_t>(q - begin)].second,
                    a.values[static_cast<std::size_t>(q)]);
        }
      }
    }
    EXPECT_EQ(rows_seen, a.rows);
  }
}

TEST(DistPartition, SinglePartInteriorIsBitwiseTheMatrix) {
  const Csr<double> a = gen_poisson2d(8, 8);
  const auto locals = build_local_systems(a, make_partition(a, 1));
  ASSERT_EQ(locals.size(), 1u);
  EXPECT_EQ(locals[0].halo_size(), 0);
  EXPECT_TRUE(locals[0].edges.empty());
  EXPECT_EQ(locals[0].a_interior.rowptr, a.rowptr);
  EXPECT_EQ(locals[0].a_interior.colind, a.colind);
  EXPECT_EQ(locals[0].a_interior.values, a.values);
}

// ---------------------------------------------------------------------------
// DistComm — concurrent rank harness (TSan target)

/// Run `fn(comm)` on the ranks of an explicit transport group with the same
/// abort protocol as dist_pcg_solve; returns one exception_ptr slot per rank.
template <class Fn>
std::vector<std::exception_ptr> run_group(TransportGroup& group, Fn fn) {
  const index_t parts = group.size();
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(parts));
  auto body = [&](index_t rank) {
    Communicator<double> comm(&group.transport(rank));
    try {
      fn(comm);
    } catch (...) {
      errors[static_cast<std::size_t>(rank)] = std::current_exception();
      comm.abort();
    }
  };
  std::vector<std::thread> threads;
  for (index_t r = 1; r < parts; ++r) threads.emplace_back(body, r);
  body(0);
  for (std::thread& t : threads) t.join();
  return errors;
}

/// Run `fn(comm)` on P concurrent in-process ranks.
template <class Fn>
std::vector<std::exception_ptr> run_world(index_t parts, Fn fn) {
  const std::unique_ptr<TransportGroup> group =
      make_transport_group(parts, {}, {});
  return run_group(*group, fn);
}

TEST(DistComm, AllreduceIsDeterministicRankOrderSum) {
  constexpr index_t kParts = 4;
  constexpr int kRounds = 25;
  // Rank-order fold oracle, computed serially.
  std::vector<double> expected;
  for (int i = 0; i < kRounds; ++i) {
    double acc = 0.0;
    for (index_t r = 0; r < kParts; ++r)
      acc += 0.1 * static_cast<double>(r + 1) + static_cast<double>(i);
    expected.push_back(acc);
  }
  for (int run = 0; run < 2; ++run) {  // run-to-run reproducibility
    std::array<std::vector<double>, kParts> got;
    auto errors = run_world(kParts, [&](Communicator<double>& comm) {
      for (int i = 0; i < kRounds; ++i) {
        const double v = 0.1 * static_cast<double>(comm.rank() + 1) +
                         static_cast<double>(i);
        got[static_cast<std::size_t>(comm.rank())].push_back(
            comm.allreduce1(v));
      }
    });
    for (const auto& e : errors) EXPECT_FALSE(e);
    for (index_t r = 0; r < kParts; ++r) {
      ASSERT_EQ(got[static_cast<std::size_t>(r)].size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        // Bitwise: the deterministic reduction promises identical bits on
        // every rank and every run.
        EXPECT_EQ(got[static_cast<std::size_t>(r)][i], expected[i]);
      }
    }
  }
}

TEST(DistComm, SplitPhaseReduceOverlapsComputeAndStaysCorrect) {
  constexpr index_t kParts = 3;
  auto errors = run_world(kParts, [&](Communicator<double>& comm) {
    for (int i = 0; i < 10; ++i) {
      std::array<double, 2> vals{static_cast<double>(comm.rank()),
                                 static_cast<double>(i)};
      auto h = comm.reduce_begin(std::span<const double>(vals));
      // Overlapped "compute": touch local state while others arrive.
      volatile double sink = 0.0;
      for (int j = 0; j < 1000; ++j) sink = sink + 1.0;
      std::array<double, 2> out{};
      comm.reduce_end(h, std::span<double>(out));
      EXPECT_EQ(out[0], 0.0 + 1.0 + 2.0);
      EXPECT_EQ(out[1], 3.0 * static_cast<double>(i));
    }
  });
  for (const auto& e : errors) EXPECT_FALSE(e);
}

TEST(DistComm, AbortOnOneRankPropagatesToAll) {
  constexpr index_t kParts = 3;
  auto errors = run_world(kParts, [&](Communicator<double>& comm) {
    for (int i = 0; i < 10; ++i) {
      if (comm.rank() == 1 && i == 5) throw std::runtime_error("rank fault");
      comm.allreduce1(1.0);
    }
  });
  ASSERT_TRUE(errors[1]);
  EXPECT_THROW(std::rethrow_exception(errors[1]), std::runtime_error);
  for (const index_t r : {0, 2}) {
    ASSERT_TRUE(errors[static_cast<std::size_t>(r)]);
    EXPECT_THROW(std::rethrow_exception(errors[static_cast<std::size_t>(r)]),
                 CommAborted);
  }
}

// ---------------------------------------------------------------------------
// DistHalo — concurrent halo exchange (TSan target)

TEST(DistHalo, ExchangeGathersNeighborValuesAcrossRounds) {
  const Csr<double> a = gen_poisson2d(12, 12);
  constexpr index_t kParts = 3;
  const Partition part = make_partition(a, kParts);
  const auto locals = build_local_systems(a, part);

  constexpr int kRounds = 50;
  auto errors = run_world(kParts, [&](Communicator<double>& comm) {
    const LocalSystem<double>& loc =
        locals[static_cast<std::size_t>(comm.rank())];
    std::vector<double> x(static_cast<std::size_t>(loc.rows()));
    std::vector<double> halo(static_cast<std::size_t>(loc.halo_size()));
    for (int round = 0; round < kRounds; ++round) {
      // Encode (round, global row) so stale reads from a previous round are
      // detected, not just wrong neighbors.
      for (index_t l = 0; l < loc.rows(); ++l)
        x[static_cast<std::size_t>(l)] =
            1000.0 * round +
            static_cast<double>(loc.owned[static_cast<std::size_t>(l)]);
      auto h = comm.exchange_begin(std::span<const double>(x));
      comm.exchange_end(h, loc, std::span<double>(halo));
      for (index_t s = 0; s < loc.halo_size(); ++s) {
        EXPECT_EQ(halo[static_cast<std::size_t>(s)],
                  1000.0 * round +
                      static_cast<double>(loc.halo[static_cast<std::size_t>(s)]));
      }
      // A reduction separates exchange_end from the next mutation of x,
      // exactly the solver loops' buffer-reuse contract; it also stresses
      // the interleaving of both collective types' ping-pong banks.
      const double sum = comm.allreduce1(static_cast<double>(round));
      EXPECT_EQ(sum, static_cast<double>(kParts) * round);
    }
  });
  for (const auto& e : errors) EXPECT_FALSE(e);
}

// ---------------------------------------------------------------------------
// TransportConformance — the same contracts against every backing

class TransportConformance : public ::testing::TestWithParam<TransportKind> {
 protected:
  [[nodiscard]] TransportOptions options(double timeout = 30.0) const {
    TransportOptions opt;
    opt.kind = GetParam();
    opt.collective_timeout_seconds = timeout;
    return opt;
  }
};

TEST_P(TransportConformance, AllreduceIsDeterministicRankOrderSum) {
  constexpr index_t kParts = 4;
  constexpr int kRounds = 10;
  std::vector<double> expected;
  for (int i = 0; i < kRounds; ++i) {
    double acc = 0.0;
    for (index_t r = 0; r < kParts; ++r)
      acc += 0.1 * static_cast<double>(r + 1) + static_cast<double>(i);
    expected.push_back(acc);
  }
  for (int run = 0; run < 2; ++run) {  // run-to-run reproducibility
    auto group = make_transport_group(kParts, {}, options());
    std::array<std::vector<double>, kParts> got;
    auto errors = run_group(*group, [&](Communicator<double>& comm) {
      for (int i = 0; i < kRounds; ++i) {
        const double v = 0.1 * static_cast<double>(comm.rank() + 1) +
                         static_cast<double>(i);
        got[static_cast<std::size_t>(comm.rank())].push_back(
            comm.allreduce1(v));
      }
    });
    for (const auto& e : errors) EXPECT_FALSE(e);
    for (index_t r = 0; r < kParts; ++r) {
      ASSERT_EQ(got[static_cast<std::size_t>(r)].size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(got[static_cast<std::size_t>(r)][i], expected[i]);  // bits
    }
  }
}

TEST_P(TransportConformance, SplitPhaseReduceOverlapsComputeAndStaysCorrect) {
  constexpr index_t kParts = 3;
  auto group = make_transport_group(kParts, {}, options());
  auto errors = run_group(*group, [&](Communicator<double>& comm) {
    for (int i = 0; i < 5; ++i) {
      std::array<double, 2> vals{static_cast<double>(comm.rank()),
                                 static_cast<double>(i)};
      auto h = comm.reduce_begin(std::span<const double>(vals));
      volatile double sink = 0.0;
      for (int j = 0; j < 1000; ++j) sink = sink + 1.0;
      std::array<double, 2> out{};
      comm.reduce_end(h, std::span<double>(out));
      EXPECT_EQ(out[0], 0.0 + 1.0 + 2.0);
      EXPECT_EQ(out[1], 3.0 * static_cast<double>(i));
    }
  });
  for (const auto& e : errors) EXPECT_FALSE(e);
}

TEST_P(TransportConformance, HaloExchangeGathersNeighborValuesAcrossRounds) {
  const Csr<double> a = gen_poisson2d(12, 12);
  constexpr index_t kParts = 3;
  const Partition part = make_partition(a, kParts);
  const auto locals = build_local_systems(a, part);
  std::vector<std::size_t> window_bytes;
  for (const LocalSystem<double>& loc : locals)
    window_bytes.push_back(static_cast<std::size_t>(loc.rows()) *
                           sizeof(double));

  auto group = make_transport_group(
      kParts, std::span<const std::size_t>(window_bytes), options());
  auto errors = run_group(*group, [&](Communicator<double>& comm) {
    const LocalSystem<double>& loc =
        locals[static_cast<std::size_t>(comm.rank())];
    std::vector<double> x(static_cast<std::size_t>(loc.rows()));
    std::vector<double> halo(static_cast<std::size_t>(loc.halo_size()));
    for (int round = 0; round < 10; ++round) {
      for (index_t l = 0; l < loc.rows(); ++l)
        x[static_cast<std::size_t>(l)] =
            1000.0 * round +
            static_cast<double>(loc.owned[static_cast<std::size_t>(l)]);
      auto h = comm.exchange_begin(std::span<const double>(x));
      comm.exchange_end(h, loc, std::span<double>(halo));
      for (index_t s = 0; s < loc.halo_size(); ++s) {
        EXPECT_EQ(halo[static_cast<std::size_t>(s)],
                  1000.0 * round +
                      static_cast<double>(
                          loc.halo[static_cast<std::size_t>(s)]));
      }
      const double sum = comm.allreduce1(static_cast<double>(round));
      EXPECT_EQ(sum, static_cast<double>(kParts) * round);
    }
  });
  for (const auto& e : errors) EXPECT_FALSE(e);
}

TEST_P(TransportConformance, AbortOnOneRankPropagatesToAll) {
  constexpr index_t kParts = 3;
  auto group = make_transport_group(kParts, {}, options());
  auto errors = run_group(*group, [&](Communicator<double>& comm) {
    for (int i = 0; i < 10; ++i) {
      if (comm.rank() == 1 && i == 5) throw std::runtime_error("rank fault");
      comm.allreduce1(1.0);
    }
  });
  ASSERT_TRUE(errors[1]);
  EXPECT_THROW(std::rethrow_exception(errors[1]), std::runtime_error);
  for (const index_t r : {0, 2}) {
    ASSERT_TRUE(errors[static_cast<std::size_t>(r)]);
    EXPECT_THROW(std::rethrow_exception(errors[static_cast<std::size_t>(r)]),
                 CommAborted);
  }
  EXPECT_TRUE(group->aborted());
}

TEST_P(TransportConformance, DeadRankSurfacesCommAbortedWithinTimeout) {
  // Rank 1 "dies" (returns without ever arriving); rank 0's collective must
  // end in CommAborted within the configured timeout, not hang forever.
  auto group = make_transport_group(2, {}, options(/*timeout=*/0.5));
  WallTimer timer;
  auto errors = run_group(*group, [&](Communicator<double>& comm) {
    if (comm.rank() == 1) return;  // never participates
    comm.allreduce1(1.0);
  });
  EXPECT_LT(timer.seconds(), 10.0);  // bounded, way under a hang
  ASSERT_TRUE(errors[0]);
  EXPECT_THROW(std::rethrow_exception(errors[0]), CommAborted);
  EXPECT_TRUE(group->aborted());
}

TEST_P(TransportConformance, SolveP1ClassicIsBitwiseEqualToSpcgSolve) {
  const Csr<double> a = gen_poisson2d(16, 16);
  const std::vector<double> b = make_rhs(a, 5);
  SpcgOptions opt = fast_options();
  opt.pcg.record_history = true;
  const SpcgResult<double> serial = spcg_solve(a, b, opt);

  DistOptions dopt;
  dopt.parts = 1;
  dopt.options = opt;
  dopt.transport.kind = GetParam();
  const DistSolveResult<double> dist =
      dist_pcg_solve(b, dist_setup(a, dopt), dopt);
  EXPECT_EQ(dist.solve.iterations, serial.solve.iterations);
  EXPECT_EQ(dist.solve.x, serial.solve.x);  // bitwise
  EXPECT_EQ(dist.solve.residual_history, serial.solve.residual_history);
}

TEST_P(TransportConformance, SolveP1CommReducedIsBitwiseEqualToPipelined) {
  const Csr<double> a = gen_poisson2d(16, 16);
  const std::vector<double> b = make_rhs(a, 7);
  SpcgOptions opt = fast_options();
  opt.pcg.record_history = true;

  SpcgSetup<double> setup = spcg_setup(a, opt);
  const IluPreconditioner<double> m(setup.factors, setup.l_schedule,
                                    setup.u_schedule, opt.executor);
  const SolveResult<double> serial = pipelined_pcg(a, b, m, opt.pcg);

  DistOptions dopt;
  dopt.parts = 1;
  dopt.options = opt;
  dopt.body = DistBody::kCommReduced;
  dopt.transport.kind = GetParam();
  const DistSolveResult<double> dist =
      dist_pcg_solve(b, dist_setup(a, dopt), dopt);
  EXPECT_EQ(dist.solve.iterations, serial.iterations);
  EXPECT_EQ(dist.solve.x, serial.x);  // bitwise
  EXPECT_EQ(dist.solve.residual_history, serial.residual_history);
}

TEST_P(TransportConformance, CommReducedDoesOneAllreducePerIteration) {
  const Csr<double> a = gen_poisson2d(16, 16);
  const std::vector<double> b = make_rhs(a, 3);

  auto run = [&](DistBody body) {
    DistOptions dopt;
    dopt.parts = 2;
    dopt.options = fast_options();
    dopt.body = body;
    dopt.transport.kind = GetParam();
    return dist_pcg_solve(b, dist_setup(a, dopt), dopt);
  };
  const DistSolveResult<double> classic = run(DistBody::kClassic);
  const DistSolveResult<double> reduced = run(DistBody::kCommReduced);
  ASSERT_TRUE(classic.solve.converged());
  ASSERT_TRUE(reduced.solve.converged());
  // Exact collective budgets: classic = 2/iter + {||b||, initial, finish};
  // comm-reduced = 1/iter + {fused startup, finish}.
  const auto classic_iters =
      static_cast<std::uint64_t>(classic.solve.iterations);
  const auto reduced_iters =
      static_cast<std::uint64_t>(reduced.solve.iterations);
  EXPECT_EQ(classic.stats.allreduces, 2 * classic_iters + 3);
  EXPECT_EQ(reduced.stats.allreduces, reduced_iters + 2);
  EXPECT_LT(reduced.stats.allreduces, classic.stats.allreduces);
}

TEST_P(TransportConformance, InjectedLatencyIsAccountedAsWaitTime) {
  TransportOptions opt = options();
  opt.inject_latency_us = 500;
  auto group = make_transport_group(2, {}, opt);
  auto errors = run_group(*group, [&](Communicator<double>& comm) {
    for (int i = 0; i < 4; ++i) comm.allreduce1(1.0);
  });
  for (const auto& e : errors) EXPECT_FALSE(e);
  // 4 collectives x 500us injected on each endpoint.
  EXPECT_GE(group->transport(0).stats().wait_seconds, 4 * 500e-6);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackings, TransportConformance,
    ::testing::Values(TransportKind::kInProcess, TransportKind::kSharedMemory,
                      TransportKind::kSocket),
    [](const ::testing::TestParamInfo<TransportKind>& info) {
      switch (info.param) {
        case TransportKind::kInProcess: return "InProcess";
        case TransportKind::kSharedMemory: return "SharedMemory";
        case TransportKind::kSocket: return "Socket";
      }
      return "Unknown";
    });

// ---------------------------------------------------------------------------
// SocketMultiProcess — true cross-process ranks over the TCP transport

TEST(SocketMultiProcess, AllreduceAndWindowAcrossForkedProcesses) {
  TransportOptions opt;
  opt.kind = TransportKind::kSocket;
  opt.collective_timeout_seconds = 20.0;
  const std::array<std::size_t, 2> window_bytes{sizeof(double),
                                                sizeof(double)};
  int port = 0;
  // Hub first (binds and reports the ephemeral port), then fork the worker:
  // the child's connect lands in the hub's listen backlog.
  auto hub = make_process_transport(
      0, 2, std::span<const std::size_t>(window_bytes), opt, &port);
  ASSERT_GT(port, 0);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child = rank 1. No gtest assertions here — report via the exit code.
    int code = 0;
    try {
      TransportOptions wopt = opt;
      wopt.socket_port = port;
      auto worker = make_process_transport(
          1, 2, std::span<const std::size_t>(window_bytes), wopt);
      for (int i = 0; i < 20 && code == 0; ++i) {
        std::array<double, 2> v{2.5, static_cast<double>(i)};
        worker->reduce_begin(std::span<const double>(v));
        std::array<double, 2> out{};
        worker->reduce_end(std::span<double>(out));
        if (out[0] != 1.5 + 2.5 || out[1] != 2.0 * i) code = 2;
      }
      const double mine = 41.0;
      worker->window_begin(&mine, sizeof(mine));
      worker->window_end();
      double got0 = 0.0, got1 = 0.0;
      std::memcpy(&got0, worker->window(0), sizeof(double));
      std::memcpy(&got1, worker->window(1), sizeof(double));
      if (got0 != 40.0 || got1 != 41.0) code = 3;
      worker->barrier();
    } catch (...) {
      code = 1;
    }
    _exit(code);
  }

  // Parent = rank 0 (the hub).
  for (int i = 0; i < 20; ++i) {
    std::array<double, 2> v{1.5, static_cast<double>(i)};
    hub->reduce_begin(std::span<const double>(v));
    std::array<double, 2> out{};
    hub->reduce_end(std::span<double>(out));
    EXPECT_EQ(out[0], 1.5 + 2.5);
    EXPECT_EQ(out[1], 2.0 * i);
  }
  const double mine = 40.0;
  hub->window_begin(&mine, sizeof(mine));
  hub->window_end();
  double got1 = 0.0;
  std::memcpy(&got1, hub->window(1), sizeof(double));
  EXPECT_EQ(got1, 41.0);
  hub->barrier();

  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

// A forged frame length must fail the collective before the hub allocates
// or reads a payload: a raw TCP peer introduces itself as rank 1, then
// claims a 4 GiB ReducePart.
TEST(SocketMultiProcess, OversizedReduceFrameAbortsWithinTimeout) {
  TransportOptions opt;
  opt.kind = TransportKind::kSocket;
  opt.collective_timeout_seconds = 5.0;
  int port = 0;
  auto hub = make_process_transport(0, 2, {}, opt, &port);
  ASSERT_GT(port, 0);

  struct Header {  // the transport's wire header, padding included
    std::uint32_t type, rank;
    std::uint64_t seq;
    std::uint32_t len;
  };
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::array<Header, 2> frames{Header{1 /*Hello*/, 1, 0, 0},
                                     Header{2 /*ReducePart*/, 1, 1,
                                            0xFFFFFFFFu}};
  ASSERT_EQ(::send(fd, frames.data(), sizeof(frames), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(frames)));

  const std::array<double, 1> v{1.0};
  hub->reduce_begin(std::span<const double>(v));
  std::array<double, 1> out{};
  WallTimer timer;
  EXPECT_THROW(hub->reduce_end(std::span<double>(out)), CommAborted);
  EXPECT_LT(timer.seconds(), opt.collective_timeout_seconds);
  EXPECT_TRUE(hub->aborted());
  ::close(fd);
}

// ---------------------------------------------------------------------------
// DistDot — deterministic reductions to 0 ULP

TEST(DistDot, ConcurrentDotMatchesSerialOracleToZeroUlp) {
  const index_t n = 500;
  Rng rng(11);
  std::vector<double> x(static_cast<std::size_t>(n)), y(x.size());
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  for (auto& v : y) v = rng.uniform(-1.0, 1.0);
  const Csr<double> a = gen_poisson2d(25, 20);  // 500 rows, pattern only
  ASSERT_EQ(a.rows, n);

  for (const index_t parts : {1, 2, 4}) {
    const Partition part = make_partition(a, parts);
    const double expected = dist_dot_reference(
        std::span<const double>(x), std::span<const double>(y), part);
    for (int run = 0; run < 2; ++run) {
      std::vector<double> got(static_cast<std::size_t>(parts));
      auto errors = run_world(parts, [&](Communicator<double>& comm) {
        const auto& rows = part.owned[static_cast<std::size_t>(comm.rank())];
        double partial = 0.0;  // T = double here; partial accumulates in T
        for (const index_t g : rows)
          partial += x[static_cast<std::size_t>(g)] *
                     y[static_cast<std::size_t>(g)];
        got[static_cast<std::size_t>(comm.rank())] = comm.allreduce1(partial);
      });
      for (const auto& e : errors) EXPECT_FALSE(e);
      for (const double g : got) EXPECT_EQ(g, expected);  // bitwise
    }
  }
}

TEST(DistDot, SinglePartReferenceEqualsSerialDot) {
  Rng rng(3);
  std::vector<double> x(257), y(257);
  for (auto& v : x) v = rng.uniform(-2.0, 2.0);
  for (auto& v : y) v = rng.uniform(-2.0, 2.0);
  Partition p;
  p.parts = 1;
  p.global_rows = 257;
  p.part_of.assign(257, 0);
  p.owned.resize(1);
  for (index_t g = 0; g < 257; ++g) p.owned[0].push_back(g);
  EXPECT_EQ(dist_dot_reference(std::span<const double>(x),
                               std::span<const double>(y), p),
            dot(x, y));
}

// ---------------------------------------------------------------------------
// DistSolve

TEST(DistSolve, SinglePartIsBitwiseEqualToSpcgSolve) {
  const Csr<double> a = gen_poisson2d(24, 24);
  const std::vector<double> b = make_rhs(a, 5);
  SpcgOptions opt = fast_options();
  opt.pcg.record_history = true;

  const SpcgResult<double> serial = spcg_solve(a, b, opt);
  DistOptions dopt;
  dopt.parts = 1;
  dopt.options = opt;
  const DistSetup<double> setup = dist_setup(a, dopt);
  const DistSolveResult<double> dist = dist_pcg_solve(b, setup, dopt);

  EXPECT_EQ(dist.solve.status, serial.solve.status);
  EXPECT_EQ(dist.solve.iterations, serial.solve.iterations);
  EXPECT_EQ(dist.solve.x, serial.solve.x);  // bitwise
  EXPECT_EQ(dist.solve.final_residual_norm, serial.solve.final_residual_norm);
  EXPECT_EQ(dist.solve.residual_history, serial.solve.residual_history);
}

TEST(DistSolve, SinglePartCommReducedIsBitwiseEqualToPipelinedPcg) {
  const Csr<double> a = gen_poisson2d(20, 20);
  const std::vector<double> b = make_rhs(a, 6);
  SpcgOptions opt = fast_options();
  opt.pcg.record_history = true;

  SpcgSetup<double> setup = spcg_setup(a, opt);
  const IluPreconditioner<double> m(setup.factors, setup.l_schedule,
                                    setup.u_schedule, opt.executor);
  const SolveResult<double> serial = pipelined_pcg(a, b, m, opt.pcg);

  DistOptions dopt;
  dopt.parts = 1;
  dopt.options = opt;
  dopt.body = DistBody::kCommReduced;
  const DistSolveResult<double> dist =
      dist_pcg_solve(b, dist_setup(a, dopt), dopt);

  EXPECT_EQ(dist.solve.status, serial.status);
  EXPECT_EQ(dist.solve.iterations, serial.iterations);
  EXPECT_EQ(dist.solve.x, serial.x);  // bitwise
  EXPECT_EQ(dist.solve.final_residual_norm, serial.final_residual_norm);
  EXPECT_EQ(dist.solve.residual_history, serial.residual_history);
}

TEST(DistSolve, MultiPartCommReducedConvergesOnPoisson) {
  const Csr<double> a = gen_poisson2d(24, 24);
  const std::vector<double> b = make_rhs(a, 11);
  const SpcgOptions opt = fast_options();
  const SpcgResult<double> serial = spcg_solve(a, b, opt);
  ASSERT_TRUE(serial.solve.converged());

  for (const index_t parts : {2, 4}) {
    DistOptions dopt;
    dopt.parts = parts;
    dopt.options = opt;
    dopt.body = DistBody::kCommReduced;
    const DistSolveResult<double> dist =
        dist_pcg_solve(b, dist_setup(a, dopt), dopt);
    EXPECT_TRUE(dist.solve.converged()) << "parts=" << parts;
    for (std::size_t i = 0; i < b.size(); ++i) {
      EXPECT_NEAR(dist.solve.x[i], serial.solve.x[i], 1e-6)
          << "parts=" << parts << " row " << i;
    }
  }
}

TEST(DistSolve, MultiPartConvergesOnPoisson) {
  const Csr<double> a = gen_poisson2d(24, 24);
  const std::vector<double> b = make_rhs(a, 2);
  const SpcgOptions opt = fast_options();
  const SpcgResult<double> serial = spcg_solve(a, b, opt);
  ASSERT_TRUE(serial.solve.converged());

  for (const index_t parts : {2, 4}) {
    for (const DistBody body : {DistBody::kClassic, DistBody::kCommReduced}) {
      DistOptions dopt;
      dopt.parts = parts;
      dopt.options = opt;
      dopt.body = body;
      const DistSolveResult<double> dist =
          dist_pcg_solve(b, dist_setup(a, dopt), dopt);
      EXPECT_TRUE(dist.solve.converged())
          << "P=" << parts << " body=" << to_string(body);
      EXPECT_LT(dist.solve.final_residual_norm, 1e-6);
      // The block preconditioner is weaker than the global one; the bench's
      // acceptance bar is 1.5x on Poisson, the test margin is looser.
      EXPECT_LE(dist.solve.iterations, 3 * serial.solve.iterations + 50);
      EXPECT_GT(dist.stats.halo_bytes, 0u);
      EXPECT_GT(dist.stats.allreduces, 0u);
    }
  }
}

TEST(DistSolve, MultiPartConvergesOnSuiteMatrices) {
  for (const index_t id : {0, 1}) {
    const GeneratedMatrix gen = generate_suite_matrix(id);
    const SpcgOptions opt = fast_options();
    const SpcgResult<double> serial = spcg_solve(gen.a, gen.b, opt);
    ASSERT_TRUE(serial.solve.converged()) << "suite id " << id;
    for (const index_t parts : {2, 4}) {
      DistOptions dopt;
      dopt.parts = parts;
      dopt.options = opt;
      dopt.partition.strategy = PartitionOptions::Strategy::kBfsGreedy;
      const DistSolveResult<double> dist =
          dist_pcg_solve(gen.b, dist_setup(gen.a, dopt), dopt);
      EXPECT_TRUE(dist.solve.converged())
          << "suite id " << id << " P=" << parts;
    }
  }
}

TEST(DistSolve, ZeroRhsAnswersDirectlyLikePcg) {
  const Csr<double> a = gen_poisson2d(10, 10);
  const std::vector<double> b(static_cast<std::size_t>(a.rows), 0.0);
  DistOptions dopt;
  dopt.parts = 2;
  dopt.options = fast_options();
  const DistSolveResult<double> dist =
      dist_pcg_solve(b, dist_setup(a, dopt), dopt);
  EXPECT_TRUE(dist.solve.converged());
  EXPECT_EQ(dist.solve.iterations, 0);
  for (const double v : dist.solve.x) EXPECT_EQ(v, 0.0);
}

/// One failure table over every CG entry point: the serial classic and
/// pipelined solvers, a session's batch, and both rank bodies at P = 1 and
/// P = 2. Each row expects the same status and iteration count everywhere.
TEST(DistSolve, EveryEntryPointSharesFailureSemantics) {
  const Csr<double> poisson = gen_poisson2d(16, 16);
  Csr<double> negated = poisson;
  for (double& v : negated.values) v = -v;
  const std::vector<double> rhs = make_rhs(poisson, 3);
  std::vector<double> nan_rhs = rhs;
  nan_rhs[37] = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> zero(rhs.size(), 0.0);
  const std::vector<double> guess(rhs.size(), 0.5);

  PcgOptions tight;
  tight.tolerance = 1e-10;
  PcgOptions relative = tight;
  relative.relative = true;
  PcgOptions unreachable;
  unreachable.tolerance = 1e-30;
  unreachable.max_iterations = 5;
  struct Row {
    const char* name;
    const Csr<double>& a;
    const std::vector<double>& b;
    bool warm;  // nonzero guess for the entry points that take one
    PcgOptions pcg;
    SolveStatus status;
    std::int32_t iterations;
  };
  const Row rows[] = {
      {"negative-definite A", negated, rhs, false, tight,
       SolveStatus::kBreakdown, 0},
      {"NaN in b", poisson, nan_rhs, false, tight, SolveStatus::kBreakdown, 0},
      {"b = 0, warm guess, relative", poisson, zero, true, relative,
       SolveStatus::kConverged, 0},
      {"b = 0, warm guess, absolute", poisson, zero, true, tight,
       SolveStatus::kConverged, 0},
      {"unreachable tolerance", poisson, rhs, false, unreachable,
       SolveStatus::kMaxIterations, 5},
  };

  for (const Row& row : rows) {
    SpcgOptions opt;
    opt.pcg = row.pcg;
    const SpcgSetup<double> setup = spcg_setup(row.a, opt);
    const IluApplier<double> m(setup.factors, setup.l_schedule,
                               setup.u_schedule, opt.executor);
    const std::span<const double> b(row.b);
    const std::span<const double> x0 =
        row.warm ? std::span<const double>(guess) : std::span<const double>();
    auto expect_row = [&](const SolveResult<double>& r,
                          const std::string& entry) {
      EXPECT_EQ(r.status, row.status) << row.name << ": " << entry;
      EXPECT_EQ(r.iterations, row.iterations) << row.name << ": " << entry;
      if (row.status == SolveStatus::kConverged) {
        for (const double v : r.x) ASSERT_EQ(v, 0.0) << row.name << ": " << entry;
      }
    };
    expect_row(pcg(row.a, b, m, row.pcg, x0), "pcg");
    expect_row(pipelined_pcg(row.a, b, m, row.pcg, x0), "pipelined_pcg");
    const std::vector<std::vector<double>> bs{row.b};
    expect_row(SolverSession<double>(row.a, opt).solve_batch(bs)[0].solve,
               "SolverSession::solve_batch");
    for (const index_t parts : {1, 2}) {
      for (const DistBody body : {DistBody::kClassic, DistBody::kCommReduced}) {
        DistOptions dopt;
        dopt.parts = parts;
        dopt.options = opt;
        dopt.body = body;
        expect_row(dist_pcg_solve(b, dist_setup(row.a, dopt), dopt).solve,
                   std::string(to_string(body)) + " P=" +
                       std::to_string(parts));
      }
    }
  }
}

TEST(DistSolve, CheckedExecutorRunsConcurrentRanks) {
  // Every rank drives the race-detecting SpTRSV executor inside its own
  // thread — a TSan-visible mix of the analysis layer and the communicator.
  const Csr<double> a = gen_poisson2d(14, 14);
  const std::vector<double> b = make_rhs(a, 4);
  DistOptions dopt;
  dopt.parts = 2;
  dopt.options = fast_options();
  dopt.options.executor = TrsvExec::kLevelScheduledChecked;
  for (const DistBody body : {DistBody::kClassic, DistBody::kCommReduced}) {
    dopt.body = body;
    const DistSolveResult<double> dist =
        dist_pcg_solve(b, dist_setup(a, dopt), dopt);
    EXPECT_TRUE(dist.solve.converged()) << "body=" << to_string(body);
  }
}

// ---------------------------------------------------------------------------
// DistSession — runtime integration

TEST(DistSession, CacheSharesSubdomainSetupsAcrossSessions) {
  const Csr<double> a = gen_poisson2d(16, 16);
  const std::vector<double> b = make_rhs(a, 1);
  DistOptions opt;
  opt.parts = 3;
  opt.options = fast_options();
  SetupCache<double> cache(16);

  const DistSetup<double> first = dist_setup(a, opt, &cache);
  EXPECT_EQ(first.paths, std::vector<SetupPath>(3, SetupPath::kBuild));
  const DistSetup<double> second = dist_setup(a, opt, &cache);
  EXPECT_EQ(second.paths, std::vector<SetupPath>(3, SetupPath::kHit));
  for (std::size_t p = 0; p < 3; ++p)
    EXPECT_EQ(first.subdomains[p].get(), second.subdomains[p].get());

  const DistSolveResult<double> run = dist_pcg_solve(b, second, opt);
  EXPECT_TRUE(run.solve.converged());
}

TEST(DistSession, SamePatternValuesChangeTakesPartialHitFastPath) {
  // The second setup partitions the same pattern with scaled values: every
  // subdomain setup should come from the same-pattern refresh path, not a
  // cold rebuild (and not an exact hit — the values differ).
  const Csr<double> base = gen_poisson2d(16, 16);
  Csr<double> scaled = base;
  for (double& v : scaled.values) v *= 1.5;

  DistOptions opt;
  opt.parts = 3;
  opt.options = fast_options();
  SetupCache<double> cache(16);

  const DistSetup<double> first = dist_setup(base, opt, &cache);
  EXPECT_EQ(first.paths, std::vector<SetupPath>(3, SetupPath::kBuild));
  const DistSetup<double> second = dist_setup(scaled, opt, &cache);
  EXPECT_EQ(second.paths, std::vector<SetupPath>(3, SetupPath::kRefresh));

  const std::vector<double> b = make_rhs(scaled, 4);
  const DistSolveResult<double> run = dist_pcg_solve(b, second, opt);
  EXPECT_TRUE(run.solve.converged());
}

TEST(DistSession, TelemetryRecordsCommunicationCounters) {
  const auto a = std::make_shared<const Csr<double>>(gen_poisson2d(12, 12));
  SolveService<double> service({1, 8});
  ServiceRequest<double> req;
  req.a = a;
  req.b = make_rhs(*a, 8);
  req.options = fast_options();
  req.parts = 2;  // classic body
  const ServiceReply<double> reply = service.submit(std::move(req)).reply.get();
  ASSERT_EQ(reply.status, RequestStatus::kOk);
  ASSERT_FALSE(reply.used_fallback);

  const std::vector<CounterSample> samples = service.telemetry_snapshot();
  auto value_of = [&](const std::string& name) -> std::int64_t {
    for (const CounterSample& s : samples)
      if (s.name == name) return static_cast<std::int64_t>(s.value);
    return -1;
  };
  const std::int64_t k = reply.solve.iterations;
  EXPECT_EQ(value_of("dist.solves"), 1);
  EXPECT_EQ(value_of("dist.allreduces"), 2 * k + 3);
  EXPECT_EQ(value_of("dist.halo_bytes.count"), 1);
}

TEST(DistSession, ServiceRoutesDistributedRequests) {
  const auto a = std::make_shared<const Csr<double>>(gen_poisson2d(16, 16));
  SolveService<double> service({2, 8});

  auto make_request = [&] {
    ServiceRequest<double> req;
    req.a = a;
    req.b = make_rhs(*a, 3);
    req.options = fast_options();
    req.parts = 2;
    return req;
  };
  const ServiceReply<double> first = service.submit(make_request()).reply.get();
  ASSERT_EQ(first.status, RequestStatus::kOk);
  EXPECT_TRUE(first.solve.converged());
  EXPECT_FALSE(first.used_fallback);
  EXPECT_FALSE(first.setup_cache_hit);

  // Same system + options: every subdomain setup comes from the cache.
  const ServiceReply<double> second =
      service.submit(make_request()).reply.get();
  ASSERT_EQ(second.status, RequestStatus::kOk);
  EXPECT_TRUE(second.setup_cache_hit);
}

}  // namespace
}  // namespace spcg
