// Fork-join on std::jthread: the one thread team the library spawns for a
// bounded parallel phase. Its callers are the level-scheduled SpTRSV
// (sptrsv/sptrsv.h: one team per sweep, a TeamBarrier after every level),
// block-Jacobi's apply (precond/block_jacobi.h), the ILU(K) symbolic phase
// by fill paths (precond/iluk_symbolic.cc), SolverSession::solve_batch
// (runtime/session.h) and the distributed solve's in-process ranks
// (dist/dist_pcg.h). SolveService's long-lived worker pool is the only
// other thread loop in the library.
//
// std::jthread and std::atomic rather than OpenMP, because ThreadSanitizer
// instruments thread creation, join and atomics, so a checking build sees
// every ordering the team relies on.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace spcg {

/// Run fn(w) for every w in [0, workers): worker 0 on the calling thread,
/// the others on std::jthreads. fn runs on every worker or on none: if a
/// spawn fails, the workers already started return without calling fn, so
/// workers that wait for each other (a TeamBarrier, the distributed ranks'
/// collectives) never wait for one that does not exist. Every thread is
/// joined on every path; then the failed spawn's error, or else the
/// exception of the lowest-numbered worker that threw, is rethrown.
template <class Fn>
void fork_join(std::size_t workers, Fn&& fn) {
  if (workers == 0) return;
  std::vector<std::exception_ptr> errors(workers);
  enum Start : int { kSpawning, kRun, kCancel };
  std::atomic<int> start{kSpawning};
  {
    std::vector<std::jthread> team;  // joins every worker on scope exit
    team.reserve(workers - 1);
    try {
      for (std::size_t w = 1; w < workers; ++w) {
        team.emplace_back([&fn, &errors, &start, w] {
          while (start.load() == kSpawning) std::this_thread::yield();
          if (start.load() == kCancel) return;
          try {
            fn(w);
          } catch (...) {
            errors[w] = std::current_exception();
          }
        });
      }
    } catch (...) {
      start.store(kCancel);
      throw;
    }
    start.store(kRun);
    try {
      fn(std::size_t{0});
    } catch (...) {
      errors[0] = std::current_exception();
    }
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

/// A reusable barrier for the `count` workers of one fork_join team: each
/// arrive_and_wait() returns once all `count` workers have arrived in the
/// phase, and everything a worker wrote before arriving is visible to every
/// worker after. A waiter yields on every failed check. It neither sleeps
/// (std::barrier's futex sleep costs more than a thin level of a triangular
/// solve) nor spins before yielding (spinning waiters starve a second team
/// sharing the cores). Every worker must arrive in every phase, so the work
/// between two phases must not throw.
class TeamBarrier {
 public:
  explicit TeamBarrier(std::size_t count) : count_(count) {}
  TeamBarrier(const TeamBarrier&) = delete;
  TeamBarrier& operator=(const TeamBarrier&) = delete;

  void arrive_and_wait() {
    const std::size_t phase = phase_.load();
    if (arrived_.fetch_add(1) + 1 == count_) {
      // Reset before the phase moves on: no worker arrives in the next
      // phase until it has seen the move.
      arrived_.store(0);
      phase_.fetch_add(1);
      return;
    }
    while (phase_.load() == phase) std::this_thread::yield();
  }

 private:
  const std::size_t count_;
  std::atomic<std::size_t> arrived_{0};
  std::atomic<std::size_t> phase_{0};
};

/// Threads a parallel phase may use: the host's hardware threads, at least 1.
inline std::size_t hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace spcg
