// Fork-join on std::jthread: the one thread team the library spawns for a
// bounded parallel phase (batched solves, the ILU(K) symbolic phase).
//
// std::jthread rather than OpenMP, because ThreadSanitizer instruments
// thread creation and join, so a checking build sees every ordering the
// team relies on.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace spcg {

/// Run fn(w) for every w in [0, workers): worker 0 on the calling thread,
/// the others on std::jthreads. Every thread is joined on every path, a
/// throwing fn or a failed spawn included; then the exception of the
/// lowest-numbered worker that threw, if any, is rethrown.
template <class Fn>
void fork_join(std::size_t workers, Fn&& fn) {
  if (workers == 0) return;
  std::vector<std::exception_ptr> errors(workers);
  {
    std::vector<std::jthread> team;  // joins every worker on scope exit
    team.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
      team.emplace_back([&fn, &errors, w] {
        try {
          fn(w);
        } catch (...) {
          errors[w] = std::current_exception();
        }
      });
    }
    try {
      fn(std::size_t{0});
    } catch (...) {
      errors[0] = std::current_exception();
    }
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

/// Threads a parallel phase may use: the host's hardware threads, at least 1.
inline std::size_t hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace spcg
