// Umbrella header for the solver runtime layer (DESIGN.md §7):
//   * fingerprint.h   — matrix/options cache keys
//   * setup_cache.h   — thread-safe LRU of shared immutable setups, and
//                       resolve(): hit, same-pattern refresh or build
//   * session.h       — setup-once/solve-many SolverSession
//   * solve_service.h — async worker-pool service with deadlines/fallback;
//                       distributed requests run dist_setup over its cache
#pragma once

#include "runtime/fingerprint.h"    // IWYU pragma: export
#include "runtime/session.h"        // IWYU pragma: export
#include "runtime/setup_cache.h"    // IWYU pragma: export
#include "runtime/solve_service.h"  // IWYU pragma: export
