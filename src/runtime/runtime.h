// Umbrella header for the solver runtime layer (DESIGN.md §7):
//   * fingerprint.h   — matrix/options cache keys
//   * setup_cache.h   — thread-safe LRU of shared immutable setups
//   * session.h       — setup-once/solve-many SolverSession
//   * dist_session.h  — distributed sibling over a partitioned system (§8)
//   * solve_service.h — async worker-pool service with deadlines/fallback
#pragma once

#include "runtime/dist_session.h"   // IWYU pragma: export
#include "runtime/fingerprint.h"    // IWYU pragma: export
#include "runtime/session.h"        // IWYU pragma: export
#include "runtime/setup_cache.h"    // IWYU pragma: export
#include "runtime/solve_service.h"  // IWYU pragma: export
