// Schedule race detector — pillar 2 of the analysis layer.
//
// The level-scheduled SpTRSV executor (src/sptrsv/sptrsv.h) runs all rows of
// a wavefront concurrently, with a barrier between wavefronts. Its
// correctness therefore rests on two schedule invariants:
//   (a) no row in a level depends on another row of the SAME level
//       (concurrent read of a concurrently-written x entry = data race), and
//   (b) levels are topologically ordered: every dependence of a row resolves
//       in a strictly earlier level (otherwise the executor reads x entries
//       that have not been written yet).
//
// Two complementary detectors:
//   * verify_level_schedule(): a static pass over (matrix, schedule) that
//     proves (a) and (b) plus the structural sanity of the schedule arrays,
//     reporting into the Diagnostics/rule-id machinery of lint.h;
//   * sptrsv_*_levels_checked(): an instrumented executor that performs the
//     solve while recording, per level, the executor's write set (the rows
//     of the level) and checking every read against it — any cross-thread
//     overlap or stale read becomes a RaceConflict. It models the concurrent
//     semantics exactly (all rows of a level are IN FLIGHT at once, so a
//     same-level read races regardless of intra-level order) while running
//     deterministically on one thread. It runs the executors' own row kernel
//     (sptrsv.h) with an instrumenting read hook over the same validated
//     TriangularFactors, so its solution is bitwise that of the other
//     executors.
//
// The instrumented executor is wired into the executor abstraction as
// TrsvExec::kLevelScheduledChecked (precond/preconditioner.h), so any test
// or solver run can execute every SpTRSV path under the detector.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/lint.h"
#include "sparse/csr.h"
#include "sparse/ops.h"
#include "sptrsv/sptrsv.h"
#include "wavefront/levels.h"

namespace spcg::analysis {

// --- static verification ----------------------------------------------------

/// Statically verify `sched` against the dependence structure of triangular
/// matrix `m` (Triangle selects which off-diagonal side carries
/// dependences, as in level_schedule()). Reports schedule.* rule violations.
template <class T>
Diagnostics verify_level_schedule(const Csr<T>& m, const LevelSchedule& sched,
                                  Triangle tri,
                                  const std::string& object = "schedule",
                                  std::size_t max_per_rule = 8) {
  Diagnostics out;
  detail::Reporter rep(out, object, max_per_rule);
  const index_t n = m.rows;

  // Shape of the schedule arrays.
  bool shape_ok = true;
  if (static_cast<index_t>(sched.level_of_row.size()) != n) {
    rep.error(kRuleScheduleShape,
              "level_of_row size " + detail::fmt(sched.level_of_row.size()) +
                  " vs rows " + detail::fmt(n));
    shape_ok = false;
  }
  if (static_cast<index_t>(sched.rows_by_level.size()) != n) {
    rep.error(kRuleScheduleShape,
              "rows_by_level size " + detail::fmt(sched.rows_by_level.size()) +
                  " vs rows " + detail::fmt(n));
    shape_ok = false;
  }
  if (sched.level_ptr.empty() || sched.level_ptr.front() != 0 ||
      sched.level_ptr.back() != n) {
    rep.error(kRuleScheduleShape,
              "level_ptr must run from 0 to rows (" + detail::fmt(n) + ")");
    shape_ok = false;
  }
  for (index_t l = 0; shape_ok && l < sched.num_levels(); ++l) {
    if (sched.level_ptr[static_cast<std::size_t>(l)] >
        sched.level_ptr[static_cast<std::size_t>(l) + 1]) {
      rep.error(kRuleScheduleShape,
                "level_ptr not monotone at level " + detail::fmt(l));
      shape_ok = false;
    }
  }
  if (!shape_ok) return out;  // bucket walk below would be out of bounds

  // rows_by_level must be a permutation; build row -> bucket level.
  std::vector<index_t> bucket_level(static_cast<std::size_t>(n), -1);
  for (index_t l = 0; l < sched.num_levels(); ++l) {
    for (index_t s = sched.level_ptr[static_cast<std::size_t>(l)];
         s < sched.level_ptr[static_cast<std::size_t>(l) + 1]; ++s) {
      const index_t i = sched.rows_by_level[static_cast<std::size_t>(s)];
      if (i < 0 || i >= n) {
        rep.error(kRuleSchedulePermutation,
                  "rows_by_level entry " + detail::fmt(i) + " out of range",
                  i);
        continue;
      }
      if (bucket_level[static_cast<std::size_t>(i)] >= 0)
        rep.error(kRuleSchedulePermutation,
                  "row scheduled more than once (levels " +
                      detail::fmt(bucket_level[static_cast<std::size_t>(i)]) +
                      " and " + detail::fmt(l) + ")",
                  i);
      bucket_level[static_cast<std::size_t>(i)] = l;
    }
  }
  for (index_t i = 0; i < n; ++i) {
    if (bucket_level[static_cast<std::size_t>(i)] < 0)
      rep.error(kRuleSchedulePermutation, "row never scheduled", i);
    else if (bucket_level[static_cast<std::size_t>(i)] !=
             sched.level_of_row[static_cast<std::size_t>(i)])
      rep.error(kRuleScheduleConsistent,
                "level_of_row says " +
                    detail::fmt(
                        sched.level_of_row[static_cast<std::size_t>(i)]) +
                    " but bucket is " +
                    detail::fmt(bucket_level[static_cast<std::size_t>(i)]),
                i);
  }

  // Dependence rules (a) and (b), against the ACTUAL buckets (bucket_level),
  // not level_of_row, since the executor walks the buckets.
  for (index_t i = 0; i < n; ++i) {
    const index_t li = bucket_level[static_cast<std::size_t>(i)];
    if (li < 0) continue;
    for (index_t p = m.rowptr[static_cast<std::size_t>(i)];
         p < m.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      const index_t j = m.colind[static_cast<std::size_t>(p)];
      const bool dep = (tri == Triangle::kLower) ? (j < i) : (j > i);
      if (!dep) continue;
      const index_t lj = bucket_level[static_cast<std::size_t>(j)];
      if (lj == li)
        rep.error(kRuleScheduleRace,
                  "row depends on row " + detail::fmt(j) +
                      " scheduled in the same level " + detail::fmt(li),
                  i, j);
      else if (lj > li)
        rep.error(kRuleScheduleTopology,
                  "row in level " + detail::fmt(li) + " depends on row " +
                      detail::fmt(j) + " in later level " + detail::fmt(lj),
                  i, j);
    }
  }
  return out;
}

// --- instrumented checking executor -----------------------------------------

/// One detected conflict of the instrumented executor.
struct RaceConflict {
  index_t level = -1;       // level whose execution exposed the conflict
  index_t reader_row = -1;  // row whose solve read the conflicting entry
  index_t dep_row = -1;     // x entry that was read
  bool same_level = false;  // true: written concurrently; false: stale read
};

/// Result of one instrumented solve: conflicts plus instrumentation counters.
struct RaceReport {
  std::vector<RaceConflict> conflicts;
  std::uint64_t reads = 0;   // dependence reads observed
  std::uint64_t writes = 0;  // row writes observed
  index_t levels = 0;

  [[nodiscard]] bool ok() const { return conflicts.empty(); }

  [[nodiscard]] Diagnostics to_diagnostics(
      const std::string& object = "sptrsv") const {
    Diagnostics d;
    for (const RaceConflict& c : conflicts) {
      d.error(c.same_level ? kRuleRaceOverlap : kRuleRaceStale, object,
              std::string(c.same_level
                              ? "read of x[dep] written concurrently"
                              : "read of x[dep] before it was written") +
                  " in level " + detail::fmt(c.level),
              c.reader_row, c.dep_row);
    }
    return d;
  }
};

namespace detail {

template <class T, bool kLowerTri>
RaceReport sptrsv_level_checked_impl(const Csr<T>& m,
                                     const LevelSchedule& sched,
                                     std::span<const T> b, std::span<T> x) {
  spcg::detail::check_trsv_shape(m, b.size(), x.size());
  const index_t n = m.rows;
  RaceReport report;
  report.levels = sched.num_levels();

  // written_at[j]: level that wrote x[j]; -1 = not written yet. Members of
  // the CURRENT level are pre-marked before any of its rows execute — in the
  // real executor they are all in flight at once, so a same-level read races
  // no matter where the reader sits inside the bucket.
  std::vector<index_t> written_at(static_cast<std::size_t>(n), -1);

  for (index_t l = 0; l < sched.num_levels(); ++l) {
    const index_t begin = sched.level_ptr[static_cast<std::size_t>(l)];
    const index_t end = sched.level_ptr[static_cast<std::size_t>(l) + 1];
    for (index_t s = begin; s < end; ++s) {
      const index_t i = sched.rows_by_level[static_cast<std::size_t>(s)];
      SPCG_CHECK_MSG(i >= 0 && i < n, "schedule row " << i << " out of range");
      written_at[static_cast<std::size_t>(i)] = l;  // write set of level l
    }
    for (index_t s = begin; s < end; ++s) {
      const index_t i = sched.rows_by_level[static_cast<std::size_t>(s)];
      // The executors' row kernel, with every dependence read checked
      // against the write sets.
      const auto x_at = [&](index_t j) {
        ++report.reads;
        const index_t wl = written_at[static_cast<std::size_t>(j)];
        if (wl == l)
          report.conflicts.push_back({l, i, j, /*same_level=*/true});
        else if (wl < 0)
          report.conflicts.push_back({l, i, j, /*same_level=*/false});
        return x[static_cast<std::size_t>(j)];
      };
      x[static_cast<std::size_t>(i)] = spcg::detail::trsv_row<kLowerTri>(
          m.rowptr.data(), m.colind.data(), m.values.data(), i,
          b[static_cast<std::size_t>(i)], x_at, x_at);
      ++report.writes;
    }
  }
  return report;
}

}  // namespace detail

/// Instrumented lower solve: same result as sptrsv_lower_levels() on a valid
/// schedule, plus a RaceReport of every concurrent-overlap or stale read.
template <class T>
RaceReport sptrsv_lower_levels_checked(const TriangularFactors<T>& f,
                                       const LevelSchedule& sched,
                                       std::span<const T> b, std::span<T> x) {
  return detail::sptrsv_level_checked_impl<T, true>(f.l, sched, b, x);
}

/// Instrumented upper solve (see sptrsv_lower_levels_checked).
template <class T>
RaceReport sptrsv_upper_levels_checked(const TriangularFactors<T>& f,
                                       const LevelSchedule& sched,
                                       std::span<const T> b, std::span<T> x) {
  return detail::sptrsv_level_checked_impl<T, false>(f.u, sched, b, x);
}

}  // namespace spcg::analysis
