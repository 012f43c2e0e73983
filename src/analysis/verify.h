// Pipeline invariant verifier — pillar 2 of the analysis layer.
//
// The linter (lint.h) checks objects in isolation; the verifier checks the
// *relationships* the pipeline promises between them, end-to-end over a
// finished SpcgSetup and over the distributed-layer artifacts:
//
//   * verify_setup()  — sparsification split partitions A with the drop
//     ratio inside configured bounds; L strictly lower and U upper with a
//     nonzero diagonal, both finite; factor pattern contained in the
//     level-K fill closure of the preconditioner input; both level
//     schedules topologically valid, race-free, covering every row exactly
//     once (via race_detector.h).
//   * verify_partition() / verify_local_systems() — non-throwing versions
//     of the dist-layer invariants: every row owned exactly once, halo maps
//     complete with no spurious entries, gather edges filling every halo
//     slot exactly once from the true owner, interior+boundary blocks
//     reproducing A's rows bit-for-bit.
//   * verify_reduction_determinism() — simulates the rank-ordered all-reduce
//     of dist/comm.h against the serial ascending sum and reports when the
//     two differ by more than a ULP bound (P=1 must be bitwise identical,
//     matching the comm-layer contract).
//   * taint_scan() — NaN/Inf sweep over a vector at a phase boundary.
//   * alloc_audit_diagnostics() — converts steady-state allocation
//     violations recorded by alloc_audit.h into diagnostics.
//
// Everything reports through Diagnostics with the stable rule ids of
// lint.h; nothing throws on corrupted input. The spcg-verify CLI and the
// SolverSession verify knob are thin shells over these entry points.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "analysis/alloc_audit.h"
#include "analysis/diagnostics.h"
#include "analysis/lint.h"
#include "analysis/race_detector.h"
#include "core/spcg.h"
#include "dist/partition.h"
#include "transient/refactorize.h"

namespace spcg::analysis {

// --- options ----------------------------------------------------------------

struct VerifyOptions {
  /// Structural sub-passes (value scans, per-rule caps) reuse the linter.
  LintOptions lint;
  /// Inclusive bounds on the sparsification drop ratio nnz(S)/nnz(A). The
  /// default ceiling mirrors the paper's regime: dropping more than half of
  /// A means the preconditioner no longer resembles the operator.
  double min_drop_ratio = 0.0;
  double max_drop_ratio = 0.5;
  /// Check factor pattern ⊆ level-K fill closure of the precond input.
  bool check_closure = true;
  /// ULP tolerance for rank-order reductions with parts > 1 (parts == 1 must
  /// always be bitwise identical regardless of this knob).
  std::uint64_t reduce_max_ulps = 4096;
  /// NaN/Inf sweeps at phase boundaries (session knob honors this too).
  bool taint_scan = true;
  std::size_t max_per_rule = 8;
};

// --- taint pass -------------------------------------------------------------

/// NaN/Inf sweep over a vector at a phase boundary (rule taint.nonfinite).
template <class T>
Diagnostics taint_scan(std::span<const T> v, const std::string& object,
                       std::size_t max_per_rule = 8) {
  Diagnostics out;
  detail::Reporter rep(out, object, max_per_rule);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(static_cast<double>(v[i])))
      rep.error(kRuleTaintNonFinite,
                "non-finite value " + detail::fmt(v[i]),
                static_cast<index_t>(i));
  }
  return out;
}

// --- setup artifact verifier ------------------------------------------------

namespace detail {

/// Factor pattern must be a subset of `closure` (merge-walk per row; both
/// patterns are sorted). Reports verify.ilu.closure.
template <class T>
void check_pattern_subset(const Csr<T>& factor, const Csr<char>& closure,
                          Reporter& rep) {
  if (factor.rows != closure.rows) {
    rep.error(kRuleVerifyClosure,
              "factor has " + fmt(factor.rows) + " rows vs closure " +
                  fmt(closure.rows));
    return;
  }
  for (index_t i = 0; i < factor.rows; ++i) {
    const auto fc = factor.row_cols(i);
    const auto cc = closure.row_cols(i);
    std::size_t pc = 0;
    for (const index_t j : fc) {
      while (pc < cc.size() && cc[pc] < j) ++pc;
      if (pc >= cc.size() || cc[pc] != j)
        rep.error(kRuleVerifyClosure,
                  "factor entry outside the level-K fill closure", i, j);
    }
  }
}

/// Â of the split A = Â + S: A's entries that `s` does not store, by one
/// merge walk per row (both column-sorted, `s` as tall as A). An entry of S
/// outside A's pattern is skipped here; analyze_sparsify() reports it.
template <class T>
Csr<T> kept_entries(const Csr<T>& a, const Csr<T>& s) {
  Csr<T> out(a.rows, a.cols);
  out.colind.reserve(a.colind.size());
  out.values.reserve(a.values.size());
  for (index_t i = 0; i < a.rows; ++i) {
    const auto sc = s.row_cols(i);
    std::size_t ps = 0;
    for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
         p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      const index_t j = a.colind[static_cast<std::size_t>(p)];
      while (ps < sc.size() && sc[ps] < j) ++ps;
      if (ps < sc.size() && sc[ps] == j) continue;
      out.colind.push_back(j);
      out.values.push_back(a.values[static_cast<std::size_t>(p)]);
    }
    out.rowptr[static_cast<std::size_t>(i) + 1] =
        static_cast<index_t>(out.colind.size());
  }
  return out;
}

}  // namespace detail

/// End-to-end verification of a finished setup against its input matrix and
/// the options that produced it. Covers the sparsification split (partition
/// + drop-ratio bounds), the triangular factors (structure, U's diagonal,
/// fill closure, finiteness) and both level schedules.
template <class T>
Diagnostics verify_setup(const Csr<T>& a, const SpcgSetup<T>& s,
                         const SpcgOptions& opt,
                         const VerifyOptions& vopt = {}) {
  Diagnostics out;
  LintOptions lint = vopt.lint;
  lint.max_per_rule = vopt.max_per_rule;

  // Phase 1 artifacts: the sparsification split. A setup keeps S only, so Â
  // is always rebuilt as A minus S; a malformed S is left to
  // analyze_sparsify's structure and shape errors.
  const Csr<T>* precond_input = &a;
  Csr<T> a_hat;
  if (opt.sparsify_enabled) {
    detail::Reporter rep(out, "split", vopt.max_per_rule);
    if (!s.decision.has_value()) {
      rep.error(kRuleVerifySetup,
                "sparsify enabled but the setup has no decision");
      return out;
    }
    SparsifySplit<T> split = s.decision->chosen;
    if (split.s.rows == a.rows && analyze(split.s, lint).ok())
      split.a_hat = detail::kept_entries(a, split.s);
    out.merge(analyze_sparsify(a, split, lint));
    const double nnz_a = static_cast<double>(a.nnz());
    const double ratio =
        nnz_a == 0.0
            ? 0.0
            : static_cast<double>(s.decision->chosen.dropped) / nnz_a;
    if (ratio < vopt.min_drop_ratio || ratio > vopt.max_drop_ratio)
      rep.error(kRuleVerifyDropRatio,
                "drop ratio " + detail::fmt(ratio) + " outside [" +
                    detail::fmt(vopt.min_drop_ratio) + ", " +
                    detail::fmt(vopt.max_drop_ratio) + "]");
    a_hat = std::move(split.a_hat);
    precond_input = &a_hat;
  } else if (s.decision.has_value()) {
    detail::Reporter rep(out, "split", vopt.max_per_rule);
    rep.warning(kRuleVerifySetup,
                "sparsify disabled but the setup carries a decision");
  }

  // Phase 2 artifacts: the factors, their fill closure and schedules.
  out.merge(analyze_triangular(s.factors.l, Triangle::kLower, lint, "L"));
  out.merge(analyze_triangular(s.factors.u, Triangle::kUpper, lint, "U"));
  if (vopt.check_closure && precond_input->rows == s.factors.u.rows &&
      s.factors.l.rows == s.factors.u.rows) {
    detail::Reporter rep(out, "LU", vopt.max_per_rule);
    // ILU(0) factorizes on A's own pattern, i.e. closure level 0. The
    // numeric row cap can only *shrink* the pattern, so the uncapped
    // closure stays a sound upper bound.
    const index_t k =
        opt.preconditioner == PrecondKind::kIlu0 ? 0 : opt.fill_level;
    const IlukSymbolic closure = iluk_symbolic(*precond_input, k);
    detail::check_pattern_subset(s.factors.l, closure.pattern, rep);
    detail::check_pattern_subset(s.factors.u, closure.pattern, rep);
  }
  out.merge(verify_level_schedule(s.factors.l, s.l_schedule, Triangle::kLower,
                                  "schedule(L)", vopt.max_per_rule));
  out.merge(verify_level_schedule(s.factors.u, s.u_schedule, Triangle::kUpper,
                                  "schedule(U)", vopt.max_per_rule));

  if (vopt.taint_scan) {
    out.merge(taint_scan(std::span<const T>(s.factors.l.values), "L",
                         vopt.max_per_rule));
    out.merge(taint_scan(std::span<const T>(s.factors.u.values), "U",
                         vopt.max_per_rule));
  }
  return out;
}

// --- transient refactorize verifier -----------------------------------------

namespace detail {

/// Bitwise vector comparison (raw bytes — catches sign-of-zero and NaN
/// payload drift that `==` would miss). Reports kRuleTransientRefactorize.
template <class V>
void check_bitwise_equal(const std::vector<V>& got, const std::vector<V>& want,
                         const char* what, Reporter& rep) {
  if (got.size() != want.size()) {
    rep.error(kRuleTransientRefactorize,
              std::string(what) + ": size " + fmt(got.size()) + " vs " +
                  fmt(want.size()));
    return;
  }
  if (!got.empty() &&
      std::memcmp(got.data(), want.data(), got.size() * sizeof(V)) != 0) {
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (std::memcmp(&got[i], &want[i], sizeof(V)) != 0)
        rep.error(kRuleTransientRefactorize,
                  std::string(what) + " differs from the cold setup",
                  static_cast<index_t>(i));
    }
  }
}

}  // namespace detail

/// The transient fast path's equivalence contract: a numeric-only
/// refactorization (transient/refactorize.h) into a setup's retained
/// symbolic structure must reproduce a cold spcg_setup on the same matrix
/// *bitwise* — identical L and U values, S values and breakdown flag.
///
/// Procedure: build a cold setup, clone it, scrub every numeric artifact of
/// the clone to NaN (so agreement cannot come from the copy), refresh the
/// clone from `a` through build_numeric_refresh/refresh_setup_numerics, and
/// byte-compare against the cold original. Reports
/// verify.transient.refactorize on any divergence.
template <class T>
Diagnostics verify_numeric_refactorize(const Csr<T>& a, const SpcgOptions& opt,
                                       const VerifyOptions& vopt = {}) {
  Diagnostics out;
  detail::Reporter rep(out, "refactorize", vopt.max_per_rule);

  const SpcgSetup<T> cold = spcg_setup(a, opt);
  SpcgSetup<T> warm = cold;  // symbolic donor; numerics scrubbed below
  const T scrub = std::numeric_limits<T>::quiet_NaN();
  std::fill(warm.factors.l.values.begin(), warm.factors.l.values.end(), scrub);
  std::fill(warm.factors.u.values.begin(), warm.factors.u.values.end(), scrub);
  if (warm.decision.has_value())
    std::fill(warm.decision->chosen.s.values.begin(),
              warm.decision->chosen.s.values.end(), scrub);

  NumericRefreshWorkspace ws = build_numeric_refresh(warm, a);
  refresh_setup_numerics(warm, a, opt, ws);

  detail::check_bitwise_equal(warm.factors.l.values, cold.factors.l.values,
                              "L values", rep);
  detail::check_bitwise_equal(warm.factors.u.values, cold.factors.u.values,
                              "U values", rep);
  if (warm.decision.has_value() && cold.decision.has_value()) {
    detail::check_bitwise_equal(warm.decision->chosen.s.values,
                                cold.decision->chosen.s.values, "S values",
                                rep);
  }
  if (warm.factorization.breakdown != cold.factorization.breakdown)
    rep.error(kRuleTransientRefactorize,
              "breakdown flag diverged between refresh and cold setup");
  return out;
}

// --- distributed-layer verifiers --------------------------------------------

/// Non-throwing counterpart of validate_partition(): every global row owned
/// exactly once, ownership lists ascending and in agreement with part_of.
Diagnostics verify_partition(const Partition& p, std::size_t max_per_rule = 8);

/// Verify every LocalSystem against the global matrix and partition: halo
/// completeness (no missing or spurious entries), gather-edge soundness
/// (each halo slot filled exactly once, from the part that owns it), and the
/// interior/boundary split reproducing A's rows exactly.
template <class T>
Diagnostics verify_local_systems(const Csr<T>& a, const Partition& p,
                                 const std::vector<LocalSystem<T>>& locals,
                                 const VerifyOptions& vopt = {}) {
  Diagnostics out = verify_partition(p, vopt.max_per_rule);
  if (!out.ok()) return out;  // local checks index through ownership data
  if (static_cast<index_t>(locals.size()) != p.parts) {
    detail::Reporter rep(out, "dist", vopt.max_per_rule);
    rep.error(kRuleDistPartition,
              detail::fmt(locals.size()) + " local systems for " +
                  detail::fmt(p.parts) + " parts");
    return out;
  }

  // Global row -> position in its owner's owned list.
  std::vector<index_t> local_of(static_cast<std::size_t>(a.rows), -1);
  for (index_t r = 0; r < p.parts; ++r) {
    const auto& rows = p.owned[static_cast<std::size_t>(r)];
    for (std::size_t l = 0; l < rows.size(); ++l)
      local_of[static_cast<std::size_t>(rows[l])] = static_cast<index_t>(l);
  }

  for (index_t r = 0; r < p.parts; ++r) {
    const LocalSystem<T>& loc = locals[static_cast<std::size_t>(r)];
    detail::Reporter rep(out, "local(" + detail::fmt(r) + ")",
                         vopt.max_per_rule);
    if (loc.part != r)
      rep.error(kRuleDistPartition, "local system claims part " +
                                        detail::fmt(loc.part) + " at slot " +
                                        detail::fmt(r));
    if (loc.owned != p.owned[static_cast<std::size_t>(r)]) {
      rep.error(kRuleDistPartition,
                "owned list disagrees with the partition");
      continue;  // halo/split checks below would chase bad row ids
    }

    // Halo completeness: recompute the expected halo from A and compare.
    std::vector<index_t> expected;
    for (const index_t g : loc.owned) {
      for (const index_t j : a.row_cols(g)) {
        if (p.part_of[static_cast<std::size_t>(j)] != r) expected.push_back(j);
      }
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    {
      std::size_t ph = 0;
      for (const index_t g : expected) {
        while (ph < loc.halo.size() && loc.halo[ph] < g) {
          rep.error(kRuleDistHaloComplete,
                    "halo entry " + detail::fmt(loc.halo[ph]) +
                        " is not referenced by any owned row",
                    -1, loc.halo[ph]);
          ++ph;
        }
        if (ph < loc.halo.size() && loc.halo[ph] == g) {
          ++ph;
        } else {
          rep.error(kRuleDistHaloComplete,
                    "off-part column " + detail::fmt(g) +
                        " is missing from the halo",
                    -1, g);
        }
      }
      for (; ph < loc.halo.size(); ++ph)
        rep.error(kRuleDistHaloComplete,
                  "halo entry " + detail::fmt(loc.halo[ph]) +
                      " is not referenced by any owned row",
                  -1, loc.halo[ph]);
    }

    // Gather edges: every halo slot filled exactly once, from its owner.
    std::vector<index_t> fills(loc.halo.size(), 0);
    index_t prev_neighbor = -1;
    for (const auto& edge : loc.edges) {
      if (edge.neighbor <= prev_neighbor)
        rep.error(kRuleDistHaloGather,
                  "edges not strictly ascending by neighbor at " +
                      detail::fmt(edge.neighbor));
      prev_neighbor = edge.neighbor;
      if (edge.neighbor < 0 || edge.neighbor >= p.parts ||
          edge.neighbor == r) {
        rep.error(kRuleDistHaloGather,
                  "edge against invalid neighbor " +
                      detail::fmt(edge.neighbor));
        continue;
      }
      const auto& neighbor_owned =
          p.owned[static_cast<std::size_t>(edge.neighbor)];
      if (edge.src_local.size() != edge.dst_halo.size()) {
        rep.error(kRuleDistHaloGather,
                  "edge list sizes differ for neighbor " +
                      detail::fmt(edge.neighbor));
        continue;
      }
      for (std::size_t k = 0; k < edge.dst_halo.size(); ++k) {
        const index_t dst = edge.dst_halo[k];
        const index_t src = edge.src_local[k];
        if (dst < 0 || dst >= loc.halo_size()) {
          rep.error(kRuleDistHaloGather,
                    "dst_halo " + detail::fmt(dst) + " out of range");
          continue;
        }
        ++fills[static_cast<std::size_t>(dst)];
        const index_t g = loc.halo[static_cast<std::size_t>(dst)];
        if (src < 0 ||
            src >= static_cast<index_t>(neighbor_owned.size()) ||
            neighbor_owned[static_cast<std::size_t>(src)] != g)
          rep.error(kRuleDistHaloGather,
                    "halo slot " + detail::fmt(dst) + " (global " +
                        detail::fmt(g) + ") gathered from wrong source",
                    -1, g);
      }
    }
    for (std::size_t h = 0; h < fills.size(); ++h) {
      if (fills[h] == 1) continue;
      rep.error(kRuleDistHaloGather,
                "halo slot " + detail::fmt(h) + " (global " +
                    detail::fmt(loc.halo[h]) + ") gathered " +
                    detail::fmt(fills[h]) + " time(s), expected 1",
                -1, loc.halo[h]);
    }

    // Interior/boundary split: merge-walk each owned row of A against the
    // two local blocks — every entry in exactly one, with identical value.
    const index_t n_loc = loc.rows();
    if (loc.a_interior.rows != n_loc || loc.a_interior.cols != n_loc ||
        loc.a_boundary.rows != n_loc ||
        loc.a_boundary.cols != loc.halo_size()) {
      rep.error(kRuleDistLocalSplit,
                "interior/boundary block shapes disagree with owned/halo");
      continue;
    }
    auto halo_slot = [&](index_t g) {
      const auto it =
          std::lower_bound(loc.halo.begin(), loc.halo.end(), g);
      return (it != loc.halo.end() && *it == g)
                 ? static_cast<index_t>(it - loc.halo.begin())
                 : index_t{-1};
    };
    for (index_t l = 0; l < n_loc; ++l) {
      const index_t g = loc.owned[static_cast<std::size_t>(l)];
      const auto ic = loc.a_interior.row_cols(l);
      const auto iv = loc.a_interior.row_vals(l);
      const auto bc = loc.a_boundary.row_cols(l);
      const auto bv = loc.a_boundary.row_vals(l);
      std::size_t pi = 0, pb = 0;
      for (index_t q = a.rowptr[static_cast<std::size_t>(g)];
           q < a.rowptr[static_cast<std::size_t>(g) + 1]; ++q) {
        const index_t j = a.colind[static_cast<std::size_t>(q)];
        const T v = a.values[static_cast<std::size_t>(q)];
        if (p.part_of[static_cast<std::size_t>(j)] == r) {
          const index_t jl = local_of[static_cast<std::size_t>(j)];
          if (pi < ic.size() && ic[pi] == jl && iv[pi] == v) {
            ++pi;
          } else {
            rep.error(kRuleDistLocalSplit,
                      "interior block misses A(" + detail::fmt(g) + "," +
                          detail::fmt(j) + ")",
                      g, j);
          }
        } else {
          const index_t js = halo_slot(j);
          if (js >= 0 && pb < bc.size() && bc[pb] == js && bv[pb] == v) {
            ++pb;
          } else {
            rep.error(kRuleDistLocalSplit,
                      "boundary block misses A(" + detail::fmt(g) + "," +
                          detail::fmt(j) + ")",
                      g, j);
          }
        }
      }
      if (pi != ic.size() || pb != bc.size())
        rep.error(kRuleDistLocalSplit,
                  "local row " + detail::fmt(l) +
                      " stores entries outside A's pattern",
                  g);
    }
  }
  return out;
}

/// Simulate the deterministic all-reduce of dist/comm.h over one scalar:
/// each part sums its owned slice of `contributions` in local (ascending
/// global) order, then the partials fold in ascending rank order. Reports
/// dist.reduce.determinism when (a) re-running the simulation is not
/// bitwise stable, (b) parts == 1 differs at all from the serial ascending
/// sum, or (c) the ULP distance to the serial sum exceeds `max_ulps`.
Diagnostics verify_reduction_determinism(const Partition& p,
                                         std::span<const double> contributions,
                                         std::uint64_t max_ulps,
                                         std::size_t max_per_rule = 8);

/// ULP distance between two doubles (0 for bitwise-equal values, including
/// -0 vs +0; UINT64_MAX when either is NaN or they differ in sign).
std::uint64_t ulp_distance(double x, double y);

// --- allocation-audit bridge ------------------------------------------------

/// Convert the AllocAudit registry's accumulated state into diagnostics:
/// one alloc.steady-state error per phase with steady-state violations,
/// plus one info per audited phase summarizing its counts. This is the
/// hard-fail path of spcg-verify --audit.
Diagnostics alloc_audit_diagnostics(std::size_t max_per_rule = 8);

// --- reporting helpers ------------------------------------------------------

/// Render diagnostics as a JSON array fragment (stable schema for the CI
/// artifact): [{"severity","rule","object","row","col","message"}, ...].
std::string diagnostics_to_json(const Diagnostics& d);

}  // namespace spcg::analysis
