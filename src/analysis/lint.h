// Structural linter — pillar 1 of the analysis layer.
//
// Deep, non-throwing analyze() passes over the library's core objects:
//   * Csr / Coo structure: rowptr monotonicity, sorted+unique colind,
//     in-bounds indices, nnz accounting, NaN/Inf value scans;
//   * symmetry and SPD heuristics (positive diagonal, diagonal dominance)
//     for matrices headed into CG;
//   * triangular factors (every ILU, ILU(K) and ILUT factor): a strictly
//     lower L, an upper U with a stored, nonzero diagonal;
//   * sparsification splits: Â + S must partition A and keep its diagonal.
//
// Every finding is reported into a Diagnostics object with a stable rule id
// (kRule* constants below); nothing throws, even on badly corrupted input —
// checks that would index out of bounds are skipped once a prerequisite
// check has failed. SPCG_CHECK remains the fail-fast guard inside hot
// kernels; the linter is the offline/debug deep scan.
#pragma once

#include <cmath>
#include <cstddef>
#include <map>
#include <string>

#include "analysis/diagnostics.h"
#include "core/sparsify.h"
#include "sparse/coo.h"
#include "sparse/csr.h"
#include "sparse/ops.h"

namespace spcg::analysis {

// --- rule catalog -----------------------------------------------------------
// Stable ids: tests and tooling match on these strings. See rule_catalog()
// for one-line descriptions and DESIGN.md "Analysis & diagnostics layer".

inline constexpr const char* kRuleShapeNonNegative = "csr.shape.nonnegative";
inline constexpr const char* kRuleShapeSquare = "csr.shape.square";
inline constexpr const char* kRuleRowptrSize = "csr.rowptr.size";
inline constexpr const char* kRuleRowptrFront = "csr.rowptr.front";
inline constexpr const char* kRuleRowptrMonotone = "csr.rowptr.monotone";
inline constexpr const char* kRuleArraysSize = "csr.arrays.size";
inline constexpr const char* kRuleNnzConsistent = "csr.nnz.consistent";
inline constexpr const char* kRuleColindBounds = "csr.colind.bounds";
inline constexpr const char* kRuleColindSorted = "csr.colind.sorted";
inline constexpr const char* kRuleValuesFinite = "csr.values.finite";
inline constexpr const char* kRuleSymPattern = "sym.pattern";
inline constexpr const char* kRuleSymValue = "sym.value";
inline constexpr const char* kRuleSpdDiagPresent = "spd.diag.present";
inline constexpr const char* kRuleSpdDiagPositive = "spd.diag.positive";
inline constexpr const char* kRuleSpdDominance = "spd.dominance";
inline constexpr const char* kRuleTriStructure = "tri.structure";
inline constexpr const char* kRuleTriDiagPresent = "tri.diag.present";
inline constexpr const char* kRuleTriDiagNonzero = "tri.diag.nonzero";
inline constexpr const char* kRuleSparsifyShape = "sparsify.shape";
inline constexpr const char* kRuleSparsifyPartition = "sparsify.partition";
inline constexpr const char* kRuleSparsifyDiag = "sparsify.diag.preserved";
inline constexpr const char* kRuleSparsifyCount = "sparsify.count";
// Schedule rules (emitted by race_detector.h, listed here for the catalog):
inline constexpr const char* kRuleScheduleShape = "schedule.shape";
inline constexpr const char* kRuleSchedulePermutation = "schedule.permutation";
inline constexpr const char* kRuleScheduleConsistent = "schedule.consistent";
inline constexpr const char* kRuleScheduleTopology = "schedule.topology";
inline constexpr const char* kRuleScheduleRace = "schedule.race";
inline constexpr const char* kRuleRaceOverlap = "race.overlap";
inline constexpr const char* kRuleRaceStale = "race.stale-read";
// Verifier rules (emitted by verify.h/.cc, listed here for the catalog):
inline constexpr const char* kRuleVerifySetup = "verify.setup.artifacts";
inline constexpr const char* kRuleVerifyClosure = "verify.ilu.closure";
inline constexpr const char* kRuleVerifyDropRatio = "verify.sparsify.ratio";
inline constexpr const char* kRuleTaintNonFinite = "taint.nonfinite";
inline constexpr const char* kRuleDistPartition = "dist.partition.coverage";
inline constexpr const char* kRuleDistHaloComplete = "dist.halo.complete";
inline constexpr const char* kRuleDistHaloGather = "dist.halo.gather";
inline constexpr const char* kRuleDistLocalSplit = "dist.local.split";
inline constexpr const char* kRuleDistReduce = "dist.reduce.determinism";
inline constexpr const char* kRuleAllocSteadyState = "alloc.steady-state";
inline constexpr const char* kRuleTransientRefactorize =
    "verify.transient.refactorize";

/// One catalog entry: rule id + one-line description (for spcg-lint --rules).
struct RuleInfo {
  const char* id;
  const char* description;
};

/// Every rule the analysis layer can emit, in catalog order.
const std::vector<RuleInfo>& rule_catalog();

// --- options ----------------------------------------------------------------

struct LintOptions {
  bool check_values = true;     // NaN/Inf scan over stored values
  bool check_symmetry = false;  // pattern + numeric symmetry (square only)
  bool check_spd = false;       // SPD heuristics: diag present/positive, dominance
  double symmetry_tol = 0.0;    // absolute |a_ij - a_ji| tolerance
  /// Per-rule cap on reported findings; further ones are counted, not stored
  /// (keeps reports bounded on wholesale corruption). 0 = unlimited.
  std::size_t max_per_rule = 8;
};

namespace detail {

/// Rate-limited reporter: forwards to Diagnostics until the per-rule cap,
/// then counts silently and emits one summarizing info at flush().
class Reporter {
 public:
  Reporter(Diagnostics& out, std::string object, std::size_t max_per_rule)
      : out_(out), object_(std::move(object)), cap_(max_per_rule) {}

  void error(const char* rule, std::string message, index_t row = -1,
             index_t col = -1) {
    emit(Severity::kError, rule, std::move(message), row, col);
  }
  void warning(const char* rule, std::string message, index_t row = -1,
               index_t col = -1) {
    emit(Severity::kWarning, rule, std::move(message), row, col);
  }
  void info(const char* rule, std::string message, index_t row = -1,
            index_t col = -1) {
    emit(Severity::kInfo, rule, std::move(message), row, col);
  }

  ~Reporter() {
    for (const auto& [rule, n] : suppressed_)
      out_.info(rule, object_,
                std::to_string(n) + " further finding(s) suppressed");
  }

 private:
  void emit(Severity sev, const char* rule, std::string message, index_t row,
            index_t col) {
    if (cap_ != 0 && emitted_[rule] >= cap_) {
      ++suppressed_[rule];
      return;
    }
    ++emitted_[rule];
    out_.add({sev, rule, object_, row, col, std::move(message)});
  }

  Diagnostics& out_;
  std::string object_;
  std::size_t cap_;
  std::map<std::string, std::size_t> emitted_;
  std::map<std::string, std::size_t> suppressed_;
};

template <class T>
std::string fmt(const T& v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace detail

// --- core structural pass ---------------------------------------------------

/// Deep structural + value lint of a CSR matrix. Never throws; findings land
/// in the returned Diagnostics. Per-entry scans are skipped for rows whose
/// rowptr slice is already known to be invalid.
template <class T>
Diagnostics analyze(const Csr<T>& a, const LintOptions& opt = {},
                    const std::string& object = "A") {
  Diagnostics out;
  detail::Reporter rep(out, object, opt.max_per_rule);

  if (a.rows < 0 || a.cols < 0) {
    rep.error(kRuleShapeNonNegative, "rows=" + detail::fmt(a.rows) +
                                         " cols=" + detail::fmt(a.cols));
    return out;
  }
  if (a.rowptr.size() != static_cast<std::size_t>(a.rows) + 1) {
    rep.error(kRuleRowptrSize, "rowptr size " + detail::fmt(a.rowptr.size()) +
                                   ", expected rows+1 = " +
                                   detail::fmt(a.rows + 1));
    return out;  // nothing else is addressable
  }
  if (a.rowptr.front() != 0)
    rep.error(kRuleRowptrFront,
              "rowptr[0] = " + detail::fmt(a.rowptr.front()) + ", expected 0");
  if (a.colind.size() != a.values.size())
    rep.error(kRuleArraysSize, "colind size " + detail::fmt(a.colind.size()) +
                                   " vs values size " +
                                   detail::fmt(a.values.size()));
  if (a.rowptr.back() < 0 ||
      static_cast<std::size_t>(a.rowptr.back()) != a.colind.size())
    rep.error(kRuleNnzConsistent,
              "rowptr.back() = " + detail::fmt(a.rowptr.back()) +
                  " vs colind size " + detail::fmt(a.colind.size()));

  const auto nnz_cap = static_cast<index_t>(a.colind.size());
  auto row_ok = [&](index_t i) {
    const index_t b = a.rowptr[static_cast<std::size_t>(i)];
    const index_t e = a.rowptr[static_cast<std::size_t>(i) + 1];
    return b >= 0 && b <= e && e <= nnz_cap;
  };

  for (index_t i = 0; i < a.rows; ++i) {
    const index_t b = a.rowptr[static_cast<std::size_t>(i)];
    const index_t e = a.rowptr[static_cast<std::size_t>(i) + 1];
    if (b > e)
      rep.error(kRuleRowptrMonotone,
                "rowptr[" + detail::fmt(i) + "] = " + detail::fmt(b) + " > " +
                    "rowptr[" + detail::fmt(i + 1) + "] = " + detail::fmt(e),
                i);
    if (!row_ok(i)) continue;  // slice invalid; per-entry checks unsafe
    index_t prev = -1;
    for (index_t p = b; p < e; ++p) {
      const index_t j = a.colind[static_cast<std::size_t>(p)];
      if (j < 0 || j >= a.cols) {
        rep.error(kRuleColindBounds,
                  "column " + detail::fmt(j) + " outside [0, " +
                      detail::fmt(a.cols) + ")",
                  i, j);
      } else if (j <= prev) {
        rep.error(kRuleColindSorted,
                  "column " + detail::fmt(j) + " after " + detail::fmt(prev) +
                      (j == prev ? " (duplicate)" : " (unsorted)"),
                  i, j);
      }
      prev = j;
      if (opt.check_values && p < static_cast<index_t>(a.values.size())) {
        const T v = a.values[static_cast<std::size_t>(p)];
        if (!std::isfinite(static_cast<double>(v)))
          rep.error(kRuleValuesFinite,
                    std::string("non-finite value ") + detail::fmt(v), i, j);
      }
    }
  }

  const bool structure_ok = out.ok();

  if (opt.check_symmetry && structure_ok) {
    if (a.rows != a.cols) {
      rep.error(kRuleShapeSquare, "symmetry check on " + detail::fmt(a.rows) +
                                      "x" + detail::fmt(a.cols) + " matrix");
    } else {
      for (index_t i = 0; i < a.rows; ++i) {
        const auto cols_i = a.row_cols(i);
        const auto vals_i = a.row_vals(i);
        for (std::size_t p = 0; p < cols_i.size(); ++p) {
          const index_t j = cols_i[p];
          if (j <= i) continue;  // check each pair once, from the upper side
          const index_t q = a.find(j, i);
          if (q < 0) {
            rep.warning(kRuleSymPattern,
                        "entry (" + detail::fmt(i) + "," + detail::fmt(j) +
                            ") has no transpose partner",
                        i, j);
          } else {
            const double d = std::abs(
                static_cast<double>(vals_i[p]) -
                static_cast<double>(a.values[static_cast<std::size_t>(q)]));
            if (d > opt.symmetry_tol)
              rep.warning(kRuleSymValue,
                          "|a_ij - a_ji| = " + detail::fmt(d) +
                              " exceeds tol " + detail::fmt(opt.symmetry_tol),
                          i, j);
          }
        }
      }
    }
  }

  if (opt.check_spd && structure_ok && a.rows == a.cols) {
    index_t non_dominant = 0;
    for (index_t i = 0; i < a.rows; ++i) {
      const auto cols_i = a.row_cols(i);
      const auto vals_i = a.row_vals(i);
      double diag = 0.0, off_abs = 0.0;
      bool has_diag = false;
      for (std::size_t p = 0; p < cols_i.size(); ++p) {
        if (cols_i[p] == i) {
          diag = static_cast<double>(vals_i[p]);
          has_diag = true;
        } else {
          off_abs += std::abs(static_cast<double>(vals_i[p]));
        }
      }
      if (!has_diag) {
        rep.error(kRuleSpdDiagPresent, "row has no stored diagonal", i, i);
      } else if (!(diag > 0.0)) {
        rep.warning(kRuleSpdDiagPositive,
                    "diagonal " + detail::fmt(diag) + " is not positive", i, i);
      } else if (diag < off_abs) {
        ++non_dominant;
      }
    }
    if (non_dominant > 0)
      rep.info(kRuleSpdDominance,
               detail::fmt(non_dominant) +
                   " row(s) not diagonally dominant (heuristic only)");
  }

  return out;
}

/// Lint a COO matrix by checking bounds/finiteness directly (COO carries no
/// ordering invariant), reusing the CSR rule ids.
template <class T>
Diagnostics analyze(const Coo<T>& a, const LintOptions& opt = {},
                    const std::string& object = "A(coo)") {
  Diagnostics out;
  detail::Reporter rep(out, object, opt.max_per_rule);
  if (a.rows < 0 || a.cols < 0) {
    rep.error(kRuleShapeNonNegative, "rows=" + detail::fmt(a.rows) +
                                         " cols=" + detail::fmt(a.cols));
    return out;
  }
  for (std::size_t k = 0; k < a.entries.size(); ++k) {
    const Triplet<T>& t = a.entries[k];
    if (t.row < 0 || t.row >= a.rows || t.col < 0 || t.col >= a.cols)
      rep.error(kRuleColindBounds,
                "entry " + detail::fmt(k) + " at (" + detail::fmt(t.row) +
                    "," + detail::fmt(t.col) + ") outside " +
                    detail::fmt(a.rows) + "x" + detail::fmt(a.cols),
                t.row, t.col);
    if (opt.check_values && !std::isfinite(static_cast<double>(t.value)))
      rep.error(kRuleValuesFinite,
                std::string("non-finite value ") + detail::fmt(t.value),
                t.row, t.col);
  }
  return out;
}

// --- triangular factors -----------------------------------------------------

/// Lint one triangle of TriangularFactors (sptrsv/sptrsv.h), the format the
/// SpTRSV executors read: kLower checks a strictly lower L whose unit
/// diagonal is implicit, kUpper an upper U that stores a nonzero diagonal in
/// every row.
template <class T>
Diagnostics analyze_triangular(const Csr<T>& f, Triangle tri,
                               const LintOptions& opt = {},
                               const std::string& object = "factor") {
  Diagnostics out = analyze(f, opt, object);
  if (!out.ok()) return out;  // per-entry scans below assume sane structure
  detail::Reporter rep(out, object, opt.max_per_rule);
  if (f.rows != f.cols) {
    rep.error(kRuleShapeSquare,
              detail::fmt(f.rows) + "x" + detail::fmt(f.cols));
    return out;
  }
  const bool lower = tri == Triangle::kLower;
  for (index_t i = 0; i < f.rows; ++i) {
    const auto cols_i = f.row_cols(i);
    const auto vals_i = f.row_vals(i);
    bool has_diag = false;
    for (std::size_t p = 0; p < cols_i.size(); ++p) {
      const index_t j = cols_i[p];
      if (lower ? j >= i : j < i)
        rep.error(kRuleTriStructure,
                  lower ? "entry on or above the diagonal of a strictly "
                          "lower L (its unit diagonal is implicit)"
                        : "entry below the diagonal of U",
                  i, j);
      if (!lower && j == i) {
        has_diag = true;
        if (vals_i[p] == T{0})
          rep.error(kRuleTriDiagNonzero, "zero diagonal", i, i);
      }
    }
    if (!lower && !has_diag)
      rep.error(kRuleTriDiagPresent, "row has no stored diagonal", i, i);
  }
  return out;
}

// --- sparsification splits --------------------------------------------------

/// Lint an Â + S split against its source matrix A: both parts structurally
/// valid, patterns disjoint, their union exactly A (positions and values),
/// and every diagonal of A kept in Â (§3.2.2: the diagonal is never dropped).
template <class T>
Diagnostics analyze_sparsify(const Csr<T>& a, const SparsifySplit<T>& split,
                             const LintOptions& opt = {}) {
  Diagnostics out = analyze(split.a_hat, opt, "a_hat");
  out.merge(analyze(split.s, opt, "s"));
  if (!out.ok()) return out;
  detail::Reporter rep(out, "split", opt.max_per_rule);
  if (split.a_hat.rows != a.rows || split.a_hat.cols != a.cols ||
      split.s.rows != a.rows || split.s.cols != a.cols) {
    rep.error(kRuleSparsifyShape, "a_hat/s shape differs from A");
    return out;
  }
  for (index_t i = 0; i < a.rows; ++i) {
    const auto ac = a.row_cols(i);
    const auto av = a.row_vals(i);
    const auto hc = split.a_hat.row_cols(i);
    const auto hv = split.a_hat.row_vals(i);
    const auto sc = split.s.row_cols(i);
    const auto sv = split.s.row_vals(i);
    // Merge-walk Â and S against A: every A entry in exactly one part, with
    // an identical value; no part entry outside A's pattern.
    std::size_t ph = 0, ps = 0;
    for (std::size_t pa = 0; pa < ac.size(); ++pa) {
      const index_t j = ac[pa];
      const bool in_hat = ph < hc.size() && hc[ph] == j;
      const bool in_s = ps < sc.size() && sc[ps] == j;
      if (in_hat == in_s) {
        rep.error(kRuleSparsifyPartition,
                  in_hat ? "entry present in both a_hat and s"
                         : "entry of A missing from both a_hat and s",
                  i, j);
      } else {
        const T v = in_hat ? hv[ph] : sv[ps];
        if (v != av[pa])
          rep.error(kRuleSparsifyPartition, "entry value differs from A", i,
                    j);
      }
      if (j == i && !in_hat)
        rep.error(kRuleSparsifyDiag, "diagonal entry was dropped into S", i,
                  i);
      if (in_hat) ++ph;
      if (in_s) ++ps;
    }
    if (ph != hc.size())
      rep.error(kRuleSparsifyPartition,
                "a_hat has entries outside A's pattern", i);
    if (ps != sc.size())
      rep.error(kRuleSparsifyPartition, "s has entries outside A's pattern",
                i);
  }
  if (split.dropped != split.s.nnz())
    rep.warning(kRuleSparsifyCount,
                "dropped = " + detail::fmt(split.dropped) + " but nnz(S) = " +
                    detail::fmt(split.s.nnz()));
  return out;
}

}  // namespace spcg::analysis
