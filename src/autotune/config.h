// The candidate space of the autotuner: everything the paper (and the repo's
// related-work comparators) expose as a solve-time decision, folded into one
// value type the search loop, the tuning database and the runtime layer all
// agree on.
//
// Dimensions:
//   * sparsification  — off / one fixed ratio of {10, 5, 1}% / adaptive
//                       Algorithm 2 (the Sec-3.2 heuristic);
//   * preconditioner  — ILU(0), ILU(K) for K in 1..3, plus the related-work
//                       alternatives ILUT, SAI and block-Jacobi;
//   * SpTRSV executor — serial by default; level-scheduled when a TuneSpace
//                       lists it.
//
// ILU-family configs convert losslessly to SpcgOptions (to_spcg_options), so
// tuned winners flow through the existing SolverSession / SetupCache path.
// The alternative preconditioners have no SpcgOptions spelling; the tuner
// measures them through its own trial path and the service solves them
// directly (session_compatible() tells the two worlds apart).
#pragma once

#include <string>
#include <vector>

#include "core/spcg.h"
#include "precond/preconditioner.h"
#include "sparse/csr.h"
#include "support/error.h"

namespace spcg {

/// Preconditioner family of a tuning candidate.
enum class TunePrecond { kIlu0, kIluK, kIlut, kSai, kBlockJacobi };

inline const char* to_string(TunePrecond p) {
  switch (p) {
    case TunePrecond::kIlu0: return "ilu0";
    case TunePrecond::kIluK: return "iluk";
    case TunePrecond::kIlut: return "ilut";
    case TunePrecond::kSai: return "sai";
    case TunePrecond::kBlockJacobi: return "block-jacobi";
  }
  return "unknown";
}

/// Sparsification policy of a tuning candidate.
enum class TuneSparsify {
  kOff,       // non-sparsified baseline
  kFixed,     // exactly one ratio (ratio_percent), no Algorithm 2 gate
  kAdaptive,  // full Algorithm 2 over the default {10, 5, 1}% ladder
};

inline const char* to_string(TuneSparsify s) {
  switch (s) {
    case TuneSparsify::kOff: return "off";
    case TuneSparsify::kFixed: return "fixed";
    case TuneSparsify::kAdaptive: return "adaptive";
  }
  return "unknown";
}

/// One point of the candidate space.
struct TuneConfig {
  TuneSparsify sparsify = TuneSparsify::kOff;
  double ratio_percent = 0.0;  // meaningful for kFixed only
  TunePrecond precond = TunePrecond::kIlu0;
  index_t fill_level = 0;      // meaningful for kIluK only
  TrsvExec executor = TrsvExec::kSerial;

  friend bool operator==(const TuneConfig& a, const TuneConfig& b) {
    return a.sparsify == b.sparsify && a.ratio_percent == b.ratio_percent &&
           a.precond == b.precond && a.fill_level == b.fill_level &&
           a.executor == b.executor;
  }
};

/// Stable human-readable identity, e.g. "fixed5/iluk2/level". Used as the
/// config spelling inside the tuning database and in bench/test output, so
/// it must never depend on enumeration order.
inline std::string config_id(const TuneConfig& c) {
  std::string s;
  switch (c.sparsify) {
    case TuneSparsify::kOff: s = "off"; break;
    case TuneSparsify::kFixed: {
      // Ratios are small percentages; print without trailing zeros.
      double r = c.ratio_percent;
      s = "fixed";
      if (r == static_cast<double>(static_cast<long long>(r))) {
        s += std::to_string(static_cast<long long>(r));
      } else {
        s += std::to_string(r);
      }
      break;
    }
    case TuneSparsify::kAdaptive: s = "adaptive"; break;
  }
  s += "/";
  s += to_string(c.precond);
  if (c.precond == TunePrecond::kIluK) s += std::to_string(c.fill_level);
  s += "/";
  s += c.executor == TrsvExec::kSerial ? "serial" : "level";
  return s;
}

/// Whether the config is expressible as SpcgOptions and therefore flows
/// through SolverSession and the shared SetupCache.
inline bool session_compatible(const TuneConfig& c) {
  return c.precond == TunePrecond::kIlu0 || c.precond == TunePrecond::kIluK;
}

/// Project a session-compatible config onto `base` (tolerances, pivot
/// handling and other solve knobs are preserved from the base options).
inline SpcgOptions to_spcg_options(const TuneConfig& c,
                                   const SpcgOptions& base = {}) {
  SPCG_CHECK_MSG(session_compatible(c),
                 "config " << config_id(c) << " has no SpcgOptions form");
  SpcgOptions opt = base;
  switch (c.sparsify) {
    case TuneSparsify::kOff:
      opt.sparsify_enabled = false;
      break;
    case TuneSparsify::kFixed:
      opt.sparsify_enabled = true;
      // One ratio and a disabled wavefront gate (omega 0) pins Algorithm 2
      // to exactly this split; tau keeps the convergence guard.
      opt.sparsify.ratios = {c.ratio_percent};
      opt.sparsify.omega_percent = 0.0;
      break;
    case TuneSparsify::kAdaptive:
      opt.sparsify_enabled = true;
      opt.sparsify = base.sparsify;  // the full {10,5,1} ladder + gates
      break;
  }
  opt.preconditioner = c.precond == TunePrecond::kIlu0 ? PrecondKind::kIlu0
                                                       : PrecondKind::kIluK;
  if (c.precond == TunePrecond::kIluK) opt.fill_level = c.fill_level;
  opt.executor = c.executor;
  return opt;
}

/// Bounds of the enumeration. The defaults cover the paper's knob set; the
/// alternatives ride along on the original (non-sparsified) matrix — SAI and
/// block-Jacobi have no triangular dependence chains for sparsification to
/// shorten, and ILUT drops inside the factorization already.
struct TuneSpace {
  std::vector<double> fixed_ratios{10.0, 5.0, 1.0};
  bool adaptive = true;               // include the Algorithm 2 policy
  std::vector<index_t> fill_levels{0, 1, 2, 3};  // 0 = ILU(0)
  bool alternatives = true;           // ILUT / SAI / block-Jacobi
  /// kLevelScheduled is left out by default: on a multicore CPU its
  /// fork_join team has no settled win over serial on any benchmark factor
  /// (EXPERIMENTS.md, "Level-scheduled SpTRSV on one fork_join team").
  std::vector<TrsvExec> executors{TrsvExec::kSerial};
};

/// Enumerate the candidate space in deterministic order.
inline std::vector<TuneConfig> enumerate_candidates(const TuneSpace& space) {
  std::vector<TuneConfig> out;
  std::vector<TuneConfig> sparsify_axis;
  {
    TuneConfig c;
    c.sparsify = TuneSparsify::kOff;
    sparsify_axis.push_back(c);
    for (const double r : space.fixed_ratios) {
      c.sparsify = TuneSparsify::kFixed;
      c.ratio_percent = r;
      sparsify_axis.push_back(c);
    }
    if (space.adaptive) {
      c.sparsify = TuneSparsify::kAdaptive;
      c.ratio_percent = 0.0;
      sparsify_axis.push_back(c);
    }
  }
  for (const TuneConfig& s : sparsify_axis) {
    for (const index_t k : space.fill_levels) {
      for (const TrsvExec e : space.executors) {
        TuneConfig c = s;
        c.precond = k == 0 ? TunePrecond::kIlu0 : TunePrecond::kIluK;
        c.fill_level = k;
        c.executor = e;
        out.push_back(c);
      }
    }
  }
  if (space.alternatives) {
    for (const TunePrecond p :
         {TunePrecond::kIlut, TunePrecond::kSai, TunePrecond::kBlockJacobi}) {
      for (const TrsvExec e : space.executors) {
        // SAI / block-Jacobi applies are wavefront-free; only ILUT's
        // triangular solves distinguish the executors.
        if (p != TunePrecond::kIlut && e != TrsvExec::kSerial) continue;
        TuneConfig c;
        c.sparsify = TuneSparsify::kOff;
        c.precond = p;
        c.executor = e;
        out.push_back(c);
      }
    }
  }
  return out;
}

}  // namespace spcg
