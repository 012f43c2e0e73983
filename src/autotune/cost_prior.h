// Cost-model prior of the autotuner: rank the candidate space *before* any
// measured trial using the analytical execution model (src/gpumodel/).
//
// The prior is deliberately cheap — symbolic work only, no numeric
// factorization and no solves:
//   * per sparsify policy, the candidate matrix Â is computed once
//     (sparsify_by_ratio / Algorithm 2) and shared by every candidate that
//     uses it, together with a convergence-risk inflation derived from the
//     paper's ‖Â⁻¹‖·‖S‖ indicator;
//   * per (Â pattern, fill level), the ILU(K) *symbolic* pattern and its
//     level structure are computed once and shared;
//   * the per-iteration cost comes from CostModel::pcg_iteration on that
//     structure, with the executor choosing the device flavor (serial →
//     host model, level-scheduled → the configured device).
//
// The predicted iteration counts are coarse multiplicative heuristics (a
// stronger factor converges faster, a riskier sparsification slower); they
// only have to *rank* candidates well enough that the measured-trial budget
// is spent on plausible winners — measurement, not the prior, picks the
// final configuration. bench/autotune_study.cc quantifies exactly how much
// the measured refinement buys over trusting this prior alone.
#pragma once

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "autotune/config.h"
#include "core/sparsify.h"
#include "gpumodel/cost_model.h"
#include "gpumodel/device.h"
#include "precond/ilu.h"

namespace spcg {

/// One ranked candidate: predicted phase costs and the combined score the
/// tuner sorts by (amortized setup + predicted iterations x iteration cost).
struct CandidatePrior {
  TuneConfig config;
  double setup_seconds = 0.0;
  double per_iteration_seconds = 0.0;
  double predicted_iterations = 0.0;
  double score = 0.0;
};

/// Knobs of the prior.
struct CostPriorOptions {
  DeviceSpec device = device_epyc7413();  // level-scheduled executor model
  DeviceSpec host = device_host_cpu();    // serial executor + host phases
  int value_bytes = 8;
  double reference_iterations = 100.0;  // scale of the iteration heuristics
  double amortize_solves = 10.0;        // solves the setup is spread over
  index_t max_row_fill = 0;             // cap forwarded to iluk_symbolic
};

namespace detail {

/// Iteration-count multiplier per preconditioner family, relative to
/// ILU(0) = 1. Heuristic, monotone in preconditioner strength.
inline double precond_iteration_factor(const TuneConfig& c) {
  switch (c.precond) {
    case TunePrecond::kIlu0: return 1.0;
    case TunePrecond::kIluK:
      return 1.0 / (1.0 + 0.25 * static_cast<double>(c.fill_level));
    case TunePrecond::kIlut: return 0.9;
    case TunePrecond::kSai: return 2.5;
    case TunePrecond::kBlockJacobi: return 3.5;
  }
  return 1.0;
}

}  // namespace detail

/// Rank `candidates` for matrix `a`. Returns priors sorted by ascending
/// score (best predicted candidate first). Deterministic.
template <class T>
std::vector<CandidatePrior> rank_candidates(
    const Csr<T>& a, const std::vector<TuneConfig>& candidates,
    const CostPriorOptions& opt = {}) {
  const CostModel device_model(opt.device, opt.value_bytes);
  const CostModel host_model(opt.host, opt.value_bytes);

  // Shared per-sparsify-policy state: the candidate matrix pattern (as an
  // owning copy only when sparsified), its nnz, the sparsify host cost and
  // the convergence-risk inflation.
  struct PolicyState {
    Csr<T> a_hat;             // empty (rows==0) means "use `a` directly"
    double sparsify_seconds = 0.0;
    double risk_inflation = 1.0;  // >= 1; grows with the Eq. 6 indicator
  };
  // Key: (mode, ratio). kOff and kAdaptive use sentinel ratios.
  std::map<std::pair<int, double>, PolicyState> policies;
  auto policy_key = [](const TuneConfig& c) {
    return std::make_pair(static_cast<int>(c.sparsify),
                          c.sparsify == TuneSparsify::kFixed ? c.ratio_percent
                                                             : 0.0);
  };
  auto policy_for = [&](const TuneConfig& c) -> PolicyState& {
    const auto key = policy_key(c);
    auto it = policies.find(key);
    if (it != policies.end()) return it->second;
    PolicyState st;
    if (c.sparsify == TuneSparsify::kFixed) {
      SparsifySplit<T> split = sparsify_by_ratio(a, c.ratio_percent);
      const ConvergenceIndicator ind =
          convergence_indicator(split.a_hat, split.s);
      // Each unit of the indicator above "free" costs extra iterations;
      // clamp so an unsafe split ranks behind but stays finite.
      st.risk_inflation = 1.0 + 0.5 * std::min(ind.product, 4.0);
      st.sparsify_seconds = host_model.sparsify_host(a.nnz(), 1).seconds;
      st.a_hat = std::move(split.a_hat);
    } else if (c.sparsify == TuneSparsify::kAdaptive) {
      SparsifyDecision<T> d = wavefront_aware_sparsify(a);
      const SparsifyStep* chosen_step =
          d.steps.empty() ? nullptr : &d.steps.back();
      const double product =
          chosen_step != nullptr ? chosen_step->indicator.product : 0.0;
      st.risk_inflation = 1.0 + 0.5 * std::min(product, 4.0);
      st.sparsify_seconds =
          host_model
              .sparsify_host(a.nnz(), static_cast<int>(d.steps.size()))
              .seconds;
      st.a_hat = std::move(d.chosen.a_hat);
    }
    return policies.emplace(key, std::move(st)).first->second;
  };

  // Shared per-(policy, fill) symbolic structure.
  struct PatternState {
    index_t pattern_nnz = 0;
    PcgIterationShape shape;
  };
  std::map<std::pair<std::pair<int, double>, index_t>, PatternState> patterns;
  auto pattern_for = [&](const TuneConfig& c,
                         const Csr<T>& input) -> PatternState& {
    const index_t fill = c.precond == TunePrecond::kIluK ? c.fill_level : 0;
    const auto key = std::make_pair(policy_key(c), fill);
    auto it = patterns.find(key);
    if (it != patterns.end()) return it->second;
    PatternState st;
    if (fill == 0) {
      // ILU(0) keeps the input pattern exactly (ILUT approximated likewise:
      // its kept-fill cap lands near the input density).
      st.pattern_nnz = input.nnz();
      st.shape = pcg_iteration_shape(a, input, input);
    } else {
      const IlukSymbolic sym = iluk_symbolic(input, fill, opt.max_row_fill);
      st.pattern_nnz = sym.pattern.nnz();
      st.shape.n = a.rows;
      st.shape.a_nnz = a.nnz();
      st.shape.lower = trisolve_structure(sym.pattern, Triangle::kLower);
      st.shape.upper = trisolve_structure(sym.pattern, Triangle::kUpper);
    }
    return patterns.emplace(key, std::move(st)).first->second;
  };

  std::vector<CandidatePrior> out;
  out.reserve(candidates.size());
  for (const TuneConfig& c : candidates) {
    CandidatePrior p;
    p.config = c;
    PolicyState& policy = policy_for(c);
    const Csr<T>& input = policy.a_hat.rows > 0 ? policy.a_hat : a;
    const CostModel& model =
        c.executor == TrsvExec::kSerial ? host_model : device_model;

    if (c.precond == TunePrecond::kSai ||
        c.precond == TunePrecond::kBlockJacobi) {
      // Wavefront-free applies: SpMV with A plus an apply modeled as one
      // more SpMV-shaped pass (SAI: M has roughly A's pattern; block-Jacobi:
      // dense blocks stream comparable bytes) plus the BLAS-1 tail.
      OpCost iter = model.spmv(a.rows, a.nnz());
      iter += model.spmv(a.rows, a.nnz());
      iter += model.blas1(a.rows, 14, 12);  // Algorithm 1 tail, fused view
      p.per_iteration_seconds = iter.seconds;
      // Setup: per-row (SAI) or per-block (block-Jacobi) dense solves.
      const double m = a.nnz() > 0 && a.rows > 0
                           ? static_cast<double>(a.nnz()) /
                                 static_cast<double>(a.rows)
                           : 1.0;
      const auto dense_ops =
          static_cast<std::uint64_t>(static_cast<double>(a.rows) * m * m * m);
      p.setup_seconds =
          host_model.iluk_factorization_host(dense_ops, a.nnz()).seconds;
    } else {
      const PatternState& pattern = pattern_for(c, input);
      p.per_iteration_seconds = model.pcg_iteration(pattern.shape).seconds;
      const double fill_ratio =
          static_cast<double>(pattern.pattern_nnz) /
          std::max(1.0, static_cast<double>(input.nnz()));
      const auto elim_ops = static_cast<std::uint64_t>(
          static_cast<double>(pattern.pattern_nnz) *
          std::max(1.0, fill_ratio));
      if (c.precond == TunePrecond::kIlu0) {
        p.setup_seconds =
            model.ilu0_factorization(pattern.shape.lower, elim_ops).seconds;
      } else {
        p.setup_seconds =
            host_model.iluk_factorization_host(elim_ops, pattern.pattern_nnz)
                .seconds;
      }
      p.setup_seconds += policy.sparsify_seconds;
    }

    p.predicted_iterations = opt.reference_iterations *
                             detail::precond_iteration_factor(c) *
                             policy.risk_inflation;
    p.score = p.setup_seconds / std::max(1.0, opt.amortize_solves) +
              p.predicted_iterations * p.per_iteration_seconds;
    out.push_back(std::move(p));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const CandidatePrior& x, const CandidatePrior& y) {
                     return x.score < y.score;
                   });
  return out;
}

}  // namespace spcg
