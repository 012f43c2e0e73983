// Mixed-precision PCG — the extension the paper's §6.2 points at ("the SPCG
// solver proposed in this work can additionally benefit from mixed-precision
// design").
//
// The outer CG recurrence runs in double precision while the preconditioner
// (the two triangular solves, the bandwidth-bound part) is applied in single
// precision. Since M only steers the search direction, a low-precision apply
// perturbs the preconditioner, not the solution: CG still converges to
// double-precision accuracy, and the factor moves half the bytes.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "precond/preconditioner.h"

namespace spcg {

/// Double-precision Preconditioner interface backed by float factors.
class MixedPrecisionIluPreconditioner final : public Preconditioner<double> {
 public:
  /// Factorization is performed (or given) in double and stored in float.
  explicit MixedPrecisionIluPreconditioner(const TriangularFactors<double>& f,
                                           TrsvExec exec = TrsvExec::kSerial)
      : inner_(to_float(f), exec),
        r32_(static_cast<std::size_t>(f.l.rows)),
        z32_(static_cast<std::size_t>(f.l.rows)) {}

  void apply(std::span<const double> r, std::span<double> z) const override {
    SPCG_CHECK(r.size() == r32_.size());
    for (std::size_t i = 0; i < r.size(); ++i)
      r32_[i] = static_cast<float>(r[i]);
    inner_.apply(std::span<const float>(r32_), std::span<float>(z32_));
    for (std::size_t i = 0; i < z.size(); ++i)
      z[i] = static_cast<double>(z32_[i]);
  }

  [[nodiscard]] index_t rows() const override { return inner_.rows(); }

  /// Bytes held by the single-precision factor (vs 2x for double).
  [[nodiscard]] std::size_t factor_bytes() const {
    const auto& f = inner_.factors();
    return (f.l.values.size() + f.u.values.size()) * sizeof(float) +
           (f.l.colind.size() + f.u.colind.size()) * sizeof(index_t);
  }

 private:
  /// Validated again in float: a U diagonal may underflow to zero.
  static TriangularFactors<float> to_float(const TriangularFactors<double>& f) {
    return TriangularFactors<float>(csr_cast<float>(f.l), csr_cast<float>(f.u));
  }

  IluPreconditioner<float> inner_;
  mutable std::vector<float> r32_;
  mutable std::vector<float> z32_;
};

}  // namespace spcg
