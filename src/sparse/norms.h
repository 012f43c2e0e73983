// Matrix and vector norms plus small BLAS-1 helpers used by the solvers.
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "sparse/csr.h"

namespace spcg {

/// Infinity norm of a matrix: max row sum of absolute values.
template <class T>
T norm_inf(const Csr<T>& a) {
  T best{0};
  for (index_t i = 0; i < a.rows; ++i) {
    T row{0};
    for (const T& v : a.row_vals(i)) row += std::abs(v);
    best = std::max(best, row);
  }
  return best;
}

/// One norm of a matrix: max column sum of absolute values.
template <class T>
T norm_one(const Csr<T>& a) {
  std::vector<T> col_sums(static_cast<std::size_t>(a.cols), T{0});
  for (std::size_t p = 0; p < a.values.size(); ++p)
    col_sums[static_cast<std::size_t>(a.colind[p])] += std::abs(a.values[p]);
  T best{0};
  for (const T& s : col_sums) best = std::max(best, s);
  return best;
}

/// Frobenius norm.
template <class T>
T norm_fro(const Csr<T>& a) {
  T acc{0};
  for (const T& v : a.values) acc += v * v;
  return std::sqrt(acc);
}

/// Dot product.
template <class T>
T dot(std::span<const T> x, std::span<const T> y) {
  SPCG_CHECK(x.size() == y.size());
  T acc{0};
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

/// Sum of squares, accumulated in T left to right: the products and order
/// of dot(x, x). A distributed solver reduces these partials across ranks
/// before taking the square root. Delegating keeps the loop in dot(): a
/// copy inlined into a CG body, whose partials stay live across calls, was
/// compiled (GCC 12, -O2) with its accumulator in a stack slot, a
/// store-to-load round trip per element.
template <class T>
T sumsq(std::span<const T> x) {
  return dot(x, x);
}

/// Euclidean vector norm.
template <class T>
T norm2(std::span<const T> x) {
  return std::sqrt(sumsq(x));
}

template <class T>
T norm2(const std::vector<T>& x) {
  return norm2(std::span<const T>(x));
}

template <class T>
T dot(const std::vector<T>& x, const std::vector<T>& y) {
  return dot(std::span<const T>(x), std::span<const T>(y));
}

/// y += alpha * x.
template <class T>
void axpy(T alpha, std::span<const T> x, std::span<T> y) {
  SPCG_CHECK(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

/// x = alpha * x.
template <class T>
void scale(T alpha, std::span<T> x) {
  for (T& v : x) v *= alpha;
}

/// p = z + beta * p.
template <class T>
void xpby(std::span<const T> z, T beta, std::span<T> p) {
  SPCG_CHECK(z.size() == p.size());
  for (std::size_t i = 0; i < z.size(); ++i) p[i] = z[i] + beta * p[i];
}

}  // namespace spcg
