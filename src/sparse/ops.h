// Structural and numerical operations on CSR matrices: SpMV (plain and with
// the (x, Ax) dot fused into its row loop), transpose, triangular
// extraction, addition/subtraction, symmetry checks, diagonal access. All
// templates, header-only.
#pragma once

#include <cmath>
#include <cstdlib>
#include <span>
#include <vector>

#include "sparse/csr.h"

namespace spcg {

namespace detail {

/// The SpMV row loop, written once: y = A * x, handing each finished row to
/// `row_done(i, y_i)` (spmv passes a no-op, spmv_dot a DotRows). The hook is
/// taken and returned by value, like std::for_each's, so an accumulator it
/// carries is a local of this loop and stays in a register; one reached
/// through a reference would be reloaded and stored back on every row.
template <class T, class RowDone>
RowDone spmv_rows(const Csr<T>& a, std::span<const T> x, std::span<T> y,
                  RowDone row_done) {
  SPCG_CHECK(static_cast<index_t>(x.size()) == a.cols);
  SPCG_CHECK(static_cast<index_t>(y.size()) == a.rows);
  for (index_t i = 0; i < a.rows; ++i) {
    T acc{0};
    for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
         p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      acc += a.values[static_cast<std::size_t>(p)] *
             x[static_cast<std::size_t>(a.colind[static_cast<std::size_t>(p)])];
    }
    y[static_cast<std::size_t>(i)] = acc;
    row_done(i, acc);
  }
  return row_done;
}

/// Row hook accumulating (x, y) = sum of x_i y_i in row order: the products
/// and order of dot(x, y), so the sum is bitwise dot's.
template <class T>
struct DotRows {
  std::span<const T> x;
  T xy{0};

  void operator()(index_t i, T yi) {
    xy += x[static_cast<std::size_t>(i)] * yi;
  }
};

}  // namespace detail

/// y = A * x.
template <class T>
void spmv(const Csr<T>& a, std::span<const T> x, std::span<T> y) {
  detail::spmv_rows(a, x, y, [](index_t, T) {});
}

/// y = A * x, returning (x, y) taken in the same row loop: bitwise
/// dot(x, y). A is square; x and y must not alias.
template <class T>
T spmv_dot(const Csr<T>& a, std::span<const T> x, std::span<T> y) {
  SPCG_CHECK(a.rows == a.cols);
  return detail::spmv_rows(a, x, y, detail::DotRows<T>{x}).xy;
}

/// Convenience overload returning a fresh vector.
template <class T>
std::vector<T> spmv(const Csr<T>& a, const std::vector<T>& x) {
  std::vector<T> y(static_cast<std::size_t>(a.rows));
  spmv(a, std::span<const T>(x), std::span<T>(y));
  return y;
}

/// Transpose.
template <class T>
Csr<T> transpose(const Csr<T>& a) {
  Csr<T> t(a.cols, a.rows);
  t.colind.assign(static_cast<std::size_t>(a.nnz()), 0);
  t.values.assign(static_cast<std::size_t>(a.nnz()), T{0});
  // Count entries per column.
  for (index_t p = 0; p < a.nnz(); ++p)
    ++t.rowptr[static_cast<std::size_t>(a.colind[static_cast<std::size_t>(p)]) + 1];
  for (index_t j = 0; j < a.cols; ++j)
    t.rowptr[static_cast<std::size_t>(j) + 1] +=
        t.rowptr[static_cast<std::size_t>(j)];
  std::vector<index_t> next(t.rowptr.begin(), t.rowptr.end() - 1);
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
         p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      const index_t j = a.colind[static_cast<std::size_t>(p)];
      const index_t q = next[static_cast<std::size_t>(j)]++;
      t.colind[static_cast<std::size_t>(q)] = i;
      t.values[static_cast<std::size_t>(q)] =
          a.values[static_cast<std::size_t>(p)];
    }
  }
  return t;
}

enum class Triangle { kLower, kUpper };
enum class DiagonalPolicy { kInclude, kExclude };

/// Extract the lower or upper triangle (optionally with the diagonal).
template <class T>
Csr<T> extract_triangle(const Csr<T>& a, Triangle tri, DiagonalPolicy diag) {
  Csr<T> out(a.rows, a.cols);
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
         p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      const index_t j = a.colind[static_cast<std::size_t>(p)];
      const bool keep =
          (j == i) ? (diag == DiagonalPolicy::kInclude)
                   : (tri == Triangle::kLower ? j < i : j > i);
      if (keep) {
        out.colind.push_back(j);
        out.values.push_back(a.values[static_cast<std::size_t>(p)]);
      }
    }
    out.rowptr[static_cast<std::size_t>(i) + 1] =
        static_cast<index_t>(out.colind.size());
  }
  return out;
}

/// C = A + alpha * B (patterns merged).
template <class T>
Csr<T> add(const Csr<T>& a, const Csr<T>& b, T alpha = T{1}) {
  SPCG_CHECK(a.rows == b.rows && a.cols == b.cols);
  Csr<T> c(a.rows, a.cols);
  for (index_t i = 0; i < a.rows; ++i) {
    index_t pa = a.rowptr[static_cast<std::size_t>(i)];
    index_t pb = b.rowptr[static_cast<std::size_t>(i)];
    const index_t ea = a.rowptr[static_cast<std::size_t>(i) + 1];
    const index_t eb = b.rowptr[static_cast<std::size_t>(i) + 1];
    while (pa < ea || pb < eb) {
      index_t ja = pa < ea ? a.colind[static_cast<std::size_t>(pa)] : a.cols;
      index_t jb = pb < eb ? b.colind[static_cast<std::size_t>(pb)] : b.cols;
      if (ja == jb) {
        c.colind.push_back(ja);
        c.values.push_back(a.values[static_cast<std::size_t>(pa)] +
                           alpha * b.values[static_cast<std::size_t>(pb)]);
        ++pa;
        ++pb;
      } else if (ja < jb) {
        c.colind.push_back(ja);
        c.values.push_back(a.values[static_cast<std::size_t>(pa)]);
        ++pa;
      } else {
        c.colind.push_back(jb);
        c.values.push_back(alpha * b.values[static_cast<std::size_t>(pb)]);
        ++pb;
      }
    }
    c.rowptr[static_cast<std::size_t>(i) + 1] =
        static_cast<index_t>(c.colind.size());
  }
  return c;
}

/// Drop stored entries with |value| <= tol (structural zeros removed).
template <class T>
Csr<T> drop_small(const Csr<T>& a, T tol) {
  Csr<T> out(a.rows, a.cols);
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
         p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      if (std::abs(a.values[static_cast<std::size_t>(p)]) > tol) {
        out.colind.push_back(a.colind[static_cast<std::size_t>(p)]);
        out.values.push_back(a.values[static_cast<std::size_t>(p)]);
      }
    }
    out.rowptr[static_cast<std::size_t>(i) + 1] =
        static_cast<index_t>(out.colind.size());
  }
  return out;
}

/// Diagonal entries as a dense vector (0 where not stored).
template <class T>
std::vector<T> diagonal(const Csr<T>& a) {
  std::vector<T> d(static_cast<std::size_t>(std::min(a.rows, a.cols)), T{0});
  for (index_t i = 0; i < static_cast<index_t>(d.size()); ++i)
    d[static_cast<std::size_t>(i)] = a.at(i, i);
  return d;
}

/// True when A is numerically symmetric up to `tol` (and structurally square).
template <class T>
bool is_symmetric(const Csr<T>& a, T tol = T{0}) {
  if (a.rows != a.cols) return false;
  const Csr<T> t = transpose(a);
  if (t.rowptr != a.rowptr || t.colind != a.colind) return false;
  for (std::size_t p = 0; p < a.values.size(); ++p) {
    if (std::abs(a.values[p] - t.values[p]) > tol) return false;
  }
  return true;
}

/// True when every diagonal entry is stored and positive.
template <class T>
bool has_positive_diagonal(const Csr<T>& a) {
  for (index_t i = 0; i < std::min(a.rows, a.cols); ++i) {
    const index_t p = a.find(i, i);
    if (p < 0 || !(a.values[static_cast<std::size_t>(p)] > T{0})) return false;
  }
  return true;
}

/// True when A is weakly row diagonally dominant (sufficient for SPD when
/// symmetric with positive diagonal and at least one strict row).
template <class T>
bool is_diagonally_dominant(const Csr<T>& a) {
  for (index_t i = 0; i < a.rows; ++i) {
    T diag{0}, off{0};
    for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
         p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      const index_t j = a.colind[static_cast<std::size_t>(p)];
      if (j == i)
        diag = std::abs(a.values[static_cast<std::size_t>(p)]);
      else
        off += std::abs(a.values[static_cast<std::size_t>(p)]);
    }
    if (diag < off) return false;
  }
  return true;
}

}  // namespace spcg
