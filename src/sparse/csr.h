// Compressed Sparse Row (CSR) matrix — the central data structure of the
// library. Column indices within a row are kept sorted and unique; all
// algorithms in src/ rely on that invariant (validate() checks it).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "support/error.h"

namespace spcg {

using index_t = std::int32_t;

/// Largest value representable by index_t; sizes/products must stay below it.
inline constexpr std::size_t kIndexMax =
    static_cast<std::size_t>(std::numeric_limits<index_t>::max());

/// Narrow a size to index_t, checking it fits (nnz counters, offsets).
inline index_t checked_index_cast(std::size_t v) {
  SPCG_CHECK_MSG(v <= kIndexMax, "size " << v << " overflows index_t");
  return static_cast<index_t>(v);
}

/// Product of non-negative dimensions (e.g. nx*ny*nz of a grid generator),
/// computed in std::size_t and checked to fit index_t — int32 arithmetic on
/// the factors would silently wrap for grids past ~46k x 46k.
inline index_t checked_dims(index_t a, index_t b, index_t c = 1) {
  SPCG_CHECK_MSG(a >= 0 && b >= 0 && c >= 0,
                 "negative dimension " << a << "x" << b << "x" << c);
  const std::size_t prod = static_cast<std::size_t>(a) *
                           static_cast<std::size_t>(b) *
                           static_cast<std::size_t>(c);
  SPCG_CHECK_MSG(b == 0 || c == 0 ||
                     prod / (static_cast<std::size_t>(b) *
                             static_cast<std::size_t>(c)) ==
                         static_cast<std::size_t>(a),
                 "dimension product " << a << "x" << b << "x" << c
                                      << " overflows std::size_t");
  return checked_index_cast(prod);
}

/// CSR sparse matrix with value type T.
template <class T>
struct Csr {
  index_t rows = 0;
  index_t cols = 0;
  std::vector<index_t> rowptr;  // size rows + 1
  std::vector<index_t> colind;  // size nnz, sorted & unique within each row
  std::vector<T> values;        // size nnz

  Csr() = default;
  Csr(index_t r, index_t c) : rows(r), cols(c), rowptr(static_cast<std::size_t>(r) + 1, 0) {}

  [[nodiscard]] index_t nnz() const {
    return rowptr.empty() ? 0 : rowptr.back();
  }

  /// Span over the column indices of row i.
  [[nodiscard]] std::span<const index_t> row_cols(index_t i) const {
    return {colind.data() + rowptr[static_cast<std::size_t>(i)],
            colind.data() + rowptr[static_cast<std::size_t>(i) + 1]};
  }

  /// Span over the values of row i.
  [[nodiscard]] std::span<const T> row_vals(index_t i) const {
    return {values.data() + rowptr[static_cast<std::size_t>(i)],
            values.data() + rowptr[static_cast<std::size_t>(i) + 1]};
  }

  [[nodiscard]] std::span<T> row_vals_mut(index_t i) {
    return {values.data() + rowptr[static_cast<std::size_t>(i)],
            values.data() + rowptr[static_cast<std::size_t>(i) + 1]};
  }

  /// Value at (i, j), or 0 if the entry is not stored. Binary search.
  /// Offset arithmetic runs in std::size_t: index_t sums would narrow first.
  [[nodiscard]] T at(index_t i, index_t j) const {
    const auto cols_i = row_cols(i);
    const auto it = std::lower_bound(cols_i.begin(), cols_i.end(), j);
    if (it == cols_i.end() || *it != j) return T{0};
    return values[static_cast<std::size_t>(rowptr[static_cast<std::size_t>(i)]) +
                  static_cast<std::size_t>(it - cols_i.begin())];
  }

  /// Position of the stored entry (i, j) in colind/values, or -1.
  [[nodiscard]] index_t find(index_t i, index_t j) const {
    const auto cols_i = row_cols(i);
    const auto it = std::lower_bound(cols_i.begin(), cols_i.end(), j);
    if (it == cols_i.end() || *it != j) return -1;
    return checked_index_cast(
        static_cast<std::size_t>(rowptr[static_cast<std::size_t>(i)]) +
        static_cast<std::size_t>(it - cols_i.begin()));
  }

  /// Throws spcg::Error if any structural invariant is violated.
  void validate() const {
    SPCG_CHECK(rows >= 0 && cols >= 0);
    SPCG_CHECK_MSG(rowptr.size() == static_cast<std::size_t>(rows) + 1,
                   "rowptr size " << rowptr.size() << " vs rows " << rows);
    SPCG_CHECK(rowptr.front() == 0);
    SPCG_CHECK(colind.size() == values.size());
    SPCG_CHECK(static_cast<std::size_t>(rowptr.back()) == colind.size());
    for (index_t i = 0; i < rows; ++i) {
      SPCG_CHECK_MSG(rowptr[static_cast<std::size_t>(i)] <=
                         rowptr[static_cast<std::size_t>(i) + 1],
                     "rowptr not monotone at row " << i);
      index_t prev = -1;
      for (index_t p = rowptr[static_cast<std::size_t>(i)];
           p < rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
        const index_t j = colind[static_cast<std::size_t>(p)];
        SPCG_CHECK_MSG(j >= 0 && j < cols,
                       "col " << j << " out of range in row " << i);
        SPCG_CHECK_MSG(j > prev, "cols not sorted/unique in row " << i);
        prev = j;
      }
    }
  }
};

/// A single (row, col, value) triplet used by builders.
template <class T>
struct Triplet {
  index_t row;
  index_t col;
  T value;
};

/// Build a CSR matrix from triplets. Duplicate (row, col) entries are summed.
template <class T>
Csr<T> csr_from_triplets(index_t rows, index_t cols,
                         std::vector<Triplet<T>> triplets) {
  SPCG_CHECK_MSG(triplets.size() <= kIndexMax,
                 "nnz " << triplets.size() << " overflows index_t");
  for (const auto& t : triplets) {
    SPCG_CHECK_MSG(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols,
                   "triplet (" << t.row << "," << t.col << ") out of range");
  }
  // Stable sort: duplicates are summed in insertion order, so a generator
  // that pushes symmetric pairs in lockstep gets bitwise-symmetric sums.
  std::stable_sort(triplets.begin(), triplets.end(),
                   [](const Triplet<T>& a, const Triplet<T>& b) {
                     return a.row != b.row ? a.row < b.row : a.col < b.col;
                   });
  Csr<T> m(rows, cols);
  m.colind.reserve(triplets.size());
  m.values.reserve(triplets.size());
  std::size_t k = 0;
  for (index_t i = 0; i < rows; ++i) {
    while (k < triplets.size() && triplets[k].row == i) {
      const index_t j = triplets[k].col;
      T v = triplets[k].value;
      ++k;
      while (k < triplets.size() && triplets[k].row == i &&
             triplets[k].col == j) {
        v += triplets[k].value;
        ++k;
      }
      m.colind.push_back(j);
      m.values.push_back(v);
    }
    m.rowptr[static_cast<std::size_t>(i) + 1] =
        static_cast<index_t>(m.colind.size());
  }
  return m;
}

/// Convert element type (e.g. double -> float).
template <class To, class From>
Csr<To> csr_cast(const Csr<From>& a) {
  Csr<To> out;
  out.rows = a.rows;
  out.cols = a.cols;
  out.rowptr = a.rowptr;
  out.colind = a.colind;
  out.values.reserve(a.values.size());
  for (const From& v : a.values) out.values.push_back(static_cast<To>(v));
  return out;
}

}  // namespace spcg
