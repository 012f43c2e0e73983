// Block-Jacobi preconditioner: contiguous diagonal blocks factored densely
// and applied independently — fully parallel, no inter-block dependences
// (the other classic GPU preconditioner; cf. Chen et al. 2018 and the
// adaptive block-Jacobi line of work cited by the paper).
//
// Convergence is weaker than ILU (all inter-block coupling is ignored), but
// application is wavefront-free, making it a useful contrast point for the
// SPCG study: SPCG shortens ILU's dependence chains, block-Jacobi removes
// them entirely at the price of preconditioner quality.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "precond/preconditioner.h"
#include "sparse/csr.h"
#include "support/fork_join.h"

namespace spcg {

template <class T>
class BlockJacobiPreconditioner final : public Preconditioner<T> {
 public:
  /// Blocks are [k*block_size, (k+1)*block_size) row ranges. Each diagonal
  /// block is densified and Cholesky-factored; it must be SPD (true for any
  /// principal submatrix of an SPD matrix).
  BlockJacobiPreconditioner(const Csr<T>& a, index_t block_size)
      : n_(a.rows), block_size_(block_size) {
    SPCG_CHECK(a.rows == a.cols);
    SPCG_CHECK(block_size >= 1);
    const index_t blocks = (n_ + block_size - 1) / block_size;
    factors_.resize(static_cast<std::size_t>(blocks));
    for (index_t blk = 0; blk < blocks; ++blk) {
      const index_t lo = blk * block_size;
      const index_t hi = std::min(n_, lo + block_size);
      const auto bs = static_cast<std::size_t>(hi - lo);
      auto& chol = factors_[static_cast<std::size_t>(blk)];
      chol.assign(bs * bs, T{0});
      for (index_t i = lo; i < hi; ++i) {
        const auto cols_i = a.row_cols(i);
        const auto vals_i = a.row_vals(i);
        for (std::size_t p = 0; p < cols_i.size(); ++p) {
          if (cols_i[p] >= lo && cols_i[p] < hi) {
            chol[static_cast<std::size_t>(i - lo) * bs +
                 static_cast<std::size_t>(cols_i[p] - lo)] = vals_i[p];
          }
        }
      }
      // In-place dense Cholesky (lower).
      for (std::size_t j = 0; j < bs; ++j) {
        T d = chol[j * bs + j];
        for (std::size_t k = 0; k < j; ++k) d -= chol[j * bs + k] * chol[j * bs + k];
        SPCG_CHECK_MSG(d > T{0},
                       "block-Jacobi: diagonal block " << blk
                                                       << " is not SPD");
        const T ljj = std::sqrt(d);
        chol[j * bs + j] = ljj;
        for (std::size_t i = j + 1; i < bs; ++i) {
          T v = chol[i * bs + j];
          for (std::size_t k = 0; k < j; ++k) v -= chol[i * bs + k] * chol[j * bs + k];
          chol[i * bs + j] = v / ljj;
        }
      }
    }
  }

  /// Blocks are independent, so contiguous ranges of them run on the
  /// workers of one fork_join team, one per hardware thread (at most one
  /// per block).
  void apply(std::span<const T> r, std::span<T> z) const override {
    SPCG_CHECK(static_cast<index_t>(r.size()) == n_);
    SPCG_CHECK(z.size() == r.size());
    const std::size_t blocks = factors_.size();
    const std::size_t team = std::min(blocks, hardware_threads());
    fork_join(team, [&](std::size_t w) {
      const std::size_t end = blocks * (w + 1) / team;
      for (std::size_t blk = blocks * w / team; blk < end; ++blk)
        solve_block(blk, r, z);
    });
  }

  [[nodiscard]] index_t rows() const override { return n_; }
  [[nodiscard]] index_t block_size() const { return block_size_; }

 private:
  /// Forward then backward substitution with block `blk`'s dense Cholesky
  /// factor: z's rows of the block from r's.
  void solve_block(std::size_t blk, std::span<const T> r,
                   std::span<T> z) const {
    const std::size_t lo = blk * static_cast<std::size_t>(block_size_);
    const std::size_t bs = std::min(static_cast<std::size_t>(n_) - lo,
                                    static_cast<std::size_t>(block_size_));
    const std::vector<T>& chol = factors_[blk];
    for (std::size_t i = 0; i < bs; ++i) {
      T v = r[lo + i];
      for (std::size_t k = 0; k < i; ++k) v -= chol[i * bs + k] * z[lo + k];
      z[lo + i] = v / chol[i * bs + i];
    }
    for (std::size_t ii = bs; ii-- > 0;) {
      T v = z[lo + ii];
      for (std::size_t k = ii + 1; k < bs; ++k)
        v -= chol[k * bs + ii] * z[lo + k];
      z[lo + ii] = v / chol[ii * bs + ii];
    }
  }

  index_t n_;
  index_t block_size_;
  std::vector<std::vector<T>> factors_;  // dense lower Cholesky per block
};

}  // namespace spcg
