#pragma once
// Incremental hierarchical SVD building blocks (Iwen & Ong,
// arXiv:1601.07010), specialized to the QR-SVD ST-HOSVD pipeline.
//
// The streaming drivers split the tensor into slabs along the *last* mode.
// Under the mode-0-fastest layout that choice buys two structural facts:
//
//  1. A slab is a contiguous range of the linear buffer, so slab I/O is
//     sequential and a slab is itself a valid tensor.
//  2. For every mode n < N-1, the slab's mode-n unfolding is a column
//     subset of the full unfolding. Since L L^T = X_(n) X_(n)^T is
//     invariant under column permutation, per-slab LQ triangles carry all
//     the information and merge *exactly*: tplqt of [L_a | L_b] yields the
//     triangle of the column-concatenated data. This is Iwen-Ong's merge
//     step expressed with the structured tpqrt kernel the paper's butterfly
//     TSQR already uses.
//
// TriangleReducer keeps a binary-counter stack of triangles (one per tree
// level, O(log C) memory) and merges equal-level neighbours as leaves
// arrive -- the sequential schedule of a binary merge tree. The last mode's
// unfolding is *row*-split across slabs instead, so it takes the TSQR dual
// (TsqrAccumulator): annihilate each slab's row block into a running
// upper-triangular R.
//
// Accuracy: each merge is one structured Householder QR, so the composed
// factorization is backward stable with a constant growing only with the
// tree depth; computed singular values stay on the eps*||A|| rung of the
// paper's Theorem 1 (tests/theorem_bounds_test.cpp asserts this, DESIGN.md
// Sec 11 gives the argument).

#include <algorithm>
#include <cstring>
#include <vector>

#include "blas/blas1.hpp"
#include "blas/matrix.hpp"
#include "common/check.hpp"
#include "lapack/qr.hpp"
#include "lapack/tpqrt.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_lq.hpp"

namespace tucker::stream {

using blas::index_t;
using blas::Matrix;
using blas::MatView;

/// Binary merge tree over lower-triangular/trapezoidal LQ factors of
/// column-split pieces of one m-row unfolding. push() folds one leaf;
/// reduce() folds the remaining mixed-level stack and returns the m x m
/// lower-triangular factor of the full unfolding.
template <class T>
class TriangleReducer {
 public:
  explicit TriangleReducer(index_t m) : m_(m) {}

  index_t rows() const { return m_; }
  std::size_t pending() const { return tri_.size(); }

  /// Folds the LQ factor of one column block (m x c, c <= m, lower
  /// trapezoidal -- exactly what tensor_lq returns for a slab).
  void push(MatView<const T> l) { push_padded(pad(l)); }

  /// Folds a *dense* m x c block whose columns are scaled basis vectors
  /// (the per-chunk rand-sketch case: U_c diag(sigma_c)); it is LQ-reduced
  /// to a triangle first so the merge kernel can exploit structure.
  void push_dense(MatView<const T> b) {
    TUCKER_CHECK(b.rows() == m_ && b.cols() <= m_,
                 "TriangleReducer: dense leaf must be m x (<= m)");
    Matrix<T> t(m_, m_);
    blas::copy(b, t.view().block(0, 0, m_, b.cols()));
    std::vector<T> tau;
    la::gelqf(t.view(), tau);
    Matrix<T> l = la::extract_l<T>(t.view());
    push_padded(pad(blas::MatView<const T>(l.view())));
  }

  /// Final triangle of all pushed leaves. An empty reducer returns the
  /// zero triangle. The reducer is reset afterwards.
  Matrix<T> reduce() {
    if (tri_.empty()) return Matrix<T>(m_, m_);
    // Fold the remaining binary-counter stack top-down (newest first), the
    // same order a left-leaning binary tree would.
    while (tri_.size() >= 2) merge_top_pair();
    Matrix<T> out = std::move(tri_.back());
    tri_.clear();
    level_.clear();
    return out;
  }

 private:
  Matrix<T> pad(MatView<const T> l) {
    TUCKER_CHECK(l.rows() == m_ && l.cols() <= m_,
                 "TriangleReducer: leaf must be m x (<= m) trapezoidal");
    Matrix<T> t(m_, m_);  // zero-initialized; trapezoids pad to a triangle
    blas::copy(l, t.view().block(0, 0, m_, l.cols()));
    return t;
  }

  void push_padded(Matrix<T> t) {
    tri_.push_back(std::move(t));
    level_.push_back(0);
    // Binary-counter carry: two subtrees of equal height merge into one of
    // height + 1, keeping at most one pending triangle per level.
    while (tri_.size() >= 2 && level_[tri_.size() - 1] == level_[tri_.size() - 2])
      merge_top_pair();
  }

  void merge_top_pair() {
    // tplqt([older | newer]): annihilate the newer triangle into the older
    // one. Both operands are m x m lower triangular, so the structured
    // (half-flop) variant applies.
    Matrix<T>& dst = tri_[tri_.size() - 2];
    Matrix<T>& src = tri_.back();
    std::vector<T> tau;
    la::tplqt(dst.view(), src.view(), tau, la::Pentagon::kTriangular);
    const int lv = std::max(level_[level_.size() - 2], level_.back()) + 1;
    tri_.pop_back();
    level_.pop_back();
    level_.back() = lv;
  }

  index_t m_;
  std::vector<Matrix<T>> tri_;
  std::vector<int> level_;
};

/// Folds the LQ factor of newly arrived columns into a persistent m x m
/// lower triangle in place -- the incremental-update step of
/// StreamingTucker::append (a degenerate two-leaf merge tree).
template <class T>
void merge_triangle(Matrix<T>& dst, MatView<const T> leaf) {
  const index_t m = dst.rows();
  TUCKER_CHECK(dst.cols() == m, "merge_triangle: dst must be square");
  TUCKER_CHECK(leaf.rows() == m && leaf.cols() <= m,
               "merge_triangle: leaf must be m x (<= m)");
  Matrix<T> padded(m, m);
  blas::copy(leaf, padded.view().block(0, 0, m, leaf.cols()));
  std::vector<T> tau;
  la::tplqt(dst.view(), padded.view(), tau, la::Pentagon::kTriangular);
}

/// TSQR accumulator for the row-split case (the slab axis itself): R of
/// the row-stacked matrix [A_1; A_2; ...], each push annihilating one
/// slab's row block into the running C x C upper triangle. The block is
/// consumed (overwritten with reflector tails).
template <class T>
class TsqrAccumulator {
 public:
  explicit TsqrAccumulator(index_t cols) : r_(cols, cols) {}

  void push(MatView<T> block) {
    TUCKER_CHECK(block.cols() == r_.cols(),
                 "TsqrAccumulator: column count mismatch");
    std::vector<T> tau;
    la::tpqrt(r_.view(), block, tau, la::Pentagon::kFull);
  }

  /// The current triangular factor (valid any time; more pushes refine it).
  const Matrix<T>& r() const { return r_; }
  Matrix<T>& r() { return r_; }

 private:
  Matrix<T> r_;
};

/// Default slab byte budget, 256 MiB: the slab size of stream_sthosvd
/// (StreamOptions::chunk_bytes) and the chunk size of the in-memory
/// kStream engine. Unlike a cache block it moves results (the merge-tree
/// cut points), but only within the QR-SVD accuracy rung (DESIGN.md
/// Sec 11).
inline constexpr std::size_t kDefaultChunkBytes = std::size_t{256} << 20;

/// Trailing-mode slices per chunk for a resident tensor under a byte
/// budget: how many last-mode slices fit in `budget_bytes` (at least 1).
template <class T>
index_t chunk_slices_for_budget(const tensor::Dims& dims,
                                std::size_t budget_bytes) {
  const index_t last = dims.back();
  if (last <= 1) return 1;
  const index_t slice_elems = tensor::num_elements(dims) / last;
  const std::size_t slice_bytes =
      static_cast<std::size_t>(slice_elems) * sizeof(T);
  if (slice_bytes == 0) return last;
  const auto fit = static_cast<index_t>(budget_bytes / slice_bytes);
  return std::clamp<index_t>(fit, 1, last);
}

/// Merged L factor of the mode-n unfolding of a *resident* tensor,
/// computed hierarchically over trailing-mode chunks of `chunk_slices`
/// slices each -- the in-memory face of the streaming engine. A single
/// chunk reduces to tensor_lq(y, n) exactly (same code path), which is
/// what makes the single-chunk == QR-SVD bitwise test possible. The slab
/// axis itself (n == N-1) is never column-split, so it falls through to
/// the direct factorization.
template <class T>
Matrix<T> chunked_unfolding_lq(const tensor::Tensor<T>& y, std::size_t n,
                               index_t chunk_slices) {
  TUCKER_CHECK(n < y.order(), "chunked_unfolding_lq: mode out of range");
  const std::size_t t = y.order() - 1;
  const index_t last = y.dim(t);
  TUCKER_CHECK(chunk_slices > 0,
               "chunked_unfolding_lq: chunk_slices must be positive");
  if (n == t || chunk_slices >= last) return tensor::tensor_lq(y, n);

  const index_t m = y.dim(n);
  const index_t slice_elems = last == 0 ? 0 : y.size() / last;
  TriangleReducer<T> red(m);
  tensor::Tensor<T> slab;
  tensor::Dims sdims = y.dims();
  for (index_t begin = 0; begin < last; begin += chunk_slices) {
    const index_t ext = std::min(chunk_slices, last - begin);
    sdims[t] = ext;
    slab.reshape(sdims);
    std::memcpy(slab.data(), y.data() + begin * slice_elems,
                static_cast<std::size_t>(ext * slice_elems) * sizeof(T));
    Matrix<T> l = tensor::tensor_lq(slab, n);
    red.push(blas::MatView<const T>(l.view()));
  }
  return red.reduce();
}

}  // namespace tucker::stream
