#pragma once
// LQ of a tensor unfolding (paper Alg 2) as an in-node TSQR tree.
//
// The triangular factor L of X_(n) = L*Q carries all the information the
// SVD step needs (singular values and left singular vectors). The unfolding
// is cut into leaves: contiguous column ranges made of whole unfolding
// units. A unit is one column when the unfolding is a single matrix (mode
// 0: column-major; any mode with I_n^> = 1, such as the last: row-major)
// and one I_n x I_n^< row-major block otherwise. Each leaf is factored on
// its own:
//  - single-matrix modes copy the leaf's columns and run one gelqf;
//  - middle modes run the flat sweep: merge enough leading blocks that the
//    first gelqf yields a triangle (paper Sec 3.3), then annihilate each
//    further block into it with the structured tplqt kernel, streaming the
//    tensor once and never reordering it in memory.
// The leaf triangles then merge pairwise, level by level, with tplqt of two
// triangles -- the Iwen-Ong merge of stream/hier_svd.hpp and the paper's
// butterfly step, applied inside one node. Leaves, and the merges of one
// level, run in parallel on the pool.
//
// The tree's shape depends only on m, the unit width, the element size and
// two constants below -- never on the thread width -- so L is bitwise
// identical at every TUCKER_NUM_THREADS. The short leaves also keep each
// Householder accumulation chain short, which is what keeps fp32 singular
// values on the eps*||A|| rung (DESIGN.md Sec 6.1 has both arguments).
//
// An unfolding that fits one leaf runs the leaf kernel alone. If it has
// fewer than m columns, the lower-trapezoidal factor is returned (callers
// zero-pad when a square triangle is required); a narrow leaf inside a
// tree is zero-padded to a triangle, as TriangleReducer::pad does.
//
// The input tensor is left untouched: ST-HOSVD still needs it for the TTM
// truncation. The leaf triangles live in the caller's Workspace arena; a
// leaf's working copy comes from the arena of the thread that runs it.

#include <algorithm>
#include <vector>

#include "blas/blas1.hpp"
#include "blas/matrix.hpp"
#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "lapack/qr.hpp"
#include "lapack/tpqrt.hpp"
#include "tensor/tensor.hpp"

namespace tucker::tensor {

/// Unfolding bytes per leaf of the LQ tree: a leaf's working copy and the
/// panels its gelqf sweeps stay within one core's L2.
inline constexpr std::size_t kLqLeafBytes = std::size_t{512} << 10;

/// Least leaf width, in multiples of m: a triangle merge costs ~(2/3) m^3
/// flops against ~2 m^2 w for a w-column leaf, so this keeps the merges
/// near a tenth of the leaf work and the leaf triangles under a quarter of
/// the unfolding's bytes.
inline constexpr index_t kLqLeafMinAspect = 4;

namespace detail {

/// How the LQ tree cuts an unfolding: `units` units of `unit_cols` columns
/// each, `per_leaf` units per leaf, the last leaf taking the remainder.
struct LqLeaves {
  index_t unit_cols = 1;
  index_t units = 0;
  index_t per_leaf = 1;

  index_t count() const {
    return std::max<index_t>(1, (units + per_leaf - 1) / per_leaf);
  }
};

/// Leaf layout of the mode-n unfolding of y. A pure function of the shape
/// and sizeof(T) -- the tree must look the same at every thread width.
template <class T>
LqLeaves lq_leaves(const Tensor<T>& y, std::size_t n) {
  const index_t m = std::max<index_t>(1, y.dim(n));
  const index_t before = prod_before(y.dims(), n);
  const index_t after = prod_after(y.dims(), n);
  LqLeaves lv;
  const bool blocks = n > 0 && after > 1;
  lv.unit_cols = std::max<index_t>(1, blocks ? before : 1);
  lv.units = blocks ? after : before * after;
  const index_t target =
      static_cast<index_t>(kLqLeafBytes / sizeof(T)) / (m * lv.unit_cols);
  const index_t least =
      (kLqLeafMinAspect * m + lv.unit_cols - 1) / lv.unit_cols;
  lv.per_leaf = std::max({target, least, index_t{1}});
  return lv;
}

/// Writes the lower-triangular/trapezoidal L of a factored leaf into out
/// and zeroes every other entry of out (out may be wider than L: a narrow
/// leaf pads to a triangle).
template <class T>
void store_l(MatView<const T> a, MatView<T> out) {
  const index_t k = std::min(a.rows(), a.cols());
  for (index_t i = 0; i < out.rows(); ++i)
    for (index_t j = 0; j < out.cols(); ++j)
      out(i, j) = j <= i && j < k ? a(i, j) : T(0);
}

/// LQ of the leaf made of units [u0, u1) of the mode-n unfolding, written
/// to out (m rows; see store_l). Scratch comes from the executing thread's
/// arena; tau is that thread's reflector scratch.
template <class T>
void lq_leaf(const Tensor<T>& y, std::size_t n, index_t u0, index_t u1,
             MatView<T> out, std::vector<T>& tau) {
  const index_t m = y.dim(n);
  const index_t before = prod_before(y.dims(), n);
  Workspace& ws = Workspace::local();
  auto arena = ws.frame();

  if (n == 0 || prod_after(y.dims(), n) == 1) {
    // One matrix: mode 0 is column-major (the paper's gelq case); a
    // row-major unfolding is the paper's geqr case, and our gelqf on a
    // row-major view is exactly that computation.
    const auto a = n == 0 ? unfolding_mode0(y) : unfolding_block(y, n, 0);
    auto work = MatView<T>::row_major(
        ws.get<T>(static_cast<std::size_t>(m * (u1 - u0))), m, u1 - u0);
    blas::copy(a.block(0, u0, m, u1 - u0), work);
    la::gelqf(work, tau);
    store_l(MatView<const T>(work), out);
    return;
  }

  // Flat sweep over the leaf's row-major blocks. Merge enough leading
  // blocks that the first LQ produces a full triangle.
  const index_t merge =
      std::min(u1 - u0, (m + before - 1) / before);  // ceil(m / before)
  auto first = MatView<T>::row_major(
      ws.get<T>(static_cast<std::size_t>(m * merge * before)), m,
      merge * before);
  for (index_t b = 0; b < merge; ++b)
    blas::copy(unfolding_block(y, n, u0 + b),
               first.block(0, b * before, m, before));
  la::gelqf(first, tau);
  store_l(MatView<const T>(first), out);
  if (merge * before < m) return;  // the leaf is tall: trapezoid, done

  auto scratch = MatView<T>::row_major(
      ws.get<T>(static_cast<std::size_t>(m * before)), m, before);
  for (index_t j = u0 + merge; j < u1; ++j) {
    blas::copy(unfolding_block(y, n, j), scratch);
    la::tplqt(out, scratch, tau, la::Pentagon::kFull);
  }
}

/// The calling thread's reflector scratch: reused across leaves and calls,
/// so a warm tree makes no heap allocation per leaf.
template <class T>
std::vector<T>& lq_tau() {
  return Workspace::local().stash<std::vector<T>>("tensor.lq.tau");
}

/// Runs fn(lo, hi) over [0, count): one item per chunk on the pool, each on
/// a single thread, or inline when there is nothing to fan out. Either way
/// every item runs the same code, so the results do not depend on it.
template <class F>
void for_each_node(index_t count, const F& fn) {
  if (count > 1 && parallel::this_thread_width() > 1) {
    parallel::parallel_for(0, count, 1, [&fn](index_t lo, index_t hi) {
      parallel::ThreadWidthCap serial(1);
      fn(lo, hi);
    });
  } else {
    fn(0, count);
  }
}

}  // namespace detail

/// L factor (I_n x min(I_n, I_n^< * I_n^>), lower trapezoidal) of the
/// mode-n unfolding of y.
template <class T>
blas::Matrix<T> tensor_lq(const Tensor<T>& y, std::size_t n) {
  TUCKER_CHECK(n < y.order(), "tensor_lq: mode out of range");
  const index_t m = y.dim(n);
  const detail::LqLeaves lv = detail::lq_leaves(y, n);
  const index_t count = lv.count();
  if (count == 1) {
    const index_t cols = prod_before(y.dims(), n) * prod_after(y.dims(), n);
    blas::Matrix<T> l(m, std::min(m, cols));
    detail::lq_leaf(y, n, 0, lv.units, l.view(), detail::lq_tau<T>());
    return l;
  }

  // Leaf 0's triangle is the result; the others live in the arena. Every
  // merge annihilates the right triangle into the left one, so the root
  // ends in leaf 0's slot.
  blas::Matrix<T> l(m, m);
  Workspace& ws = Workspace::local();
  auto arena = ws.frame();
  const auto tri_elems = static_cast<std::size_t>(m * m);
  T* rest = ws.get<T>(static_cast<std::size_t>(count - 1) * tri_elems);
  auto tri = [&](index_t i) {
    return i == 0 ? l.view()
                  : MatView<T>::row_major(
                        rest + static_cast<std::size_t>(i - 1) * tri_elems,
                        m, m);
  };

  detail::for_each_node(count, [&](index_t lo, index_t hi) {
    std::vector<T>& tau = detail::lq_tau<T>();
    for (index_t i = lo; i < hi; ++i) {
      const index_t u0 = i * lv.per_leaf;
      detail::lq_leaf(y, n, u0, std::min(lv.units, u0 + lv.per_leaf), tri(i),
                      tau);
    }
  });
  // Level s merges leaf i + s into leaf i for every i that is a multiple of
  // 2s; a leaf without a partner moves up a level unchanged.
  for (index_t s = 1; s < count; s *= 2) {
    const index_t pairs = (count - s + 2 * s - 1) / (2 * s);
    detail::for_each_node(pairs, [&](index_t lo, index_t hi) {
      std::vector<T>& tau = detail::lq_tau<T>();
      for (index_t q = lo; q < hi; ++q)
        la::tplqt(tri(2 * s * q), tri(2 * s * q + s), tau,
                  la::Pentagon::kTriangular);
    });
  }
  return l;
}

}  // namespace tucker::tensor
