#pragma once
// Structured QR/LQ of a triangle stacked on a pentagon (tpqrt/tplqt
// equivalents).
//
// These kernels drive both TSQR phases of the paper:
//  - a middle-mode leaf of the TensorLQ tree (Alg 2) annihilates each
//    row-major unfolding block into its running triangular factor, and
//  - the tree's merges and the parallel butterfly reduction (Alg 3)
//    annihilate one triangular factor into another at every tree level.
// When the pentagon block is itself triangular the reflectors touch only the
// nonzero rows, halving the flops -- the same structure exploitation LAPACK's
// tpqrt provides.

#include <vector>

#include "blas/gemm.hpp"
#include "blas/matrix.hpp"
#include "blas/matview.hpp"
#include "common/workspace.hpp"
#include "lapack/householder.hpp"

namespace tucker::la {

/// Shape of the B block in a [R; B] stack.
enum class Pentagon {
  kFull,       ///< B is a dense rectangle.
  kTriangular  ///< B is upper triangular (butterfly reduction case).
};

/// QR of the stacked matrix [R; B] where R (n x n) is upper triangular and
/// B is m x n. On return R holds the new triangular factor and B holds the
/// reflector tails (the leading 1 of each reflector lives in R's diagonal).
namespace detail {

/// Unblocked structured QR of [R; B] (see tpqrt below). Offsets into tau
/// so the blocked driver can reuse it as the panel kernel.
template <class T>
void tpqrt_unblocked(MatView<T> r, MatView<T> b, T* tau, Pentagon shape) {
  const index_t n = r.cols();
  const index_t m = b.rows();
  for (index_t j = 0; j < n; ++j) {
    // Rows of B participating in this reflector.
    const index_t nb =
        shape == Pentagon::kTriangular ? std::min(m, j + 1) : m;
    if (nb == 0) continue;
    // Reflector over [R(j,j); B(0:nb, j)].
    tau[j] = make_reflector(r(j, j), nb, &b(0, j), b.row_stride());
    if (j + 1 < n) {
      auto vcol = b.block(0, j, nb, 1);
      auto top = r.block(j, j + 1, 1, n - j - 1);
      auto rest = b.block(0, j + 1, nb, n - j - 1);
      apply_reflector(tau[j], MatView<const T>(vcol), top, rest);
    }
  }
}

}  // namespace detail

/// tau receives n scalars. With Pentagon::kTriangular, column j of B is
/// assumed zero below row j and only rows 0..j participate.
///
/// Wide full-pentagon stacks (the TensorLQ leaf sweep, where B is a whole
/// unfolding block) are processed in compact-WY column panels with gemm
/// trailing updates over B -- LAPACK's blocked tpqrt strategy -- so the
/// mid-mode sweep runs at matrix-multiply speed. The reflectors of
/// a [R; B] panel have the special structure V = [I; B_panel] (unit rows in
/// R, dense tails in B), so V_i^T V_j reduces to B-column inner products.
template <class T>
void tpqrt(MatView<T> r, MatView<T> b, std::vector<T>& tau,
           Pentagon shape = Pentagon::kFull) {
  const index_t n = r.cols();
  const index_t m = b.rows();
  TUCKER_CHECK(r.rows() == n, "tpqrt: R must be square");
  TUCKER_CHECK(b.cols() == n, "tpqrt: B width mismatch");
  tau.assign(static_cast<std::size_t>(n), T(0));

  constexpr index_t kPanel = 48;
  if (shape == Pentagon::kTriangular || n <= kPanel || m < 2 * kPanel) {
    detail::tpqrt_unblocked(r, b, tau.data(), shape);
    return;
  }

  Workspace& workspace = Workspace::local();
  auto scratch = workspace.frame();
  auto tmat = MatView<T>::row_major(
      workspace.get<T>(static_cast<std::size_t>(kPanel * kPanel)), kPanel,
      kPanel);
  T* z = workspace.get<T>(static_cast<std::size_t>(kPanel));
  for (index_t j0 = 0; j0 < n; j0 += kPanel) {
    const index_t jb = std::min(kPanel, n - j0);
    auto rp = r.block(j0, j0, jb, jb);
    auto bp = b.block(0, j0, m, jb);
    detail::tpqrt_unblocked(rp, bp, tau.data() + j0, Pentagon::kFull);

    const index_t nc = n - j0 - jb;
    if (nc <= 0) continue;

    // Compact-WY T for the panel (larft with this storage scheme): since
    // V_j = [e_j; bp(:, j)], the cross products V_i^T V_j reduce to
    // bp-column inner products. The j recursion is sequential, but the
    // O(m) inner products for a given j are independent -- for the long
    // unfolding blocks of the TensorLQ leaf sweep they dominate, so they
    // fan out over i (each dot is computed exactly as in the serial run).
    auto tm = tmat.block(0, 0, jb, jb);
    blas::fill(tm, T(0));
    for (index_t j = 0; j < jb; ++j) {
      const T tj = tau[static_cast<std::size_t>(j0 + j)];
      if (tj == T(0)) continue;
      auto run_dots = [&](index_t ilo, index_t ihi) {
        for (index_t i = ilo; i < ihi; ++i) {
          T zi = T(0);
          if (bp.row_stride() == 1) {
            zi = blas::detail::fast_dot(m, &bp(0, i), &bp(0, j));
          } else {
            for (index_t k = 0; k < m; ++k) zi += bp(k, i) * bp(k, j);
          }
          z[i] = zi;
        }
      };
      if (parallel::this_thread_width() > 1 &&
          2.0 * static_cast<double>(m) * j >= parallel::kMinFanoutFlops) {
        parallel::parallel_for(0, j, 4, run_dots);
      } else {
        run_dots(0, j);
      }
      tucker::add_flops(2 * m * j);
      for (index_t i = 0; i < j; ++i) {
        T s = T(0);
        for (index_t k = i; k < j; ++k) s += tmat(i, k) * z[k];
        tmat(i, j) = -tj * s;
      }
      tmat(j, j) = tj;
    }

    // Apply (I - V T^T V^T) to the trailing [R_t; B_t]:
    //   W = R_t(panel rows) + B_panel^T B_t;  W <- T^T W;
    //   R_t(panel rows) -= W;  B_t -= B_panel W.
    auto rt = r.block(j0, j0 + jb, jb, nc);
    auto bt = b.block(0, j0 + jb, m, nc);
    auto inner = workspace.frame();
    auto w = MatView<T>::row_major(
        workspace.get<T>(static_cast<std::size_t>(jb * nc)), jb, nc);
    blas::copy(MatView<const T>(rt), w);
    blas::gemm(T(1), MatView<const T>(bp.t()), MatView<const T>(bt), T(1), w);
    // T^T W and the R-block subtraction are column-independent: fan out
    // over columns of the trailing matrix (per-column order unchanged).
    auto run_cols = [&](index_t jlo, index_t jhi) {
      for (index_t j = jlo; j < jhi; ++j) {
        for (index_t i = jb; i-- > 0;) {
          T s = T(0);
          for (index_t k = 0; k <= i; ++k) s += tmat(k, i) * w(k, j);
          w(i, j) = s;
        }
        for (index_t i = 0; i < jb; ++i) rt(i, j) -= w(i, j);
      }
    };
    if (parallel::this_thread_width() > 1 &&
        static_cast<double>(jb) * jb * nc >= parallel::kMinFanoutFlops) {
      parallel::parallel_for(0, nc, 32, run_cols);
    } else {
      run_cols(0, nc);
    }
    tucker::add_flops(jb * jb * nc);
    blas::gemm(T(-1), MatView<const T>(bp), MatView<const T>(w), T(1), bt);
  }
}

/// LQ of the side-by-side matrix [L A] where L (m x m) is lower triangular
/// and A is m x k: the structured transpose of tpqrt. On return L holds the
/// new lower-triangular factor. With Pentagon::kTriangular, A is assumed
/// lower triangular (row i zero beyond column i).
template <class T>
void tplqt(MatView<T> l, MatView<T> a, std::vector<T>& tau,
           Pentagon shape = Pentagon::kFull) {
  tpqrt(l.t(), a.t(), tau, shape);
}

}  // namespace tucker::la
