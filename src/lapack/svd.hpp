#pragma once
// One-sided Jacobi SVD (singular values + left singular vectors).
//
// This plays the role of LAPACK's gesvd on the small triangular factor in
// QR-SVD (paper Sec 3.1/3.4). One-sided Jacobi orthogonalizes the columns
// of a working copy W = A * J_1 * J_2 * ... by plane rotations; at
// convergence the column norms are the singular values and the normalized
// columns are the left singular vectors. With de Rijk column pivoting it
// achieves high relative accuracy on QR/LQ-preconditioned input -- exactly
// what ST-HOSVD feeds it (the triangular factor of an unfolding) -- so the
// eps-vs-sqrt(eps) accuracy ladder of the paper (Theorems 1 and 2)
// reproduces faithfully.
//
// Caveat: on *raw dense* matrices with singular values graded over many
// orders of magnitude (i.e. without the QR preconditioning), the deep tail
// can stagnate above its true value and the relative stopping criterion may
// keep cycling; use bidiag_svd (Golub-Kahan / Demmel-Kahan) for that case.
// tests/ablation demonstrate both behaviours.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "blas/blas1.hpp"
#include "blas/matrix.hpp"
#include "common/flops.hpp"
#include "common/precision.hpp"

namespace tucker::la {

template <class T>
struct SvdResult {
  std::vector<T> sigma;   ///< Singular values, descending.
  blas::Matrix<T> u;      ///< Left singular vectors, m x min(m, n).
  int sweeps = 0;         ///< Jacobi sweeps used.
};

namespace detail {

/// Gram-Schmidt completion: replaces near-null columns of U (those flagged
/// in `fix`) with unit vectors orthogonal to all other columns, so U stays
/// orthonormal even when A is rank deficient (e.g. zero-padded triangles in
/// the parallel butterfly).
template <class T>
void complete_basis(blas::Matrix<T>& u, const std::vector<bool>& fix) {
  const blas::index_t m = u.rows();
  const blas::index_t k = u.cols();
  for (blas::index_t j = 0; j < k; ++j) {
    if (!fix[static_cast<std::size_t>(j)]) continue;
    // Try coordinate vectors until one survives orthogonalization.
    for (blas::index_t cand = 0; cand < m; ++cand) {
      std::vector<T> v(static_cast<std::size_t>(m), T(0));
      v[static_cast<std::size_t>(cand)] = T(1);
      for (blas::index_t l = 0; l < k; ++l) {
        if (l == j) continue;
        T d = T(0);
        for (blas::index_t i = 0; i < m; ++i)
          d += u(i, l) * v[static_cast<std::size_t>(i)];
        for (blas::index_t i = 0; i < m; ++i)
          v[static_cast<std::size_t>(i)] -= d * u(i, l);
      }
      T nrm = blas::nrm2(m, v.data(), 1);
      if (nrm > T(0.5)) {
        for (blas::index_t i = 0; i < m; ++i)
          u(i, j) = v[static_cast<std::size_t>(i)] / nrm;
        break;
      }
    }
  }
}

}  // namespace detail

/// Computes singular values and left singular vectors of A (m x n, m <= n is
/// fine; vectors span min(m,n) columns). The input view is not modified.
template <class T>
SvdResult<T> jacobi_svd(blas::MatView<const T> a, int max_sweeps = 30) {
  using blas::index_t;
  // One-sided Jacobi orthogonalizes columns, which yields the LEFT singular
  // vectors only when the matrix is tall or square; ST-HOSVD always calls
  // this on the square triangular factor. Short-fat callers should pass the
  // transpose and reinterpret the outputs.
  TUCKER_CHECK(a.rows() >= a.cols(), "jacobi_svd: pass a tall or square matrix");
  const index_t k = a.cols();

  // Column-major working copy (columns contiguous for the rotations).
  const index_t rows = a.rows();
  std::vector<T> w(static_cast<std::size_t>(rows * k));
  auto wv = blas::MatView<T>::col_major(w.data(), rows, k);
  blas::copy(a, wv);

  std::vector<T> colsq(static_cast<std::size_t>(k));
  for (index_t j = 0; j < k; ++j) {
    T s = T(0);
    for (index_t i = 0; i < rows; ++i) s += wv(i, j) * wv(i, j);
    colsq[static_cast<std::size_t>(j)] = s;
  }

  const T eps = precision<T>::eps;
  const T tol = T(10) * eps;
  // Columns whose squared norm is below eps^2 * max are roundoff noise
  // (their singular values carry no information -- paper Sec 3.2); rotating
  // noise against noise would spin until max_sweeps without improving
  // anything, so such pairs are skipped.
  T s2max = T(0);
  for (T c : colsq) s2max = std::max(s2max, c);
  const T noise_floor = s2max * eps * eps;
  int sweep = 0;
  std::vector<T> swapcol(static_cast<std::size_t>(rows));
  for (; sweep < max_sweeps; ++sweep) {
    // de Rijk pivoting: keep columns ordered by descending norm. On
    // severely graded matrices this both speeds convergence and prevents
    // large columns from repeatedly contaminating tiny ones (preserving
    // the method's high relative accuracy).
    for (index_t p = 0; p + 1 < k; ++p) {
      index_t big = p;
      for (index_t q = p + 1; q < k; ++q)
        if (colsq[static_cast<std::size_t>(q)] >
            colsq[static_cast<std::size_t>(big)])
          big = q;
      if (big != p) {
        std::swap(colsq[static_cast<std::size_t>(p)],
                  colsq[static_cast<std::size_t>(big)]);
        T* cp = &w[static_cast<std::size_t>(p * rows)];
        T* cb = &w[static_cast<std::size_t>(big * rows)];
        std::copy(cp, cp + rows, swapcol.data());
        std::copy(cb, cb + rows, cp);
        std::copy(swapcol.data(), swapcol.data() + rows, cb);
      }
    }
    bool rotated = false;
    for (index_t p = 0; p < k - 1; ++p) {
      for (index_t q = p + 1; q < k; ++q) {
        const T app = colsq[static_cast<std::size_t>(p)];
        const T aqq = colsq[static_cast<std::size_t>(q)];
        if (app <= noise_floor && aqq <= noise_floor) continue;
        T* cp = &w[static_cast<std::size_t>(p * rows)];
        T* cq = &w[static_cast<std::size_t>(q * rows)];
        const T apq = blas::detail::fast_dot(rows, cp, cq);
        tucker::add_flops(2 * rows);
        if (std::abs(apq) <= tol * std::sqrt(app * aqq) || apq == T(0))
          continue;
        rotated = true;
        // Rotation zeroing the (p,q) entry of W^T W.
        const T zeta = (aqq - app) / (T(2) * apq);
        const T t = std::copysign(
            T(1) / (std::abs(zeta) +
                    std::sqrt(T(1) + zeta * zeta)),
            zeta);
        const T c = T(1) / std::sqrt(T(1) + t * t);
        const T s = c * t;
        for (index_t i = 0; i < rows; ++i) {
          const T vp = cp[i];
          const T vq = cq[i];
          cp[i] = c * vp - s * vq;
          cq[i] = s * vp + c * vq;
        }
        tucker::add_flops(6 * rows);
        colsq[static_cast<std::size_t>(p)] = app - t * apq;
        colsq[static_cast<std::size_t>(q)] = aqq + t * apq;
      }
    }
    if (!rotated) break;
  }

  // Exact column norms, sorted descending.
  SvdResult<T> out;
  out.sweeps = sweep;
  std::vector<T> sig(static_cast<std::size_t>(k));
  for (index_t j = 0; j < k; ++j)
    sig[static_cast<std::size_t>(j)] = blas::nrm2(
        rows, &w[static_cast<std::size_t>(j * rows)], index_t{1});
  std::vector<index_t> perm(static_cast<std::size_t>(k));
  std::iota(perm.begin(), perm.end(), index_t{0});
  std::stable_sort(perm.begin(), perm.end(), [&](index_t x, index_t y) {
    return sig[static_cast<std::size_t>(x)] > sig[static_cast<std::size_t>(y)];
  });

  out.sigma.resize(static_cast<std::size_t>(k));
  out.u = blas::Matrix<T>(rows, k);
  // Columns whose singular value is at (or below) underflow-noise level get
  // replaced by an orthonormal completion.
  const T smax = sig.empty() ? T(0) : sig[static_cast<std::size_t>(perm[0])];
  const T tiny = smax * eps * T(rows) + std::numeric_limits<T>::min();
  std::vector<bool> fix(static_cast<std::size_t>(k), false);
  for (index_t j = 0; j < k; ++j) {
    const index_t src = perm[static_cast<std::size_t>(j)];
    const T sv = sig[static_cast<std::size_t>(src)];
    out.sigma[static_cast<std::size_t>(j)] = sv;
    if (sv <= tiny) {
      fix[static_cast<std::size_t>(j)] = true;
      continue;
    }
    const T inv = T(1) / sv;
    const T* col = &w[static_cast<std::size_t>(src * rows)];
    for (index_t i = 0; i < rows; ++i) out.u(i, j) = col[i] * inv;
  }
  detail::complete_basis(out.u, fix);
  return out;
}

}  // namespace tucker::la
