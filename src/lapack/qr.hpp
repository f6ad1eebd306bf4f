#pragma once
// Householder QR and LQ factorizations (geqrf / gelqf equivalents).
//
// geqrf reduces A (m x n) to upper-triangular/trapezoidal R in place, with
// the reflector vectors stored below the diagonal (LAPACK convention).
// gelqf is expressed as geqrf of the transposed view, so a single kernel
// serves both the column-major mode-0 unfolding (paper: gelq) and the
// row-major last-mode unfolding (paper: geqr). Q is never formed on the
// production path -- QR-SVD discards it -- but form_q is provided for tests
// and for users who need the orthogonal factor.

#include <vector>

#include "blas/gemm.hpp"
#include "blas/matrix.hpp"
#include "blas/matview.hpp"
#include "common/workspace.hpp"
#include "lapack/householder.hpp"

namespace tucker::la {

namespace detail {

/// Unblocked Householder QR: reflector-at-a-time with BLAS-2 trailing
/// updates. Used directly for narrow matrices and as the panel kernel of
/// the blocked algorithm.
template <class T>
void geqrf_unblocked(MatView<T> a, T* tau) {
  const index_t m = a.rows(), n = a.cols();
  const index_t k = std::min(m, n);
  for (index_t j = 0; j < k; ++j) {
    T& alpha = a(j, j);
    const index_t tail = m - j - 1;
    T* x = tail > 0 ? &a(j + 1, j) : nullptr;
    tau[j] = make_reflector(alpha, tail, x, a.row_stride());
    if (j + 1 < n) {
      auto vcol = a.block(j + 1, j, tail, 1);
      auto top = a.block(j, j + 1, 1, n - j - 1);
      auto rest = a.block(j + 1, j + 1, tail, n - j - 1);
      apply_reflector(tau[j], MatView<const T>(vcol), top, rest);
    }
  }
}

/// Applies Q^T = (I - Y T Y^T)^T = I - Y T^T Y^T from the left to C, where
/// Y is the unit-lower-trapezoid reflector storage of a factored panel
/// (m x k) and t is its compact-WY factor (k x k upper triangular). The
/// dominant work is two gemm calls over Y's rectangular part, which is what
/// makes the whole QR run at matrix-multiply speed. The gemms parallelize
/// internally; the three triangular hand loops are column-independent, so
/// for wide trailing matrices they fan out over column ranges of C (each
/// column's accumulation order is untouched -- bitwise thread-invariant).
template <class T>
void apply_block_qt(MatView<const T> y, MatView<const T> t, MatView<T> c) {
  const index_t m = y.rows();
  const index_t k = y.cols();
  const index_t nc = c.cols();
  if (k == 0 || nc == 0) return;
  TUCKER_DCHECK(c.rows() == m, "apply_block_qt: row mismatch");
  auto c1 = c.block(0, 0, k, nc);

  Workspace& workspace = Workspace::local();
  auto scratch = workspace.frame();
  auto w = MatView<T>::row_major(
      workspace.get<T>(static_cast<std::size_t>(k * nc)), k, nc);
  auto run_cols = [&](index_t jlo, index_t jhi) {
    // W = Y1^T C1 + Y2^T C2 is assembled in two steps; this lambda handles
    // the triangular Y1 part and the T^T / Y1 back-substitutions for its
    // column range. The rectangular Y2 parts stay in the gemms below.
    for (index_t i = 0; i < k; ++i)
      for (index_t j = jlo; j < jhi; ++j) {
        T s = c1(i, j);
        for (index_t r = i + 1; r < k; ++r) s += y(r, i) * c1(r, j);
        w(i, j) = s;
      }
  };
  auto run_cols_tw = [&](index_t jlo, index_t jhi) {
    // W <- T^T W (T upper triangular; in-place bottom-up accumulation).
    for (index_t j = jlo; j < jhi; ++j) {
      for (index_t i = k; i-- > 0;) {
        T s = T(0);
        for (index_t r = 0; r <= i; ++r) s += t(r, i) * w(r, j);
        w(i, j) = s;
      }
    }
  };
  auto run_cols_sub = [&](index_t jlo, index_t jhi) {
    // C1 -= Y1 W (unit lower triangular Y1).
    for (index_t i = k; i-- > 0;) {
      for (index_t j = jlo; j < jhi; ++j) {
        T s = w(i, j);
        for (index_t r = 0; r < i; ++r) s += y(i, r) * w(r, j);
        c1(i, j) -= s;
      }
    }
  };

  const bool par =
      parallel::this_thread_width() > 1 &&
      static_cast<double>(k) * k * nc >= parallel::kMinFanoutFlops;

  if (par) {
    parallel::parallel_for(0, nc, 32, run_cols);
  } else {
    run_cols(0, nc);
  }
  tucker::add_flops(k * k * nc);
  if (m > k) {
    auto y2 = y.block(k, 0, m - k, k);
    auto c2 = c.block(k, 0, m - k, nc);
    blas::gemm(T(1), MatView<const T>(y2.t()), MatView<const T>(c2), T(1), w);
  }

  if (par) {
    parallel::parallel_for(0, nc, 32, run_cols_tw);
  } else {
    run_cols_tw(0, nc);
  }
  tucker::add_flops(k * k * nc);

  if (par) {
    parallel::parallel_for(0, nc, 32, run_cols_sub);
  } else {
    run_cols_sub(0, nc);
  }
  tucker::add_flops(k * k * nc);
  if (m > k) {
    auto y2 = y.block(k, 0, m - k, k);
    auto c2 = c.block(k, 0, m - k, nc);
    blas::gemm(T(-1), y2, MatView<const T>(w), T(1), c2);
  }
}

/// Recursive QR with compact-WY accumulation (Elmroth-Gustavson RGEQR3):
/// factors a (m x n, m >= n) in place and fills the upper triangle of t
/// (n x n, strict lower triangle must be zero on entry) with the T factor
/// of the whole panel: H_0 ... H_{n-1} = I - Y T Y^T. All trailing updates
/// and the T glue blocks are gemm calls; BLAS-2 work is confined to the
/// n <= 2 base cases.
template <class T>
void geqr3(MatView<T> a, MatView<T> t, T* tau) {
  const index_t m = a.rows(), n = a.cols();
  TUCKER_DCHECK(m >= n, "geqr3: requires tall or square panel");
  if (n <= 2) {
    geqrf_unblocked(a, tau);
    t(0, 0) = tau[0];
    if (n == 2) {
      t(1, 1) = tau[1];
      // T(0,1) = -tau0 * (v0^T v1) * tau1, v1 unit at row 1.
      T z = a(1, 0);
      if (m > 2) {
        if (a.row_stride() == 1) {
          z += blas::detail::fast_dot(m - 2, &a(2, 0), &a(2, 1));
        } else {
          for (index_t r = 2; r < m; ++r) z += a(r, 0) * a(r, 1);
        }
        tucker::add_flops(2 * (m - 2));
      }
      t(0, 1) = -tau[0] * z * tau[1];
    }
    return;
  }

  const index_t n1 = n / 2;
  const index_t n2 = n - n1;
  auto a1 = a.block(0, 0, m, n1);
  auto t1 = t.block(0, 0, n1, n1);
  geqr3(a1, t1, tau);

  // A2 <- Q1^T A2.
  apply_block_qt(MatView<const T>(a1), MatView<const T>(t1),
                 a.block(0, n1, m, n2));

  auto a22 = a.block(n1, n1, m - n1, n2);
  auto t2 = t.block(n1, n1, n2, n2);
  geqr3(a22, t2, tau + n1);

  // Glue block: T12 = -T1 * (Y1[n1:, :]^T * Y2) * T2. Scratch from the
  // arena -- geqr3 recursions nest their frames like stack frames.
  Workspace& workspace = Workspace::local();
  auto scratch = workspace.frame();
  auto z = MatView<T>::row_major(
      workspace.get<T>(static_cast<std::size_t>(n1 * n2)), n1, n2);
  // Head rows of Y2 (unit lower triangle at a(n1+r, n1+j), r in [0, n2)).
  for (index_t i = 0; i < n1; ++i)
    for (index_t j = 0; j < n2; ++j) {
      T s = a(n1 + j, i);  // unit diagonal of Y2
      for (index_t r = j + 1; r < n2; ++r) s += a(n1 + r, i) * a(n1 + r, n1 + j);
      z(i, j) = s;
    }
  tucker::add_flops(n1 * n2 * n2);
  if (m > n1 + n2) {
    auto y1tail = a.block(n1 + n2, 0, m - n1 - n2, n1);
    auto y2tail = a.block(n1 + n2, n1, m - n1 - n2, n2);
    blas::gemm(T(1), MatView<const T>(y1tail.t()), MatView<const T>(y2tail),
               T(1), z);
  }
  auto zt2 = MatView<T>::row_major(
      workspace.get<T>(static_cast<std::size_t>(n1 * n2)), n1, n2);
  blas::gemm(T(1), MatView<const T>(z), MatView<const T>(t2), T(0), zt2);
  blas::gemm(T(-1), MatView<const T>(t1), MatView<const T>(zt2), T(0),
             t.block(0, n1, n1, n2));
}

}  // namespace detail

/// In-place Householder QR of A (m x n). On return the upper triangle holds
/// R and the strict lower triangle holds the reflector tails; tau receives
/// min(m, n) scalar factors. Wide matrices are processed in panels factored
/// by the recursive compact-WY algorithm (detail::geqr3), with gemm-based
/// trailing updates -- so the QR/LQ path runs at matrix-multiply speed,
/// which is what keeps QR-SVD within the paper's 2x-of-Gram cost envelope.
template <class T>
void geqrf(MatView<T> a, std::vector<T>& tau) {
  const index_t m = a.rows(), n = a.cols();
  const index_t k = std::min(m, n);
  tau.assign(static_cast<std::size_t>(k), T(0));
  constexpr index_t nb = 64;
  if (k <= 8) {
    detail::geqrf_unblocked(a, tau.data());
    return;
  }

  Workspace& workspace = Workspace::local();
  auto scratch = workspace.frame();
  auto tmat = MatView<T>::row_major(
      workspace.get<T>(static_cast<std::size_t>(nb * nb)), nb, nb);
  for (index_t j0 = 0; j0 < k; j0 += nb) {
    const index_t jb = std::min(nb, k - j0);
    const index_t mm = m - j0;
    auto panel = a.block(j0, j0, mm, jb);
    auto tview = tmat.block(0, 0, jb, jb);
    blas::fill(tview, T(0));
    detail::geqr3(panel, tview, tau.data() + j0);

    const index_t nc = n - j0 - jb;
    if (nc > 0) {
      detail::apply_block_qt(MatView<const T>(panel),
                             MatView<const T>(tview),
                             a.block(j0, j0 + jb, mm, nc));
    }
  }
}

/// In-place Householder LQ of A (m x n): lower triangle holds L, reflector
/// tails stored to the right of the diagonal. Equivalent to QR of A^T.
template <class T>
void gelqf(MatView<T> a, std::vector<T>& tau) {
  geqrf(a.t(), tau);
}

/// Extracts the k x n upper-triangular/trapezoidal R factor after geqrf.
template <class T>
blas::Matrix<T> extract_r(MatView<const T> a) {
  const index_t k = std::min(a.rows(), a.cols());
  blas::Matrix<T> r(k, a.cols());
  for (index_t i = 0; i < k; ++i)
    for (index_t j = i; j < a.cols(); ++j) r(i, j) = a(i, j);
  return r;
}

/// Extracts the m x k lower-triangular/trapezoidal L factor after gelqf.
template <class T>
blas::Matrix<T> extract_l(MatView<const T> a) {
  const index_t k = std::min(a.rows(), a.cols());
  blas::Matrix<T> l(a.rows(), k);
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j = 0; j <= std::min(i, k - 1); ++j) l(i, j) = a(i, j);
  return l;
}

/// Forms the leading q.cols() columns of Q (q must be m x ncols, ncols <= m)
/// from the reflectors produced by geqrf, writing into caller-provided
/// storage -- the allocation-free variant the randomized range finder uses
/// on its Workspace-arena buffers. q is overwritten.
template <class T>
void form_q_into(MatView<const T> a, const std::vector<T>& tau,
                 MatView<T> q) {
  const index_t m = a.rows();
  const index_t ncols = q.cols();
  const index_t k = static_cast<index_t>(tau.size());
  TUCKER_CHECK(q.rows() == m && ncols <= m,
               "form_q_into: Q must be m x ncols with ncols <= m");
  blas::fill(q, T(0));
  for (index_t j = 0; j < std::min(m, ncols); ++j) q(j, j) = T(1);
  // Apply H_{k-1} ... H_0 to the identity (reverse order builds Q).
  for (index_t j = k - 1; j >= 0; --j) {
    const index_t tail = m - j - 1;
    auto vcol = a.block(j + 1, j, tail, 1);
    auto top = q.block(j, 0, 1, ncols);
    auto rest = q.block(j + 1, 0, tail, ncols);
    apply_reflector(tau[static_cast<std::size_t>(j)], MatView<const T>(vcol),
                    top, rest);
  }
}

/// Forms the leading ncols columns of Q (m x ncols, ncols <= m) from the
/// reflectors produced by geqrf. Intended for tests and examples.
template <class T>
blas::Matrix<T> form_q(MatView<const T> a, const std::vector<T>& tau,
                       index_t ncols) {
  blas::Matrix<T> q(a.rows(), ncols);
  form_q_into(a, tau, q.view());
  return q;
}

}  // namespace tucker::la
