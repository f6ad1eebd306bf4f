#pragma once
// Householder reflector generation and application.
//
// A reflector H = I - tau * v * v^T with v(0) = 1 annihilates all but the
// first entry of a vector. These are the building blocks of geqrf/gelqf and
// the structured tpqrt-style factorizations. Generation follows the LAPACK
// larfg conventions (sign chosen to avoid cancellation, scaled norms to
// avoid overflow), which is what makes the QR preprocessing step of QR-SVD
// backward stable (paper Theorem 1).

#include <cmath>
#include <limits>
#include <vector>

#include "blas/blas1.hpp"
#include "blas/matview.hpp"
#include "common/flops.hpp"
#include "common/thread_pool.hpp"
#include "common/workspace.hpp"

namespace tucker::la {

using blas::index_t;
using blas::MatView;

/// Generates a Householder reflector for the (n+1)-vector [alpha; x].
/// On return, alpha holds the resulting beta = -sign(alpha)*||[alpha;x]||,
/// x holds the tail of v (v(0) = 1 implicitly), and the return value is tau.
/// tau = 0 (H = I) when the tail is already zero.
template <class T>
T make_reflector(T& alpha, index_t n, T* x, index_t incx) {
  T xnorm = blas::nrm2(n, x, incx);
  if (xnorm == T(0)) return T(0);
  // beta = -sign(alpha) * hypot(alpha, xnorm), computed stably.
  T beta = -std::copysign(static_cast<T>(std::hypot(alpha, xnorm)), alpha);

  // LAPACK larfg-style rescue: if beta is below the "safe minimum"
  // (min_normal / eps), 1/(alpha - beta) would overflow. Scale the vector
  // up until beta is safe, then scale the final beta back down. Subnormal
  // columns genuinely occur in single precision on heavily truncated data.
  const T safmin =
      std::numeric_limits<T>::min() / std::numeric_limits<T>::epsilon();
  int rescales = 0;
  if (std::abs(beta) < safmin) {
    const T rsafmn = T(1) / safmin;
    do {
      ++rescales;
      blas::scal(n, rsafmn, x, incx);
      beta *= rsafmn;
      alpha *= rsafmn;
    } while (std::abs(beta) < safmin && rescales < 20);
    xnorm = blas::nrm2(n, x, incx);
    beta = -std::copysign(static_cast<T>(std::hypot(alpha, xnorm)), alpha);
  }

  const T tau = (beta - alpha) / beta;
  blas::scal(n, T(1) / (alpha - beta), x, incx);
  for (int k = 0; k < rescales; ++k) beta *= safmin;
  alpha = beta;
  return tau;
}

/// Applies H = I - tau * [1; v] * [1; v]^T from the left to the matrix
/// [top; rest], where `top` is a single row and `rest` has the same number
/// of columns. v is the (rest.rows() x 1) column stored in vcol.
///
/// Two loop orders are provided so the stride pattern of `rest` (column-major
/// trailing blocks in geqrf-on-transpose vs row-major unfolding blocks)
/// always gets a contiguous inner loop.
template <class T>
void apply_reflector(T tau, MatView<const T> vcol, MatView<T> top,
                     MatView<T> rest) {
  if (tau == T(0) || top.cols() == 0) return;
  const index_t n = top.cols();
  const index_t m = rest.rows();
  TUCKER_DCHECK(vcol.rows() == m && vcol.cols() == 1,
                "apply_reflector: v shape");
  TUCKER_DCHECK(rest.cols() == n, "apply_reflector: width mismatch");
  tucker::add_flops(4 * m * n);

  // The update is independent per column of [top; rest], so both fast
  // paths fan out over column ranges: every w(j) keeps its serial i-order
  // accumulation, and writes are disjoint per column, making the result
  // bitwise independent of the thread count. Reflector applications inside
  // small panels stay below the flop threshold and run serially.
  const bool par =
      parallel::this_thread_width() > 1 &&
      4.0 * static_cast<double>(m) * n >= parallel::kMinFanoutFlops;

  if (rest.col_stride() == 1 && m > 0) {
    // Row-contiguous rest: accumulate w = top^T + rest^T v row by row,
    // then update row by row. Needs an n-sized scratch vector (arena; each
    // column range initializes its own slice inside run_cols).
    Workspace& ws = Workspace::local();
    auto scratch = ws.frame();
    T* w = ws.get<T>(static_cast<std::size_t>(n));
    auto run_cols = [&](index_t jlo, index_t jhi) {
      const index_t jn = jhi - jlo;
      for (index_t j = jlo; j < jhi; ++j) w[j] = top(0, j);
      for (index_t i = 0; i < m; ++i) {
        const T vi = vcol(i, 0);
        const T* r = &rest(i, jlo);
        T* wj = w + jlo;
        for (index_t j = 0; j < jn; ++j) wj[j] += vi * r[j];
      }
      for (index_t j = jlo; j < jhi; ++j) {
        w[j] *= tau;
        top(0, j) -= w[j];
      }
      for (index_t i = 0; i < m; ++i) {
        const T vi = vcol(i, 0);
        T* r = &rest(i, jlo);
        const T* wj = w + jlo;
        for (index_t j = 0; j < jn; ++j) r[j] -= wj[j] * vi;
      }
    };
    if (par) {
      parallel::parallel_for(0, n, 64, run_cols);
    } else {
      run_cols(0, n);
    }
  } else if (rest.row_stride() == 1 && vcol.row_stride() == 1) {
    // Column-contiguous rest (the col-major panel case): per-column dot
    // (multi-accumulator, vectorizable) followed by a contiguous axpy.
    const T* v = &vcol(0, 0);
    auto run_cols = [&](index_t jlo, index_t jhi) {
      for (index_t j = jlo; j < jhi; ++j) {
        T* r = &rest(0, j);
        T w = top(0, j) + blas::detail::fast_dot(m, v, r);
        w *= tau;
        top(0, j) -= w;
        for (index_t i = 0; i < m; ++i) r[i] -= w * v[i];
      }
    };
    if (par) {
      parallel::parallel_for(0, n, 16, run_cols);
    } else {
      run_cols(0, n);
    }
  } else {
    // Fully generic fallback.
    for (index_t j = 0; j < n; ++j) {
      T w = top(0, j);
      for (index_t i = 0; i < m; ++i) w += vcol(i, 0) * rest(i, j);
      w *= tau;
      top(0, j) -= w;
      for (index_t i = 0; i < m; ++i) rest(i, j) -= w * vcol(i, 0);
    }
  }
}

}  // namespace tucker::la
