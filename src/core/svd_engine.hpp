#pragma once
// The SVD engines applied to tensor unfoldings.
//
//  - Gram-SVD (TuckerMPI's approach): eigendecomposition of X_(n) X_(n)^T.
//    Cheap (one pass of syrk, n m^2 flops) but squares the condition
//    number: singular values below ||X||*sqrt(eps) are noise (Theorem 2).
//  - QR-SVD (this paper's approach): LQ of X_(n), then SVD of the small
//    triangular factor. Twice the flops (2 n m^2) but backward stable:
//    accurate down to ||X||*eps (Theorem 1).
//  - Rand (rand_svd, the follow-up work's randomized range finder): sketch
//    the unfolding with a counter-based Gaussian test matrix, orthonormalize
//    the sketch, and solve the small projected problem. Cost O(m*cols*w)
//    with w = rank + oversampling instead of O(m^2 cols) -- the win when
//    selected ranks are a small fraction of the mode size. Tolerance mode
//    is honored via adaptive oversampling (see rand_svd).
//  - Stream: in memory it is QR-SVD, bit for bit (mode_svd runs qr_svd).
//    The enumerator stays for callers that name it; the out-of-core
//    stream_sthosvd driver (src/stream/) takes any engine.
//
// All engines return squared singular values (descending) plus the left
// singular vector matrix. Gram-SVD follows the paper's convention for
// roundoff-negative eigenvalues: sigma_i = sqrt(|lambda_i|), sorted
// descending. Rand appends one trailing *residual* pseudo-entry (energy
// outside the sketch basis, no matching column in u) so generic
// select_rank / error reporting stay honest on sketched spectra.

#include <cmath>
#include <string_view>
#include <vector>

#include "blas/matrix.hpp"
#include "common/rng.hpp"
#include "common/workspace.hpp"
#include "core/truncation.hpp"
#include "lapack/bidiag_svd.hpp"
#include "lapack/qr.hpp"
#include "lapack/svd.hpp"
#include "lapack/tridiag_eig.hpp"
#include "tensor/gram.hpp"
#include "tensor/sketch.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_lq.hpp"

namespace tucker::core {

using blas::index_t;
using tensor::Tensor;

enum class SvdMethod { kGram, kQr, kRand, kStream };

// Exhaustive by design: no default case, so -Wswitch (promoted to an error
// by the build) flags any future engine that forgets to name itself.
inline std::string_view method_name(SvdMethod m) {
  switch (m) {
    case SvdMethod::kGram:
      return "Gram";
    case SvdMethod::kQr:
      return "QR";
    case SvdMethod::kRand:
      return "Rand";
    case SvdMethod::kStream:
      return "Stream";
  }
  return "?";  // unreachable; silences -Wreturn-type
}

/// Eigendecomposition of a Gram matrix G = X X^T as the SVD of X:
/// Householder tridiagonalization + implicit QL (the syev-style pair
/// TuckerMPI calls), sigma_i^2 = |lambda_i|. The shared back half of
/// gram_svd and the distributed and out-of-core Gram paths.
template <class T>
ModeSvd<T> svd_of_gram(const blas::Matrix<T>& g) {
  auto eig = la::tridiag_eig(blas::MatView<const T>(g.view()));
  ModeSvd<T> out;
  out.sigma_sq.reserve(eig.lambda.size());
  for (T lam : eig.lambda) out.sigma_sq.push_back(std::abs(lam));
  out.u = std::move(eig.v);
  return out;
}

/// SVD of the mode-n unfolding via the Gram matrix (TuckerMPI's Alg 2 +
/// symmetric eigensolver).
template <class T>
ModeSvd<T> gram_svd(const Tensor<T>& y, std::size_t n) {
  return svd_of_gram(tensor::gram_of_unfolding(y, n));
}

/// Dense solver used for the small SVD of the triangular factor:
/// Golub-Kahan bidiagonalization with shifted/zero-shift QR (the classical
/// gesvd-style algorithm the paper calls; the default, also spelled kAuto)
/// or one-sided Jacobi with de Rijk pivoting (simplest, very accurate on
/// this preconditioned input; the stream driver's rank-deficient trailing
/// triangle and the test oracle). Short-fat or empty input always takes
/// Jacobi. Nothing here consults the thread width, so results are bitwise
/// identical at every TUCKER_NUM_THREADS.
enum class SmallSvdBackend { kJacobi, kGolubKahan, kAuto = kGolubKahan };

/// Small SVD of an LQ triangle: the shared back half of qr_svd and the
/// out-of-core drivers' merged triangles. Both solvers run at storage
/// precision.
template <class T>
ModeSvd<T> svd_of_l(blas::Matrix<T> l, SmallSvdBackend backend,
                    Accum = Accum::kNative) {
  ModeSvd<T> out;
  auto take = [&](auto svd) {
    out.sigma_sq.reserve(svd.sigma.size());
    for (T s : svd.sigma) out.sigma_sq.push_back(s * s);
    out.u = std::move(svd.u);
  };
  if (backend == SmallSvdBackend::kGolubKahan && l.rows() >= l.cols() &&
      l.cols() >= 1) {
    take(la::bidiag_svd(blas::MatView<const T>(l.view())));
  } else {
    take(la::jacobi_svd(blas::MatView<const T>(l.view())));
  }
  return out;
}

/// SVD of the mode-n unfolding via LQ preprocessing (paper Alg 2 + SVD of
/// the triangular factor, right singular vectors never formed). The LQ is
/// Householder-based and, like the small SVD, runs at storage precision.
template <class T>
ModeSvd<T> qr_svd(const Tensor<T>& y, std::size_t n,
                  SmallSvdBackend backend = SmallSvdBackend::kAuto) {
  return svd_of_l(tensor::tensor_lq(y, n), backend);
}

/// Knobs of the randomized range finder. Defaults follow the HMT
/// recommendations (small constant oversampling, one power iteration).
struct RandSvdOptions {
  /// Extra sketch columns beyond the (guessed or fixed) target rank. Also
  /// the accepted slack in tolerance mode: a selected rank is only trusted
  /// when it leaves `oversample` unused basis columns (otherwise the sketch
  /// widens), so the kept singular vectors are always oversampled.
  index_t oversample = 8;
  /// Subspace (power) iterations: each one sharpens the basis by a factor
  /// of the squared spectral decay, at 2x the sketch's gemm cost.
  int power_iters = 1;
  /// User seed; the engine derives a per-mode stream via rng::substream, so
  /// one seed draws independent test matrices for every mode.
  std::uint64_t seed = 0x5eed;
  /// Tolerance mode's initial rank guess (0 = max(8, m/8)). The adaptive
  /// loop doubles the sketch width from here until the energy budget is
  /// met, reusing all previously drawn columns.
  index_t rank_guess = 0;
};

/// Randomized range-finder SVD of the mode-n unfolding (follow-up work to
/// the paper; HMT Alg 4.4 + projected Gram solve).
///
/// fixed_rank > 0: one sketch of width min(fixed_rank + oversample, cap).
/// fixed_rank == 0 (tolerance mode): adaptive oversampling -- sketch at a
/// guessed width, test the *discarded* energy (residual outside the basis
/// plus the tail of the projected spectrum) against threshold_sq (the
/// eps^2 ||X||^2 / N budget), and double the width until the budget is met
/// with `oversample` columns to spare or the full rank cap is reached.
/// Widening draws only the new Omega columns; the existing sketch block is
/// reused untouched.
///
/// The returned sigma_sq holds the w projected energies *plus one trailing
/// residual pseudo-entry* ||Y||^2 - sum(sigma^2) with no matching column in
/// u: exactly the energy a truncation at any r <= w discards beyond the
/// projected tail. Generic select_rank over this vector reproduces the
/// engine's own adaptive decision, and estimated_relative_error() remains
/// an upper bound instead of silently ignoring out-of-basis energy.
///
/// Determinism: Omega is a pure function of (seed, mode, global column,
/// sketch column), and every kernel underneath is bitwise thread-invariant,
/// so results are bitwise identical at any TUCKER_NUM_THREADS.
///
/// `known_norm_sq`, when given, is y.norm_squared() already computed by
/// the caller (sthosvd's first mode); the value is the same either way.
template <class T>
ModeSvd<T> rand_svd(const Tensor<T>& y, std::size_t n, index_t fixed_rank,
                    double threshold_sq, const RandSvdOptions& opt = {},
                    Accum = Accum::kNative,
                    const double* known_norm_sq = nullptr) {
  const index_t m = y.dim(n);
  const index_t cols = tensor::prod_before(y.dims(), n) *
                       tensor::prod_after(y.dims(), n);
  ModeSvd<T> out;
  if (m == 0 || cols == 0) {
    out.u = blas::Matrix<T>(m, 0);
    return out;
  }
  const index_t cap = std::min(m, cols);
  const index_t p = std::max<index_t>(opt.oversample, 0);
  const bool fixed = fixed_rank > 0;
  index_t w;
  if (fixed) {
    w = std::min(cap, fixed_rank + p);
  } else {
    const index_t guess = opt.rank_guess > 0
                              ? opt.rank_guess
                              : std::max<index_t>(8, m / 8);
    w = std::min(cap, guess + p);
  }
  w = std::max<index_t>(w, 1);

  const double norm_sq = known_norm_sq ? *known_norm_sq : y.norm_squared();
  const std::uint64_t stream = substream(opt.seed, n);

  Workspace& ws = Workspace::local();
  auto arena = ws.frame();
  // The raw sketch persists across widening rounds (rounds only append
  // columns); QR / power iterations work on a copy.
  auto sall = blas::MatView<T>::row_major(
      ws.get<T>(static_cast<std::size_t>(m * cap)), m, cap);
  T* wdata = ws.get<T>(static_cast<std::size_t>(m * cap));
  T* qdata = ws.get<T>(static_cast<std::size_t>(m * cap));
  T* gdata = ws.get<T>(static_cast<std::size_t>(cap * cap));
  std::vector<T> tau;

  index_t wprev = 0;
  for (;;) {
    tensor::sketch_unfolding_cols(y, n, stream, wprev, w,
                                  sall.block(0, wprev, m, w - wprev));
    auto wv = blas::MatView<T>::row_major(wdata, m, w);
    blas::copy(blas::MatView<const T>(sall.block(0, 0, m, w)), wv);
    auto qv = blas::MatView<T>::row_major(qdata, m, w);
    for (int it = 0; it < opt.power_iters; ++it) {
      // Re-orthonormalize before each multiply (stabilized subspace
      // iteration; unstabilized powers underflow past a few iterations).
      la::geqrf(wv, tau);
      la::form_q_into(blas::MatView<const T>(wv), tau, qv);
      tensor::unfolding_aat_multiply(y, n, blas::MatView<const T>(qv), wv);
    }
    la::geqrf(wv, tau);
    la::form_q_into(blas::MatView<const T>(wv), tau, qv);

    auto gv = blas::MatView<T>::row_major(gdata, w, w);
    tensor::projected_gram(y, n, blas::MatView<const T>(qv), gv);
    auto eig = la::tridiag_eig(blas::MatView<const T>(gv));

    double captured = 0;
    out.sigma_sq.clear();
    out.sigma_sq.reserve(static_cast<std::size_t>(w) + 1);
    for (T lam : eig.lambda) {
      const T s = std::abs(lam);
      out.sigma_sq.push_back(s);
      captured += static_cast<double>(s);
    }
    // At full width the basis spans the entire row space, so the residual
    // is exactly zero; the computed norm_sq - captured is pure rounding
    // noise there and must not be allowed to inflate the selected rank.
    const double resid =
        w >= cap ? 0.0 : std::max(0.0, norm_sq - captured);
    out.sigma_sq.push_back(static_cast<T>(resid));

    bool accept = fixed || w >= cap;
    if (!fixed && !accept) {
      // Certified iff even keeping the whole basis meets the budget; then
      // require `oversample` slack columns beyond the selected rank so the
      // kept vectors are themselves oversampled.
      const bool certified =
          static_cast<double>(out.sigma_sq.back()) <= threshold_sq;
      const index_t r = select_rank(out.sigma_sq, threshold_sq);
      accept = certified && r + p <= w;
    }
    if (accept) {
      out.u = blas::Matrix<T>(m, w);
      blas::gemm(T(1), blas::MatView<const T>(qv),
                 blas::MatView<const T>(eig.v.view()), T(0), out.u.view());
      return out;
    }
    wprev = w;
    w = std::min(cap, 2 * w);
  }
}

/// Dispatches on the method enum with full truncation context (fixed_rank
/// and known_norm_sq as in rand_svd; the extra arguments are ignored by the
/// deterministic engines, which always compute the full factorization).
/// kStream is kQr on a resident tensor.
template <class T>
ModeSvd<T> mode_svd(const Tensor<T>& y, std::size_t n, SvdMethod method,
                    index_t fixed_rank, double threshold_sq,
                    const RandSvdOptions& ropt = {},
                    const double* known_norm_sq = nullptr) {
  switch (method) {
    case SvdMethod::kGram:
      return gram_svd(y, n);
    case SvdMethod::kQr:
    case SvdMethod::kStream:
      return qr_svd(y, n);
    case SvdMethod::kRand:
      return rand_svd(y, n, fixed_rank, threshold_sq, ropt, Accum::kNative,
                      known_norm_sq);
  }
  TUCKER_CHECK(false, "mode_svd: unknown method");
  return {};
}

}  // namespace tucker::core
