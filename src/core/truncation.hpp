#pragma once
// The truncation decision of ST-HOSVD (lines 5-6 of Alg 1), in one place:
// the sequential, simmpi and out-of-core ST-HOSVDs and the online
// StreamingTucker hand each mode's spectrum to truncate_mode, so they agree
// on the rank rule, and their results forward to the one
// estimated_relative_error below.
//
// Tolerance mode: pick the smallest R_n whose discarded tail energy
// sum_{i>R_n} sigma_i^2 is at most eps^2 ||X||^2 / N -- the split that
// guarantees the overall approximation error is at most eps in exact
// arithmetic. Fixed-rank mode (used by the scaling experiments and the
// video dataset, which follow prior work in specifying ranks) bypasses the
// test. When the computed sigma_i^2 are dominated by roundoff noise (the
// Gram-single regime of the paper), the tail never falls under the
// threshold and the selected rank stays at the full dimension -- exactly
// the "fails to compress" behaviour in Tables 2 and 3.

#include <algorithm>
#include <cmath>
#include <vector>

#include "blas/blas1.hpp"
#include "blas/matrix.hpp"
#include "common/check.hpp"

namespace tucker::core {

/// How ST-HOSVD truncates each mode.
struct TruncationSpec {
  /// Relative error tolerance (tolerance mode). Ignored if ranks is set.
  double epsilon = 0;
  /// Fixed ranks per mode (fixed-rank mode); empty selects tolerance mode.
  std::vector<blas::index_t> ranks;

  static TruncationSpec tolerance(double eps) {
    TUCKER_CHECK(eps > 0, "TruncationSpec: tolerance must be positive");
    TruncationSpec s;
    s.epsilon = eps;
    return s;
  }
  static TruncationSpec fixed_ranks(std::vector<blas::index_t> r) {
    TruncationSpec s;
    s.ranks = std::move(r);
    return s;
  }
  bool is_fixed_rank() const { return !ranks.empty(); }

  /// Per-mode discard budget eps^2 ||X||^2 / N of an N-way tensor with
  /// squared norm norm_sq (0 in fixed-rank mode, where no tail is tested).
  double budget_sq(double norm_sq, std::size_t nmodes) const {
    return is_fixed_rank()
               ? 0
               : epsilon * epsilon * norm_sq / static_cast<double>(nmodes);
  }
};

/// Result of the truncated-SVD step for one mode, whichever engine ran it.
template <class T>
struct ModeSvd {
  /// Squared singular values of the unfolding, descending. Gram-SVD reports
  /// |lambda_i|; QR-SVD reports sigma_i^2. Stored in working precision: the
  /// rank-selection noise floor is part of the behaviour under study.
  std::vector<T> sigma_sq;
  /// Left singular vectors: I_n x (number of reported values).
  blas::Matrix<T> u;
};

/// Smallest R (>= 1) such that the tail energy of sigma_sq (descending,
/// squared singular values) beyond R is <= threshold_sq. Accumulates the
/// tail from the smallest values up, in the order that adds the values most
/// accurately. An empty spectrum selects R = 1 (the contract promises a
/// positive rank even for degenerate inputs; callers clamp against the
/// factor width separately).
///
/// The randomized engine appends one *residual* pseudo-entry (the energy
/// outside the sketch basis, which has no matching singular vector) at the
/// end of sigma_sq; the walk below then charges it to every candidate tail,
/// which is exactly the discarded energy of a sketched truncation.
template <class T>
blas::index_t select_rank(const std::vector<T>& sigma_sq,
                          double threshold_sq) {
  const auto k = static_cast<blas::index_t>(sigma_sq.size());
  if (k == 0) return 1;
  double tail = 0;
  blas::index_t r = k;
  // Walk from the smallest value: while adding sigma_{r-1}^2 keeps the tail
  // within budget, mode index r-1 can be discarded.
  while (r > 1) {
    tail += static_cast<double>(sigma_sq[static_cast<std::size_t>(r - 1)]);
    if (tail > threshold_sq) break;
    --r;
  }
  return r;
}

/// Truncates mode n given its SVD: records sigma = sqrt(sigma^2) in
/// `sigmas`, keeps rank R_n in `rank` (the fixed rank, or select_rank
/// against threshold_sq = spec.budget_sq(...), either clamped to the number
/// of computed vectors) and returns the factor, the leading R_n columns of
/// svd.u.
template <class T>
blas::Matrix<T> truncate_mode(const ModeSvd<T>& svd,
                              const TruncationSpec& spec, std::size_t n,
                              double threshold_sq, std::vector<T>& sigmas,
                              blas::index_t& rank) {
  sigmas.resize(svd.sigma_sq.size());
  for (std::size_t i = 0; i < sigmas.size(); ++i)
    sigmas[i] = std::sqrt(svd.sigma_sq[i]);
  rank = std::min(spec.is_fixed_rank()
                      ? spec.ranks[n]
                      : select_rank(svd.sigma_sq, threshold_sq),
                  svd.u.cols());
  blas::Matrix<T> u(svd.u.rows(), rank);
  blas::copy(blas::MatView<const T>(svd.u.view().block(0, 0, svd.u.rows(),
                                                        rank)),
             u.view());
  return u;
}

/// Guaranteed relative-error estimate from the discarded tail energies:
/// sqrt(sum_n sum_{i >= R_n} sigma_{n,i}^2) / ||X|| -- what ST-HOSVD can
/// certify without reconstructing (TuckerMPI reports the same bound).
/// Exact in exact arithmetic; in floating point it is as trustworthy as
/// the computed singular values (i.e. down to eps for QR-SVD and sqrt(eps)
/// for Gram-SVD, the paper's Sec 3.2).
template <class T>
double estimated_relative_error(
    const std::vector<std::vector<T>>& mode_sigmas,
    const std::vector<blas::index_t>& ranks, double norm_squared) {
  double tail = 0;
  for (std::size_t n = 0; n < mode_sigmas.size(); ++n) {
    const auto& sig = mode_sigmas[n];
    for (std::size_t i = static_cast<std::size_t>(ranks[n]); i < sig.size();
         ++i)
      tail += static_cast<double>(sig[i]) * static_cast<double>(sig[i]);
  }
  return norm_squared > 0 ? std::sqrt(tail / norm_squared) : 0.0;
}

}  // namespace tucker::core
