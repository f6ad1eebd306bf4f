#pragma once
// Sequential ST-HOSVD (paper Alg 1), parameterized over the SVD engine
// (Gram-SVD / QR-SVD), working precision (T), truncation (tolerance or
// fixed ranks) and mode ordering.

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>
#include <vector>

#include "common/flops.hpp"
#include "common/workspace.hpp"
#include "core/svd_engine.hpp"
#include "core/truncation.hpp"
#include "core/tucker_tensor.hpp"
#include "tensor/tensor.hpp"
#include "tensor/ttm.hpp"

namespace tucker::core {

/// Mode processing orders considered in the paper (Sec 4.2.3): the data's
/// storage order, forward or backward.
inline std::vector<std::size_t> forward_order(std::size_t n) {
  std::vector<std::size_t> o(n);
  std::iota(o.begin(), o.end(), std::size_t{0});
  return o;
}

inline std::vector<std::size_t> backward_order(std::size_t n) {
  std::vector<std::size_t> o(n);
  for (std::size_t k = 0; k < n; ++k) o[k] = n - 1 - k;
  return o;
}

/// True iff `order` lists each mode of an nmodes-way tensor exactly once.
inline bool is_mode_order(const std::vector<std::size_t>& order,
                          std::size_t nmodes) {
  const std::vector<std::size_t> modes = forward_order(nmodes);
  return order.size() == nmodes &&
         std::is_permutation(order.begin(), order.end(), modes.begin());
}

/// The fail-fast checks every ST-HOSVD runs before its mode loop: a
/// fixed-rank spec names one rank per mode, and the order is a
/// permutation of the modes (the loops index ranks, dims and factors by
/// it).
inline void check_spec_and_order(const TruncationSpec& spec,
                                 const std::vector<std::size_t>& order,
                                 std::size_t nmodes) {
  TUCKER_CHECK(!spec.is_fixed_rank() || spec.ranks.size() == nmodes,
               "fixed-rank spec needs one rank per mode");
  TUCKER_CHECK(is_mode_order(order, nmodes),
               "order must be a permutation of the modes");
}

/// Modeled flops for processing one mode of the current (partially
/// truncated) tensor: the engine's SVD credit on the m x cols unfolding
/// (the exact per-kernel credits of flops.hpp) plus the 2*r*m*cols TTM
/// truncation gemms. The O(m^3) small dense solves (EVD / bidiagonal SVD)
/// are excluded: they are unfolding-width-independent and identical under
/// every ordering, so they cannot change an argmin over modes.
inline double modeled_mode_flops(index_t m, index_t cols, index_t r,
                                 SvdMethod method,
                                 const RandSvdOptions& ropt = {}) {
  double svd = 0;
  switch (method) {
    case SvdMethod::kGram:
      svd = static_cast<double>(flops::gram_unfolding(m, cols));
      break;
    case SvdMethod::kQr:
    case SvdMethod::kStream:  // QR-SVD on a resident tensor
      svd = static_cast<double>(flops::qr_svd_unfolding(m, cols));
      break;
    case SvdMethod::kRand: {
      const index_t guess = ropt.rank_guess > 0 ? ropt.rank_guess : r;
      const index_t w = std::min<index_t>(m, guess + ropt.oversample);
      svd = static_cast<double>(
          flops::gaussian_sketch(m, cols, w) +
          ropt.power_iters * flops::power_iteration(m, cols, w) +
          flops::projected_gram(m, cols, w));
      break;
    }
  }
  return svd + 2.0 * static_cast<double>(r) * m * cols;
}

/// Greedy mode order: at each step process the unprocessed mode whose
/// modeled SVD + TTM cost on the *current* (already truncated) dimensions
/// is smallest, then shrink that mode to its target rank. This is the
/// ordering heuristic of Minster/Li/Ballard (arXiv:2211.13028) driven by
/// the same flop credits the kernels record, replacing the earlier
/// R_n/I_n ratio sort (the two agree whenever SVD cost is negligible, but
/// the flop model also weighs the engine's own unfolding cost). Ties take
/// the lowest mode index, so an isotropic cube with equal ranks yields
/// forward order. Falls back to forward order when `ranks` does not name
/// one target rank per mode (tolerance runs with no estimate).
inline std::vector<std::size_t> greedy_order(
    const tensor::Dims& dims, const std::vector<index_t>& ranks,
    SvdMethod method = SvdMethod::kGram, const RandSvdOptions& ropt = {}) {
  const std::size_t nmodes = dims.size();
  std::vector<std::size_t> order(nmodes);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (ranks.size() != nmodes) return order;
  tensor::Dims cur = dims;
  std::vector<bool> done(nmodes, false);
  for (std::size_t pos = 0; pos < nmodes; ++pos) {
    std::size_t best = nmodes;
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t n = 0; n < nmodes; ++n) {
      if (done[n]) continue;
      index_t cols = 1;
      for (std::size_t j = 0; j < nmodes; ++j)
        if (j != n) cols *= cur[j];
      const index_t r = std::min(ranks[n], cur[n]);
      const double cost = modeled_mode_flops(cur[n], cols, r, method, ropt);
      if (cost < best_cost) {
        best_cost = cost;
        best = n;
      }
    }
    order[pos] = best;
    done[best] = true;
    cur[best] = std::min(ranks[best], cur[best]);
  }
  return order;
}

/// Total modeled flops of an ST-HOSVD sweep in the given order (the sum of
/// modeled_mode_flops along the shrinking tensor). What the ordering tests
/// and the tolerance benches report next to measured times.
inline double modeled_sthosvd_flops(const tensor::Dims& dims,
                                    const std::vector<index_t>& ranks,
                                    const std::vector<std::size_t>& order,
                                    SvdMethod method,
                                    const RandSvdOptions& ropt = {}) {
  TUCKER_CHECK(ranks.size() == dims.size(),
               "modeled_sthosvd_flops: need one rank per mode");
  TUCKER_CHECK(is_mode_order(order, dims.size()),
               "modeled_sthosvd_flops: order must be a permutation of the "
               "modes");
  tensor::Dims cur = dims;
  double total = 0;
  for (std::size_t n : order) {
    index_t cols = 1;
    for (std::size_t j = 0; j < dims.size(); ++j)
      if (j != n) cols *= cur[j];
    const index_t r = std::min(ranks[n], cur[n]);
    total += modeled_mode_flops(cur[n], cols, r, method, ropt);
    cur[n] = r;
  }
  return total;
}

/// Driver options beyond the truncation spec. An explicit `order` wins;
/// otherwise `auto_order` picks the greedy cost-model order (fixed-rank
/// specs use their target ranks, tolerance specs use `rank_estimates` or a
/// dim/8 guess -- the same default the randomized engine sketches with).
/// Both the sequential and the simmpi driver resolve the order from the
/// *global* dimensions, so they always agree on it.
struct SthosvdOptions {
  std::vector<std::size_t> order;
  bool auto_order = false;
  std::vector<index_t> rank_estimates;
  RandSvdOptions rand;
};

inline std::vector<std::size_t> resolve_order(const tensor::Dims& dims,
                                              const TruncationSpec& spec,
                                              SvdMethod method,
                                              const SthosvdOptions& opt) {
  if (!opt.order.empty()) return opt.order;
  if (!opt.auto_order) return forward_order(dims.size());
  std::vector<index_t> est;
  if (spec.is_fixed_rank()) {
    est = spec.ranks;
  } else if (opt.rank_estimates.size() == dims.size()) {
    est = opt.rank_estimates;
  } else {
    est.resize(dims.size());
    for (std::size_t n = 0; n < dims.size(); ++n)
      est[n] = std::max<index_t>(1, dims[n] / 8);
  }
  return greedy_order(dims, est, method, opt.rand);
}

template <class T>
struct SthosvdResult {
  TuckerTensor<T> tucker;
  /// Per mode (indexed by mode, not processing position): computed singular
  /// values of that mode's unfolding at the time it was processed.
  std::vector<std::vector<T>> mode_sigmas;
  /// Selected rank per mode.
  std::vector<blas::index_t> ranks;
  /// Mode processing order used.
  std::vector<std::size_t> order;
  /// ||X||^2 of the input (used for the truncation threshold).
  double norm_squared = 0;

  /// Certified bound from the discarded tails; see the free
  /// core::estimated_relative_error in truncation.hpp.
  double estimated_relative_error() const {
    return core::estimated_relative_error(mode_sigmas, ranks, norm_squared);
  }
};

/// One mode of Alg 1 on a resident tensor: the engine's SVD of y's mode-n
/// unfolding, truncate_mode, and Y x_n U^T into `next`. sthosvd and the
/// resident finish of stream_sthosvd both run it, so they agree bit for
/// bit. `known_norm_sq` is y.norm_squared() when the caller holds it (see
/// rand_svd).
template <class T>
void sthosvd_mode(const tensor::Tensor<T>& y, std::size_t n,
                  const TruncationSpec& spec, SvdMethod method,
                  double threshold_sq, const RandSvdOptions& ropt,
                  SthosvdResult<T>& out, tensor::Tensor<T>& next,
                  const double* known_norm_sq = nullptr) {
  // The randomized engine needs the truncation context (target rank or
  // energy budget) to size its sketch; Gram/QR ignore the extras.
  const ModeSvd<T> svd = mode_svd(
      y, n, method, spec.is_fixed_rank() ? spec.ranks[n] : index_t{0},
      threshold_sq, ropt, known_norm_sq);
  blas::Matrix<T> u = truncate_mode(svd, spec, n, threshold_sq,
                                    out.mode_sigmas[n], out.ranks[n]);
  tensor::ttm_into(y, n, blas::MatView<const T>(u.view().t()), next);
  out.tucker.factors[n] = std::move(u);
}

/// Runs ST-HOSVD on x. `order` may be empty (forward). In tolerance mode
/// the result satisfies ||X - Xhat|| <= eps ||X|| up to the numerical
/// accuracy of the chosen SVD engine -- which is the paper's entire story.
template <class T>
SthosvdResult<T> sthosvd(const tensor::Tensor<T>& x,
                         const TruncationSpec& spec, SvdMethod method,
                         std::vector<std::size_t> order = {},
                         const RandSvdOptions& ropt = {},
                         Accum = Accum::kNative) {
  const std::size_t nmodes = x.order();
  if (order.empty()) order = forward_order(nmodes);
  check_spec_and_order(spec, order, nmodes);

  SthosvdResult<T> out;
  out.order = order;
  out.mode_sigmas.resize(nmodes);
  out.ranks.assign(nmodes, 0);
  out.norm_squared = x.norm_squared();
  out.tucker.factors.resize(nmodes);
  const double threshold_sq = spec.budget_sq(out.norm_squared, nmodes);

  // The truncation chain ping-pongs between two stashed scratch tensors
  // (mode k reads the output of mode k-1), so repeated sthosvd calls reuse
  // the same two allocations and never copy the input tensor.
  auto& pp = Workspace::local().stash<std::array<tensor::Tensor<T>, 2>>(
      "core.sthosvd.pingpong");
  const tensor::Tensor<T>* ycur = &x;
  std::size_t slot = 0;
  for (std::size_t n : order) {
    // The first mode's tensor is x, whose norm is already known.
    sthosvd_mode(*ycur, n, spec, method, threshold_sq, ropt, out, pp[slot],
                 ycur == &x ? &out.norm_squared : nullptr);
    ycur = &pp[slot];
    slot ^= 1;
  }
  // Copy (not move) the final slot so the stashed scratch stays warm for
  // the next call.
  out.tucker.core = *ycur;
  return out;
}

/// Options-struct entry point: resolves the mode order (explicit >
/// auto_order greedy > forward) and runs sthosvd. The chosen order is
/// recorded in SthosvdResult::order either way.
template <class T>
SthosvdResult<T> sthosvd(const tensor::Tensor<T>& x,
                         const TruncationSpec& spec, SvdMethod method,
                         const SthosvdOptions& opt) {
  return sthosvd(x, spec, method, resolve_order(x.dims(), spec, method, opt),
                 opt.rand);
}

}  // namespace tucker::core
