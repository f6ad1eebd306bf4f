#pragma once
// Parallel ST-HOSVD (paper Sec 3.4): the sequential driver with every
// kernel replaced by its distributed counterpart. Factor matrices and the
// computed singular values end up replicated on every rank (the Gram
// matrix / triangular factor is reduced to all ranks, and the small
// EVD/SVD runs redundantly); the core tensor keeps the input's block
// distribution. Compute regions are tagged per mode ("mode2/LQ",
// "mode2/SVD", "mode2/TTM") so the harness can print the paper's
// time-breakdown plots from the slowest rank.

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/sthosvd.hpp"
#include "dist/par_kernels.hpp"

namespace tucker::core {

template <class T>
struct ParSthosvdResult {
  /// Factor matrices, replicated on all ranks.
  std::vector<blas::Matrix<T>> factors;
  /// Core tensor, block-distributed like the input.
  dist::DistTensor<T> core;
  /// Per-mode computed singular values (replicated).
  std::vector<std::vector<T>> mode_sigmas;
  std::vector<blas::index_t> ranks;
  /// The resolved mode order, in which the modes were processed.
  std::vector<std::size_t> order;
  double norm_squared = 0;

  /// Certified bound from the discarded tails, identical on every rank;
  /// see the free core::estimated_relative_error in truncation.hpp.
  double estimated_relative_error() const {
    return core::estimated_relative_error(mode_sigmas, ranks, norm_squared);
  }

  /// Assembles a sequential TuckerTensor on rank 0 (rank 0 only; other
  /// ranks receive an empty core). Collective.
  TuckerTensor<T> gather_to_root() const {
    TuckerTensor<T> tk;
    tk.core = core.gather_to_root();
    tk.factors = factors;
    return tk;
  }
};

/// Collective over x.world(). `order` empty = forward. `ropt` configures
/// the randomized engine (ignored by Gram/QR).
template <class T>
ParSthosvdResult<T> par_sthosvd(const dist::DistTensor<T>& x,
                                const TruncationSpec& spec, SvdMethod method,
                                std::vector<std::size_t> order = {},
                                const RandSvdOptions& ropt = {}) {
  const std::size_t nmodes = x.order();
  mpi::Comm& world = x.world();
  if (order.empty()) order = forward_order(nmodes);
  check_spec_and_order(spec, order, nmodes);

  double norm_sq;
  {
    auto rg = world.region("norm");
    norm_sq = x.norm_squared();
  }
  const double threshold_sq = spec.budget_sq(norm_sq, nmodes);

  // The truncation chain ping-pongs between two data-less clones of the
  // input so each slot's local allocation is reused and the input is never
  // copied.
  dist::DistTensor<T> slots[2] = {x.empty_clone(), x.empty_clone()};
  const dist::DistTensor<T>* ycur = &x;
  int cur = -1;  // slot index holding *ycur; -1 = the input

  std::vector<blas::Matrix<T>> factors(nmodes);
  std::vector<std::vector<T>> mode_sigmas(nmodes);
  std::vector<blas::index_t> ranks(nmodes, 0);

  for (std::size_t n : order) {
    const std::string label = "mode" + std::to_string(n);
    const dist::DistTensor<T>& y = *ycur;

    // SVD of the unfolding: squared singular values + left vectors,
    // identical on every rank.
    ModeSvd<T> svd;
    if (method == SvdMethod::kGram) {
      blas::Matrix<T> g(0, 0);
      {
        auto rg = world.region(label + "/Gram");
        g = dist::par_gram(y, n);
      }
      auto rg = world.region(label + "/EVD");
      svd = svd_of_gram(g);
      world.sync_cpu_clock();
    } else if (method == SvdMethod::kRand) {
      // par_rand_svd opens its own label+"/Sketch" and label+"/SVD"
      // regions (the adaptive loop interleaves the two phases).
      svd = dist::par_rand_svd(
          y, n, spec.is_fixed_rank() ? spec.ranks[n] : index_t{0},
          threshold_sq, ropt.oversample, ropt.power_iters, ropt.seed,
          ropt.rank_guess, label);
    } else {
      // kQr and kStream both land here: the distributed butterfly TSQR of
      // par_tensor_lq *is* a hierarchical triangle merge (the same tplqt
      // reduction the out-of-core driver runs over trailing-mode slabs).
      blas::Matrix<T> l(0, 0);
      {
        auto rg = world.region(label + "/LQ");
        l = dist::par_tensor_lq(y, n);
      }
      auto rg = world.region(label + "/SVD");
      svd = svd_of_l(std::move(l), SmallSvdBackend::kAuto);
      world.sync_cpu_clock();
    }

    blas::Matrix<T> un = truncate_mode(svd, spec, n, threshold_sq,
                                       mode_sigmas[n], ranks[n]);
    const int dst = cur == 0 ? 1 : 0;
    {
      auto rg = world.region(label + "/TTM");
      dist::par_ttm_truncate_into(y, n, blas::MatView<const T>(un.view()),
                                  slots[dst]);
      world.sync_cpu_clock();
    }
    ycur = &slots[dst];
    cur = dst;
    factors[n] = std::move(un);
  }

  dist::DistTensor<T> core = cur < 0 ? x.clone() : std::move(slots[cur]);
  return ParSthosvdResult<T>{std::move(factors), std::move(core),
                             std::move(mode_sigmas), std::move(ranks),
                             std::move(order), norm_sq};
}

/// Options-struct entry point: resolves the mode order from the *global*
/// dimensions with the same resolve_order as the sequential driver, so a
/// sequential run and a simmpi run of the same problem always process
/// modes in the same order (auto_order included).
template <class T>
ParSthosvdResult<T> par_sthosvd(const dist::DistTensor<T>& x,
                                const TruncationSpec& spec, SvdMethod method,
                                const SthosvdOptions& opt) {
  return par_sthosvd(x, spec, method,
                     resolve_order(x.global_dims(), spec, method, opt),
                     opt.rand);
}

}  // namespace tucker::core
