#pragma once
// Parallel ST-HOSVD (paper Sec 3.4): the sequential driver with every
// kernel replaced by its distributed counterpart. Factor matrices and the
// computed singular values end up replicated on every rank (the Gram
// matrix / triangular factor is reduced to all ranks, and the small
// EVD/SVD runs redundantly); the core tensor keeps the input's block
// distribution. Compute regions are tagged per mode ("mode2/LQ",
// "mode2/SVD", "mode2/TTM") so the harness can print the paper's
// time-breakdown plots from the slowest rank.
//
// OverlapOptions::enabled switches to the overlapped schedule: piecewise
// nonblocking Gram allreduces, the direct-exchange TTM reduce-scatter, and
// -- for SvdMethod::kRand -- windowed mode-parallel sketching where up to
// mode_window modes dispatch their sketch reductions before any of them
// finalizes, with the finalize order picked by a replicated
// modeled-readiness schedule (the PR 5 greedy cost order decides window
// membership; the cost model decides who inside a window goes first).
// With mode_window == 1 every method's overlapped results are
// bitwise-identical to the blocking schedule.

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
  /// Modes in the order they were actually processed (the windowed
  /// scheduler may finalize within a window out of dispatch order).
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

namespace detail {

/// Replicated modeled-readiness schedule of a sketch window: dispatch i's
/// slice reduction is modeled to complete after the (serialized) sketch
/// compute of dispatches 0..i plus its own allreduce; finalize in
/// ascending completion order, ties by dispatch order. Every input is a
/// global quantity (dims, grid, cost model), so all ranks compute the
/// identical schedule without communicating -- measured times would make
/// the schedule, and therefore the collective order, rank-dependent.
template <class T>
std::vector<std::size_t> sketch_finalize_schedule(
    const dist::DistTensor<T>& ysrc, const std::vector<std::size_t>& order,
    std::size_t pos, std::size_t nwin, const TruncationSpec& spec,
    const RandSvdOptions& ropt) {
  const mpi::CostModel& model = ysrc.world().model();
  const auto np = static_cast<double>(ysrc.world().size());
  std::vector<std::pair<double, std::size_t>> ready(nwin);
  double t = 0;
  for (std::size_t i = 0; i < nwin; ++i) {
    const std::size_t n = order[pos + i];
    const index_t m = ysrc.global_dim(n);
    index_t cols = 1;
    for (std::size_t k = 0; k < ysrc.order(); ++k)
      if (k != n) cols *= ysrc.global_dim(k);
    if (m == 0 || cols == 0) {
      ready[i] = {t, i};
      continue;
    }
    const index_t cap = std::min(m, cols);
    const index_t os = std::max<index_t>(ropt.oversample, 0);
    index_t w;
    if (spec.is_fixed_rank()) {
      w = std::min(cap, spec.ranks[n] + os);
    } else {
      const index_t guess =
          ropt.rank_guess > 0 ? ropt.rank_guess : std::max<index_t>(8, m / 8);
      w = std::min(cap, guess + os);
    }
    w = std::max<index_t>(w, 1);
    t += static_cast<double>(flops::gaussian_sketch(m, cols, w)) /
         (np * model.flop_rate);
    const index_t pn = ysrc.grid().dim(n);
    const index_t mloc = (m + pn - 1) / pn;
    const auto bytes = static_cast<std::int64_t>(
        mloc * w * static_cast<index_t>(sizeof(T)));
    const int pslice = std::max(1, ysrc.world().size() / static_cast<int>(pn));
    ready[i] = {t + model.allreduce_cost(pslice, bytes), i};
  }
  std::stable_sort(ready.begin(), ready.end(),
                   [](const std::pair<double, std::size_t>& a,
                      const std::pair<double, std::size_t>& b) {
                     return a.first < b.first;
                   });
  std::vector<std::size_t> sched(nwin);
  for (std::size_t i = 0; i < nwin; ++i) sched[i] = ready[i].second;
  return sched;
}

}  // namespace detail

/// Collective over x.world(). `order` empty = forward. `ropt` configures
/// the randomized engine (ignored by Gram/QR); `ov` the overlapped
/// schedule (see OverlapOptions).
template <class T>
ParSthosvdResult<T> par_sthosvd(const dist::DistTensor<T>& x,
                                const TruncationSpec& spec, SvdMethod method,
                                std::vector<std::size_t> order = {},
                                const RandSvdOptions& ropt = {},
                                const OverlapOptions& ov = {},
                                Accum accum = Accum::kNative) {
  const std::size_t nmodes = x.order();
  mpi::Comm& world = x.world();
  if (order.empty()) order = forward_order(nmodes);
  check_spec_and_order(spec, order, nmodes);
  const bool overlap = ov.enabled;
  const std::size_t window =
      (overlap && method == SvdMethod::kRand)
          ? static_cast<std::size_t>(std::max<index_t>(1, ov.mode_window))
          : 1;

  double norm_sq;
  {
    auto rg = world.region("norm");
    norm_sq = x.norm_squared();
  }
  const double threshold_sq = spec.budget_sq(norm_sq, nmodes);

  // The truncation chain cycles through data-less clones of the input so
  // each slot's local allocation is reused and the input is never copied.
  // Two slots ping-pong in the mode-serial schedule; the windowed schedule
  // needs a third so the frozen window-source tensor stays intact while
  // the chain advances past it (an unused slot never allocates).
  std::vector<dist::DistTensor<T>> slots;
  slots.reserve(3);
  for (int s = 0; s < 3; ++s) slots.push_back(x.empty_clone());
  const dist::DistTensor<T>* ycur = &x;
  int cur = -1;  // slot index holding *ycur; -1 = the input
  auto next_slot = [](int cur_slot, int frozen_slot) {
    for (int s = 0; s < 3; ++s)
      if (s != cur_slot && s != frozen_slot) return s;
    return 0;  // unreachable: three slots, two exclusions
  };

  std::vector<blas::Matrix<T>> factors(nmodes);
  std::vector<std::vector<T>> mode_sigmas(nmodes);
  std::vector<blas::index_t> ranks(nmodes, 0);
  std::vector<std::size_t> actual_order;
  actual_order.reserve(nmodes);

  // Truncates *ycur along mode n by its SVD and advances the chain,
  // keeping slot `frozen` untouched.
  auto truncate = [&](std::size_t n, const ModeSvd<T>& svd, int frozen) {
    const std::string label = "mode" + std::to_string(n);
    blas::Matrix<T> un = truncate_mode(svd, spec, n, threshold_sq,
                                       mode_sigmas[n], ranks[n]);
    const int dst = next_slot(cur, frozen);
    {
      auto rg = world.region(label + "/TTM");
      dist::par_ttm_truncate_into(*ycur, n, blas::MatView<const T>(un.view()),
                                  slots[static_cast<std::size_t>(dst)],
                                  overlap, accum);
      world.sync_cpu_clock();
    }
    ycur = &slots[static_cast<std::size_t>(dst)];
    cur = dst;
    factors[n] = std::move(un);
    actual_order.push_back(n);
  };

  std::size_t pos = 0;
  while (pos < nmodes) {
    if (overlap && method == SvdMethod::kRand) {
      // Windowed mode-parallel sketching: dispatch the next `nwin` modes'
      // sketch reductions from the frozen window source, then finalize in
      // modeled-readiness order, truncating the chain as each mode lands.
      // nwin == 1 issues the exact collective sequence of the blocking
      // path (bitwise-identical results); nwin > 1 sketches later window
      // members against the not-yet-truncated source (the mode-parallel
      // randomized variant).
      const std::size_t nwin = std::min(window, nmodes - pos);
      const dist::DistTensor<T>& ysrc = *ycur;
      const int src_slot = cur;
      // One norm allreduce for the whole window: every member sketches the
      // same frozen source, and a per-dispatch blocking allreduce would
      // serialize the posted sketch reductions.
      double src_norm_sq;
      {
        auto rg = world.region("norm");
        src_norm_sq = ysrc.norm_squared();
      }
      std::vector<dist::ModeSketchState<T>> sk(nwin);
      for (std::size_t i = 0; i < nwin; ++i) {
        const std::size_t n = order[pos + i];
        dist::dispatch_mode_sketch(
            ysrc, n, spec.is_fixed_rank() ? spec.ranks[n] : index_t{0},
            threshold_sq, ropt.oversample, ropt.power_iters, ropt.seed,
            ropt.rank_guess, "mode" + std::to_string(n), /*nonblocking=*/true,
            sk[i], &src_norm_sq, accum);
      }
      const std::vector<std::size_t> sched =
          detail::sketch_finalize_schedule(ysrc, order, pos, nwin, spec, ropt);
      for (std::size_t i : sched)
        truncate(order[pos + i], dist::finalize_mode_sketch(ysrc, sk[i]),
                 src_slot);
      pos += nwin;
      continue;
    }

    const std::size_t n = order[pos++];
    const std::string label = "mode" + std::to_string(n);
    const dist::DistTensor<T>& y = *ycur;

    // SVD of the unfolding: squared singular values + left vectors,
    // identical on every rank.
    ModeSvd<T> svd;
    if (method == SvdMethod::kGram) {
      blas::Matrix<T> g(0, 0);
      {
        auto rg = world.region(label + "/Gram");
        g = dist::par_gram(y, n, overlap ? ov.gram_pieces : index_t{1},
                           accum);
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
          ropt.rank_guess, label, accum);
    } else {
      // kQr and kStream both land here: the distributed butterfly TSQR of
      // par_tensor_lq *is* a hierarchical triangle merge (the same tplqt
      // reduction SvdMethod::kStream runs over trailing-mode chunks), so
      // the streaming method needs no separate distributed code path.
      blas::Matrix<T> l(0, 0);
      {
        auto rg = world.region(label + "/LQ");
        l = dist::par_tensor_lq(y, n);
      }
      auto rg = world.region(label + "/SVD");
      svd = svd_of_l(std::move(l), SmallSvdBackend::kAuto);
      world.sync_cpu_clock();
    }
    truncate(n, svd, /*frozen=*/-1);
  }

  dist::DistTensor<T> core =
      ycur == &x ? x.clone()
                 : std::move(slots[static_cast<std::size_t>(cur)]);
  return ParSthosvdResult<T>{std::move(factors), std::move(core),
                             std::move(mode_sigmas), std::move(ranks),
                             std::move(actual_order), norm_sq};
}

/// Options-struct entry point: resolves the mode order from the *global*
/// dimensions with the same resolve_order as the sequential driver, so a
/// sequential run and a simmpi run of the same problem always process
/// modes in the same order (auto_order included). Overlap options ride
/// along (SthosvdOptions::overlap).
template <class T>
ParSthosvdResult<T> par_sthosvd(const dist::DistTensor<T>& x,
                                const TruncationSpec& spec, SvdMethod method,
                                const SthosvdOptions& opt) {
  return par_sthosvd(x, spec, method,
                     resolve_order(x.global_dims(), spec, method, opt),
                     opt.rand, opt.overlap, opt.accum);
}

}  // namespace tucker::core
