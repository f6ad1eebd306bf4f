#pragma once
// Admission control for the serving layer: price every request in modeled
// flops and bytes *before* it enters the queue, and bound the total
// modeled work in flight.
//
// The prices come from the same ledgers the kernels themselves credit --
// core::modeled_sthosvd_flops for compression and the per-mode TTM-chain
// formula for reconstruction, with byte traffic from flops::gemm_bytes --
// so a budget set via ServeOptions::flop_budget speaks the same unit as the
// flop counters the benches report. mpi::CostModel converts a price into
// modeled seconds when a wall-clock-flavored figure is wanted.
//
// Policy (AdmissionController): a request is admitted when its modeled
// flops fit under the budget alongside everything already in flight
// (queued or executing). A request larger than the whole budget is
// admitted only when nothing is in flight -- shedding it unconditionally
// would starve it forever, and one oversized tenant running alone is
// exactly the backlog bound the budget is there to enforce. Budget 0
// disables the check (every request admitted).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/flops.hpp"
#include "core/sthosvd.hpp"
#include "simmpi/cost_model.hpp"
#include "tensor/tensor.hpp"

namespace tucker::serve {

using blas::index_t;

/// Modeled price of one request: flops executed and bytes streamed.
struct RequestCost {
  double flops = 0;
  double bytes = 0;

  /// Alpha-beta-gamma seconds under `cm` (flop_cost + per-byte beta; no
  /// alpha term -- serving requests move no messages).
  double modeled_seconds(const mpi::CostModel& cm = {}) const {
    return cm.flop_cost(static_cast<std::int64_t>(flops)) + cm.beta * bytes;
  }
};

/// Price of a compress request on a tensor of shape `dims`. Uses the same
/// rank figures resolve_order does: fixed-rank specs price their target
/// ranks, tolerance specs use opt.rank_estimates or the dim/8 default the
/// randomized engine sketches with. Bytes charge each mode's SVD-engine
/// pass plus its truncation TTM over the progressively truncated tensor.
inline RequestCost compress_cost(const tensor::Dims& dims,
                                 const core::TruncationSpec& spec,
                                 core::SvdMethod method,
                                 const core::SthosvdOptions& opt,
                                 std::size_t word) {
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
  const auto order = core::resolve_order(dims, spec, method, opt);

  RequestCost c;
  c.flops = core::modeled_sthosvd_flops(dims, est, order, method, opt.rand);
  tensor::Dims cur = dims;
  for (std::size_t n : order) {
    index_t cols = 1;
    for (std::size_t j = 0; j < dims.size(); ++j)
      if (j != n) cols *= cur[j];
    const index_t r = std::min(est[n], cur[n]);
    c.bytes += static_cast<double>(
        flops::gemm_bytes(cur[n], cols, cur[n], word));  // engine pass
    c.bytes += static_cast<double>(
        flops::gemm_bytes(r, cols, cur[n], word));  // truncation TTM
    cur[n] = r;
  }
  return c;
}

/// Price of a full reconstruction: one TTM per mode with the tensor
/// growing from core_dims to full_dims (the serving fast path's exact
/// schedule, and reconstruct()'s too -- the fast path changes constants,
/// not the flop count).
inline RequestCost reconstruct_cost(const tensor::Dims& core_dims,
                                    const tensor::Dims& full_dims,
                                    std::size_t word) {
  RequestCost c;
  tensor::Dims cur = core_dims;
  for (std::size_t n = 0; n < core_dims.size(); ++n) {
    index_t cols = 1;
    for (std::size_t j = 0; j < cur.size(); ++j)
      if (j != n) cols *= cur[j];
    c.flops += 2.0 * static_cast<double>(full_dims[n]) *
               static_cast<double>(cur[n]) * static_cast<double>(cols);
    c.bytes += static_cast<double>(
        flops::gemm_bytes(full_dims[n], cols, cur[n], word));
    cur[n] = full_dims[n];
  }
  return c;
}

/// Price of a region reconstruction over the half-open box [lo, hi): the
/// same per-mode TTM chain as reconstruct_cost, but each mode expands only
/// to its requested row range (the factor is sliced before the TTM, so the
/// intermediate never grows past the box -- exactly what
/// TuckerTensor::reconstruct_region and the batched region chains execute).
inline RequestCost region_cost(const tensor::Dims& core_dims,
                               const std::vector<index_t>& lo,
                               const std::vector<index_t>& hi,
                               std::size_t word) {
  RequestCost c;
  tensor::Dims cur = core_dims;
  for (std::size_t n = 0; n < core_dims.size(); ++n) {
    index_t cols = 1;
    for (std::size_t j = 0; j < cur.size(); ++j)
      if (j != n) cols *= cur[j];
    const index_t rows = hi[n] - lo[n];
    c.flops += 2.0 * static_cast<double>(rows) *
               static_cast<double>(cur[n]) * static_cast<double>(cols);
    c.bytes += static_cast<double>(
        flops::gemm_bytes(rows, cols, cur[n], word));
    cur[n] = rows;
  }
  return c;
}

/// Tracks modeled flops in flight and sheds requests that would exceed the
/// budget. Thread-safe; release() must be called exactly once per admitted
/// request (the service does it when the worker finishes).
class AdmissionController {
 public:
  explicit AdmissionController(double flop_budget) : budget_(flop_budget) {}

  bool try_admit(const RequestCost& c) {
    std::lock_guard<std::mutex> lk(mu_);
    if (budget_ > 0 && in_flight_ > 0 && in_flight_ + c.flops > budget_) {
      ++shed_;
      return false;
    }
    in_flight_ += c.flops;
    ++admitted_;
    return true;
  }

  void release(const RequestCost& c) {
    std::lock_guard<std::mutex> lk(mu_);
    in_flight_ = std::max(0.0, in_flight_ - c.flops);
  }

  double budget() const { return budget_; }
  double in_flight_flops() const {
    std::lock_guard<std::mutex> lk(mu_);
    return in_flight_;
  }
  std::uint64_t admitted() const {
    std::lock_guard<std::mutex> lk(mu_);
    return admitted_;
  }
  std::uint64_t shed() const {
    std::lock_guard<std::mutex> lk(mu_);
    return shed_;
  }

 private:
  mutable std::mutex mu_;
  double budget_;
  double in_flight_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t shed_ = 0;
};

}  // namespace tucker::serve
