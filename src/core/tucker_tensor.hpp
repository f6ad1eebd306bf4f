#pragma once
// The Tucker decomposition object: core tensor + factor matrices.

#include <array>
#include <vector>

#include "blas/matrix.hpp"
#include "common/workspace.hpp"
#include "tensor/prepacked.hpp"
#include "tensor/tensor.hpp"
#include "tensor/ttm.hpp"

namespace tucker::core {

/// X ~ G x_0 U_0 x_1 U_1 ... x_{N-1} U_{N-1}, with G the core tensor
/// (R_0 x ... x R_{N-1}) and U_n the (I_n x R_n) factor matrices with
/// orthonormal columns.
template <class T>
struct TuckerTensor {
  tensor::Tensor<T> core;
  std::vector<blas::Matrix<T>> factors;

  tensor::Dims core_dims() const { return core.dims(); }

  tensor::Dims full_dims() const {
    tensor::Dims d(factors.size());
    for (std::size_t n = 0; n < factors.size(); ++n)
      d[n] = factors[n].rows();
    return d;
  }

  /// Number of parameters stored by the decomposition.
  blas::index_t parameter_count() const {
    blas::index_t p = core.size();
    for (const auto& u : factors) p += u.rows() * u.cols();
    return p;
  }

  /// Original elements / stored parameters (the paper's compression ratio).
  double compression_ratio() const {
    return static_cast<double>(tensor::num_elements(full_dims())) /
           static_cast<double>(parameter_count());
  }

  /// Expands the decomposition back to a full tensor: G x_n U_n over all
  /// modes, in working precision (roundoff here is part of the measured
  /// approximation error, as in the paper's accuracy tables).
  tensor::Tensor<T> reconstruct() const {
    tensor::Tensor<T> y = core;
    for (std::size_t n = 0; n < factors.size(); ++n)
      y = tensor::ttm(y, n, blas::MatView<const T>(factors[n].view()));
    return y;
  }

  /// Reconstructs only the sub-tensor given by per-mode index ranges
  /// [lo_n, hi_n) -- a TuckerMPI feature: extracting a region of interest
  /// costs only the region's share of the TTM work, never materializing the
  /// full tensor. Pass lo = hi = full range to reproduce reconstruct().
  tensor::Tensor<T> reconstruct_region(
      const std::vector<blas::index_t>& lo,
      const std::vector<blas::index_t>& hi) const {
    TUCKER_CHECK(lo.size() == factors.size() && hi.size() == factors.size(),
                 "reconstruct_region: one range per mode");
    tensor::Tensor<T> y = core;
    for (std::size_t n = 0; n < factors.size(); ++n) {
      TUCKER_CHECK(0 <= lo[n] && lo[n] <= hi[n] &&
                       hi[n] <= factors[n].rows(),
                   "reconstruct_region: range out of bounds");
      auto rows = factors[n].view().block(lo[n], 0, hi[n] - lo[n],
                                          factors[n].cols());
      y = tensor::ttm(y, n, blas::MatView<const T>(rows));
    }
    return y;
  }
};

/// Stages one PrepackedFactor per mode of tk: the per-model cache entry
/// the serving layer builds once at model registration and reuses across
/// every reconstruction request.
template <class T>
std::vector<tensor::PrepackedFactor<T>> prepack_factors(
    const TuckerTensor<T>& tk) {
  std::vector<tensor::PrepackedFactor<T>> packs(tk.factors.size());
  for (std::size_t n = 0; n < tk.factors.size(); ++n)
    packs[n].stage(tk.factors[n].cview());
  return packs;
}

/// Expands tk into a caller-owned tensor through the calling thread's
/// arena ping-pong scratch (stash key "core.reconstruct.pingpong") instead
/// of a fresh Tensor per mode: after a warm-up call the whole chain
/// performs zero heap allocation beyond growing `out` itself (grow-only,
/// so cycling the same `out` across requests is allocation-free too).
/// With `packs` (from prepack_factors) the tall-factor TTMs reuse the
/// cached micro-kernel panels and skip their per-call pack_a. Every
/// variant -- reconstruct(), packs/no packs, any thread width -- produces
/// bitwise-identical output (same TTM chain per element; DESIGN.md Sec 10).
template <class T>
void reconstruct_into(const TuckerTensor<T>& tk, tensor::Tensor<T>& out,
                      const std::vector<tensor::PrepackedFactor<T>>* packs =
                          nullptr) {
  const std::size_t nmodes = tk.factors.size();
  TUCKER_CHECK(packs == nullptr || packs->size() == nmodes,
               "reconstruct_into: one prepacked factor per mode");
  if (nmodes == 0) {
    out = tk.core;
    return;
  }
  auto& pp = Workspace::local().stash<std::array<tensor::Tensor<T>, 2>>(
      "core.reconstruct.pingpong");
  const tensor::Tensor<T>* src = &tk.core;
  int slot = 0;
  for (std::size_t n = 0; n < nmodes; ++n) {
    tensor::Tensor<T>* dst = (n + 1 == nmodes) ? &out : &pp[slot];
    if (packs != nullptr) {
      tensor::ttm_prepacked_into(*src, n, (*packs)[n], *dst);
    } else {
      tensor::ttm_into(*src, n, tk.factors[n].cview(), *dst);
    }
    src = dst;
    slot ^= 1;
  }
}

/// What one request of a fused reconstruction batch wants materialized:
/// either the whole tensor (empty lo/hi) or the half-open sub-box
/// [lo_n, hi_n) per mode (the reconstruct_region contract).
struct DemandBox {
  std::vector<blas::index_t> lo, hi;
  bool full() const { return lo.empty(); }
};

/// Copies the sub-box [lo, hi) out of a fully reconstructed tensor into
/// `out` (reshaped to the box dims). Pure data movement -- every copied
/// element keeps the exact bits the full chain produced, which is why the
/// batched serving path may answer a region request from a fused full
/// reconstruction.
template <class T>
void gather_region_into(const tensor::Tensor<T>& full,
                        const std::vector<blas::index_t>& lo,
                        const std::vector<blas::index_t>& hi,
                        tensor::Tensor<T>& out) {
  const std::size_t nmodes = full.order();
  TUCKER_CHECK(lo.size() == nmodes && hi.size() == nmodes,
               "gather_region_into: one range per mode");
  tensor::Dims box(nmodes);
  for (std::size_t n = 0; n < nmodes; ++n) {
    TUCKER_CHECK(0 <= lo[n] && lo[n] <= hi[n] && hi[n] <= full.dim(n),
                 "gather_region_into: range out of bounds");
    box[n] = hi[n] - lo[n];
  }
  out.reshape(box);
  if (out.size() == 0) return;
  if (nmodes == 0) {
    out.data()[0] = full.data()[0];
    return;
  }
  // Mode 0 is fastest-varying (TuckerMPI layout), so each run of
  // box[0] elements is contiguous in both tensors; odometer the modes
  // above it.
  const blas::index_t run = box[0];
  std::vector<blas::index_t> idx(nmodes, 0);  // box-relative, modes >= 1
  const blas::index_t nruns = out.size() / std::max<blas::index_t>(run, 1);
  const T* src = full.data();
  T* dst = out.data();
  for (blas::index_t r = 0; r < nruns; ++r) {
    blas::index_t off = lo[0];
    blas::index_t stride = full.dim(0);
    for (std::size_t n = 1; n < nmodes; ++n) {
      off += (lo[n] + idx[n]) * stride;
      stride *= full.dim(n);
    }
    for (blas::index_t i = 0; i < run; ++i) dst[i] = src[off + i];
    dst += run;
    for (std::size_t n = 1; n < nmodes; ++n) {
      if (++idx[n] < box[n]) break;
      idx[n] = 0;
    }
  }
}

namespace detail {

/// Persistent scratch of reconstruct_batch_into: one arena-independent
/// ping-pong pair per chain plus the per-mode grouping vectors, stashed on
/// the worker's Workspace so a steady stream of fused jobs performs no
/// heap allocation after warm-up (grow-only, like the solo path's stash).
template <class T>
struct BatchScratch {
  std::vector<std::array<tensor::Tensor<T>, 2>> pp;
  std::vector<const tensor::Tensor<T>*> srcs;
  std::vector<int> slots;
  std::vector<const tensor::Tensor<T>*> xs;
  std::vector<tensor::Tensor<T>*> ys;
};

}  // namespace detail

/// Reconstructs one demand box per chain through fused per-mode TTM
/// passes: at every mode, all chains whose box spans the mode's full range
/// go through a single multi-RHS prepacked pass (tensor::ttm_packed_multi_into
/// -- the factor panel streams through cache once for the whole batch),
/// while sliced chains apply their factor row-block exactly as
/// reconstruct_region does. Bitwise contract (the serving layer's hard
/// invariant): every full-box output equals reconstruct_into(tk, out,
/// packs) bit for bit, and every region output equals
/// reconstruct_region(lo, hi) bit for bit, regardless of batch
/// composition, chain order, or thread width.
template <class T>
void reconstruct_batch_into(const TuckerTensor<T>& tk,
                            const std::vector<DemandBox>& boxes,
                            const std::vector<tensor::Tensor<T>*>& outs,
                            const std::vector<tensor::PrepackedFactor<T>>*
                                packs = nullptr) {
  const std::size_t nmodes = tk.factors.size();
  const std::size_t nchains = boxes.size();
  TUCKER_CHECK(outs.size() == nchains,
               "reconstruct_batch_into: one output per box");
  TUCKER_CHECK(packs == nullptr || packs->size() == nmodes,
               "reconstruct_batch_into: one prepacked factor per mode");
  if (nchains == 0) return;
  if (nchains == 1 && boxes[0].full()) {
    // Delegate so a batch that degenerates to one full request walks the
    // identical scratch path (and arena watermark) as the unbatched one.
    reconstruct_into(tk, *outs[0], packs);
    return;
  }
  for (const auto& b : boxes) {
    if (b.full()) continue;
    TUCKER_CHECK(b.lo.size() == nmodes && b.hi.size() == nmodes,
                 "reconstruct_batch_into: one range per mode");
    for (std::size_t n = 0; n < nmodes; ++n)
      TUCKER_CHECK(0 <= b.lo[n] && b.lo[n] <= b.hi[n] &&
                       b.hi[n] <= tk.factors[n].rows(),
                   "reconstruct_batch_into: range out of bounds");
  }
  if (nmodes == 0) {
    for (std::size_t b = 0; b < nchains; ++b) *outs[b] = tk.core;
    return;
  }

  auto& sc = Workspace::local().stash<detail::BatchScratch<T>>(
      "core.reconstruct.batch");
  if (sc.pp.size() < nchains) sc.pp.resize(nchains);
  sc.srcs.assign(nchains, &tk.core);
  sc.slots.assign(nchains, 0);

  for (std::size_t n = 0; n < nmodes; ++n) {
    sc.xs.clear();
    sc.ys.clear();
    const blas::index_t rows_full = tk.factors[n].rows();
    for (std::size_t b = 0; b < nchains; ++b) {
      tensor::Tensor<T>* dst =
          (n + 1 == nmodes) ? outs[b] : &sc.pp[b][sc.slots[b]];
      const bool sliced =
          !boxes[b].full() &&
          (boxes[b].lo[n] != 0 || boxes[b].hi[n] != rows_full);
      if (sliced) {
        // Same sliced-factor TTM as reconstruct_region -- the chain must
        // reproduce its bits exactly.
        auto rows = tk.factors[n].view().block(
            boxes[b].lo[n], 0, boxes[b].hi[n] - boxes[b].lo[n],
            tk.factors[n].cols());
        tensor::ttm_into(*sc.srcs[b], n, blas::MatView<const T>(rows), *dst);
      } else {
        sc.xs.push_back(sc.srcs[b]);
        sc.ys.push_back(dst);
      }
      sc.srcs[b] = dst;
      sc.slots[b] ^= 1;
    }
    if (sc.xs.empty()) continue;
    if (packs != nullptr) {
      tensor::ttm_packed_multi_into(sc.xs, n, (*packs)[n], sc.ys);
    } else {
      for (std::size_t i = 0; i < sc.xs.size(); ++i)
        tensor::ttm_into(*sc.xs[i], n, tk.factors[n].cview(), *sc.ys[i]);
    }
  }
}

/// Normwise relative error ||x - xhat|| / ||x||, accumulated in double.
template <class T>
double relative_error(const tensor::Tensor<T>& x, const TuckerTensor<T>& tk) {
  tensor::Tensor<T> xhat = tk.reconstruct();
  TUCKER_CHECK(xhat.dims() == x.dims(), "relative_error: shape mismatch");
  double diff = 0, ref = 0;
  const T* a = x.data();
  const T* b = xhat.data();
  for (blas::index_t i = 0; i < x.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    diff += d * d;
    ref += static_cast<double>(a[i]) * static_cast<double>(a[i]);
  }
  return ref == 0 ? 0 : std::sqrt(diff / ref);
}

}  // namespace tucker::core
