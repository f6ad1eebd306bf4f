#pragma once
// Prepacked factor matrices: the per-model cache behind the serving
// layer's TTM-only reconstruction fast path.
//
// Reconstructing a Tucker model (core x_0 U_0 ... x_{N-1} U_{N-1}) applies
// the same tall factor matrices to every request. The packed TTM engine
// stages each factor into the micro-kernel A-panel layout on every call
// (pack_a inside ttm_packed_into); for a served model that staging is pure
// rework -- the factors never change between requests. A PrepackedFactor
// performs the staging exactly once, and ttm_packed_multi_into feeds the
// cached panel to the same block sweep the packed engine runs
// (detail::ttm_tall_from_panel_multi), so the fast path is bitwise
// identical to ttm_into at every thread width -- it only skips the
// per-call pack.
//
// Shapes the panel cannot serve fall back to ttm_into on the plain copy:
// mode 0 (column-major unfolding; tall factors take the transposed-gemm
// reference path) and short-fat factors (R <= kTtmAxpyMaxR, whose
// packing-free kernels re-stage a tiny R x k tile per call by design).
// Reconstruction factors are tall (I_n >= R_n), so for any model worth
// serving every mode n >= 1 hits the cached panel.

#include <span>
#include <type_traits>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/matrix.hpp"
#include "common/check.hpp"
#include "tensor/ttm.hpp"

namespace tucker::tensor {

using blas::index_t;

/// A factor matrix staged once for repeated TTM application: a plain
/// row-major copy plus, for tall factors, the micro-kernel A panel that
/// pack_a would otherwise rebuild per call.
template <class T>
class PrepackedFactor {
 public:
  PrepackedFactor() = default;
  explicit PrepackedFactor(blas::MatView<const T> u) { stage(u); }

  void stage(blas::MatView<const T> u) {
    plain_ = blas::Matrix<T>::from(u);
    panel_.clear();
    if (plain_.rows() > blas::detail::kTtmAxpyMaxR) {
      panel_.resize(static_cast<std::size_t>(
          blas::detail::prepacked_a_elems(plain_.rows(), plain_.cols())));
      blas::detail::pack_a(plain_.cview(), 0, plain_.rows(), 0, plain_.cols(),
                           T(1), panel_.data());
    }
  }

  bool staged() const { return plain_.rows() > 0 && plain_.cols() > 0; }
  index_t rows() const { return plain_.rows(); }
  index_t cols() const { return plain_.cols(); }
  blas::MatView<const T> plain() const { return plain_.cview(); }
  /// The staged A panel, or nullptr for short-fat factors.
  const T* panel() const { return panel_.empty() ? nullptr : panel_.data(); }
  /// Bytes held by the cache entry (reported by the serving stats).
  std::size_t bytes() const {
    return (static_cast<std::size_t>(plain_.rows() * plain_.cols()) +
            panel_.size()) *
           sizeof(T);
  }

 private:
  blas::Matrix<T> plain_;
  std::vector<T> panel_;
};

/// Batched Y_i = X_i x_n U for a whole group of right-hand sides against
/// one staged factor: the multi-RHS kernel of the batched serving path.
/// The X_i may differ in every dimension except mode n (region chains
/// fused with full chains); each Y_i is reshaped in place like ttm_into.
/// Bitwise identical, per item, to ttm_into(*xs[i], n, pf.plain(), *ys[i])
/// at every thread width and for every batch composition -- the
/// fused sweep only re-partitions work units, never per-element
/// accumulation chains. Shapes the cached panel cannot serve (mode 0, no
/// panel) fall back to ttm_into per item. A span of one item allocates
/// nothing beyond what ttm_into would.
template <class T>
void ttm_packed_multi_into(
    std::type_identity_t<std::span<const Tensor<T>* const>> xs, std::size_t n,
    const PrepackedFactor<T>& pf,
    std::type_identity_t<std::span<Tensor<T>* const>> ys) {
  TUCKER_CHECK(pf.staged(), "ttm_packed_multi_into: factor not staged");
  TUCKER_CHECK(xs.size() == ys.size(),
               "ttm_packed_multi_into: xs/ys size mismatch");
  if (n == 0 || pf.panel() == nullptr) {
    for (std::size_t i = 0; i < xs.size(); ++i)
      ttm_into(*xs[i], n, pf.plain(), *ys[i]);
    return;
  }
  for (std::size_t i = 0; i < xs.size(); ++i) {
    TUCKER_CHECK(n < xs[i]->order(), "ttm: mode out of range");
    TUCKER_CHECK(pf.cols() == xs[i]->dim(n), "ttm: inner dimension mismatch");
    TUCKER_CHECK(xs[i] != ys[i],
                 "ttm_packed_multi_into: x and y must be distinct");
    ys[i]->reshape_mode_of(*xs[i], n, pf.rows());
  }
  detail::ttm_tall_from_panel_multi<T>(xs, n, pf.panel(), pf.rows(),
                                       pf.cols(), ys);
}

/// Y = X x_n U from a factor staged in a PrepackedFactor: the one-item
/// ttm_packed_multi_into. Bitwise identical to ttm_into(x, n, pf.plain(),
/// y) at every thread width; when the cached panel applies (mode n >= 1,
/// tall factor) the per-call pack_a is skipped -- the entire point of the
/// cache.
template <class T>
void ttm_prepacked_into(const Tensor<T>& x, std::size_t n,
                        const PrepackedFactor<T>& pf, Tensor<T>& y) {
  const Tensor<T>* xp = &x;
  Tensor<T>* yp = &y;
  ttm_packed_multi_into<T>({&xp, 1}, n, pf, {&yp, 1});
}

}  // namespace tucker::tensor
