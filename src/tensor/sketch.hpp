#pragma once
// Gaussian sketching of tensor unfoldings -- the compute kernels of the
// randomized range-finder SVD engine (Halko-Martinsson-Tropp; the follow-up
// to the source paper by Minster, Li and Ballard applies it to ST-HOSVD).
//
// The test matrix Omega is never materialized at full size: panels of it
// are generated on the fly from the counter-based hash_normal stream, so
// entry Omega(c, j) depends only on (stream, global column c, sketch column
// j). That makes the sketch
//   - bitwise reproducible at any thread count (the panel loop is serial;
//     the gemms underneath are bitwise thread-invariant by the repo's
//     determinism contract), and
//   - extendable: new sketch columns [jlo, jhi) can be appended later
//     without touching existing ones (the adaptive-oversampling loop), and
//   - locally generatable: a distributed rank sketches its owned slab by
//     mapping local unfolding columns to global ones (the ColMap hook), so
//     every rank draws consistent rows of one global Omega with zero
//     communication.
//
// All scratch comes from the per-thread Workspace arena: steady-state calls
// perform no heap allocations.

#include <cstdint>

#include "blas/blas1.hpp"
#include "blas/gemm.hpp"
#include "blas/matview.hpp"
#include "common/precision.hpp"
#include "common/rng.hpp"
#include "common/workspace.hpp"
#include "tensor/tensor.hpp"

namespace tucker::tensor {

namespace detail {
/// Column-panel width for streaming the unfolding. Large enough that the
/// per-panel gemm amortizes the Omega generation, small enough that the
/// panel scratch stays cache-resident.
constexpr index_t kSketchPanel = 128;
}  // namespace detail

/// Visits the mode-n unfolding of `t` as a sequence of m x len column
/// panels, calling f(panel, c0) where c0 is the first *local* unfolding
/// column of the panel (columns c0 .. c0+len-1, before-indices fastest).
/// Mode 0 walks the single column-major matrix; other modes walk each
/// row-major block in panels of at most kSketchPanel columns. The visit
/// order is fixed (independent of thread count), so accumulations driven by
/// this iterator are bitwise deterministic.
template <class T, class F>
void for_each_unfolding_panel(const Tensor<T>& t, std::size_t n, F&& f) {
  if (t.size() == 0) return;
  if (n == 0) {
    auto u = unfolding_mode0(t);
    for (index_t c0 = 0; c0 < u.cols(); c0 += detail::kSketchPanel) {
      const index_t len = std::min(detail::kSketchPanel, u.cols() - c0);
      f(blas::MatView<const T>(u.block(0, c0, u.rows(), len)), c0);
    }
    return;
  }
  const index_t before = prod_before(t.dims(), n);
  const index_t nblocks = unfolding_num_blocks(t, n);
  for (index_t b = 0; b < nblocks; ++b) {
    auto blk = unfolding_block(t, n, b);
    for (index_t cb0 = 0; cb0 < before; cb0 += detail::kSketchPanel) {
      const index_t len = std::min(detail::kSketchPanel, before - cb0);
      f(blas::MatView<const T>(blk.block(0, cb0, blk.rows(), len)),
        b * before + cb0);
    }
  }
}

/// S = X_(n) * Omega(:, jlo:jhi), streaming the unfolding once. Omega's row
/// for local column c is drawn at global column global_col(c): pass the
/// identity for a sequential tensor, or the owner's local-to-global column
/// map for a distributed slab (dist::par_rand_svd). s must be
/// I_n x (jhi - jlo) and is overwritten.
template <class T, class ColMap>
void sketch_unfolding_cols(const Tensor<T>& t, std::size_t n,
                           std::uint64_t stream, index_t jlo, index_t jhi,
                           ColMap&& global_col, blas::MatView<T> s,
                           Accum accum = Accum::kNative) {
  const index_t m = t.dim(n);
  const index_t wnew = jhi - jlo;
  TUCKER_CHECK(s.rows() == m && s.cols() == wnew,
               "sketch_unfolding_cols: output shape mismatch");
  blas::fill(s, T(0));
  if (m == 0 || wnew == 0 || t.size() == 0) return;

  Workspace& ws = Workspace::local();
  auto arena = ws.frame();
  auto omega = blas::MatView<T>::row_major(
      ws.get<T>(static_cast<std::size_t>(detail::kSketchPanel * wnew)),
      detail::kSketchPanel, wnew);
  for_each_unfolding_panel(t, n, [&](blas::MatView<const T> panel,
                                     index_t c0) {
    const index_t len = panel.cols();
    auto om = omega.block(0, 0, len, wnew);
    for (index_t i = 0; i < len; ++i) {
      const auto c = static_cast<std::uint64_t>(global_col(c0 + i));
      for (index_t j = 0; j < wnew; ++j) {
        om(i, j) = static_cast<T>(
            hash_normal(stream, c, static_cast<std::uint64_t>(jlo + j)));
      }
    }
    if (accum == Accum::kWide) {
      blas::gemm<T, wide_t<T>>(T(1), panel, blas::MatView<const T>(om), T(1),
                               s);
    } else {
      blas::gemm(T(1), panel, blas::MatView<const T>(om), T(1), s);
    }
  });
}

/// Identity-map convenience overload (sequential tensors: local column ==
/// global column).
template <class T>
void sketch_unfolding_cols(const Tensor<T>& t, std::size_t n,
                           std::uint64_t stream, index_t jlo, index_t jhi,
                           blas::MatView<T> s, Accum accum = Accum::kNative) {
  sketch_unfolding_cols(t, n, stream, jlo, jhi,
                        [](index_t c) { return c; }, s, accum);
}

/// One power-iteration multiply of the range finder: out = X_(n) X_(n)^T W,
/// streaming the unfolding twice in panels so the cols x w intermediate is
/// never materialized. W and out must both be I_n x w; they may not alias.
template <class T>
void unfolding_aat_multiply(const Tensor<T>& t, std::size_t n,
                            blas::MatView<const T> w_in,
                            blas::MatView<T> out,
                            Accum accum = Accum::kNative) {
  const index_t m = t.dim(n);
  const index_t w = w_in.cols();
  TUCKER_CHECK(w_in.rows() == m && out.rows() == m && out.cols() == w,
               "unfolding_aat_multiply: shape mismatch");
  blas::fill(out, T(0));
  if (m == 0 || w == 0 || t.size() == 0) return;

  Workspace& ws = Workspace::local();
  auto arena = ws.frame();
  auto z = blas::MatView<T>::row_major(
      ws.get<T>(static_cast<std::size_t>(detail::kSketchPanel * w)),
      detail::kSketchPanel, w);
  auto run = [&]<class TA>(std::type_identity<TA>) {
    for_each_unfolding_panel(
        t, n, [&](blas::MatView<const T> panel, index_t) {
          auto zp = z.block(0, 0, panel.cols(), w);
          blas::gemm<T, TA>(T(1), blas::MatView<const T>(panel.t()), w_in,
                            T(0), zp);
          blas::gemm<T, TA>(T(1), panel, blas::MatView<const T>(zp), T(1),
                            out);
        });
  };
  if (accum == Accum::kWide) {
    run(std::type_identity<wide_t<T>>{});
  } else {
    run(std::type_identity<T>{});
  }
}

/// Gram matrix of the projected unfolding: g = (Q^T X_(n)) (Q^T X_(n))^T,
/// accumulated panel by panel so the w x cols matrix B = Q^T X_(n) is never
/// materialized. q must be I_n x w; g must be w x w and is overwritten. The
/// eigenvalues of g are the squared singular values of B -- exactly the
/// energies the adaptive-oversampling budget test needs.
template <class T>
void projected_gram(const Tensor<T>& t, std::size_t n,
                    blas::MatView<const T> q, blas::MatView<T> g,
                    Accum accum = Accum::kNative) {
  const index_t w = q.cols();
  TUCKER_CHECK(q.rows() == t.dim(n) && g.rows() == w && g.cols() == w,
               "projected_gram: shape mismatch");
  blas::fill(g, T(0));
  if (w == 0 || t.size() == 0) return;

  Workspace& ws = Workspace::local();
  auto arena = ws.frame();
  auto bp = blas::MatView<T>::row_major(
      ws.get<T>(static_cast<std::size_t>(w * detail::kSketchPanel)), w,
      detail::kSketchPanel);
  auto run = [&]<class TA>(std::type_identity<TA>) {
    for_each_unfolding_panel(
        t, n, [&](blas::MatView<const T> panel, index_t) {
          auto b = bp.block(0, 0, w, panel.cols());
          blas::gemm<T, TA>(T(1), blas::MatView<const T>(q.t()), panel, T(0),
                            b);
          blas::syrk<T, TA>(T(1), blas::MatView<const T>(b), T(1), g);
        });
  };
  if (accum == Accum::kWide) {
    run(std::type_identity<wide_t<T>>{});
  } else {
    run(std::type_identity<T>{});
  }
}

}  // namespace tucker::tensor
