#pragma once
// Gaussian sketching of tensor unfoldings -- the compute kernels of the
// randomized range-finder SVD engine (Halko-Martinsson-Tropp; the follow-up
// to the source paper by Minster, Li and Ballard applies it to ST-HOSVD).
//
// The test matrix Omega is never materialized at full size: each step's
// rows of it are drawn on the fly from the counter-based hash_normal
// stream, so entry Omega(c, j) depends only on (stream, global column c,
// sketch column j). That makes the sketch
//   - bitwise reproducible at any thread count (see Steps below), and
//   - extendable: new sketch columns [jlo, jhi) can be appended later
//     without touching existing ones (the adaptive-oversampling loop), and
//   - locally generatable: a distributed rank sketches its owned slab by
//     mapping local unfolding columns to global ones (the ColMap hook), so
//     every rank draws consistent rows of one global Omega with zero
//     communication.
//
// Steps. The kernels walk the unfolding in steps of about kSketchStep
// columns (for_each_unfolding_step) and run each step as two pool fanouts
// over one step panel of the caller's arena:
//   - sketch_unfolding_cols draws the step's Omega rows into the panel
//     (any partition of the rows draws the same values), then
//     S += X_step * Omega_step;
//   - unfolding_aat_multiply computes Z_step = X_step^T * W into the panel,
//     then out += X_step * Z_step;
//   - projected_gram computes B_step = Q^T * X_step into the panel, then
//     one syrk of B_step into G.
// The first fanout writes disjoint rows of the panel. The second splits
// the output into row bands, each walking the step's pieces in order
// (syrk bands its own triangle). Every kernel underneath loads C,
// accumulates its serial-k chain and stores C back, so each output element
// sees the chain of the serial walk -- unfolding columns in visit order --
// at every step width, band split and thread count.
//
// Scratch: a step panel holds at most kSketchStep x round_up(w, NR)
// elements, and never more columns than the unfolding has (the power
// multiply keeps two: Z and its packed copy); gemm packs come from each
// thread's own Workspace arena. A warm call makes no heap allocation.

#include <algorithm>
#include <cstdint>

#include "blas/blas1.hpp"
#include "blas/gemm.hpp"
#include "blas/matview.hpp"
#include "blas/microkernel.hpp"
#include "common/flops.hpp"
#include "common/precision.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "tensor/tensor.hpp"

namespace tucker::tensor {

namespace detail {

/// Unfolding columns per step. Wide enough that each step's two fanouts
/// carry several chunks of work per thread, small enough that the step
/// panel stays in L2 (EXPERIMENTS: "Randomized engine on every core").
inline constexpr index_t kSketchStep = 4096;

/// A step fanout gets one chunk per kStepChunkFlops of gemm work, counting
/// one Omega draw as kDrawFlops, and at most kStepMaxChunks chunks.
inline constexpr double kStepChunkFlops = 1 << 21;
inline constexpr double kDrawFlops = 1024;
inline constexpr index_t kStepMaxChunks = 16;

/// Chunk grain for splitting `units` units of `work` total flops.
inline index_t step_grain(index_t units, double work) {
  const auto chunks = std::clamp<index_t>(
      static_cast<index_t>(work / kStepChunkFlops), 1,
      std::min(kStepMaxChunks, std::max<index_t>(units, 1)));
  return (units + chunks - 1) / chunks;
}

/// One step of the unfolding walk: local unfolding columns
/// [c0, c0 + cols()), as `npieces` m x len pieces in column order; piece p
/// is `first` moved by p * stride elements.
template <class T>
struct UnfoldingStep {
  blas::MatView<const T> first;
  index_t stride = 0;
  index_t npieces = 1;
  index_t c0 = 0;

  index_t len() const { return first.cols(); }
  index_t cols() const { return npieces * first.cols(); }
  blas::MatView<const T> piece(index_t p) const {
    return {first.data() + p * stride, first.rows(), first.cols(),
            first.row_stride(), first.col_stride()};
  }
};

/// The step's right-hand side R (cols() x w: Omega_step or Z_step) is
/// packed once per step and shared by every band of the product: pack_b's
/// NR-column panels over the step's whole k range, panel q at
/// rpack + q * cols * NR, row k at offset k * NR in it, zero-padded to NR
/// columns. Any k run of a piece is then one contiguous tile operand, as
/// with gemm_prepacked_a, and disjoint row runs pack disjointly.
inline index_t packed_width(index_t w) {
  return blas::detail::round_up(w, blas::detail::kMicroNR);
}

/// Packs rows [lo, hi) of r (all of the step's rows) into its shared
/// panels.
template <class T>
void pack_step_rows(blas::MatView<const T> r, index_t lo, index_t hi,
                    T* rpack) {
  using blas::detail::kMicroNR;
  for (index_t j0 = 0; j0 < r.cols(); j0 += kMicroNR) {
    const index_t nr = std::min(kMicroNR, r.cols() - j0);
    T* dst = rpack + j0 * r.rows();
    for (index_t k = lo; k < hi; ++k) {
      index_t j = 0;
      for (; j < nr; ++j) dst[k * kMicroNR + j] = r(k, j0 + j);
      for (; j < kMicroNR; ++j) dst[k * kMicroNR + j] = T(0);
    }
  }
}

/// Rows [lo, hi) of the step's Omega, Omega(global_col(c0 + i), jlo + j)
/// for row i, drawn straight into the step's shared panels.
template <class T, class ColMap>
struct OmegaRows {
  const ColMap& global_col;
  std::uint64_t stream;
  index_t jlo, w, c0, cols;
  T* rpack;

  void draw(index_t lo, index_t hi) const {
    using blas::detail::kMicroNR;
    for (index_t i = lo; i < hi; ++i) {
      const auto c = static_cast<std::uint64_t>(global_col(c0 + i));
      for (index_t j = 0; j < packed_width(w); ++j)
        rpack[(j / kMicroNR) * cols * kMicroNR + i * kMicroNR +
              j % kMicroNR] =
            j < w ? static_cast<T>(hash_normal(
                        stream, c, static_cast<std::uint64_t>(jlo + j)))
                  : T(0);
    }
  }
};

/// Draws the step's Omega (cols x w, sketch columns from jlo) into its
/// shared panels on the pool.
template <class T, class ColMap>
void draw_omega(const ColMap& global_col, std::uint64_t stream, index_t jlo,
                index_t w, index_t c0, index_t cols, T* rpack) {
  const OmegaRows<T, ColMap> rows{global_col, stream, jlo, w, c0, cols, rpack};
  const double work = static_cast<double>(cols) * w * kDrawFlops;
  parallel::parallel_for(0, cols, step_grain(cols, work),
                         [&rows](index_t lo, index_t hi) {
                           rows.draw(lo, hi);
                         });
}

/// z = X_step^T * q: z's row p * len + k belongs to piece p's column k.
/// Fans out over runs of z's rows, one serial gemm per piece a run
/// touches; with rpack set, each run then packs its rows into the step's
/// shared panels. Any z strides: projected_gram passes B_step^T.
template <class T>
struct StepTransposedProduct {
  const UnfoldingStep<T>& step;
  blas::MatView<const T> q;
  blas::MatView<T> z;
  T* rpack = nullptr;

  void rows(index_t lo, index_t hi) const {
    const parallel::ThreadWidthCap serial(1);
    const index_t len = step.len(), m = q.rows(), w = q.cols();
    for (index_t p = lo / len; p * len < hi; ++p) {
      const index_t a = std::max(lo, p * len) - p * len;
      const index_t b = std::min(hi, (p + 1) * len) - p * len;
      blas::gemm(T(1), step.piece(p).block(0, a, m, b - a).t(), q, T(0),
                 z.block(p * len + a, 0, b - a, w));
    }
    if (rpack) pack_step_rows(blas::MatView<const T>(z), lo, hi, rpack);
  }
};

template <class T>
void step_transposed_product(const UnfoldingStep<T>& step,
                             blas::MatView<const T> q, blas::MatView<T> z,
                             T* rpack = nullptr) {
  const StepTransposedProduct<T> k{step, q, z, rpack};
  const index_t cols = step.cols();
  const double work = 2.0 * static_cast<double>(q.rows()) * q.cols() * cols;
  parallel::parallel_for(0, cols, step_grain(cols, work),
                         [&k](index_t lo, index_t hi) { k.rows(lo, hi); });
}

/// Packs all of r (the step's cols x w right-hand side) into its shared
/// panels on the pool.
template <class T>
void pack_step(blas::MatView<const T> r, T* rpack) {
  struct Rows {
    blas::MatView<const T> r;
    T* rpack;
  } const k{r, rpack};
  const index_t cols = r.rows();
  const double work = static_cast<double>(cols) * r.cols();
  parallel::parallel_for(0, cols, step_grain(cols, work),
                         [&k](index_t lo, index_t hi) {
                           pack_step_rows(k.r, lo, hi, k.rpack);
                         });
}

/// out += X_step * R, R packed in the step's shared panels. Fans out over
/// MR-aligned row bands of out (row-contiguous). A band runs gemm's walk
/// against the shared panels: per piece in order, per kGemmKB k block, per
/// kGemmMC rows, pack its rows of the piece and run the register tile from
/// C and back to C. So every element accumulates the step's columns in
/// order, and only the piece rows are packed per band.
template <class T>
struct StepProduct {
  const UnfoldingStep<T>& step;
  const T* rpack;
  blas::MatView<T> out;
  blas::detail::TileFn<T> tile;  // the active level's, fetched once per step

  void band(index_t rlo, index_t rhi) const {
    using blas::detail::kMicroMR;
    using blas::detail::kMicroNR;
    const index_t len = step.len(), cols = step.cols(), w = out.cols();
    const index_t ldc = out.row_stride();
    const index_t kb = std::min(blas::detail::kGemmKB, len);
    const index_t mc = std::min(blas::detail::kGemmMC, rhi - rlo);
    Workspace& ws = Workspace::local();
    auto scratch = ws.frame();
    T* apack = ws.get<T>(
        static_cast<std::size_t>(blas::detail::round_up(mc, kMicroMR) * kb));
    for (index_t p = 0; p < step.npieces; ++p) {
      const blas::MatView<const T> a = step.piece(p);
      for (index_t k0 = 0; k0 < len; k0 += kb) {
        const index_t kn = std::min(kb, len - k0);
        for (index_t i0 = rlo; i0 < rhi; i0 += mc) {
          const index_t ib = std::min(mc, rhi - i0);
          blas::detail::pack_a(a, i0, ib, k0, kn, T(1), apack);
          for (index_t jt = 0; jt < w; jt += kMicroNR) {
            const index_t nr = std::min(kMicroNR, w - jt);
            const T* bp = rpack + jt * cols + (p * len + k0) * kMicroNR;
            for (index_t it = 0; it < ib; it += kMicroMR) {
              const index_t mr = std::min(kMicroMR, ib - it);
              const T* ap = apack + it * kn;
              T* cp = out.data() + (i0 + it) * ldc + jt;
              if (mr == kMicroMR && nr == kMicroNR) {
                tile(kn, ap, bp, cp, ldc);
              } else {
                blas::detail::mk_tile_edge(tile, kn, ap, bp, cp, ldc, mr, nr);
              }
            }
          }
        }
      }
    }
  }
};

template <class T>
void step_product(const UnfoldingStep<T>& step, const T* rpack,
                  blas::MatView<T> out) {
  using blas::detail::kMicroMR;
  TUCKER_CHECK(out.col_stride() == 1,
               "step_product: out must be row-contiguous");
  const index_t m = out.rows(), w = out.cols(), cols = step.cols();
  add_flops(2 * m * w * cols);
  add_traffic(flops::gemm_bytes(m, w, cols, sizeof(T)));
  const StepProduct<T> k{step, rpack, out,
                         blas::detail::micro_kernels<T>().tile};
  const index_t groups = (m + kMicroMR - 1) / kMicroMR;
  const double work = 2.0 * static_cast<double>(m) * w * cols;
  parallel::parallel_for(0, groups, step_grain(groups, work),
                         [&k, m](index_t lo, index_t hi) {
                           k.band(lo * kMicroMR, std::min(m, hi * kMicroMR));
                         });
}

/// Columns of the panel every step of t's mode-n walk fits in.
template <class T>
index_t step_panel_cols(const Tensor<T>& t, std::size_t n) {
  return std::min(kSketchStep, t.size() / std::max<index_t>(t.dim(n), 1));
}

}  // namespace detail

/// Visits the mode-n unfolding of `t` as a sequence of steps, calling
/// f(step) with a detail::UnfoldingStep, columns ascending. Mode 0 walks
/// the column-major unfolding in kSketchStep-column slices. Other modes
/// walk the row-major blocks by the syrk_blocks rule: a block wider than
/// kSketchStep is cut into slices of that width, one per step; narrower
/// blocks go whole, as many per step as fit. The visit order is fixed
/// (independent of thread count), so accumulations driven by this iterator
/// are bitwise deterministic.
template <class T, class F>
void for_each_unfolding_step(const Tensor<T>& t, std::size_t n, F&& f) {
  using detail::kSketchStep;
  using Step = detail::UnfoldingStep<T>;
  if (t.size() == 0) return;
  if (n == 0) {
    const auto u = unfolding_mode0(t);
    for (index_t c0 = 0; c0 < u.cols(); c0 += kSketchStep)
      f(Step{u.block(0, c0, u.rows(), std::min(kSketchStep, u.cols() - c0)),
             0, 1, c0});
    return;
  }
  const index_t before = prod_before(t.dims(), n);
  const index_t nblocks = unfolding_num_blocks(t, n);
  const index_t stride = t.dim(n) * before;
  if (before > kSketchStep) {
    for (index_t b = 0; b < nblocks; ++b) {
      const auto blk = unfolding_block(t, n, b);
      for (index_t k0 = 0; k0 < before; k0 += kSketchStep)
        f(Step{blk.block(0, k0, blk.rows(),
                         std::min(kSketchStep, before - k0)),
               stride, 1, b * before + k0});
    }
    return;
  }
  const index_t per_step = std::min(nblocks, kSketchStep / before);
  for (index_t b = 0; b < nblocks; b += per_step)
    f(Step{unfolding_block(t, n, b), stride, std::min(per_step, nblocks - b),
           b * before});
}

/// S = X_(n) * Omega(:, jlo:jhi), streaming the unfolding once. Omega's row
/// for local column c is drawn at global column global_col(c): pass the
/// identity for a sequential tensor, or the owner's local-to-global column
/// map for a distributed slab (dist::par_rand_svd). s must be
/// I_n x (jhi - jlo) and is overwritten.
template <class T, class ColMap>
void sketch_unfolding_cols(const Tensor<T>& t, std::size_t n,
                           std::uint64_t stream, index_t jlo, index_t jhi,
                           ColMap&& global_col, blas::MatView<T> s) {
  const index_t m = t.dim(n);
  const index_t wnew = jhi - jlo;
  TUCKER_CHECK(s.rows() == m && s.cols() == wnew,
               "sketch_unfolding_cols: output shape mismatch");
  blas::fill(s, T(0));
  if (m == 0 || wnew == 0 || t.size() == 0) return;

  Workspace& ws = Workspace::local();
  auto arena = ws.frame();
  const index_t pcols = detail::step_panel_cols(t, n);
  T* rpack =
      ws.get<T>(static_cast<std::size_t>(pcols * detail::packed_width(wnew)));
  for_each_unfolding_step(t, n, [&](const detail::UnfoldingStep<T>& step) {
    detail::draw_omega(global_col, stream, jlo, wnew, step.c0, step.cols(),
                       rpack);
    detail::step_product(step, rpack, s);
  });
}

/// Identity-map convenience overload (sequential tensors: local column ==
/// global column).
template <class T>
void sketch_unfolding_cols(const Tensor<T>& t, std::size_t n,
                           std::uint64_t stream, index_t jlo, index_t jhi,
                           blas::MatView<T> s, Accum = Accum::kNative) {
  sketch_unfolding_cols(t, n, stream, jlo, jhi, [](index_t c) { return c; },
                        s);
}

/// One power-iteration multiply of the range finder: out = X_(n) X_(n)^T W,
/// step by step, so the cols x w intermediate is never materialized. W and
/// out must both be I_n x w; they may not alias.
template <class T>
void unfolding_aat_multiply(const Tensor<T>& t, std::size_t n,
                            blas::MatView<const T> w_in,
                            blas::MatView<T> out, Accum = Accum::kNative) {
  const index_t m = t.dim(n);
  const index_t w = w_in.cols();
  TUCKER_CHECK(w_in.rows() == m && out.rows() == m && out.cols() == w,
               "unfolding_aat_multiply: shape mismatch");
  blas::fill(out, T(0));
  if (m == 0 || w == 0 || t.size() == 0) return;

  Workspace& ws = Workspace::local();
  auto arena = ws.frame();
  const index_t pcols = detail::step_panel_cols(t, n);
  T* zdata = ws.get<T>(static_cast<std::size_t>(pcols * w));
  T* rpack =
      ws.get<T>(static_cast<std::size_t>(pcols * detail::packed_width(w)));
  for_each_unfolding_step(t, n, [&](const detail::UnfoldingStep<T>& step) {
    detail::step_transposed_product(
        step, w_in, blas::MatView<T>::row_major(zdata, step.cols(), w), rpack);
    detail::step_product(step, rpack, out);
  });
}

/// Gram matrix of the projected unfolding: g = (Q^T X_(n)) (Q^T X_(n))^T,
/// accumulated step by step so the w x cols matrix B = Q^T X_(n) is never
/// materialized. q must be I_n x w; g must be w x w and is overwritten. The
/// eigenvalues of g are the squared singular values of B -- exactly the
/// energies the adaptive-oversampling budget test needs.
template <class T>
void projected_gram(const Tensor<T>& t, std::size_t n,
                    blas::MatView<const T> q, blas::MatView<T> g,
                    Accum = Accum::kNative) {
  const index_t w = q.cols();
  TUCKER_CHECK(q.rows() == t.dim(n) && g.rows() == w && g.cols() == w,
               "projected_gram: shape mismatch");
  blas::fill(g, T(0));
  if (w == 0 || t.size() == 0) return;

  Workspace& ws = Workspace::local();
  auto arena = ws.frame();
  T* panel =
      ws.get<T>(static_cast<std::size_t>(w * detail::step_panel_cols(t, n)));
  for_each_unfolding_step(t, n, [&](const detail::UnfoldingStep<T>& step) {
    const auto b = blas::MatView<T>::row_major(panel, w, step.cols());
    detail::step_transposed_product(step, q, b.t());
    blas::syrk(T(1), blas::MatView<const T>(b), T(1), g);
  });
}

}  // namespace tucker::tensor
