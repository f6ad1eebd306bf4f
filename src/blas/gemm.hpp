#pragma once
// Level-3 kernels: general matrix multiply and symmetric rank-k update.
//
// These are the flop-dominant kernels of both SVD paths: the Gram approach
// spends nearly all its time in syrk on unfolding blocks (TuckerMPI Alg 2),
// and both approaches share gemm inside the TTM truncation. Kernels take
// stride-generic views; transposition is expressed with MatView::t().
//
// Both kernels run on the register-tiled micro-kernel of microkernel.hpp:
// A and B are packed into contiguous MR-row / NR-column panels (alpha
// folded into the A pack), and an MR x NR block of C is computed with
// independent per-element accumulators, the NR axis vectorized. Packing
// scratch comes from the per-thread Workspace arena, so steady-state calls
// never touch the heap.
//
// Both kernels are multithreaded through tucker::parallel by partitioning
// the *output*: gemm over row or column panels of C, syrk over equal-area
// row bands of the triangle that share one packed panel per k step.
// Partitions write disjoint elements and every element keeps the serial
// k-accumulation order, so results are bitwise identical for every thread
// count (see thread_pool.hpp) and for every cache-block size (blocking only
// changes when partial sums spill to memory, which does not round). Small
// problems and exotic layouts take scalar fallback paths.

#include <algorithm>
#include <array>
#include <cmath>
#include <type_traits>

#include "blas/blas1.hpp"
#include "blas/matview.hpp"
#include "blas/microkernel.hpp"
#include "common/flops.hpp"
#include "common/thread_pool.hpp"
#include "common/workspace.hpp"

namespace tucker::blas {

namespace detail {

/// gemm j-blocking: width of the C/B column panel kept resident while
/// streaming A.
inline constexpr index_t kGemmJB = 512;

/// gemm k-blocking: depth of the packed A/B tiles; bounds the working set
/// reused across the i loop. 256 doubles x (MR + NR) lanes stays
/// comfortably inside L1 while amortizing the per-tile C load/store over a
/// long fused k loop (a 64-deep k loop left ~30% on the table). Part of the
/// Accum::kWide bits: a wide gemm rounds C to storage once per k block.
inline constexpr index_t kGemmKB = 256;

/// gemm i-blocking: rows of A packed per block; keeps the packed A panel
/// (mc x kb) inside L2.
inline constexpr index_t kGemmMC = 256;

}  // namespace detail

/// C = alpha * A * B + beta * C.
/// Shapes: A is m x k, B is k x n, C is m x n. Any strides: a C stored
/// column-major is handled by computing C^T = B^T A^T; A and B panels are
/// packed into contiguous tiles whatever their strides, so every layout
/// runs at the micro-kernel rate.
///
/// TA is the register-tile accumulator (Accum::kWide passes wide_t<T>).
/// Wide accumulation still spills C at storage width once per k block, so
/// its bits depend on detail::kGemmKB (one storage rounding per spill,
/// error ~(k/kb + 1) * eps_s instead of k * eps_s) -- but never on thread
/// count, ISA level or output partition.
template <class T, class TA = T>
void gemm(T alpha, MatView<const T> a, MatView<const T> b, T beta,
          MatView<T> c) {
  const index_t m = c.rows(), n = c.cols(), k = a.cols();
  TUCKER_CHECK(a.rows() == m && b.rows() == k && b.cols() == n,
               "gemm: shape mismatch");

  // Column-contiguous C: flip to the transposed product, which is
  // row-contiguous.
  if (c.col_stride() != 1 && c.row_stride() == 1) {
    gemm<T, TA>(alpha, b.t(), a.t(), beta, c.t());
    return;
  }

  // Flops count the arithmetic (performed at TA width under kWide); bytes
  // count the streamed words, which stay at storage width. The two ledgers
  // are deliberately independent -- see flops.hpp.
  add_flops(2 * m * n * k);
  add_traffic(flops::gemm_bytes(m, n, k, sizeof(T)));

  if (beta == T(0)) {
    fill(c, T(0));
  } else if (beta != T(1)) {
    for (index_t i = 0; i < m; ++i)
      for (index_t j = 0; j < n; ++j) c(i, j) *= beta;
  }
  if (alpha == T(0) || k == 0 || m == 0 || n == 0) return;

  if (c.col_stride() == 1) {
    // GEBP structure: j panels (keep a C/B column block resident), k blocks
    // (bound the packed tile depth), i blocks (keep the packed A panel in
    // L2), then the register-tiled micro-kernel over NR x MR sub-tiles.
    // Each parallel task runs the same code over its own panel with
    // per-worker pack scratch from Workspace::local(). The k-accumulation
    // order per element never depends on the panel bounds, so any partition
    // of C yields bits identical to the serial run.
    using detail::kMicroMR;
    using detail::kMicroNR;
    const index_t ldc = c.row_stride();
    auto run_panel = [&](index_t ilo, index_t ihi, index_t jlo, index_t jhi) {
      if (ihi <= ilo || jhi <= jlo) return;
      const index_t jb = std::min(detail::kGemmJB, jhi - jlo);
      const index_t kb = std::min(detail::kGemmKB, k);
      const index_t mc = std::min(detail::kGemmMC, ihi - ilo);
      Workspace& ws = Workspace::local();
      auto scratch = ws.frame();
      T* bpack = ws.get<T>(
          static_cast<std::size_t>(detail::round_up(jb, kMicroNR) * kb));
      T* apack = ws.get<T>(
          static_cast<std::size_t>(detail::round_up(mc, kMicroMR) * kb));
      const auto tile = detail::micro_kernels<T, TA>().tile;
      for (index_t j0 = jlo; j0 < jhi; j0 += jb) {
        const index_t jn = std::min(jb, jhi - j0);
        for (index_t k0 = 0; k0 < k; k0 += kb) {
          const index_t kn = std::min(kb, k - k0);
          detail::pack_b(b, k0, kn, j0, jn, bpack);
          for (index_t i0 = ilo; i0 < ihi; i0 += mc) {
            const index_t ib = std::min(mc, ihi - i0);
            detail::pack_a(a, i0, ib, k0, kn, alpha, apack);
            for (index_t jt = 0; jt < jn; jt += kMicroNR) {
              const index_t nr = std::min(kMicroNR, jn - jt);
              const T* bp = bpack + jt * kn;
              for (index_t it = 0; it < ib; it += kMicroMR) {
                const index_t mr = std::min(kMicroMR, ib - it);
                const T* ap = apack + it * kn;
                T* cp = c.data() + (i0 + it) * ldc + (j0 + jt);
                if (mr == kMicroMR && nr == kMicroNR) {
                  tile(kn, ap, bp, cp, ldc);
                } else {
                  detail::mk_tile_edge(tile, kn, ap, bp, cp, ldc, mr, nr);
                }
              }
            }
          }
        }
      }
    };

    const double work = 2.0 * static_cast<double>(m) * n * k;
    if (parallel::this_thread_width() > 1 &&
        work >= parallel::kMinFanoutFlops) {
      // Split the larger C dimension; columns preferred (each panel packs
      // its own B tiles, so column panels never duplicate packing work).
      if (n >= m || n >= 256) {
        parallel::parallel_for(0, n, 64, [&](index_t jlo, index_t jhi) {
          run_panel(0, m, jlo, jhi);
        });
      } else {
        parallel::parallel_for(0, m, 16, [&](index_t ilo, index_t ihi) {
          run_panel(ilo, ihi, 0, n);
        });
      }
    } else {
      run_panel(0, m, 0, n);
    }
  } else if constexpr (std::is_same_v<T, TA>) {
    // Fully generic fallback (neither C orientation contiguous).
    for (index_t i = 0; i < m; ++i)
      for (index_t kk = 0; kk < k; ++kk) {
        const T av = alpha * a(i, kk);
        if (av == T(0)) continue;
        for (index_t j = 0; j < n; ++j) c(i, j) += av * b(kk, j);
      }
  } else {
    // Wide generic fallback: mimic the tiled path's chain exactly -- per
    // element, widen C, accumulate one k block in TA, round to storage --
    // so exotic layouts produce the same bits as the packed path.
    const index_t kb = std::min(detail::kGemmKB, k);
    for (index_t i = 0; i < m; ++i)
      for (index_t j = 0; j < n; ++j)
        for (index_t k0 = 0; k0 < k; k0 += kb) {
          const index_t kn = std::min(kb, k - k0);
          TA s = static_cast<TA>(c(i, j));
          for (index_t kk = k0; kk < k0 + kn; ++kk)
            s += static_cast<TA>(alpha * a(i, kk)) *
                 static_cast<TA>(b(kk, j));
          c(i, j) = static_cast<T>(s);
        }
  }
}

namespace detail {

/// Elements a full-k prepacked A panel occupies for an m x k matrix
/// (ceil(m/MR) sub-panels of k*MR values, see pack_a's layout).
inline index_t prepacked_a_elems(index_t m, index_t k) {
  return round_up(m, kMicroMR) * k;
}

/// C = A * B (beta = 0) where A (m x k) was prepacked over its *full* k
/// range by `pack_a(a, 0, m, 0, k, alpha, apack)`. Because a sub-panel
/// stores its MR rows k-contiguously, the tile for k block [k0, k0+kn)
/// starts at `apack + it*k + k0*MR` -- the one-time pack supports every
/// later k blocking, which is what lets the TTM engine pack the factor
/// matrix once and reuse it across all unfolding blocks. Runs serially on
/// the calling thread (callers partition blocks or columns); B-panel
/// scratch comes from the caller's Workspace. C must be row-contiguous.
///
/// Bitwise contract: same jb/kb blocking, same packed values and the same
/// mk_tile per-element ascending-k accumulation chain as `gemm` with
/// beta = 0, so the result is bit-identical to the reference call.
template <class T, class TA = T>
void gemm_prepacked_a(const T* apack, index_t m, index_t k, MatView<const T> b,
                      MatView<T> c) {
  const index_t n = c.cols();
  TUCKER_CHECK(c.rows() == m && b.rows() == k && b.cols() == n,
               "gemm_prepacked_a: shape mismatch");
  TUCKER_CHECK(c.col_stride() == 1, "gemm_prepacked_a: C must be row-major");
  add_flops(2 * m * n * k);
  // The prepacked A panel is reused across calls; charge only B and C.
  add_traffic(static_cast<std::int64_t>(sizeof(T)) * (k * n + 2 * m * n));
  fill(c, T(0));
  if (m == 0 || n == 0 || k == 0) return;

  const index_t ldc = c.row_stride();
  const index_t jb = std::min(kGemmJB, n);
  const index_t kb = std::min(kGemmKB, k);
  Workspace& ws = Workspace::local();
  auto scratch = ws.frame();
  T* bpack =
      ws.get<T>(static_cast<std::size_t>(round_up(jb, kMicroNR) * kb));
  const auto tile = micro_kernels<T, TA>().tile;
  for (index_t j0 = 0; j0 < n; j0 += jb) {
    const index_t jn = std::min(jb, n - j0);
    for (index_t k0 = 0; k0 < k; k0 += kb) {
      const index_t kn = std::min(kb, k - k0);
      pack_b(b, k0, kn, j0, jn, bpack);
      for (index_t jt = 0; jt < jn; jt += kMicroNR) {
        const index_t nr = std::min(kMicroNR, jn - jt);
        const T* bp = bpack + jt * kn;
        for (index_t it = 0; it < m; it += kMicroMR) {
          const index_t mr = std::min(kMicroMR, m - it);
          const T* ap = apack + it * k + k0 * kMicroMR;
          T* cp = c.data() + it * ldc + (j0 + jt);
          if (mr == kMicroMR && nr == kMicroNR) {
            tile(kn, ap, bp, cp, ldc);
          } else {
            mk_tile_edge(tile, kn, ap, bp, cp, ldc, mr, nr);
          }
        }
      }
    }
  }
}

/// syrk's k-block depth. Each C element loads C, accumulates at most
/// kSyrkKB columns of one block in the register tile and stores C back, so
/// under Accum::kWide it takes one storage rounding per sub-chunk.
inline constexpr index_t kSyrkKB = 256;

/// A step fans out into one row band per kSyrkBandFlops of its flops, at
/// most kSyrkMaxBands; a step below two bands' worth stays on the caller.
inline constexpr double kSyrkBandFlops = 1 << 18;
inline constexpr index_t kSyrkMaxBands = 16;

/// State of one syrk_blocks call. A step is `nsub` sub-chunks of `kn`
/// columns each -- one kSyrkKB slice of a wide block, or several whole
/// narrow blocks -- packed once into the shared panels: alpha * A as
/// MR-row panels and A^T as NR-column panels, sub-chunk s at offset
/// s * round_up(m, MR or NR) * kn. Pool workers pack disjoint row groups
/// in one fanout and compute disjoint row bands in the next; the caller
/// owns the panels (its arena) and the step fields between fanouts.
template <class T, class TA>
struct SyrkSteps {
  MatView<const T> a;  // block 0; block j starts at a.data() + j * stride
  index_t stride;
  T alpha;
  MatView<T> c;  // row-contiguous
  T* apack;
  T* bpack;
  TileFn<T> tile;  // the active level's, fetched once per call
  index_t j0 = 0, k0 = 0, nsub = 0, kn = 0;  // columns [k0, k0+kn) of
                                            // blocks j0 .. j0+nsub-1
  std::array<index_t, kSyrkMaxBands + 1> bands{};

  // Packs rows [rlo, rhi) of every sub-chunk; rlo is NR-aligned (and so
  // MR-aligned), so the partial packs tile the full panel layout.
  void pack(index_t rlo, index_t rhi) const {
    const index_t mpa = round_up(a.rows(), kMicroMR);
    const index_t mpb = round_up(a.rows(), kMicroNR);
    for (index_t s = 0; s < nsub; ++s) {
      const MatView<const T> b(a.data() + (j0 + s) * stride, a.rows(),
                               a.cols(), a.row_stride(), a.col_stride());
      pack_a(b, rlo, rhi - rlo, k0, kn, alpha, apack + (s * mpa + rlo) * kn);
      pack_b(b.t(), k0, kn, rlo, rhi - rlo, bpack + (s * mpb + rlo) * kn);
    }
  }

  // Lower-triangle rows [rlo, rhi), rlo MR-aligned: one micro-kernel pass
  // per sub-chunk, in column order.
  void band(index_t rlo, index_t rhi) const {
    const index_t ldc = c.row_stride();
    const index_t mpa = round_up(a.rows(), kMicroMR);
    const index_t mpb = round_up(a.rows(), kMicroNR);
    for (index_t s = 0; s < nsub; ++s) {
      for (index_t i0 = rlo; i0 < rhi; i0 += kMicroMR) {
        const index_t mr = std::min(kMicroMR, rhi - i0);
        const T* ap = apack + (s * mpa + i0) * kn;
        for (index_t jt = 0; jt < i0 + mr; jt += kMicroNR) {
          const T* bp = bpack + (s * mpb + jt) * kn;
          T* cp = c.data() + i0 * ldc + jt;
          if (mr == kMicroMR && jt + kMicroNR - 1 <= i0) {
            tile(kn, ap, bp, cp, ldc);
            continue;
          }
          // Diagonal-crossing or edge tile: compute the full tile into a
          // local buffer, store back only the lower-triangle entries.
          T ctmp[kMicroMR * kMicroNR];
          for (index_t r = 0; r < kMicroMR; ++r)
            for (index_t j = 0; j < kMicroNR; ++j) {
              const bool live = r < mr && jt + j <= i0 + r;
              ctmp[r * kMicroNR + j] = live ? cp[r * ldc + j] : T(0);
            }
          tile(kn, ap, bp, ctmp, kMicroNR);
          for (index_t r = 0; r < mr; ++r) {
            const index_t jn = std::min(kMicroNR, i0 + r - jt + 1);
            for (index_t j = 0; j < jn; ++j)
              cp[r * ldc + j] = ctmp[r * kMicroNR + j];
          }
        }
      }
    }
  }

  // Runs one step: the pack fanout, then the band fanout over the shared
  // panels. The pool's completion wait orders the panel writes before the
  // reads; a one-band step has one chunk per fanout and runs inline.
  void step(index_t first_block, index_t first_col, index_t blocks,
            index_t cols) {
    j0 = first_block;
    k0 = first_col;
    nsub = blocks;
    kn = cols;
    const index_t m = a.rows();
    const double flops = static_cast<double>(m) * (m + 1) * nsub * kn;
    const index_t nb = std::clamp<index_t>(
        static_cast<index_t>(flops / kSyrkBandFlops), 1,
        std::min(kSyrkMaxBands, (m + kMicroMR - 1) / kMicroMR));
    // Band b starts at row m sqrt(b/nb), rounded up to MR: equal triangle
    // area per band.
    for (index_t b = 0; b <= nb; ++b)
      bands[static_cast<std::size_t>(b)] = std::min<index_t>(
          m, round_up(static_cast<index_t>(std::ceil(
                          m * std::sqrt(static_cast<double>(b) / nb))),
                      kMicroMR));
    // Pack in NR-row groups (NR is a multiple of MR), one chunk per band.
    static_assert(kMicroNR % kMicroMR == 0);
    const index_t groups = (m + kMicroNR - 1) / kMicroNR;
    parallel::parallel_for(0, groups, (groups + nb - 1) / nb,
                           [this](index_t lo, index_t hi) {
                             pack(lo * kMicroNR,
                                  std::min(a.rows(), hi * kMicroNR));
                           });
    parallel::parallel_for_chunks(
        0, nb, 1, [this](index_t b, index_t, index_t) {
          const auto i = static_cast<std::size_t>(b);
          band(bands[i], bands[i + 1]);
        });
  }
};

}  // namespace detail

/// C = alpha * sum_j A_j A_j^T + beta * C over `nblocks` m x w blocks,
/// block j at a.data() + j * stride with a's strides (a is block 0): the
/// Gram of a row-major unfolding in one call (tensor/gram.hpp).
///
/// Per element the chain is serial: blocks in order, each cut into
/// kSyrkKB-column sub-chunks, each sub-chunk one register-tile run
/// c += (alpha * a(i,k)) * a(j,k) from C and back to C. Steps and bands
/// never change that chain, so the bits are those of one syrk per block
/// (beta on the first) at every thread width.
///
/// A step is as many whole sub-chunks as fit in kSyrkKB columns (12
/// blocks of 21 columns), so the shared panels never exceed
/// (round_up(m, MR) + round_up(m, NR)) * kSyrkKB elements of the caller's
/// arena. Its band count depends on m and the step width only. The upper
/// triangle is mirrored from the lower.
template <class T, class TA = T>
void syrk_blocks(T alpha, MatView<const T> a, index_t nblocks, index_t stride,
                 T beta, MatView<T> c) {
  using detail::kMicroMR;
  using detail::kMicroNR;
  using detail::kSyrkKB;
  const index_t m = a.rows(), w = a.cols();
  TUCKER_CHECK(c.rows() == m && c.cols() == m, "syrk: C must be m x m");
  TUCKER_CHECK(nblocks >= 0, "syrk: negative block count");
  // Nominal cost per block: m(m+1)w mults+adds over the triangle.
  add_flops(static_cast<std::int64_t>(m) * (m + 1) * w * nblocks);
  add_traffic(nblocks * flops::syrk_bytes(m, w, sizeof(T)));

  if (beta == T(0)) {
    fill(c, T(0));
  } else if (beta != T(1)) {
    for (index_t i = 0; i < m; ++i)
      for (index_t j = 0; j < m; ++j) c(i, j) *= beta;
  }
  if (alpha == T(0) || w == 0 || nblocks == 0) return;

  if (c.col_stride() != 1) {
    // Generic-C fallback (not used by the library's own row-major Grams):
    // the same chain, serially.
    for (index_t jb = 0; jb < nblocks; ++jb) {
      const MatView<const T> b(a.data() + jb * stride, m, w, a.row_stride(),
                               a.col_stride());
      if constexpr (std::is_same_v<T, TA>) {
        for (index_t kk = 0; kk < w; ++kk)
          for (index_t i = 0; i < m; ++i) {
            const T av = alpha * b(i, kk);
            for (index_t j = 0; j <= i; ++j) c(i, j) += av * b(j, kk);
          }
      } else {
        for (index_t i = 0; i < m; ++i)
          for (index_t j = 0; j <= i; ++j)
            for (index_t k0 = 0; k0 < w; k0 += kSyrkKB) {
              TA s = static_cast<TA>(c(i, j));
              for (index_t kk = k0; kk < std::min(w, k0 + kSyrkKB); ++kk)
                s += static_cast<TA>(alpha * b(i, kk)) *
                     static_cast<TA>(b(j, kk));
              c(i, j) = static_cast<T>(s);
            }
      }
    }
  } else {
    // Blocks wider than kSyrkKB run one sub-chunk per step; narrower ones
    // share steps, whole blocks only.
    const index_t per_step = w >= kSyrkKB ? 1 : std::min(nblocks, kSyrkKB / w);
    const index_t kc_max = std::min(kSyrkKB, per_step * w);
    Workspace& ws = Workspace::local();
    auto scratch = ws.frame();
    detail::SyrkSteps<T, TA> st{
        a,
        stride,
        alpha,
        c,
        ws.get<T>(static_cast<std::size_t>(detail::round_up(m, kMicroMR) *
                                           kc_max)),
        ws.get<T>(static_cast<std::size_t>(detail::round_up(m, kMicroNR) *
                                           kc_max)),
        detail::micro_kernels<T, TA>().tile};
    for (index_t j = 0; j < nblocks; j += per_step) {
      if (w > kSyrkKB) {
        for (index_t k0 = 0; k0 < w; k0 += kSyrkKB)
          st.step(j, k0, 1, std::min(kSyrkKB, w - k0));
      } else {
        st.step(j, 0, std::min(per_step, nblocks - j), w);
      }
    }
  }
  for (index_t i = 0; i < m; ++i)
    for (index_t j = i + 1; j < m; ++j) c(i, j) = c(j, i);
}

/// C = alpha * A * A^T + beta * C, with A m x n and C m x m: the one-block
/// syrk_blocks. Computes the lower triangle with the register-tiled
/// micro-kernel (the "B" operand is A^T, packed from the same matrix), then
/// mirrors to the upper triangle (the Gram eigensolver wants the full
/// symmetric matrix). TA as in gemm: wide accumulation spills at storage
/// width per kSyrkKB-column sub-chunk.
template <class T, class TA = T>
void syrk(T alpha, MatView<const T> a, T beta, MatView<T> c) {
  syrk_blocks<T, TA>(alpha, a, 1, 0, beta, c);
}

}  // namespace tucker::blas
