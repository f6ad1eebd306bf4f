#pragma once
// Tensor-times-matrix (TTM): Y = X x_n U, defined by Y_(n) = U * X_(n).
//
// This is the truncation kernel of ST-HOSVD (line 7 of Alg 1, applied with
// U_n^T) and the reconstruction kernel of a Tucker tensor. ttm_into runs
// the packed engine: it stages the factor matrix contiguously in the
// Workspace arena exactly once and reuses it across every unfolding block.
// Short-fat factors (R <= kTtmAxpyMaxR, the truncation case) run the
// packing-free ttm_cols/ttm_rows/mode-0 kernels of microkernel.hpp, which
// stream X once instead of copying it into B panels; taller factors run
// gemm_prepacked_a, which skips only the per-block re-pack of U. Threading
// picks block-level fanout when there are enough unfolding blocks and
// splits unfolding columns otherwise, gated by the same flop threshold as
// gemm (parallel::kMinFanoutFlops).
//
// detail::ttm_reference_into is one gemm per unfolding block and a
// transposed gemm for the column-major mode-0 unfolding -- the same design
// as TuckerMPI's TTM kernel [6, Alg 3]. The packed engine runs it for tall
// mode-0 factors; the equivalence tests and bench/micro_kernels call it
// directly as the oracle.
//
// The two are bitwise identical: every Y element starts from zero and
// accumulates one `y += u * x` per k step in ascending k order in both, so
// the kernel choice, blocking, thread count and ISA level never change the
// bits (see DESIGN.md Sec 10).
//
// Wide accumulation (Accum::kWide on ttm_into): the packed engine's
// kernels accumulate each output element in a single full-k wide_t<T>
// chain (register accumulators for mode 0 / register tiles, or a per-chunk
// TA slab for the streaming walk) and round to storage exactly once; the
// reference path inherits gemm's per-k-block spill. The two therefore
// agree bitwise whenever the contracted dimension fits one gemm k block
// (k <= blas::detail::kGemmKB) -- the truncation TTMs the drivers issue --
// and differ only in spill roundings beyond that. Each individually
// remains bitwise thread/level/partition-invariant at any k.

#include <span>
#include <type_traits>

#include "blas/gemm.hpp"
#include "common/precision.hpp"
#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "tensor/tensor.hpp"

namespace tucker::tensor {

namespace detail {

using blas::detail::kTtmAxpyMaxR;

/// Reference TTM, the oracle: one gemm per unfolding block (U re-packed per
/// block by gemm), transposed gemm for mode 0. y is reshaped in place like
/// ttm_into's; x and y must not alias.
template <class T, class TA = T>
void ttm_reference_into(const Tensor<T>& x, std::size_t n, MatView<const T> u,
                        Tensor<T>& y) {
  y.reshape_mode_of(x, n, u.rows());
  if (n == 0) {
    // Column-major unfolding: compute Y_(0)^T = X_(0)^T * U^T so both gemm
    // operands stream contiguously (row-major views of the same buffers).
    auto xv = unfolding_mode0(x);
    auto yv = unfolding_mode0(y);
    MatView<const T> ut = u.t();
    if (ut.row_stride() != 1 && ut.col_stride() != 1 &&
        u.rows() <= kTtmAxpyMaxR) {
      // Fully strided factor view (e.g. a block of a transposed matrix):
      // pack_b would fall to its gather branch for every k panel. Stage
      // U^T contiguously once instead -- same values, same chain.
      Workspace& ws = Workspace::local();
      auto scratch = ws.frame();
      const index_t k = ut.rows(), r = ut.cols();
      T* tmp = ws.get<T>(static_cast<std::size_t>(k * r));
      for (index_t i = 0; i < k; ++i)
        for (index_t j = 0; j < r; ++j) tmp[i * r + j] = ut(i, j);
      blas::gemm<T, TA>(T(1), MatView<const T>(xv.t()),
                        MatView<const T>::row_major(tmp, k, r), T(0), yv.t());
    } else {
      blas::gemm<T, TA>(T(1), MatView<const T>(xv.t()), ut, T(0), yv.t());
    }
  } else {
    // Each unfolding block is an independent gemm writing a disjoint slab
    // of Y, so block-level fanout is bitwise-neutral. With fewer blocks
    // than threads, loop serially and let each gemm parallelize internally
    // instead (nested parallel_for from a worker would run serial).
    const index_t nblocks = unfolding_num_blocks(x, n);
    auto run_blocks = [&](index_t lo, index_t hi) {
      for (index_t j = lo; j < hi; ++j) {
        auto xb = unfolding_block(x, n, j);
        auto yb = unfolding_block(y, n, j);
        blas::gemm<T, TA>(T(1), u, xb, T(0), yb);
      }
    };
    // The width > 1 test also keeps the serial path allocation-free:
    // parallel_for takes std::function parameters whose construction may
    // heap-allocate even when the loop then runs inline.
    if (parallel::this_thread_width() > 1 &&
        nblocks >= 2 * parallel::this_thread_width()) {
      parallel::parallel_for(0, nblocks, 1, run_blocks);
    } else {
      run_blocks(0, nblocks);
    }
  }
}

/// Column-chunk width for the cache-resident (register-tile) kernel:
/// successive row-groups of the ttm_cols walk re-stream the k x chunk panel
/// of X, so the chunk keeps that panel resident in the outer cache levels.
template <class T>
index_t ttm_col_chunk(index_t k) {
  const index_t budget =
      static_cast<index_t>(262144 / sizeof(T)) / std::max<index_t>(k, 1);
  const index_t aligned =
      budget / blas::detail::kMicroNR * blas::detail::kMicroNR;
  return std::clamp<index_t>(aligned, 64, 4096);
}

/// Column-chunk width for the streaming (row-update) kernel: the R x chunk
/// output slab should stay close to L1 across the k sweep, but never so
/// narrow that the per-row B reads stop being multi-KB sequential bursts.
template <class T>
index_t ttm_row_chunk(index_t r) {
  const index_t budget =
      static_cast<index_t>(32768 / sizeof(T)) / std::max<index_t>(r, 1);
  const index_t aligned =
      budget / blas::detail::kMicroNR * blas::detail::kMicroNR;
  return std::clamp<index_t>(aligned, 512, 4096);
}

/// Tall-factor block sweep shared by the packed engine and the prepacked
/// reconstruction paths (tensor/prepacked.hpp): one staged A panel (r x k
/// in micro-kernel layout, as built by pack_a over the full k range)
/// applied by gemm_prepacked_a to every mode-n (n >= 1) unfolding block of
/// a batch of right-hand-side tensors. A batch of one is the packed
/// engine's own sweep; a larger batch is the kernel of fused serving
/// (DESIGN.md Sec 15), which loads the panel into cache once per (unit,
/// k-block) instead of once per request.
///
/// The work units are the (item, unfolding-block) pairs flattened across
/// the batch; items may have different shapes below mode n (region chains
/// mixed with full chains), they only share r and k at mode n. Each unit
/// runs the *same* gemm_prepacked_a call, over the same operand views,
/// whatever the batch -- fanout only re-partitions units/columns across
/// threads, and gemm_prepacked_a is bitwise partition-invariant, so every
/// item's output is bit-identical to its batch-of-one result, whether the
/// panel was packed just now (ttm_packed_into) or cached across calls
/// (serve's per-model factor cache). Unit lookup is an O(batch) scan on
/// purpose: no arena scratch, so a fused job leaves the same Workspace
/// watermark as the solo requests it replaces.
template <class T, class TA = T>
void ttm_tall_from_panel_multi(std::span<const Tensor<T>* const> xs,
                               std::size_t n, const T* apack, index_t r,
                               index_t k, std::span<Tensor<T>* const> ys) {
  const std::size_t m = xs.size();
  const index_t width = parallel::this_thread_width();
  index_t total_units = 0;
  double work = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const index_t before = prod_before(xs[i]->dims(), n);
    const index_t nb = unfolding_num_blocks(*xs[i], n);
    total_units += nb;
    work += 2.0 * r * k * static_cast<double>(before) * static_cast<double>(nb);
  }
  auto run_unit_cols = [&](std::size_t item, index_t blk, index_t j0,
                           index_t j1) {
    auto xb = unfolding_block(*xs[item], n, blk);
    auto yb = unfolding_block(*ys[item], n, blk);
    blas::detail::gemm_prepacked_a<T, TA>(
        apack, r, k, MatView<const T>(xb.block(0, j0, k, j1 - j0)),
        yb.block(0, j0, r, j1 - j0));
  };
  auto locate = [&](index_t unit, std::size_t& item, index_t& blk) {
    std::size_t i = 0;
    for (index_t off = unit;; ++i) {
      const index_t nb = unfolding_num_blocks(*xs[i], n);
      if (off < nb) {
        item = i;
        blk = off;
        return;
      }
      off -= nb;
    }
  };
  const bool fan_out = width > 1 && work >= parallel::kMinFanoutFlops;
  if (fan_out && total_units >= 2 * width) {
    parallel::parallel_for(0, total_units, 1, [&](index_t lo, index_t hi) {
      for (index_t u = lo; u < hi; ++u) {
        std::size_t item;
        index_t blk;
        locate(u, item, blk);
        run_unit_cols(item, blk, 0, prod_before(xs[item]->dims(), n));
      }
    });
  } else if (fan_out) {
    for (index_t u = 0; u < total_units; ++u) {
      std::size_t item;
      index_t blk;
      locate(u, item, blk);
      parallel::parallel_for(0, prod_before(xs[item]->dims(), n), 64,
                             [&](index_t j0, index_t j1) {
                               run_unit_cols(item, blk, j0, j1);
                             });
    }
  } else {
    for (std::size_t i = 0; i < m; ++i) {
      const index_t before = prod_before(xs[i]->dims(), n);
      const index_t nb = unfolding_num_blocks(*xs[i], n);
      for (index_t b = 0; b < nb; ++b) run_unit_cols(i, b, 0, before);
    }
  }
}

/// Packed engine. The factor is staged in the caller's arena frame before
/// any fanout; workers only read the staged panel and take their own
/// B-pack scratch from their own Workspace::local() (ownership rules of
/// DESIGN.md Sec 8). With TA wider than T, the mode-0 kernel accumulates
/// its fibers in TA registers and the short-fat path accumulates into a
/// per-chunk TA slab, so every Y element is a single full-k wide chain
/// rounded to storage once.
template <class T, class TA = T>
void ttm_packed_into(const Tensor<T>& x, std::size_t n, MatView<const T> u,
                     Tensor<T>& y) {
  using blas::detail::kMicroMR;
  using blas::detail::kMicroNR;
  const index_t r = u.rows();  // output mode size
  const index_t k = u.cols();  // contracted mode size
  const index_t width = parallel::this_thread_width();
  const auto mk = blas::detail::micro_kernels<T, TA>();
  Workspace& ws = Workspace::local();
  auto scratch = ws.frame();

  if (n == 0) {
    const index_t cols = prod_after(x.dims(), 0);
    const index_t ldut = blas::detail::round_up(r, kMicroNR);
    if (r > kTtmAxpyMaxR ||
        static_cast<std::size_t>(k * ldut) * sizeof(T) > 32768) {
      // Tall factor (reconstruction direction), or a staged U^T panel that
      // would spill L1: the dot kernel re-reads the panel per fiber, so
      // once it stops being L1-resident the register-tile gemm wins.
      ttm_reference_into<T, TA>(x, 0, u, y);
      return;
    }
    // Stage U^T as k x ldut row-major, zero-padded to a whole number of
    // vector lanes (the padded lanes accumulate exact zeros and are never
    // stored back).
    T* ut = ws.get<T>(static_cast<std::size_t>(k * ldut));
    for (index_t kk = 0; kk < k; ++kk) {
      index_t q = 0;
      for (; q < r; ++q) ut[kk * ldut + q] = u(q, kk);
      for (; q < ldut; ++q) ut[kk * ldut + q] = T(0);
    }
    tucker::add_flops(2 * r * k * cols);
    tucker::add_traffic(flops::gemm_bytes(r, cols, k, sizeof(T)));
    const double work = 2.0 * r * k * static_cast<double>(cols);
    auto run_cols = [&](index_t c0, index_t c1) {
      mk.ttm_mode0(k, r, ut, ldut, x.data(), y.data(), c0, c1);
    };
    if (width > 1 && work >= parallel::kMinFanoutFlops) {
      parallel::parallel_for(0, cols, 64, run_cols);
    } else {
      run_cols(0, cols);
    }
    return;
  }

  const index_t before = prod_before(x.dims(), n);
  const index_t nblocks = unfolding_num_blocks(x, n);
  const double work =
      2.0 * r * k * static_cast<double>(before) * static_cast<double>(nblocks);
  const bool fan_out = width > 1 && work >= parallel::kMinFanoutFlops;

  if (r <= kTtmAxpyMaxR) {
    // Short-fat factor (the ST-HOSVD truncation case): stage U contiguously
    // once, then run the packing-free kernel per block. Cache-resident
    // blocks take the register-tile walk; DRAM-resident blocks take the
    // sequential row-update walk so X streams at full bandwidth. Both walks
    // produce identical bits (same per-element chains).
    T* upack = ws.get<T>(static_cast<std::size_t>(r * k));
    for (index_t i = 0; i < r; ++i)
      for (index_t j = 0; j < k; ++j) upack[i * k + j] = u(i, j);
    tucker::add_flops(2 * r * k * before * nblocks);
    tucker::add_traffic(flops::gemm_bytes(r, before * nblocks, k, sizeof(T)));
    const bool stream =
        static_cast<std::size_t>(k * before) * sizeof(T) > 262144;
    const index_t chunk =
        stream ? ttm_row_chunk<T>(r) : ttm_col_chunk<T>(k);
    const auto walk = stream ? mk.ttm_rows : mk.ttm_cols;
    auto run_block_cols = [&](index_t blk, index_t j0, index_t j1) {
      const T* xb = x.data() + blk * k * before;
      T* yb = y.data() + blk * r * before;
      if constexpr (std::is_same_v<T, TA>) {
        for (index_t c0 = j0; c0 < j1; c0 += chunk)
          walk(r, k, upack, xb, before, yb, before, c0,
               std::min(c0 + chunk, j1));
      } else {
        // Wide accumulation: the kernels' C argument is the accumulator, so
        // aim them at a chunk-sized TA slab (from the *calling* thread's
        // arena -- run_block_cols may execute on a worker) and round each
        // element to storage exactly once on the copy-out. The slab is
        // column range [c0, c0+len) relabeled to start at 0, which leaves
        // every per-element chain identical to the native walk.
        Workspace& wws = Workspace::local();
        auto wide_scratch = wws.frame();
        TA* slab = wws.get<TA>(static_cast<std::size_t>(r * chunk));
        for (index_t c0 = j0; c0 < j1; c0 += chunk) {
          const index_t len = std::min(c0 + chunk, j1) - c0;
          walk(r, k, upack, xb + c0, before, slab, len, index_t{0}, len);
          for (index_t rr = 0; rr < r; ++rr) {
            const TA* srow = slab + rr * len;
            T* yrow = yb + rr * before + c0;
            for (index_t j = 0; j < len; ++j)
              yrow[j] = static_cast<T>(srow[j]);
          }
        }
      }
    };
    if (fan_out && nblocks >= 2 * width) {
      parallel::parallel_for(0, nblocks, 1, [&](index_t lo, index_t hi) {
        for (index_t b = lo; b < hi; ++b) run_block_cols(b, 0, before);
      });
    } else if (fan_out) {
      // Few blocks: split each block's columns. The streaming walk splits
      // at its own chunk, so each task keeps the >= 512-column row bursts
      // ttm_row_chunk sizes it for; a 64-column task would read its k rows
      // in 64-element pieces. The register-tile walk's blocks are cache
      // resident, where one chunk could cover a whole block.
      const index_t grain = stream ? chunk : 64;
      for (index_t b = 0; b < nblocks; ++b) {
        parallel::parallel_for(0, before, grain, [&](index_t j0, index_t j1) {
          run_block_cols(b, j0, j1);
        });
      }
    } else {
      for (index_t b = 0; b < nblocks; ++b) run_block_cols(b, 0, before);
    }
    return;
  }

  // Tall factor: pack U into micro-kernel panel format once over the full
  // k range and reuse the panel for every block (and every later k block;
  // see gemm_prepacked_a). The reference path re-packs U per block.
  T* apack =
      ws.get<T>(static_cast<std::size_t>(blas::detail::prepacked_a_elems(r, k)));
  blas::detail::pack_a(u, 0, r, 0, k, T(1), apack);
  const Tensor<T>* xp = &x;
  Tensor<T>* yp = &y;
  ttm_tall_from_panel_multi<T, TA>({&xp, 1}, n, apack, r, k, {&yp, 1});
}

}  // namespace detail

/// Y = X x_n U into a caller-owned tensor: y is re-dimensioned in place
/// (grow-only, see Tensor::reshape), so cycling the same y through repeated
/// calls does no heap allocation after warm-up. x and y must not alias.
template <class T>
void ttm_into(const Tensor<T>& x, std::size_t n, MatView<const T> u,
              Tensor<T>& y, Accum accum = Accum::kNative) {
  TUCKER_CHECK(n < x.order(), "ttm: mode out of range");
  TUCKER_CHECK(u.cols() == x.dim(n), "ttm: inner dimension mismatch");
  TUCKER_CHECK(&x != &y, "ttm_into: x and y must be distinct tensors");
  y.reshape_mode_of(x, n, u.rows());
  if (y.size() == 0 || x.size() == 0) return;

  if (accum == Accum::kWide) {
    detail::ttm_packed_into<T, wide_t<T>>(x, n, u, y);
  } else {
    detail::ttm_packed_into<T, T>(x, n, u, y);
  }
}

/// Y = X x_n U where U is (R x I_n); Y has dims of X with mode n replaced
/// by R. To truncate with a factor matrix F (I_n x R), pass F^T via a view.
template <class T>
Tensor<T> ttm(const Tensor<T>& x, std::size_t n, MatView<const T> u,
              Accum accum = Accum::kNative) {
  Tensor<T> y;
  ttm_into(x, n, u, y, accum);
  return y;
}

}  // namespace tucker::tensor
