#pragma once
// Register-tiled level-3 micro-kernels and panel packing.
//
// The gemm/syrk drivers in gemm.hpp feed packed panels to a single
// MR x NR micro-kernel: an MR x NR block of C is held in registers, the
// k loop streams one MR-sliver of packed A and one NR-sliver of packed B
// per step, and each C element accumulates with its own independent
// accumulator in serial k order. The NR axis is the vector axis.
//
// Every kernel has a scalar reference (mk_tile_scalar, ttm_cols_scalar,
// ttm_mode0_scalar: plain nested loops) and a vector implementation in
// microkernel_level.inc, compiled once per ISA level:
//  - kBaseline: the build's own target (SSE2 on x86-64), 16-byte vectors;
//  - kAvx2: 32-byte vectors;
//  - kAvx512 (F/VL/DQ/BW): 64-byte vectors.
// Each level lives in its own namespace (isa_baseline, isa_avx2,
// isa_avx512), so no two levels share a mangled name, and the levels above
// the baseline are compiled only where the compiler has per-function
// targets (GCC on x86-64). At start-up the highest level the CPU and OS
// support becomes `kernel_variant()`; the TUCKER_SIMD=OFF build defaults to
// kScalar instead. Tests force any level the host runs through
// set_kernel_variant() and assert every level is bitwise identical to the
// scalar oracle over shape/stride/special-value sweeps
// (kernel_equivalence_test.cpp). Callers fetch the active level's kernels
// once per tile loop or column range with micro_kernels().
//
// Why bitwise determinism survives vectorization: every C element keeps a
// private accumulator, initialized from C and updated once per k step in
// the serial k order, as `c += (alpha * a(i,k)) * b(k,j)` (alpha is folded
// into the packed A panel, preserving the historical rounding grouping).
// Lanes never exchange or reduce into each other, so vector width, tile
// shape, cache-block sizes and thread partition all change *where* the
// arithmetic runs, never *what* is accumulated into which element in which
// order. The only remaining degree of freedom is FMA contraction, which is
// pinned off twice: by -ffp-contract=off in the root CMakeLists.txt, and
// by an optimize pragma over the level kernels themselves.
//
// Packed layouts (zero-padded to full tiles):
//  - A panel: ceil(ib/MR) sub-panels of kn*MR values, sub-panel p holding
//    rows [p*MR, p*MR+MR) as [kk][r] (MR consecutive rows per k step),
//    with alpha pre-multiplied.
//  - B panel: ceil(jn/NR) sub-panels of kn*NR values, sub-panel q holding
//    columns [q*NR, q*NR+NR) as [kk][j] (NR consecutive columns per k
//    step).

// Wide accumulation (Accum::kWide, DESIGN.md Sec 13): every kernel below
// also compiles with a second template parameter TA -- the accumulator
// type -- defaulting to T. With TA = wide_t<T> (double for float storage)
// loads and stores stay at storage width but every private accumulator is
// TA; the float*float products are exact in double, so the per-element
// error drops from O(k)*eps_s to one storage rounding per spill. The
// determinism argument is unchanged: accumulators are still private and
// k-ordered, so thread width / ISA level / tile shape never change bits
// for either TA instantiation.

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "blas/matview.hpp"
#include "common/check.hpp"

#ifndef TUCKER_SIMD
#define TUCKER_SIMD 1
#endif

#if defined(__GNUC__) || defined(__clang__)
#define TUCKER_HAVE_VEC_EXT 1
#else
#define TUCKER_HAVE_VEC_EXT 0
#endif

// Levels above the baseline need `#pragma GCC target`.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#define TUCKER_ISA_LEVELS 1
#else
#define TUCKER_ISA_LEVELS 0
#endif

namespace tucker::blas::detail {

/// Register tile shape. Each accumulator row is NR lanes: whole native
/// vectors at every level (see Row in microkernel_level.inc).
inline constexpr index_t kMicroMR = 4;
inline constexpr index_t kMicroNR = 8;

/// Micro-kernel implementations, in ascending order of vector width.
enum class KernelVariant { kScalar, kBaseline, kAvx2, kAvx512 };

inline const char* kernel_variant_name(KernelVariant v) {
  switch (v) {
    case KernelVariant::kScalar: return "scalar";
    case KernelVariant::kBaseline: return "baseline";
    case KernelVariant::kAvx2: return "avx2";
    case KernelVariant::kAvx512: return "avx512";
  }
  return "unknown";
}

/// Highest level this CPU and OS run, detected once. __builtin_cpu_supports
/// reports AVX2 and AVX-512 only when the OS saves their register state.
inline KernelVariant detected_kernel_variant() {
  static const KernelVariant level = [] {
#if TUCKER_ISA_LEVELS
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512bw"))
      return KernelVariant::kAvx512;
    if (__builtin_cpu_supports("avx2")) return KernelVariant::kAvx2;
#endif
    return KernelVariant::kBaseline;
  }();
  return level;
}

/// The scalar oracle and every level up to the detected one, ascending.
inline std::vector<KernelVariant> supported_kernel_variants() {
  std::vector<KernelVariant> out;
  for (int v = 0; v <= static_cast<int>(detected_kernel_variant()); ++v)
    out.push_back(static_cast<KernelVariant>(v));
  return out;
}

inline KernelVariant& active_kernel_variant() {
  static KernelVariant v =
      TUCKER_SIMD ? detected_kernel_variant() : KernelVariant::kScalar;
  return v;
}

/// Active micro-kernel implementation: the detected level, or kScalar in
/// the TUCKER_SIMD=OFF build.
inline KernelVariant kernel_variant() { return active_kernel_variant(); }

/// Forces a level (tests and benches compare levels within one binary).
/// A level the host cannot run is refused here rather than by SIGILL. Not
/// meant to be called while kernels are in flight.
inline void set_kernel_variant(KernelVariant v) {
  TUCKER_CHECK(v >= KernelVariant::kScalar && v <= detected_kernel_variant(),
               "set_kernel_variant: this host does not run that ISA level");
  active_kernel_variant() = v;
}

inline index_t round_up(index_t v, index_t unit) {
  return (v + unit - 1) / unit * unit;
}

/// Packs A(i0:i0+ib, k0:k0+kn) * alpha into MR-row sub-panels (layout
/// above). Rows beyond ib are zero-padded so the micro-kernel never reads
/// uninitialized lanes.
template <class T>
void pack_a(MatView<const T> a, index_t i0, index_t ib, index_t k0,
            index_t kn, T alpha, T* ap) {
  const index_t rs = a.row_stride(), cs = a.col_stride();
  const T* base = a.data() + i0 * rs + k0 * cs;
  for (index_t p = 0; p < ib; p += kMicroMR) {
    const index_t mr = std::min(kMicroMR, ib - p);
    T* dst = ap + p * kn;  // sub-panel stride: kn * kMicroMR
    if (cs == 1) {
      // Row-major A: each row is contiguous in k; write strided.
      for (index_t r = 0; r < mr; ++r) {
        const T* src = base + (p + r) * rs;
        for (index_t kk = 0; kk < kn; ++kk)
          dst[kk * kMicroMR + r] = alpha * src[kk];
      }
    } else {
      for (index_t r = 0; r < mr; ++r) {
        const T* src = base + (p + r) * rs;
        for (index_t kk = 0; kk < kn; ++kk)
          dst[kk * kMicroMR + r] = alpha * src[kk * cs];
      }
    }
    if (mr < kMicroMR)
      for (index_t kk = 0; kk < kn; ++kk)
        for (index_t r = mr; r < kMicroMR; ++r) dst[kk * kMicroMR + r] = T(0);
  }
}

/// Packs B(k0:k0+kn, j0:j0+jn) into NR-column sub-panels (layout above),
/// zero-padding columns beyond jn. Reads along whichever of B's axes is
/// contiguous so the pack streams memory.
template <class T>
void pack_b(MatView<const T> b, index_t k0, index_t kn, index_t j0,
            index_t jn, T* bp) {
  const index_t rs = b.row_stride(), cs = b.col_stride();
  const T* base = b.data() + k0 * rs + j0 * cs;
  for (index_t p = 0; p < jn; p += kMicroNR) {
    const index_t nr = std::min(kMicroNR, jn - p);
    T* dst = bp + p * kn;  // sub-panel stride: kn * kMicroNR
    if (cs == 1) {
      for (index_t kk = 0; kk < kn; ++kk) {
        const T* src = base + kk * rs + p;
        index_t j = 0;
        for (; j < nr; ++j) dst[kk * kMicroNR + j] = src[j];
        for (; j < kMicroNR; ++j) dst[kk * kMicroNR + j] = T(0);
      }
    } else if (rs == 1) {
      // Column-major B: stream down each column.
      for (index_t j = 0; j < nr; ++j) {
        const T* src = base + (p + j) * cs;
        for (index_t kk = 0; kk < kn; ++kk) dst[kk * kMicroNR + j] = src[kk];
      }
      for (index_t j = nr; j < kMicroNR; ++j)
        for (index_t kk = 0; kk < kn; ++kk) dst[kk * kMicroNR + j] = T(0);
    } else {
      for (index_t j = 0; j < kMicroNR; ++j)
        for (index_t kk = 0; kk < kn; ++kk)
          dst[kk * kMicroNR + j] =
              j < nr ? base[kk * rs + (p + j) * cs] : T(0);
    }
  }
}

/// Scalar reference micro-kernel: C(r, 0:NR) += sum_kk ap[kk*MR+r] *
/// bp[kk*NR+0:NR], full MR x NR tile, ldc = row stride of C. The register
/// tile is TA; C is loaded (widened) once and stored (rounded) once per
/// call, so a gemm k-block is exactly one TA accumulation run.
template <class T, class TA = T>
void mk_tile_scalar(index_t kn, const T* ap, const T* bp, T* c, index_t ldc) {
  TA acc[kMicroMR][kMicroNR];
  for (index_t r = 0; r < kMicroMR; ++r)
    for (index_t j = 0; j < kMicroNR; ++j)
      acc[r][j] = static_cast<TA>(c[r * ldc + j]);
  for (index_t kk = 0; kk < kn; ++kk) {
    const T* av = ap + kk * kMicroMR;
    const T* bv = bp + kk * kMicroNR;
    for (index_t r = 0; r < kMicroMR; ++r)
      for (index_t j = 0; j < kMicroNR; ++j)
        acc[r][j] += static_cast<TA>(av[r]) * static_cast<TA>(bv[j]);
  }
  for (index_t r = 0; r < kMicroMR; ++r)
    for (index_t j = 0; j < kMicroNR; ++j)
      c[r * ldc + j] = static_cast<T>(acc[r][j]);
}

// ------------------------------------------------------ TTM kernels
//
// The ST-HOSVD truncation TTM multiplies every unfolding block by the same
// short-fat factor U^T (R x I_n with R << I_n). At these shapes the packed
// gemm above is bound by panel-packing traffic, not arithmetic: pack_b
// copies each X block once per k-block before the micro-kernel reads the
// copy, tripling the streamed bytes of a kernel whose arithmetic intensity
// is only ~R/4 flops per byte. The kernels below read X straight from
// the unfolding (the caller chunks columns so any re-reads across register
// row-groups stay cache-resident) and preserve the reference
// accumulation chain: every output element starts from zero and accumulates
// `c += a * b` once per k step in ascending k order, exactly as the packed
// micro-kernel does, so the engines are bitwise-interchangeable. Each has
// the same scalar reference / per-level pair as the tile.

/// Largest factor-row count R routed to the packing-free TTM kernels; above
/// it the output slab no longer stays cache-resident and the packed gemm
/// path wins. Also bounds the mode-0 kernel's stack accumulator.
inline constexpr index_t kTtmAxpyMaxR = 64;

/// Packing-free TTM kernel for modes n > 0. Computes columns [j0, j1) of
/// C = A * B from scratch, with A (m x k) contiguous row-major (the staged
/// factor, cache-resident), B (k x n) row-major with leading dimension ldb
/// (the streamed unfolding block) and C row-major with leading dimension
/// ldc. The scalar variant zero-fills its C range and accumulates row
/// updates; its per-element chain -- start from zero, one `c += a * b` per
/// k step in ascending k order -- is exactly the chain of the register-tile
/// and streaming walks and of the packed gemm, so all are interchangeable
/// bit for bit.
/// The output slab C is typed on the accumulator TA: natively that is the
/// destination itself; under wide accumulation the caller hands a TA
/// scratch slab and rounds it to storage once at the end (ttm.hpp), so
/// every element still sees a single full-k TA chain and the walks
/// stay bitwise-interchangeable.
template <class T, class TA>
void ttm_cols_scalar(index_t m, index_t k, const T* a, const T* b,
                     index_t ldb, TA* c, index_t ldc, index_t j0, index_t j1) {
  for (index_t r = 0; r < m; ++r)
    for (index_t j = j0; j < j1; ++j) c[r * ldc + j] = TA(0);
  for (index_t kk = 0; kk < k; ++kk) {
    const T* bv = b + kk * ldb;
    for (index_t r = 0; r < m; ++r) {
      const TA av = static_cast<TA>(a[r * k + kk]);
      TA* cv = c + r * ldc;
      for (index_t j = j0; j < j1; ++j)
        cv[j] += av * static_cast<TA>(bv[j]);
    }
  }
}

/// Mode-0 TTM kernel: for each column c in [c0, c1) of the column-major
/// mode-0 unfolding (columns are contiguous I_0-fibers), computes the
/// length-r output fiber y_c = U x_c with a register/stack accumulator.
/// `ut` is U^T staged contiguously as k x ldut row-major (ldut >= r,
/// zero-padded columns beyond r), so both operands stream unit-stride --
/// this replaces the strided `.t()` gemm views of the reference path.
/// Requires r <= kTtmAxpyMaxR.
template <class T, class TA = T>
void ttm_mode0_scalar(index_t k, index_t r, const T* ut, index_t ldut,
                      const T* x, T* y, index_t c0, index_t c1) {
  TA acc[kTtmAxpyMaxR];
  for (index_t c = c0; c < c1; ++c) {
    const T* xc = x + c * k;
    for (index_t q = 0; q < r; ++q) acc[q] = TA(0);
    for (index_t kk = 0; kk < k; ++kk) {
      const TA xv = static_cast<TA>(xc[kk]);
      const T* uv = ut + kk * ldut;
      for (index_t q = 0; q < r; ++q) acc[q] += xv * static_cast<TA>(uv[q]);
    }
    T* yc = y + c * r;
    for (index_t q = 0; q < r; ++q) yc[q] = static_cast<T>(acc[q]);
  }
}

template <class T>
using TileFn = void (*)(index_t kn, const T* ap, const T* bp, T* c,
                        index_t ldc);
template <class T, class TA>
using TtmColsFn = void (*)(index_t m, index_t k, const T* a, const T* b,
                           index_t ldb, TA* c, index_t ldc, index_t j0,
                           index_t j1);
template <class T>
using TtmMode0Fn = void (*)(index_t k, index_t r, const T* ut, index_t ldut,
                            const T* x, T* y, index_t c0, index_t c1);

/// One level's kernels. `ttm_cols` is the register-tile walk over a
/// cache-resident block, `ttm_rows` the sequential row-update walk for
/// DRAM-resident blocks; the scalar oracle has one walk for both.
template <class T, class TA>
struct MicroKernels {
  TileFn<T> tile;
  TtmColsFn<T, TA> ttm_cols;
  TtmColsFn<T, TA> ttm_rows;
  TtmMode0Fn<T> ttm_mode0;
};

}  // namespace tucker::blas::detail

// ------------------------------------------------------ per-level kernels

#if TUCKER_HAVE_VEC_EXT

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")
#endif

namespace tucker::blas::detail::isa_baseline {
inline constexpr index_t kVecBytes = 16;
inline constexpr int kVecRegs = 16;
#include "blas/microkernel_level.inc"
}  // namespace tucker::blas::detail::isa_baseline

#if TUCKER_ISA_LEVELS
#pragma GCC push_options
#pragma GCC target("avx2")
namespace tucker::blas::detail::isa_avx2 {
inline constexpr index_t kVecBytes = 32;
inline constexpr int kVecRegs = 16;
#include "blas/microkernel_level.inc"
}  // namespace tucker::blas::detail::isa_avx2
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx512vl,avx512dq,avx512bw")
namespace tucker::blas::detail::isa_avx512 {
inline constexpr index_t kVecBytes = 64;
inline constexpr int kVecRegs = 32;
#include "blas/microkernel_level.inc"
}  // namespace tucker::blas::detail::isa_avx512
#pragma GCC pop_options

#endif  // TUCKER_ISA_LEVELS

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC pop_options
#endif

#endif  // TUCKER_HAVE_VEC_EXT

namespace tucker::blas::detail {

/// The kernels of level `v` (the tables are data, so no code of a level
/// runs before the level is chosen).
template <class T, class TA = T>
MicroKernels<T, TA> micro_kernels(KernelVariant v = kernel_variant()) {
  switch (v) {
    case KernelVariant::kScalar:
      break;
#if TUCKER_ISA_LEVELS
    case KernelVariant::kAvx512:
      return isa_avx512::kKernels<T, TA>;
    case KernelVariant::kAvx2:
      return isa_avx2::kKernels<T, TA>;
#endif
    default:
#if TUCKER_HAVE_VEC_EXT
      return isa_baseline::kKernels<T, TA>;
#else
      break;
#endif
  }
  return {&mk_tile_scalar<T, TA>, &ttm_cols_scalar<T, TA>,
          &ttm_cols_scalar<T, TA>, &ttm_mode0_scalar<T, TA>};
}

/// Edge tile (mr < MR and/or nr < NR): runs the full kernel into a local
/// MR x NR buffer seeded from the live C entries, then stores back only the
/// live region. Padded A rows / B columns are zero, so the live elements
/// see exactly the same accumulation chain as in a full tile.
template <class T>
void mk_tile_edge(TileFn<T> tile, index_t kn, const T* ap, const T* bp, T* c,
                  index_t ldc, index_t mr, index_t nr) {
  T ctmp[kMicroMR * kMicroNR];
  for (index_t r = 0; r < kMicroMR; ++r)
    for (index_t j = 0; j < kMicroNR; ++j)
      ctmp[r * kMicroNR + j] = (r < mr && j < nr) ? c[r * ldc + j] : T(0);
  tile(kn, ap, bp, ctmp, kMicroNR);
  for (index_t r = 0; r < mr; ++r)
    for (index_t j = 0; j < nr; ++j) c[r * ldc + j] = ctmp[r * kMicroNR + j];
}

}  // namespace tucker::blas::detail
