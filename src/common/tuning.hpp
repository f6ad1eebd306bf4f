#pragma once
// Runtime-tunable kernel parameters.
//
// The cache-blocking widths of the level-3 kernels and the fan-out flop
// threshold of the parallel layer used to be compile-time constants; tuning
// sweeps (bench/fig2_tuning, ad-hoc roofline runs) had to recompile per
// point. Each knob now reads an environment variable once on first use and
// caches the value for the life of the process, so a sweep is just a loop
// over `TUCKER_GEMM_JB=... ./bench`. None of these affect results: blocking
// only changes when partial sums are spilled to memory, never the
// per-element accumulation order, so every setting is bitwise-identical
// (see DESIGN.md Sec 8).

#include <cstddef>
#include <cstdlib>

namespace tucker::tune {

using index_t = std::ptrdiff_t;

namespace detail {

inline index_t env_index(const char* name, index_t fallback, index_t lo,
                         index_t hi) {
  if (const char* s = std::getenv(name)) {
    const long v = std::atol(s);
    if (v >= lo && v <= hi) return static_cast<index_t>(v);
  }
  return fallback;
}

inline double env_double(const char* name, double fallback) {
  if (const char* s = std::getenv(name)) {
    char* end = nullptr;
    const double v = std::strtod(s, &end);
    if (end != s && v >= 0) return v;
  }
  return fallback;
}

}  // namespace detail

/// gemm j-blocking (TUCKER_GEMM_JB): width of the C/B column panel kept
/// resident while streaming A.
inline index_t gemm_jb() {
  static const index_t v = detail::env_index("TUCKER_GEMM_JB", 512, 8, 1 << 20);
  return v;
}

/// gemm k-blocking (TUCKER_GEMM_KB): depth of the packed A/B tiles; bounds
/// the working set reused across the i loop. 256 doubles x (MR + NR) lanes
/// stays comfortably inside L1 while amortizing the per-tile C load/store
/// over a long fused k loop (a 64-deep k loop left ~30% on the table).
inline index_t gemm_kb() {
  static const index_t v =
      detail::env_index("TUCKER_GEMM_KB", 256, 4, 1 << 20);
  return v;
}

/// gemm i-blocking (TUCKER_GEMM_MC): rows of A packed per block; keeps the
/// packed A panel (mc x kb) inside L2.
inline index_t gemm_mc() {
  static const index_t v = detail::env_index("TUCKER_GEMM_MC", 256, 8, 1 << 20);
  return v;
}

/// Minimum flop count before a kernel fans out to the thread pool
/// (TUCKER_PAR_FLOP_THRESHOLD): below it the per-chunk dispatch overhead
/// beats the parallel win.
inline double par_flop_threshold() {
  static const double v = detail::env_double("TUCKER_PAR_FLOP_THRESHOLD", 1e5);
  return v;
}

/// Slab budget of the out-of-core streaming drivers in bytes
/// (TUCKER_STREAM_CHUNK_MB, default 256 MiB). stream_sthosvd sizes its
/// slabs so one slab's payload fits the budget; the in-memory kStream
/// engine chunks unfoldings by the same figure. Unlike the blocking knobs
/// above this one *does* change results (it moves the merge-tree cut
/// points), but only within the QR-SVD accuracy rung -- see DESIGN.md
/// Sec 11. Tests and benches pass explicit byte budgets instead.
inline std::size_t stream_chunk_bytes() {
  static const std::size_t v =
      static_cast<std::size_t>(
          detail::env_index("TUCKER_STREAM_CHUNK_MB", 256, 1, 1 << 20))
      << 20;
  return v;
}

/// Default accumulator width (TUCKER_ACCUM): 0/unset = native (accumulate
/// at storage precision), 1 = wide (fp32 storage, fp64 register tiles; a
/// no-op for double storage). SthosvdOptions reads this once as its
/// default; explicit option fields always win. Unlike the blocking knobs
/// this one *does* change results -- it moves the accuracy rung (DESIGN.md
/// Sec 13) -- but each setting stays bitwise-deterministic across thread
/// widths and grids.
inline bool accum_wide_default() {
  static const bool v = detail::env_index("TUCKER_ACCUM", 0, 0, 1) != 0;
  return v;
}

/// Default for the overlapped distributed driver path (TUCKER_OVERLAP,
/// 0/1). With the default mode window of 1 the overlapped schedule is
/// bitwise-identical to the blocking one -- only the virtual-clock credit
/// changes (see DESIGN.md Sec 12) -- so this knob never changes results by
/// itself.
inline bool overlap_default() {
  static const bool v = detail::env_index("TUCKER_OVERLAP", 0, 0, 1) != 0;
  return v;
}

/// Serving worker count (TUCKER_SERVE_WORKERS, default 0 = one worker per
/// hardware thread). Workers are plain threads layered on the tucker pool;
/// each runs width-capped to max_threads()/workers so the pool is never
/// oversubscribed, and each owns its thread-local Workspace arena. Worker
/// count never changes response bits (see src/serve/service.hpp).
inline index_t serve_workers() {
  static const index_t v = detail::env_index("TUCKER_SERVE_WORKERS", 0, 0, 4096);
  return v;
}

/// Depth of the serving layer's bounded request queue
/// (TUCKER_SERVE_QUEUE_DEPTH, default 64): requests beyond it are shed at
/// submission instead of growing an unbounded backlog.
inline index_t serve_queue_depth() {
  static const index_t v =
      detail::env_index("TUCKER_SERVE_QUEUE_DEPTH", 64, 1, 1 << 20);
  return v;
}

/// Admission budget in modeled flops (TUCKER_SERVE_FLOP_BUDGET, default
/// 0 = unlimited): the service sheds any request whose modeled cost would
/// push the total modeled flops in flight (queued + executing) past the
/// budget. Priced by the same ledgers the kernels credit (common/flops.hpp
/// and core::modeled_sthosvd_flops), so the budget and the measured
/// counters speak the same unit.
inline double serve_flop_budget() {
  static const double v = detail::env_double("TUCKER_SERVE_FLOP_BUDGET", 0.0);
  return v;
}

/// Largest fused batch the serving scheduler builds (TUCKER_SERVE_BATCH_MAX,
/// default 8): a worker pops up to this many queued reconstructions of the
/// same (model, accum) fusion key as one job for the multi-RHS TTM path.
/// 1 disables cross-request batching (every request executes alone, the
/// pre-batching behavior). Batch composition never changes response bits
/// (see src/serve/batch.hpp); ServeOptions::batch_max overrides per service.
inline index_t serve_batch_max() {
  static const index_t v =
      detail::env_index("TUCKER_SERVE_BATCH_MAX", 8, 1, 4096);
  return v;
}

/// How long a worker holding a partial batch lingers for more same-key
/// arrivals, in microseconds (TUCKER_SERVE_BATCH_WAIT_US, default 0 = take
/// only what is already queued). A nonzero window trades p50 latency for
/// fuller batches under bursty arrivals; it never changes response bits.
inline index_t serve_batch_wait_us() {
  static const index_t v =
      detail::env_index("TUCKER_SERVE_BATCH_WAIT_US", 0, 0, 1 << 30);
  return v;
}

/// LRU capacity of the serving model cache in models
/// (TUCKER_SERVE_CACHE_MODELS, default 0 = unbounded): beyond it the
/// least-recently-served model is evicted -- its prepacked panels freed --
/// so a long-lived service with tenant churn stops accumulating pack bytes.
/// Requests naming an evicted id are refused at submit (the tenant
/// re-registers). ServeOptions::cache_models overrides per service.
inline index_t serve_cache_models() {
  static const index_t v =
      detail::env_index("TUCKER_SERVE_CACHE_MODELS", 0, 0, 1 << 20);
  return v;
}

/// Mode window of the overlapped randomized driver (TUCKER_MODE_WINDOW):
/// how many modes sketch concurrently from the same window-source tensor.
/// 1 reproduces sequential ST-HOSVD bitwise; >1 is the mode-parallel
/// variant (Minster/Li/Ballard), which truncates later window members
/// against a not-yet-truncated source -- deterministic, but a different
/// (HOSVD-flavored) algorithm with its own accuracy contract.
inline index_t mode_window_default() {
  static const index_t v = detail::env_index("TUCKER_MODE_WINDOW", 1, 1, 64);
  return v;
}

}  // namespace tucker::tune
