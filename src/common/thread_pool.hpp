#pragma once
// tucker::parallel -- shared-memory threading layer beneath the kernels.
//
// A single lazily-initialized persistent worker pool serves the whole
// process. Kernels express parallelism through parallel_for over an index
// range with *static deterministic chunking*: chunk boundaries are a pure
// function of (begin, end, grain) and never of the thread count, so a
// kernel whose chunks write disjoint state and preserve per-element
// accumulation order produces bitwise-identical results for every value of
// TUCKER_NUM_THREADS (including 1). That guarantee is what lets the
// ST-HOSVD tests compare outputs across thread counts with memcmp.
//
// Sizing: TUCKER_NUM_THREADS environment variable, defaulting to
// std::thread::hardware_concurrency(). set_max_threads() reconfigures the
// pool at runtime (used by tests and benchmarks to sweep thread counts).
//
// Nesting and oversubscription: pool workers and simmpi rank threads carry
// a thread-local width cap. A parallel_for issued from a capped thread (a
// nested kernel, or a rank thread of a P-rank simulation on a machine with
// fewer than P x width cores) runs its chunks inline on the calling thread
// instead of fanning out, so ranks x threads never exceeds the pool width.
// simmpi's Runtime::run installs a cap of max(1, max_threads()/nprocs) on
// every rank thread (see runtime.cpp).
//
// Flop accounting: the per-thread counters of common/flops.hpp would
// silently drop work executed on pool workers. parallel_for measures each
// worker's counter delta around its chunks and credits the sum back to the
// submitting thread, so FlopScope and the simmpi per-rank flop totals see
// exactly the same numbers as a serial run.

#include <cstddef>
#include <functional>

namespace tucker::parallel {

using index_t = std::ptrdiff_t;

/// Minimum flop count before a kernel fans out to the pool: below it the
/// per-chunk dispatch overhead beats the parallel win, and the serial path
/// stays allocation-free. gemm, TTM and the LQ kernels gate on it; syrk
/// sizes its bands from its own per-band flop figure instead.
inline constexpr double kMinFanoutFlops = 1e5;

/// Configured pool width (worker threads + the submitting thread). Reads
/// TUCKER_NUM_THREADS on first use; defaults to hardware_concurrency().
int max_threads();

/// Reconfigures the pool width (>= 1): joins the existing workers and
/// respawns. Must not be called concurrently with a running parallel_for.
void set_max_threads(int n);

/// Effective width for the calling thread: max_threads() clamped by any
/// ThreadWidthCap in scope, and 1 on pool worker threads (no nested fanout).
int this_thread_width();

/// RAII thread-local width cap. simmpi rank threads use it so that local
/// kernels never oversubscribe the machine (ranks x threads <= pool width).
class ThreadWidthCap {
 public:
  explicit ThreadWidthCap(int cap);
  ~ThreadWidthCap();
  ThreadWidthCap(const ThreadWidthCap&) = delete;
  ThreadWidthCap& operator=(const ThreadWidthCap&) = delete;

 private:
  int prev_;
};

/// Number of chunks parallel_for will use for this (begin, end, grain):
/// ceil((end - begin) / max(1, grain)), and 0 for an empty range. Depends
/// only on the arguments -- never on the thread count.
index_t num_chunks(index_t begin, index_t end, index_t grain);

/// Runs fn(lo, hi) over disjoint subranges that exactly tile [begin, end).
/// Chunk boundaries are deterministic (see num_chunks); chunks may execute
/// on any thread in any order, so fn must only write state disjoint per
/// subrange. The first exception thrown by fn is rethrown on the caller
/// after all claimed chunks finish. Flops recorded by fn on worker threads
/// are credited to the calling thread's counter. The fanout itself makes no
/// heap allocation (the pool reuses its records), so a call whose lambda
/// fits std::function's small buffer (one or two captured pointers) is
/// allocation-free.
void parallel_for(index_t begin, index_t end, index_t grain,
                  const std::function<void(index_t, index_t)>& fn);

/// As parallel_for, additionally passing the chunk index (0-based, in
/// deterministic range order). Used for indexed partial reductions that are
/// afterwards combined serially in chunk order, which keeps floating-point
/// reductions bitwise independent of the thread count.
void parallel_for_chunks(
    index_t begin, index_t end, index_t grain,
    const std::function<void(index_t chunk, index_t lo, index_t hi)>& fn);

}  // namespace tucker::parallel
