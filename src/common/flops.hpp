#pragma once
// Thread-local floating-point-operation accounting.
//
// The BLAS/LAPACK kernels credit their nominal flop counts here so the
// benchmark harness can report GFLOPS-per-rank figures (paper Fig 3a) and
// verify the ~2x QR-vs-Gram flop ratio from the complexity analysis in
// Sec 3.5 without instrumenting every loop.
//
// Interaction with tucker::parallel: counters are strictly per-thread, but
// parallel_for measures each pool worker's delta around the chunks it
// executes and credits the sum to the submitting thread before returning.
// Counts recorded inside a parallel kernel therefore land on the logical
// owner (FlopScope, simmpi rank totals) exactly as in a serial run.

#include <cstdint>

namespace tucker {

/// Add `n` to the calling thread's flop counter.
void add_flops(std::int64_t n);

/// Flops recorded by the calling thread since the last reset.
std::int64_t thread_flops();

/// Zero the calling thread's flop counter.
void reset_thread_flops();

/// Add `n` bytes to the calling thread's memory-traffic counter. Level-3
/// kernels credit their *minimum* traffic (each operand streamed once at
/// its storage width, C read+written once); cache re-reads are not
/// modeled. Kept separate from the flop counter: the bytes per flop depend
/// on the storage width, which the flop count does not see.
void add_traffic(std::int64_t n);

/// Traffic bytes recorded by the calling thread since the last reset.
std::int64_t thread_traffic();

/// Zero the calling thread's traffic counter.
void reset_thread_traffic();

/// RAII scope that reports the flops (and traffic bytes) accumulated
/// during its lifetime.
class FlopScope {
 public:
  FlopScope();
  /// Flops recorded by this thread since the scope was opened.
  std::int64_t flops() const;
  /// Traffic bytes recorded by this thread since the scope was opened.
  std::int64_t traffic() const;

 private:
  std::int64_t start_;
  std::int64_t traffic_start_;
};

/// Nominal flop counts of the SVD-engine kernels on an m x cols unfolding,
/// mirroring the per-kernel add_flops credits exactly. These are what the
/// benches print as the modeled cost and what tests assert the measured
/// counters against; keeping them next to the counter API means a kernel
/// change and its model change land in one place.
namespace flops {

/// gemm sketch S = X_(n) * Omega with a width-w test matrix.
inline std::int64_t gaussian_sketch(std::int64_t m, std::int64_t cols,
                                    std::int64_t w) {
  return 2 * m * cols * w;
}

/// One power-iteration multiply X X^T W (two streamed gemms).
inline std::int64_t power_iteration(std::int64_t m, std::int64_t cols,
                                    std::int64_t w) {
  return 4 * m * cols * w;
}

/// B = Q^T X_(n) followed by the w x w syrk of each panel
/// (projected_gram): 2*m*cols*w for B plus w*(w+1)*cols for the Gram.
inline std::int64_t projected_gram(std::int64_t m, std::int64_t cols,
                                   std::int64_t w) {
  return 2 * m * cols * w + w * (w + 1) * cols;
}

/// Dense QR-SVD of the unfolding (LQ of the m x cols short-fat matrix).
inline std::int64_t qr_svd_unfolding(std::int64_t m, std::int64_t cols) {
  return 2 * m * m * cols;
}

/// Gram matrix of the unfolding (syrk credit, triangle only).
inline std::int64_t gram_unfolding(std::int64_t m, std::int64_t cols) {
  return m * (m + 1) * cols;
}

// Byte models with *explicit* word sizes, so call sites stop hardcoding
// sizeof(T) and mixed-width ops (fp32 words under fp64 flops) price each
// operand at its own width.

/// Minimum traffic of gemm C = A*B (+C): every operand streamed once.
inline std::int64_t gemm_bytes(std::int64_t m, std::int64_t n, std::int64_t k,
                               std::int64_t word) {
  return word * (m * k + k * n + 2 * m * n);
}

/// Minimum traffic of syrk C = A*A^T: A once, C read+written.
inline std::int64_t syrk_bytes(std::int64_t m, std::int64_t n,
                               std::int64_t word) {
  return word * (m * n + 2 * m * m);
}

/// Sketch S = X_(n) * Omega traffic: the unfolding, S and the width-w test
/// matrix all move at the tensor's word size. With the counter-based
/// generator Omega is never actually materialized -- this is the traffic
/// of the equivalent streamed gemm, which is what the roofline columns and
/// the simmpi word model price.
inline std::int64_t sketch_bytes(std::int64_t m, std::int64_t cols,
                                 std::int64_t w, std::int64_t word) {
  return word * (m * cols + 2 * m * w + cols * w);
}

/// Minimum traffic of a batched-serving response scatter: the fused result
/// read once, the duplicate (or gathered-region) response written once.
/// This is the *marginal* byte price of a request whose bits are produced
/// by another request's chain -- the flop price of such a request is zero,
/// which is exactly what the batch planner re-credits to admission when it
/// fuses (src/serve/batch.hpp).
inline std::int64_t scatter_bytes(std::int64_t elems, std::int64_t word) {
  return 2 * word * elems;
}

}  // namespace flops

}  // namespace tucker
