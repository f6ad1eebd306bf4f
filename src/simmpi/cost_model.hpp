#pragma once
// Communication cost model for the simulated MPI runtime.
//
// The paper analyzes algorithms in the alpha-beta-gamma model (Sec 2.1):
// a message of w words costs alpha + beta*w, and flops cost gamma each.
// Our runtime executes real computation (gamma is *measured* per thread via
// CLOCK_THREAD_CPUTIME_ID) and charges modeled alpha/beta costs for every
// message actually sent, so simulated parallel time = measured local compute
// on the critical path + modeled communication. Beta is per *byte*, so
// running in single precision halves bandwidth cost exactly as on real
// hardware.

#include <cstdint>

namespace tucker::mpi {

struct CostModel {
  /// Per-message latency, seconds. Default ~ a commodity cluster interconnect.
  double alpha = 2e-6;
  /// Per-byte transfer cost, seconds (default 1/(10 GB/s)).
  double beta = 1e-10;
  /// Modeled flop rate, flops/second, used only where a *deterministic*
  /// compute estimate is needed (the mode-parallel finalize scheduler ranks
  /// modes by modeled readiness; measured CPU time would make the schedule
  /// nondeterministic and break bitwise reproducibility). Default ~ one
  /// core's sustained dgemm rate; only relative magnitudes matter.
  double flop_rate = 5e9;
  /// Deadlock watchdog: abort with a per-rank stuck-op report when every
  /// rank has been blocked in a receive/wait with no matching message for
  /// this many wall-clock seconds. <= 0 disables the watchdog.
  double watchdog_seconds = 60;

  double message_cost(std::int64_t bytes) const {
    return alpha + beta * static_cast<double>(bytes);
  }

  /// Modeled compute cost of `flops` floating-point operations.
  /// `fp32_native` doubles the modeled rate: fp32 storage with fp32 (or
  /// fp64-register) accumulation moves half the bytes and packs twice the
  /// lanes per SIMD op, which is the same 2x the beta term already grants
  /// single-precision messages. Wide *memory* accumulation is charged at
  /// the fp64 rate by passing fp32_native = false.
  double flop_cost(std::int64_t flops, bool fp32_native = false) const {
    const double rate = fp32_native ? 2.0 * flop_rate : flop_rate;
    return static_cast<double>(flops) / rate;
  }

  /// Modeled cost of the runtime's allreduce (binomial reduce + binomial
  /// broadcast, see Comm::allreduce_bytes): 2*ceil(log2 p) rounds, the full
  /// buffer per round. Used by benches to print modeled communication
  /// tables next to measured breakdowns.
  double allreduce_cost(int p, std::int64_t bytes) const {
    if (p <= 1) return 0;
    int rounds = 0;
    for (int m = 1; m < p; m <<= 1) ++rounds;
    return 2.0 * rounds * message_cost(bytes);
  }

  /// Message rounds of the butterfly TSQR reduction over p ranks: log2 of
  /// the power-of-two subset, plus the fold/unfold pair when p is not a
  /// power of two (see dist::detail::butterfly_qr_reduce).
  static int tsqr_rounds(int p) {
    int pof2 = 1, rounds = 0;
    while (pof2 * 2 <= p) {
      pof2 *= 2;
      ++rounds;
    }
    return rounds + (p > pof2 ? 2 : 0);
  }

  /// Words per TSQR message: one packed w x w triangle.
  static std::int64_t tsqr_triangle_words(std::int64_t w) {
    return w * (w + 1) / 2;
  }

  /// Words each rank contributes to the sketch's slice allreduce: its
  /// m_loc-row slab of the w_new new sketch columns.
  static std::int64_t sketch_slice_words(std::int64_t m_loc,
                                         std::int64_t w_new) {
    return m_loc * w_new;
  }

  /// Words each rank contributes to the TTM truncation reduce-scatter over
  /// the mode-n fiber: its full R-row partial product over its local
  /// columns (see dist::par_ttm_truncate_into).
  static std::int64_t ttm_partial_words(std::int64_t r,
                                        std::int64_t local_cols) {
    return r * local_cols;
  }

  /// Modeled cost of the runtime's ring reduce-scatter
  /// (Comm::reduce_scatter_bytes): p-1 rounds, each moving one ~1/p block
  /// of the buffer. This is the per-mode TTM communication credit the
  /// scaling benches print next to the measured breakdown.
  double reduce_scatter_cost(int p, std::int64_t total_bytes) const {
    if (p <= 1) return 0;
    return (p - 1) * message_cost(total_bytes / p);
  }
};

}  // namespace tucker::mpi
